//! Projecting a foreign-key column. A hidden fk column stores each id in
//! its referenced table's `id_width(|child|)` bytes and reads it back as an
//! unsigned id, never through the sign-extending `Value::decode`. Here
//! |C| = 40 000, so `P.c` cells are 2 bytes and many ids are ≥ 32 768,
//! whose top bit is set. Every strategy × projection algorithm must return
//! what the `reference` oracle returns.

use ghostdb_exec::database::{ColumnLoad, TableLoad};
use ghostdb_exec::project::ProjectAlgo;
use ghostdb_exec::strategy::VisStrategy;
use ghostdb_exec::{Database, ExecError, ExecOptions, Executor, SpjQuery};
use ghostdb_reference::{RefDb, RefQuery, RefTable};
use ghostdb_storage::row::RowLayout;
use ghostdb_storage::{
    CmpOp, Column, ColumnType, Id, Predicate, SchemaTree, TableDef, TableId, Value,
};
use ghostdb_token::TokenConfig;
use std::collections::HashMap;

/// A query's predicates and projections.
type Query<'a> = (Vec<(TableId, Predicate)>, Vec<(TableId, &'a str)>);

const PARENT_ROWS: u64 = 3_000;
const CHILD_ROWS: u64 = 40_000;

/// `P(v VISIBLE, h HIDDEN indexed, c → C)`, `C(w HIDDEN indexed)`, and the
/// same data for the oracle.
fn databases() -> (Database, RefDb) {
    let schema = SchemaTree::new(vec![
        TableDef::new("P")
            .with_column(Column::visible("v", ColumnType::int()))
            .with_column(Column::hidden("h", ColumnType::int()))
            .with_fk("c", "C"),
        TableDef::new("C").with_column(Column::hidden("w", ColumnType::int())),
    ])
    .unwrap();
    let fk: Vec<Id> = (0..PARENT_ROWS)
        .map(|r| (r * 7_919 % CHILD_ROWS) as Id)
        .collect();
    let v = |r: Id| Value::Int(i64::from(r % 100));
    let h = |r: Id| Value::Int(i64::from(r % 10));
    let w = |r: Id| Value::Int(i64::from(r % 4));
    let column = |name: &str, gen: fn(Id) -> Value, index| ColumnLoad {
        name: name.into(),
        gen: Box::new(gen),
        index,
    };
    let loads = vec![
        TableLoad {
            table: "P".into(),
            rows: PARENT_ROWS,
            fks: vec![("c".into(), fk.clone())],
            columns: vec![column("v", v, false), column("h", h, true)],
        },
        TableLoad {
            table: "C".into(),
            rows: CHILD_ROWS,
            fks: vec![],
            columns: vec![column("w", w, true)],
        },
    ];
    let db = Database::assemble(
        schema.clone(),
        &TokenConfig::paper_platform(32 * 1024 * 1024),
        loads,
    )
    .unwrap();
    let values = |rows: u64, gen: fn(Id) -> Value| (0..rows as Id).map(gen).collect();
    let p = RefTable {
        rows: PARENT_ROWS,
        fks: HashMap::from([("c".to_string(), fk)]),
        columns: HashMap::from([
            ("v".to_string(), values(PARENT_ROWS, v)),
            ("h".to_string(), values(PARENT_ROWS, h)),
        ]),
    };
    let c = RefTable {
        rows: CHILD_ROWS,
        fks: HashMap::new(),
        columns: HashMap::from([("w".to_string(), values(CHILD_ROWS, w))]),
    };
    let mut tables = vec![RefTable::default(); 2];
    tables[schema.table_id("P").unwrap()] = p;
    tables[schema.table_id("C").unwrap()] = c;
    (db, RefDb { schema, tables })
}

#[test]
fn a_two_byte_fk_column_projects_unsigned_ids() {
    let (mut db, oracle) = databases();
    let p = db.schema.table_id("P").unwrap();
    let c = db.schema.table_id("C").unwrap();
    let fk = db.hidden[p].column("c").unwrap();
    assert_eq!(fk.width(), 2, "|C| = {CHILD_ROWS} takes 2-byte cells");
    let lt = |column: &str, k: i64| Predicate::new(column, CmpOp::Lt, Value::Int(k), None);
    let queries: [Query<'_>; 3] = [
        // Every parent row: every fk id, the largest 39 997.
        (vec![], vec![(p, "id"), (p, "c"), (c, "id")]),
        // A visible selection on the parent, a hidden one on the child.
        (
            vec![(p, lt("v", 30)), (c, lt("w", 2))],
            vec![(p, "id"), (p, "c"), (c, "w")],
        ),
        // A hidden selection on the parent's own indexed column.
        (vec![(p, lt("h", 3))], vec![(p, "c"), (p, "v")]),
    ];
    for (preds, projections) in &queries {
        let mut q = SpjQuery::new();
        for (t, pred) in preds {
            q = q.pred(*t, pred.clone());
        }
        for (t, column) in projections {
            q = q.project(*t, column);
        }
        q.text = format!("{preds:?} {projections:?}");
        let expect = oracle
            .run(&RefQuery {
                predicates: preds.clone(),
                projections: projections
                    .iter()
                    .map(|(t, c)| (*t, c.to_string()))
                    .collect(),
            })
            .unwrap();
        let at = projections.iter().position(|(_, c)| *c == "c").unwrap();
        assert!(
            expect
                .iter()
                .any(|row| matches!(row[at], Value::Int(id) if id >= 32_768)),
            "{}: no fk id with its top bit set",
            q.text
        );
        let strategies = [
            VisStrategy::Pre,
            VisStrategy::Post,
            VisStrategy::PostSelect,
            VisStrategy::NoFilter,
        ];
        for strategy in strategies {
            for algo in [
                ProjectAlgo::Project,
                ProjectAlgo::ProjectNoBf,
                ProjectAlgo::BruteForce,
            ] {
                let opts = ExecOptions {
                    forced_strategy: Some(strategy),
                    project: Some(algo),
                    ..Default::default()
                };
                let label = format!("{} × {}: {}", strategy.name(), algo.name(), q.text);
                match Executor::run(&mut db, &q, &opts) {
                    Ok((rs, _)) => assert_eq!(rs.rows, expect, "{label}"),
                    Err(ExecError::StrategyNotApplicable(_)) => {}
                    Err(e) => panic!("{label}: {e}"),
                }
            }
        }
    }
}

const ROOT_ROWS: u64 = 3_000;
const MID_ROWS: u64 = 1_000;

/// `R → M(c → C) → C(w HIDDEN indexed)`: `M.c` is a foreign key of a
/// non-root table, so projecting it goes through M's MJoin runs.
fn chain() -> (Database, RefDb) {
    let schema = SchemaTree::new(vec![
        TableDef::new("R").with_fk("m", "M"),
        TableDef::new("M").with_fk("c", "C"),
        TableDef::new("C").with_column(Column::hidden("w", ColumnType::int())),
    ])
    .unwrap();
    let m: Vec<Id> = (0..ROOT_ROWS).map(|r| (r * 7 % MID_ROWS) as Id).collect();
    let c: Vec<Id> = (0..MID_ROWS)
        .map(|r| (r * 7_919 % CHILD_ROWS) as Id)
        .collect();
    let w = |r: Id| Value::Int(i64::from(r % 4));
    let loads = vec![
        TableLoad {
            table: "R".into(),
            rows: ROOT_ROWS,
            fks: vec![("m".into(), m.clone())],
            columns: vec![],
        },
        TableLoad {
            table: "M".into(),
            rows: MID_ROWS,
            fks: vec![("c".into(), c.clone())],
            columns: vec![],
        },
        TableLoad {
            table: "C".into(),
            rows: CHILD_ROWS,
            fks: vec![],
            columns: vec![ColumnLoad {
                name: "w".into(),
                gen: Box::new(w),
                index: true,
            }],
        },
    ];
    let db = Database::assemble(
        schema.clone(),
        &TokenConfig::paper_platform(32 * 1024 * 1024),
        loads,
    )
    .unwrap();
    let table = |rows, fks: Vec<(&str, Vec<Id>)>| RefTable {
        rows,
        fks: fks
            .into_iter()
            .map(|(n, ids)| (n.to_string(), ids))
            .collect(),
        columns: HashMap::new(),
    };
    let mut tables = vec![
        table(ROOT_ROWS, vec![("m", m)]),
        table(MID_ROWS, vec![("c", c)]),
        table(CHILD_ROWS, vec![]),
    ];
    tables[2].columns = HashMap::from([("w".to_string(), (0..CHILD_ROWS as Id).map(w).collect())]);
    let mut ordered = vec![RefTable::default(); 3];
    for (name, t) in ["R", "M", "C"].iter().zip(tables) {
        ordered[schema.table_id(name).unwrap()] = t;
    }
    (
        db,
        RefDb {
            schema,
            tables: ordered,
        },
    )
}

/// A projected fk cell travels at its stored width. Projecting `M.c`
/// instead of `M.id` adds exactly its 2-byte cell to each row of M's MJoin
/// run: M's run row is narrower than C's `<pos, id, w>`, so M's MJoin runs
/// first and writes its one pass, while C's last pass may stay resident.
/// At the declared 4 bytes the run would take twice the extra pages, or
/// tie with C's row and stay resident.
#[test]
fn a_mid_table_fk_column_is_carried_at_its_stored_width() {
    let (mut db, oracle) = chain();
    let [r, m, c] = ["R", "M", "C"].map(|n| db.schema.table_id(n).unwrap());
    assert_eq!(db.hidden[m].column("c").unwrap().width(), 2);
    let mut written = Vec::new();
    for column in ["c", "id"] {
        let q = SpjQuery::new()
            .project(r, "id")
            .project(m, column)
            .project(c, "w");
        let expect = oracle
            .run(&RefQuery {
                predicates: vec![],
                projections: q.projections.clone(),
            })
            .unwrap();
        if column == "c" {
            assert!(expect
                .iter()
                .any(|row| matches!(row[1], Value::Int(id) if id >= 32_768)));
        }
        let (rs, report) = Executor::run(&mut db, &q, &ExecOptions::default()).unwrap();
        assert_eq!(rs.rows, expect, "M.{column}");
        written.push(report.io.pages_written);
    }
    // Every root row confirms an M row: M's run holds 3 000 rows of
    // `<pos, id, c>` in 2 bytes each, against `<pos, id>`.
    let page = db.token.flash.page_size();
    let run_pages = |widths: &[usize]| RowLayout::new(widths).pages_for(ROOT_ROWS, page);
    assert_eq!(
        written[0] - written[1],
        run_pages(&[2, 2, 2]) - run_pages(&[2, 2])
    );
}

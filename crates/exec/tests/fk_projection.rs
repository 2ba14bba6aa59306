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
        exact: Some(true),
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

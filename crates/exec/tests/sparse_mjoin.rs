//! Sparse MJoin σ. A projected or re-checked table with no visible side
//! has no σVH. `Project` then either runs MJoin over the dense range
//! `0..|Ti|`, or builds σ from the table's QEPSJ id column: one sweep into
//! a Bloom filter (billed to `ProjBloom`), the dense range probed through
//! it, the survivors written to a flash temp. A flash-cost rule picks the
//! arm per table. Either arm must return exactly the oracle's rows, and
//! the `ProjBloom` bucket shows which arm ran.

use ghostdb_datagen::{pad8, SyntheticDataset, SyntheticSpec};
use ghostdb_exec::database::{ColumnLoad, TableLoad};
use ghostdb_exec::project::ProjectAlgo;
use ghostdb_exec::{Database, ExecOptions, ExecReport, Executor, OpKind, SpjQuery};
use ghostdb_reference::{RefDb, RefQuery, RefTable};
use ghostdb_storage::schema::paper_synthetic_schema;
use ghostdb_storage::{CmpOp, Id, Predicate, TableId, Value};
use ghostdb_token::TokenConfig;

/// Which σ arm a table with no visible side is expected to take.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Arm {
    /// σ built from the id column (`ProjBloom` > 0).
    Filter,
    /// MJoin over `0..|Ti|` (`ProjBloom` = 0).
    Dense,
    /// σ built from an empty id column: nothing to sweep, probe or scan,
    /// so neither `ProjBloom` nor `MJoin` costs anything.
    Empty,
}

fn query(db: &Database, preds: &[(&str, Predicate)], proj: &[(&str, &str)]) -> SpjQuery {
    let mut q = SpjQuery::new();
    for (t, p) in preds {
        q = q.pred(db.schema.table_id(t).unwrap(), p.clone());
    }
    for (t, c) in proj {
        q = q.project(db.schema.table_id(t).unwrap(), c);
    }
    q.text = format!("{:?} {:?}", q.predicates, q.projections);
    q
}

fn oracle_rows(oracle: &RefDb, q: &SpjQuery) -> Vec<Vec<Value>> {
    oracle
        .run(&RefQuery {
            predicates: q.predicates.clone(),
            projections: q.projections.clone(),
        })
        .expect("oracle")
}

fn run(db: &mut Database, q: &SpjQuery, opts: &ExecOptions) -> (Vec<Vec<Value>>, ExecReport) {
    let (rs, report) = Executor::run(db, q, opts).expect("query runs");
    assert!(report.peak_ram_buffers <= db.token.ram.capacity());
    (rs.rows, report)
}

/// Run `q` under `Project`, `Project-NoBF` and `Brute-Force`: every result
/// must equal the oracle's, and the `Project` report must show `arm`.
fn check(db: &mut Database, oracle: &RefDb, q: &SpjQuery, arm: Arm) -> ExecReport {
    let expect = oracle_rows(oracle, q);
    let (rows, report) = run(db, q, &ExecOptions::new());
    assert_eq!(rows, expect, "Project diverges from the oracle: {}", q.text);
    for algo in [ProjectAlgo::ProjectNoBf, ProjectAlgo::BruteForce] {
        let (rows, _) = run(db, q, &ExecOptions::new().project(algo));
        assert_eq!(rows, expect, "{} diverges: {}", algo.name(), q.text);
    }
    let bloom = report.op(OpKind::ProjBloom).as_ns();
    match arm {
        Arm::Filter => assert!(bloom > 0, "expected the filter arm: {}", q.text),
        Arm::Dense => assert_eq!(bloom, 0, "expected the dense range: {}", q.text),
        Arm::Empty => {
            assert_eq!(bloom, 0, "{}", q.text);
            assert_eq!(report.op(OpKind::MJoin).as_ns(), 0, "{}", q.text);
        }
    }
    report
}

fn between(column: &str, lo: u64, hi: u64) -> Predicate {
    Predicate::new(column, CmpOp::Between, pad8(lo), Some(pad8(hi)))
}

/// The ghostbench `sql-hidden` dataset shape at `scale`. The columns are
/// char(10), but their 8-character values fit the 8-byte index keys, so
/// no hidden predicate is re-checked ([`prefix_collisions`] is the
/// re-check case).
fn synthetic(scale: f64) -> (RefDb, Database) {
    let ds = SyntheticDataset::generate(SyntheticSpec::paper(scale));
    let db = ds.build().expect("synthetic build");
    (ds.ref_db(), db)
}

/// `h1` values of the `child` rows the fewest root rows join to (at least
/// one), fewest first: their QEPSJ id columns are the shortest a point
/// query on `child` can get.
fn rarely_joined_h1(oracle: &RefDb, fk: &str, child: &str, k: usize) -> Vec<Value> {
    let t = oracle.schema.table_id(child).unwrap();
    let root = &oracle.tables[oracle.schema.root()];
    let mut refs = vec![0u32; oracle.tables[t].rows as usize];
    for id in &root.fks[fk] {
        refs[*id as usize] += 1;
    }
    let mut ids: Vec<usize> = (0..refs.len()).filter(|i| refs[*i] > 0).collect();
    ids.sort_by_key(|i| (refs[*i], *i));
    ids.iter()
        .take(k)
        .map(|i| oracle.tables[t].columns["h1"][*i].clone())
        .collect()
}

#[test]
fn hidden_only_queries_match_the_oracle_on_either_arm() {
    // ×0.004: |T0| = 40 000, |T1| = |T2| = 4 000 (20 pages per hidden
    // column), |T12| = 400 (2 pages).
    let (oracle, mut db) = synthetic(0.004);
    let t1_points = rarely_joined_h1(&oracle, "fk1", "T1", 64);
    let t1_point = t1_points[0].clone();
    let t2_point = rarely_joined_h1(&oracle, "fk2", "T2", 1).remove(0);
    let t1_rows = oracle.tables[oracle.schema.table_id("T1").unwrap()].rows;
    let below = |column: &str, k: u64| Predicate::new(column, CmpOp::Lt, pad8(k), None);
    // The rarest T1 point whose rows survive `T12.h2 < 300` as well.
    let joint = |p: &Value| {
        vec![
            ("T1", Predicate::eq("h1", p.clone())),
            ("T12", below("h2", 300)),
        ]
    };
    let t1_joint = t1_points
        .iter()
        .find(|p| !oracle_rows(&oracle, &query(&db, &joint(p), &[("T0", "id")])).is_empty())
        .expect("a point survives the T12 range");
    type Case<'a> = (Vec<(&'a str, Predicate)>, Vec<(&'a str, &'a str)>, Arm);
    let cases: Vec<Case<'_>> = vec![
        // Point: a handful of QEPSJ rows, all one T1 id.
        (
            vec![("T1", Predicate::eq("h1", t1_point.clone()))],
            vec![("T0", "id"), ("T1", "id"), ("T1", "h2")],
            Arm::Filter,
        ),
        // One-key range on T2.
        (
            vec![(
                "T2",
                Predicate::new("h1", CmpOp::Between, t2_point.clone(), Some(t2_point)),
            )],
            vec![("T0", "id"), ("T2", "id"), ("T2", "h1")],
            Arm::Filter,
        ),
        // A range whose id column outgrows T2's column pages.
        (
            vec![("T2", between("h1", 1_000, 1_040))],
            vec![("T0", "id"), ("T2", "h1")],
            Arm::Dense,
        ),
        // Two tables: T1 projected (filter); T12's selection needs no
        // re-check, so T12 takes no part in projection.
        (
            joint(t1_joint),
            vec![("T0", "id"), ("T1", "h1")],
            Arm::Filter,
        ),
        // An id column with ≥ |T12| rows: σ could be all of T12.
        (
            vec![("T12", below("h2", 200))],
            vec![("T0", "id"), ("T12", "id"), ("T12", "h1")],
            Arm::Dense,
        ),
        // An empty id column: the key exists in no row.
        (
            vec![("T1", Predicate::eq("h1", pad8(t1_rows + 5)))],
            vec![("T0", "id"), ("T1", "h2")],
            Arm::Empty,
        ),
    ];
    for (preds, proj, arm) in cases {
        let q = query(&db, &preds, &proj);
        if arm != Arm::Empty {
            assert!(!oracle_rows(&oracle, &q).is_empty(), "{}", q.text);
        }
        check(&mut db, &oracle, &q, arm);
    }
}

/// A database whose `T1.h1` index keys collide: `h1` is the 10-character
/// `{id / 4:08}{id % 4:02}`, so four rows share each 8-byte key prefix and
/// only the re-check tells them apart.
fn prefix_collisions() -> (Database, RefDb) {
    let schema = paper_synthetic_schema(1, 2);
    let names = ["T0", "T1", "T2", "T11", "T12"];
    let rows: [u64; 5] = [8_000, 4_000, 400, 40, 40];
    let row_of = |name: &str| rows[names.iter().position(|n| *n == name).unwrap()];
    let spread = |parent: u64, child: u64| -> Vec<Id> {
        (0..parent)
            .map(|i| ((i * 7_919 + 13) % child) as Id)
            .collect()
    };
    let fks = |name: &str| -> Vec<(String, Vec<Id>)> {
        match name {
            "T0" => vec![
                ("fk1".into(), spread(row_of("T0"), row_of("T1"))),
                ("fk2".into(), spread(row_of("T0"), row_of("T2"))),
            ],
            "T1" => vec![
                ("fk11".into(), spread(row_of("T1"), row_of("T11"))),
                ("fk12".into(), spread(row_of("T1"), row_of("T12"))),
            ],
            _ => vec![],
        }
    };
    let value = |name: &str, column: &str, r: u64| -> Value {
        match (name, column) {
            ("T1", "h1") => Value::Str(format!("{:08}{:02}", r / 4, r % 4)),
            (_, "h2") => pad8(r * 3 % 10_000),
            _ => pad8(r),
        }
    };
    let mut loads = Vec::new();
    let mut tables = vec![RefTable::default(); schema.len()];
    for name in names {
        let t: TableId = schema.table_id(name).unwrap();
        let n = row_of(name);
        let columns = ["v1", "h1", "h2"]
            .into_iter()
            .map(|c| {
                let name = name.to_string();
                ColumnLoad {
                    name: c.into(),
                    gen: Box::new(move |r| value(&name, c, r as u64)),
                    index: c == "h1",
                }
            })
            .collect();
        tables[t] = RefTable {
            rows: n,
            fks: fks(name).into_iter().collect(),
            columns: ["v1", "h1", "h2"]
                .into_iter()
                .map(|c| (c.to_string(), (0..n).map(|r| value(name, c, r)).collect()))
                .collect(),
        };
        loads.push(TableLoad {
            table: name.into(),
            rows: n,
            fks: fks(name),
            columns,
        });
    }
    let db = Database::assemble(
        schema.clone(),
        &TokenConfig::paper_platform(16 * 1024 * 1024),
        loads,
    )
    .expect("assembles");
    (db, RefDb { schema, tables })
}

#[test]
fn a_recheck_on_colliding_keys_drops_the_siblings() {
    let (mut db, oracle) = prefix_collisions();
    // `00000300` is the key of T1 ids 1 200..=1 203; only 1 202 matches.
    let q = query(
        &db,
        &[("T1", Predicate::eq("h1", Value::Str("0000030002".into())))],
        &[("T0", "id"), ("T1", "id"), ("T1", "h2")],
    );
    assert!(!oracle_rows(&oracle, &q).is_empty());
    check(&mut db, &oracle, &q, Arm::Filter);
    // T1 re-checked only: its σ comes from the id column all the same.
    let q = query(
        &db,
        &[("T1", Predicate::eq("h1", Value::Str("0000030002".into())))],
        &[("T0", "id")],
    );
    check(&mut db, &oracle, &q, Arm::Filter);
}

/// `MJoin` + `ProjBloom` simulated time of `T1.h1 = <point>` projecting
/// `T1.h2`, summed over the four points with the shortest id columns.
fn hidden_point_projection_ns(scale: f64) -> u128 {
    let (oracle, mut db) = synthetic(scale);
    rarely_joined_h1(&oracle, "fk1", "T1", 4)
        .into_iter()
        .map(|point| {
            let q = query(
                &db,
                &[("T1", Predicate::eq("h1", point))],
                &[("T0", "id"), ("T1", "id"), ("T1", "h2")],
            );
            let (_, report) = run(&mut db, &q, &ExecOptions::new());
            report.op(OpKind::MJoin).as_ns() + report.op(OpKind::ProjBloom).as_ns()
        })
        .sum()
}

#[test]
fn a_hidden_point_projection_does_not_grow_with_the_table() {
    // Over the dense range, MJoin reads all of T1.h2, so its cost grows
    // with |T1|. A point's σ holds one id.
    let small = hidden_point_projection_ns(0.001);
    let large = hidden_point_projection_ns(0.004);
    assert!(
        large * 10 <= small * 11,
        "×0.004 costs {large} ns against {small} ns at ×0.001"
    );
}

//! Exact hidden selections. A climbing index keys CHAR values by their
//! first 8 bytes, so a value longer than that shares its key with every
//! value of its prefix. A selection skips the projection re-check iff the
//! index's keys are the full values (derived at load) and its literals fit
//! a key ([`ghostdb_index::ClimbingIndex::key_range`]).
//!
//! Random hidden selections, under all six operators and with literals of
//! 7 to 10 bytes, on two worlds: `short`, whose hidden values all fit their
//! keys, and `mixed`, which mixes 7- to 10-byte values sharing their
//! prefixes. Rows must equal the `reference` oracle's, and a selection is
//! re-checked exactly where the rule above says.
//!
//! Deepen with `PROPTEST_CASES=1024 cargo test --release …` (the CI
//! `proptest-deep` leg).

use ghostdb_exec::database::{ColumnLoad, TableLoad};
use ghostdb_exec::project::ProjectAlgo;
use ghostdb_exec::{Database, ExecOptions, Executor, SpjQuery};
use ghostdb_reference::{RefDb, RefQuery, RefTable};
use ghostdb_storage::schema::paper_synthetic_schema;
use ghostdb_storage::{CmpOp, Id, Predicate, TableId, Value};
use ghostdb_token::TokenConfig;
use proptest::prelude::*;
use std::sync::{Mutex, OnceLock};

const NAMES: [&str; 5] = ["T0", "T1", "T2", "T11", "T12"];
const ROWS: [u64; 5] = [2_000, 400, 100, 40, 40];
/// Distinct 8-byte prefixes of the hidden values.
const PREFIXES: u64 = 60;

/// `n` as a string of `len` bytes: the 8-digit prefix `n`, cut to 7 bytes
/// or extended by `tail`'s digits to 9 or 10.
fn text(n: u64, len: usize, tail: u64) -> Value {
    let mut s = format!("{n:08}{tail:02}");
    s.truncate(len);
    Value::Str(s)
}

/// Row `r`'s `h1` in world `mixed` or `short`.
fn h1(mixed: bool, r: u64) -> Value {
    let n = (r * 7_919 + 13) % PREFIXES;
    let len = if mixed {
        7 + (r % 4) as usize
    } else {
        7 + (r % 2) as usize
    };
    text(n, len, r % 13)
}

struct World {
    db: Mutex<Database>,
    oracle: RefDb,
}

/// The `short` and the `mixed` world: `paper_synthetic_schema(1, 2)` with
/// fks spread over the child tables, `h1` indexed on every table.
fn world(mixed: bool) -> &'static World {
    static WORLDS: OnceLock<[World; 2]> = OnceLock::new();
    let worlds = WORLDS.get_or_init(|| [false, true].map(build));
    &worlds[usize::from(mixed)]
}

fn build(mixed: bool) -> World {
    let schema = paper_synthetic_schema(1, 2);
    let row_of = |name: &str| ROWS[NAMES.iter().position(|n| *n == name).unwrap()];
    let spread = |parent: &str, child: &str| -> Vec<Id> {
        let c = row_of(child);
        (0..row_of(parent))
            .map(|i| ((i * 7_919 + 13) % c) as Id)
            .collect()
    };
    let fks = |name: &str| -> Vec<(String, Vec<Id>)> {
        match name {
            "T0" => vec![
                ("fk1".into(), spread("T0", "T1")),
                ("fk2".into(), spread("T0", "T2")),
            ],
            "T1" => vec![
                ("fk11".into(), spread("T1", "T11")),
                ("fk12".into(), spread("T1", "T12")),
            ],
            _ => vec![],
        }
    };
    let value = move |column: &str, r: u64| match column {
        "h1" => h1(mixed, r),
        _ => text(r, 8, 0),
    };
    let mut loads = Vec::new();
    let mut tables = vec![RefTable::default(); schema.len()];
    for name in NAMES {
        let t: TableId = schema.table_id(name).unwrap();
        let n = row_of(name);
        let columns = ["v1", "h1", "h2"]
            .into_iter()
            .map(|c| ColumnLoad {
                name: c.into(),
                gen: Box::new(move |r| value(c, r as u64)),
                index: c == "h1",
            })
            .collect();
        tables[t] = RefTable {
            rows: n,
            fks: fks(name).into_iter().collect(),
            columns: ["v1", "h1", "h2"]
                .into_iter()
                .map(|c| (c.to_string(), (0..n).map(|r| value(c, r)).collect()))
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
    World {
        db: Mutex::new(db),
        oracle: RefDb { schema, tables },
    }
}

const OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
    CmpOp::Between,
];

/// A literal: prefix `n`, `len` bytes (7–10), tail digits `tail`.
type Lit = (u64, usize, u64);

fn literal() -> impl Strategy<Value = Lit> {
    (0..PREFIXES + 2, 7usize..=10, 0u64..13)
}

/// Run `h1 θ lit` on `table` (beside `T12.h1 >= lit` when `beside`) under
/// `algo`; rows must equal the oracle's, and each selection is re-checked
/// iff the world is mixed or one of its literals outgrows the key.
fn check(mixed: bool, table: usize, op: usize, lits: [Lit; 2], beside: bool, algo: usize) {
    let w = world(mixed);
    let mut db = w.db.lock().unwrap_or_else(|e| e.into_inner());
    let [a, b] = lits.map(|(n, len, tail)| text(n, len, tail));
    let (lo, hi) = if a.cmp_value(&b).is_le() {
        (a, b)
    } else {
        (b, a)
    };
    let op = OPS[op];
    let pred = match op {
        CmpOp::Between => Predicate::new("h1", op, lo, Some(hi)),
        _ => Predicate::new("h1", op, lo, None),
    };
    let t = db.schema.table_id(NAMES[table]).unwrap();
    let t12 = db.schema.table_id("T12").unwrap();
    let mut q = SpjQuery::new()
        .pred(t, pred.clone())
        .project(db.schema.root(), "id")
        .project(t, "h1");
    let mut preds = vec![(t, pred)];
    if beside && t != t12 {
        let p = Predicate::new("h1", CmpOp::Ge, text(PREFIXES / 2, 8, 0), None);
        q = q.pred(t12, p.clone()).project(t12, "h1");
        preds.push((t12, p));
    }
    q.text = format!("{:?}", q.predicates);
    for (t, p) in &preds {
        let fits = p
            .literals()
            .all(|v| matches!(v, Value::Str(s) if s.len() <= 8));
        let recheck = db.index(*t, "h1").unwrap().key_range(p).recheck;
        assert_eq!(recheck, mixed || !fits, "{p:?} in the {mixed} world");
    }
    let algo = [
        ProjectAlgo::Project,
        ProjectAlgo::ProjectNoBf,
        ProjectAlgo::BruteForce,
    ][algo];
    let (rs, report) =
        Executor::run(&mut db, &q, &ExecOptions::new().project(algo)).expect("query runs");
    let expect = w
        .oracle
        .run(&RefQuery {
            predicates: q.predicates.clone(),
            projections: q.projections.clone(),
        })
        .expect("oracle");
    assert_eq!(rs.rows, expect, "{} diverges: {}", algo.name(), q.text);
    assert!(report.peak_ram_buffers <= db.token.ram.capacity());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Values that all fit their keys: literals that fit are answered by
    /// the index alone, longer ones are re-checked.
    #[test]
    fn selections_over_values_that_fit_the_key_match_the_oracle(
        table in 0usize..5,
        op in 0usize..6,
        a in literal(),
        b in literal(),
        beside in any::<bool>(),
        algo in 0usize..3,
    ) {
        check(false, table, op, [a, b], beside, algo);
    }

    /// Values longer than their keys: every selection is re-checked, and
    /// the equal-key rows of `<` and `>` are kept for the re-check to judge.
    #[test]
    fn selections_over_mixed_length_values_match_the_oracle(
        table in 0usize..5,
        op in 0usize..6,
        a in literal(),
        b in literal(),
        beside in any::<bool>(),
        algo in 0usize..3,
    ) {
        check(true, table, op, [a, b], beside, algo);
    }
}

/// The worlds are what the properties assume: one index exact, one not,
/// and the mixed one holds values of every length from 7 to 10 bytes.
#[test]
fn the_worlds_have_the_intended_exactness() {
    for mixed in [false, true] {
        let db = world(mixed).db.lock().unwrap_or_else(|e| e.into_inner());
        for name in NAMES {
            let t = db.schema.table_id(name).unwrap();
            assert_eq!(db.index(t, "h1").unwrap().exact, !mixed, "{name}");
        }
    }
    let lens: std::collections::BTreeSet<usize> = (0..8)
        .map(|r| match h1(true, r) {
            Value::Str(s) => s.len(),
            v => panic!("{v:?}"),
        })
        .collect();
    assert_eq!(lens.into_iter().collect::<Vec<_>>(), vec![7, 8, 9, 10]);
}

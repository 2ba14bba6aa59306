//! Keyed SJoin. A root-level merge group of a Pre plan names, for each of
//! its root ids, the id of one table it joins: the probe id of a Pre or
//! Cross-Pre probe, or the one own-level id of a hidden range key. When
//! such groups cover every column of F' and their pairs fit the arena,
//! SJoin reads every target through the keys instead of the root's SKT;
//! otherwise (a column left uncovered, a key with several own-level ids, a
//! group too large for the arena) the SKT path runs.
//!
//! 1. **Paths** — on synthetic ×0.002 (uniform keys) and its Zipf(1.2)
//!    variant: Pre and Cross-Pre probe lists and hidden ranges, in arenas
//!    from too tight for the pairs to the paper's 32 buffers. F' (every id
//!    column) is identical whichever path runs, and equals the oracle's
//!    ids; the rows equal the `reference` oracle's; no run holds more
//!    buffers than the arena has. A Zipf range holding a key with more than
//!    one own-level id is never keyed.
//! 2. **Fallbacks** — fixed cases where each path is forced: the same
//!    probe keyed at 32 buffers and on the SKT path where its pairs do not
//!    fit, and a duplicate Zipf key.
//!
//! Deepen with `PROPTEST_CASES=1024 cargo test --release …` (the CI
//! `proptest-deep` leg).

use ghostdb_datagen::{SyntheticDataset, SyntheticSpec};
use ghostdb_exec::query::analyze;
use ghostdb_exec::strategy::{execute_sj, VisDecision, VisStrategy};
use ghostdb_exec::{Database, ExecCtx, ExecOptions, Executor, SpjQuery};
use ghostdb_reference::{RefDb, RefQuery};
use ghostdb_storage::{CmpOp, Id, Predicate, TableId, Value};
use ghostdb_token::RamArena;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// A dataset, its database and its oracle.
struct World {
    ds: SyntheticDataset,
    db: Mutex<Database>,
    oracle: RefDb,
}

/// ×0.002: |T0| = 20 000, |T1| = |T2| = 2 000, |T11| = |T12| = 200, every
/// id 2 bytes, so a pair takes 4 bytes and 512 pairs fill a buffer.
/// `zipf` draws attribute values Zipf(1.2) instead of permutations.
fn world(zipf: bool) -> &'static World {
    static WORLDS: OnceLock<[World; 2]> = OnceLock::new();
    let worlds = WORLDS.get_or_init(|| {
        [false, true].map(|zipf| {
            let spec = if zipf {
                SyntheticSpec::paper_zipf(0.002, 1.2)
            } else {
                SyntheticSpec::paper(0.002)
            };
            let ds = SyntheticDataset::generate(spec);
            let db = Mutex::new(ds.build().expect("build"));
            let oracle = ds.ref_db();
            World { ds, db, oracle }
        })
    });
    &worlds[usize::from(zipf)]
}

fn table(w: &World, name: &str) -> TableId {
    w.ds.schema.table_id(name).expect("table")
}

fn lit(n: u64) -> Value {
    Value::Str(format!("{n:08}"))
}

fn between(column: &str, lo: u64, hi: u64) -> Predicate {
    Predicate::new(column, CmpOp::Between, lit(lo), Some(lit(hi)))
}

/// One query shape with the plan it is run under.
struct Case {
    q: SpjQuery,
    /// The visible table and its forced strategy, if any.
    strategy: Option<(TableId, VisStrategy)>,
}

/// Shape `shape` at selectivity knob `share` (‰) and offset `from`:
/// 0 a Pre probe of `T1.v1`, 1 a Cross-Pre probe of `T1.v1` under
/// `T12.h2 < 10%`, 2 a hidden `T12.h2` range, 3 a hidden `T1.h1` range
/// projecting T12 below it, 4 a hidden `T2.h1` range beside a hidden
/// `T12.h2` range, 5 a Pre probe of `T1.v1` beside a hidden `T2.h1`
/// range (two keyed groups).
fn case(w: &World, shape: usize, share: u64, from: u64) -> Case {
    let [t0, t1, t2, t12] = ["T0", "T1", "T2", "T12"].map(|n| table(w, n));
    let (n1, n12) = (w.ds.rows("T1"), w.ds.rows("T12"));
    let range = |n: u64| {
        let width = (share * n / 1000).max(1);
        let lo = from % n;
        (lo, (lo + width - 1).min(n - 1))
    };
    let base = SpjQuery::new().project(t0, "id");
    let v1 = Predicate::new("v1", CmpOp::Lt, lit((share * n1 / 1000).max(1)), None);
    let (q, strategy) = match shape {
        0 => (
            base.pred(t1, v1).project(t1, "id").project(t12, "id"),
            Some((t1, VisStrategy::Pre)),
        ),
        1 => (
            (base.pred(t1, v1))
                .pred(t12, Predicate::new("h2", CmpOp::Lt, lit(n12 / 10), None))
                .project(t1, "id")
                .project(t12, "id"),
            Some((t1, VisStrategy::CrossPre)),
        ),
        2 => {
            let (lo, hi) = range(n12);
            (
                base.pred(t12, between("h2", lo, hi)).project(t12, "id"),
                None,
            )
        }
        3 => {
            let (lo, hi) = range(n1);
            let q = base.pred(t1, between("h1", lo, hi));
            (q.project(t1, "id").project(t12, "id"), None)
        }
        4 => {
            let (lo, hi) = range(n1);
            let q = (base.pred(t2, between("h1", lo, hi)))
                .pred(t12, Predicate::new("h2", CmpOp::Lt, lit(n12 / 2), None));
            (q.project(t2, "id"), None)
        }
        _ => {
            let (lo, hi) = range(n1);
            let q = (base.pred(t1, v1)).pred(t2, between("h1", lo, hi));
            let q = q.project(t1, "id").project(t2, "id");
            (q, Some((t1, VisStrategy::Pre)))
        }
    };
    let mut q = q;
    q.text = format!("shape {shape}, share {share}‰, from {from}");
    Case { q, strategy }
}

/// What one run of the select-join phase left.
struct Sj {
    /// F': each column's table and ids.
    f: Vec<(TableId, Vec<Id>)>,
    keyed: Vec<TableId>,
    peak: usize,
}

/// The select-join phase of `c` in an arena of `buffers` buffers.
fn select_join(db: &mut Database, c: &Case, buffers: usize) -> Sj {
    db.token.ram = RamArena::new(db.token.flash.page_size(), buffers);
    db.begin_query();
    let mut ctx = ExecCtx::new(db);
    let a = analyze(ctx.cat.schema, &c.q).expect("analyze");
    let decisions: Vec<VisDecision> = (c.strategy.iter())
        .map(|&(table, strategy)| VisDecision { table, strategy })
        .collect();
    let sj =
        execute_sj(&mut ctx, &a, &decisions).unwrap_or_else(|e| panic!("{buffers} buffers: {e}"));
    let (ram, page_size) = (ctx.ram(), ctx.page_size());
    let f = (sj.f.tables.iter().zip(&sj.f.columns))
        .map(|(t, column)| {
            let mut reader = column.reader(&ram, page_size).expect("reader");
            let ids = ctx.lane.with_flash(|dev| {
                let mut ids = Vec::new();
                while let Some(row) = reader.next_row(dev).expect("read") {
                    ids.push(column.layout.get_id(row, 0));
                }
                ids
            });
            (*t, ids)
        })
        .collect();
    ctx.free_temps().expect("free");
    Sj {
        f,
        keyed: sj.keyed,
        peak: ram.peak(),
    }
}

/// The oracle's F' for `c`: the ids of each of `tables`, one row a
/// surviving root id (every case is an exact Pre plan).
fn oracle_f(w: &World, c: &Case, tables: &[TableId]) -> Vec<(TableId, Vec<Id>)> {
    let q = RefQuery {
        predicates: c.q.predicates.clone(),
        projections: tables.iter().map(|t| (*t, "id".to_string())).collect(),
    };
    let rows = w.oracle.run(&q).expect("oracle");
    (tables.iter().enumerate())
        .map(|(i, t)| {
            let ids = (rows.iter())
                .map(|r| match r[i] {
                    Value::Int(id) => id as Id,
                    ref v => panic!("id {v:?}"),
                })
                .collect();
            (*t, ids)
        })
        .collect()
}

/// The rows of `t` holding each value of `column` (values are ordinals).
fn value_counts(w: &World, t: TableId, column: &str) -> HashMap<u64, u32> {
    let mut counts = HashMap::new();
    for v in &w.oracle.tables[t].columns[column] {
        let Value::Str(s) = v else {
            panic!("{column}: {v:?}")
        };
        *counts.entry(s.parse().expect("ordinal")).or_default() += 1;
    }
    counts
}

/// Whether every value of `column` of `t` in `[lo, hi]` is one row's.
fn unique_keys(w: &World, t: TableId, column: &str, lo: u64, hi: u64) -> bool {
    let counts = value_counts(w, t, column);
    (lo..=hi).all(|v| counts.get(&v).is_none_or(|&n| n == 1))
}

/// `c` in an arena of `buffers` and of 32: the same F' as the oracle's,
/// the oracle's rows, and no more buffers held than the arena has. Returns
/// the keyed tables of the run in `buffers`.
fn check(w: &World, c: &Case, buffers: usize) -> Vec<TableId> {
    let mut db = w.db.lock().unwrap_or_else(|e| e.into_inner());
    let label = format!("{} in {buffers} buffers", c.q.text);
    let small = select_join(&mut db, c, buffers);
    let paper = select_join(&mut db, c, 32);
    assert_eq!(small.f, paper.f, "{label}: F' moved with the path");
    let tables: Vec<TableId> = small.f.iter().map(|(t, _)| *t).collect();
    assert_eq!(small.f, oracle_f(w, c, &tables), "{label}: F'");
    assert!(small.peak <= buffers, "{label}: peak {}", small.peak);
    let expect = w
        .oracle
        .run(&RefQuery {
            predicates: c.q.predicates.clone(),
            projections: c.q.projections.clone(),
        })
        .expect("oracle");
    let opts = match c.strategy {
        Some((_, s)) => ExecOptions::new().strategy(s),
        None => ExecOptions::new(),
    };
    db.token.ram = RamArena::new(db.token.flash.page_size(), buffers);
    let (rs, report) =
        Executor::run(&mut db, &c.q, &opts).unwrap_or_else(|e| panic!("{label}: {e}"));
    assert_eq!(rs.rows, expect, "{label}: rows");
    assert!(report.peak_ram_buffers <= buffers, "{label}: report peak");
    small.keyed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every shape on uniform keys, from an arena too tight for most pairs
    /// up to the paper's 32 buffers.
    #[test]
    fn keyed_and_skt_paths_write_the_same_f_prime(
        shape in 0usize..6,
        share in 1u64..300,
        from in 0u64..2000,
        buffers in 14usize..=32,
    ) {
        let w = world(false);
        check(w, &case(w, shape, share, from), buffers);
    }

    /// Hidden `T12.h2` ranges over Zipf keys: a range holding a key with
    /// more than one own-level id takes the SKT path.
    #[test]
    fn a_zipf_key_with_several_own_ids_is_never_keyed(
        share in 1u64..200,
        from in 0u64..200,
        buffers in 14usize..=32,
    ) {
        let w = world(true);
        let c = case(w, 2, share, from);
        let keyed = check(w, &c, buffers);
        let n12 = w.ds.rows("T12");
        let (lo, hi) = (from % n12, ((from % n12) + (share * n12 / 1000).max(1) - 1).min(n12 - 1));
        if !unique_keys(w, table(w, "T12"), "h2", lo, hi) {
            prop_assert!(keyed.is_empty(), "[{lo}, {hi}] keyed by {keyed:?}");
        }
    }
}

/// The same Pre probe, `T1.v1 < 50%` (about 10 000 pairs, 20 buffers, and
/// a map of T12 ids): keyed by T1 in the paper's arena, on the SKT path in
/// 20 buffers, with the same F' and rows.
#[test]
fn a_group_too_large_for_the_arena_takes_the_skt_path() {
    let w = world(false);
    let t1 = table(w, "T1");
    let c = case(w, 0, 500, 0);
    assert_eq!(check(w, &c, 32), vec![t1]);
    assert!(check(w, &c, 20).is_empty());
}

/// Hidden `T12.h2` ranges: keyed by T12 over unique keys; on the Zipf
/// variant, the head value (ordinal 0, the most rows) is never keyed while
/// a range of single-row values in the tail is.
#[test]
fn duplicate_keys_take_the_skt_path() {
    let uniform = world(false);
    let t12 = table(uniform, "T12");
    assert_eq!(check(uniform, &case(uniform, 2, 50, 40), 32), vec![t12]);
    let zipf = world(true);
    assert!(check(zipf, &case(zipf, 2, 5, 0), 32).is_empty());
    let counts = value_counts(zipf, t12, "h2");
    assert!(counts[&0] > 1, "the head value is one row's");
    let tail = (100..200)
        .find(|v| counts.get(v) == Some(&1))
        .expect("a single-row value in the tail");
    assert_eq!(check(zipf, &case(zipf, 2, 5, tail), 32), vec![t12]);
}

/// Plans SJoin cannot key read the root's SKT and still return the
/// oracle's rows: a column no key covers (`T12.h2` names no T2 row), a
/// Post plan, and a root-visible Pre plan (its key would be the root id).
#[test]
fn plans_without_a_covering_key_take_the_skt_path() {
    let w = world(false);
    let [t0, t1, t2, t12] = ["T0", "T1", "T2", "T12"].map(|n| table(w, n));
    let probe = case(w, 0, 50, 0);
    let post = Case {
        strategy: Some((t1, VisStrategy::Post)),
        ..probe
    };
    let uncovered = Case {
        q: (SpjQuery::new().pred(t12, between("h2", 10, 30)))
            .project(t0, "id")
            .project(t2, "id"),
        strategy: None,
    };
    let root = Case {
        q: (SpjQuery::new().pred(t0, Predicate::new("v1", CmpOp::Lt, lit(500), None)))
            .project(t0, "id")
            .project(t1, "id"),
        strategy: Some((t0, VisStrategy::Pre)),
    };
    let mut db = w.db.lock().unwrap_or_else(|e| e.into_inner());
    for c in [post, uncovered, root] {
        let sj = select_join(&mut db, &c, 32);
        assert!(
            sj.keyed.is_empty(),
            "{:?} keyed by {:?}",
            c.q.predicates,
            sj.keyed
        );
        let expect = (w.oracle)
            .run(&RefQuery {
                predicates: c.q.predicates.clone(),
                projections: c.q.projections.clone(),
            })
            .expect("oracle");
        let opts = match c.strategy {
            Some((_, s)) => ExecOptions::new().strategy(s),
            None => ExecOptions::new(),
        };
        let (rs, _) = Executor::run(&mut db, &c.q, &opts).expect("run");
        assert_eq!(rs.rows, expect, "{:?}", c.q.predicates);
    }
}

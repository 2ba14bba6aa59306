//! Deferred MJoin run merge. MJoin writes one `<pos, tuple>` run per load
//! of its dict, and FinalJoin reads a table's runs in place, one reader per
//! run, as a k-way merge by position. The runs are merged into one flash
//! table first only when one reader per run would not fit the arena's free
//! buffers. These tests take a wide visible range on `T1` at ×0.004, which
//! MJoin cuts into several passes: results must equal the `reference`
//! oracle under every projection algorithm, and with the arena cut so far
//! that the run merge has to run.

use ghostdb_datagen::{pad8, SyntheticDataset, SyntheticSpec};
use ghostdb_exec::project::ProjectAlgo;
use ghostdb_exec::{Database, ExecOptions, ExecReport, Executor, OpKind, SpjQuery};
use ghostdb_reference::{RefDb, RefQuery};
use ghostdb_storage::{CmpOp, Predicate, Value};
use ghostdb_token::RamArena;
use std::collections::BTreeSet;

fn synthetic(scale: f64) -> (RefDb, Database) {
    let ds = SyntheticDataset::generate(SyntheticSpec::paper(scale));
    let db = ds.build().expect("synthetic build");
    (ds.ref_db(), db)
}

/// `SELECT T0.id, T1.id, T1.v1, T1.h1, T2.id … WHERE T1.v1 < <share of
/// |T1|>`: ghostbench `sql-mix`'s visible-only shape with a hidden
/// projection, so every dict entry carries a visible and a hidden value.
/// `T2.id` makes T2 a second participant table.
fn wide_range(oracle: &RefDb, db: &Database, share: f64) -> SpjQuery {
    let t0 = db.schema.root();
    let t1 = db.schema.table_id("T1").unwrap();
    let t2 = db.schema.table_id("T2").unwrap();
    let n = oracle.tables[t1].rows as f64;
    let mut q = SpjQuery::new()
        .pred(
            t1,
            Predicate::new("v1", CmpOp::Lt, pad8((share * n) as u64), None),
        )
        .project(t0, "id")
        .project(t1, "id")
        .project(t1, "v1")
        .project(t1, "h1")
        .project(t2, "id");
    q.text = format!("{:?} {:?}", q.predicates, q.projections);
    q
}

fn oracle_rows(oracle: &RefDb, q: &SpjQuery) -> Vec<Vec<Value>> {
    let rows = oracle
        .run(&RefQuery {
            predicates: q.predicates.clone(),
            projections: q.projections.clone(),
        })
        .expect("oracle");
    assert!(!rows.is_empty(), "{}", q.text);
    rows
}

fn run(db: &mut Database, q: &SpjQuery, opts: &ExecOptions) -> (Vec<Vec<Value>>, ExecReport) {
    let (rs, report) = Executor::run(db, q, opts).expect("query runs");
    assert!(
        report.peak_ram_buffers <= db.token.ram.capacity(),
        "peak {} of {} buffers",
        report.peak_ram_buffers,
        db.token.ram.capacity()
    );
    (rs.rows, report)
}

/// Entries of MJoin's dict for `T1` on an arena of `buffers` free
/// buffers: all of it but its two buffers (§4) and the `T1.h1` cursor,
/// over `<idT1, v1, h1>` entries of 4 + 8 + 10 bytes.
fn dict_capacity(db: &Database, buffers: usize) -> usize {
    (buffers - 3) * db.token.ram.buf_size() / 22
}

/// Distinct `T1.id`s among the result rows: the σ ids `Project` keeps.
fn t1_ids(rows: &[Vec<Value>]) -> usize {
    let ids: BTreeSet<i64> = rows
        .iter()
        .map(|r| match r[1] {
            Value::Int(id) => id,
            ref v => panic!("T1.id {v:?}"),
        })
        .collect();
    ids.len()
}

#[test]
fn a_multipass_mjoin_matches_the_oracle_on_every_algorithm() {
    let (oracle, mut db) = synthetic(0.004);
    let q = wide_range(&oracle, &db, 0.9);
    let expect = oracle_rows(&oracle, &q);
    // σ holds every T1 id the range keeps: more than one dict load.
    let sigma = t1_ids(&expect);
    assert!(
        sigma > dict_capacity(&db, db.token.ram.capacity()),
        "{sigma} σ ids fit one pass"
    );

    let (rows, report) = run(&mut db, &q, &ExecOptions::new());
    assert_eq!(rows, expect, "Project diverges from the oracle");
    assert!(report.op(OpKind::MJoin).as_ns() > 0);
    assert!(report.op(OpKind::FinalJoin).as_ns() > 0);
    for algo in [ProjectAlgo::ProjectNoBf, ProjectAlgo::BruteForce] {
        let (rows, _) = run(&mut db, &q, &ExecOptions::new().project(algo));
        assert_eq!(rows, expect, "{} diverges", algo.name());
    }
}

#[test]
fn a_cut_arena_merges_runs_and_still_matches_the_oracle() {
    // Eight buffers: a five-buffer dict cuts σ into more runs than
    // FinalJoin's free buffers can read at once beside its root reader and
    // held entries. Without the run merge, opening FinalJoin's readers
    // would run out of RAM.
    let (oracle, mut db) = synthetic(0.004);
    let q = wide_range(&oracle, &db, 0.9);
    let expect = oracle_rows(&oracle, &q);
    let buffers = 8;
    db.token.ram = RamArena::new(db.token.flash.page_size(), buffers);
    let passes = t1_ids(&expect).div_ceil(dict_capacity(&db, buffers));
    assert!(passes + 2 > buffers, "{passes} runs fit FinalJoin");

    for algo in [
        ProjectAlgo::Project,
        ProjectAlgo::ProjectNoBf,
        ProjectAlgo::BruteForce,
    ] {
        let (rows, _) = run(&mut db, &q, &ExecOptions::new().project(algo));
        assert_eq!(rows, expect, "{} diverges on a cut arena", algo.name());
    }
}

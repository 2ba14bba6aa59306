//! The resident last MJoin pass. `Project` runs the table with the widest
//! run row last, sizes each of its passes so that FinalJoin fits beside the
//! dict, and keeps the pass σ runs out in in the arena: FinalJoin probes
//! that dict with the table's F' id column instead of reading a run. The
//! earlier passes still write runs, which FinalJoin reads beside the dict,
//! and an arena too small for the reserve writes every pass as a run, which
//! FinalJoin may first have to merge.
//!
//! Every case below must return exactly the `reference` oracle's rows
//! under `Project` and `Project-NoBF`, in arenas of 4–8 buffers and the
//! paper's 32, and never hold more buffers than the arena has.

use ghostdb_datagen::{SyntheticDataset, SyntheticSpec};
use ghostdb_exec::project::ProjectAlgo;
use ghostdb_exec::strategy::VisStrategy;
use ghostdb_exec::{Database, ExecOptions, ExecReport, Executor, OpKind, SpjQuery};
use ghostdb_reference::RefQuery;
use ghostdb_storage::idlist::slots_per_page;
use ghostdb_storage::row::{id_width, RowLayout};
use ghostdb_storage::{TableId, Value};
use ghostdb_token::RamArena;

/// ×0.002: |T0| = 20 000, |T1| = |T2| = 2 000, so every id cell is 2 bytes.
fn dataset() -> (SyntheticDataset, Database) {
    let ds = SyntheticDataset::generate(SyntheticSpec::paper(0.002));
    let db = ds.build().expect("build");
    (ds, db)
}

/// `T1.v1 < sV` projecting T0's ids and `columns` of T1, and with `t2`
/// T2's ids too, so that T2's MJoin runs first and FinalJoin reads its
/// run beside T1's stream. T1's run row is the widest either way.
fn query(db: &Database, ds: &SyntheticDataset, sv: f64, columns: &[&str], t2: bool) -> SpjQuery {
    let t0 = db.schema.root();
    let t1 = db.schema.table_id("T1").unwrap();
    let mut q = SpjQuery::new()
        .pred(t1, ds.selectivity_pred("T1", "v1", sv))
        .project(t0, "id");
    if t2 {
        q = q.project(db.schema.table_id("T2").unwrap(), "id");
    }
    for c in columns {
        q = q.project(t1, c);
    }
    q.text = format!("T1.v1 < {sv} projecting T1.{columns:?}, T2.id: {t2}");
    q
}

fn oracle(ds: &SyntheticDataset, q: &SpjQuery) -> Vec<Vec<Value>> {
    ds.ref_db()
        .run(&RefQuery {
            predicates: q.predicates.clone(),
            projections: q.projections.clone(),
        })
        .expect("oracle")
}

/// Run `q` under `Project` and `Project-NoBF` in an arena of `buffers`
/// buffers; both must return `expect` within the arena. The `Project`
/// report is returned.
fn check(
    db: &mut Database,
    q: &SpjQuery,
    strategy: VisStrategy,
    buffers: usize,
    expect: &[Vec<Value>],
) -> ExecReport {
    db.token.ram = RamArena::new(db.token.flash.page_size(), buffers);
    let mut reports = Vec::new();
    for algo in [ProjectAlgo::Project, ProjectAlgo::ProjectNoBf] {
        let label = format!(
            "{} × {} in {buffers} buffers: {}",
            strategy.name(),
            algo.name(),
            q.text
        );
        let opts = ExecOptions::new().strategy(strategy).project(algo);
        let (rs, report) = Executor::run(db, q, &opts).unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(rs.rows, expect, "{label}");
        assert!(
            report.peak_ram_buffers <= buffers,
            "{label}: {}",
            report.peak_ram_buffers
        );
        reports.push(report);
    }
    reports.swap_remove(0)
}

/// T1's σ (about 2 000·sV ids) against the dict, in each arena the shape
/// runs in. In the paper's arena every case keeps T1's last pass resident:
/// after no run, or after one (all of T1, four char(10) values an entry).
/// In the small arenas the same σ takes one pass, two or three (runs read
/// beside the dict), or, where the arena cannot hold FinalJoin's reserve,
/// up to 42 written passes that FinalJoin first merges to fit.
#[test]
fn every_pass_count_matches_the_oracle_in_every_arena() {
    let (ds, mut db) = dataset();
    let narrow: &[&str] = &["id", "v2"];
    let wide: &[&str] = &["v1", "v2", "h1", "h2"];
    let small = [4, 5, 6, 7, 8, 32];
    let two_tables = [5, 6, 7, 8, 32];
    let cases: [(f64, &[&str], bool, &[usize]); 6] = [
        (0.002, narrow, false, &small),
        (0.1, narrow, false, &small),
        (1.0, narrow, false, &small),
        (0.1, narrow, true, &two_tables),
        (0.1, wide, true, &two_tables),
        (1.0, wide, true, &two_tables),
    ];
    for (sv, columns, t2, arenas) in cases {
        let q = query(&db, &ds, sv, columns, t2);
        let expect = oracle(&ds, &q);
        assert!(!expect.is_empty(), "{}", q.text);
        for &buffers in arenas {
            for strategy in [VisStrategy::PostSelect, VisStrategy::NoFilter] {
                check(&mut db, &q, strategy, buffers, &expect);
            }
            // Pre-Filter's probes need two more buffers.
            if buffers == 6 || buffers == 32 {
                check(&mut db, &q, VisStrategy::Pre, buffers, &expect);
            }
        }
    }
}

/// A Pre-Filter query with one participant whose σ fits one dict keeps
/// that dict resident, so projection programs nothing, and its merged root
/// ids stream into SJoin: the query's only programs are F' (the root's and
/// T1's id columns, which SJoin writes).
#[test]
fn a_one_pass_pre_plan_programs_only_f_prime() {
    let (ds, mut db) = dataset();
    let t0 = db.schema.root();
    let t1: TableId = db.schema.table_id("T1").unwrap();
    for sv in [0.01, 0.1] {
        let mut q = SpjQuery::new()
            .pred(t1, ds.selectivity_pred("T1", "v1", sv))
            .project(t0, "id")
            .project(t1, "h1")
            .project(t1, "v2");
        q.text = format!("T1.v1 < {sv} projecting T1.h1, T1.v2");
        let expect = oracle(&ds, &q);
        let report = check(&mut db, &q, VisStrategy::Pre, 32, &expect);
        let n = expect.len() as u64;
        let page = db.token.flash.page_size();
        let f_prime: u64 = [db.hidden[t0].rows, db.hidden[t1].rows]
            .iter()
            .map(|rows| RowLayout::id_cells(&[*rows]).pages_for(n, page))
            .sum();
        assert_eq!(report.io.pages_written, f_prime, "{}", q.text);
        assert!(report.op(OpKind::MJoin).as_ns() > 0, "{}", q.text);
    }
}

/// Where the Pre side's merge cannot open beside SJoin's reserve (its
/// scan buffers, id lookahead and the root column's writer: four buffers
/// here), it is written as a list SJoin reads back: the same rows, and the
/// list's pages are the only programs besides F'.
#[test]
fn a_pre_plan_too_tight_to_stream_falls_back_to_the_list() {
    let (ds, mut db) = dataset();
    let t0 = db.schema.root();
    let t1: TableId = db.schema.table_id("T1").unwrap();
    let mut q = SpjQuery::new()
        .pred(t1, ds.selectivity_pred("T1", "v1", 0.1))
        .project(t0, "id");
    q.text = "T1.v1 < 0.1 projecting T0.id".into();
    let expect = oracle(&ds, &q);
    let n = expect.len() as u64;
    let page = db.token.flash.page_size();
    let root_rows = db.hidden[t0].rows;
    let f_prime = RowLayout::id_cells(&[root_rows]).pages_for(n, page);
    let list = n.div_ceil(slots_per_page(id_width(root_rows), page));
    let streamed = check(&mut db, &q, VisStrategy::Pre, 32, &expect);
    assert_eq!(streamed.io.pages_written, f_prime);
    // Fewer than two buffers beside the reserve: no merge can open.
    for buffers in [5, 4] {
        let listed = check(&mut db, &q, VisStrategy::Pre, buffers, &expect);
        assert_eq!(listed.io.pages_written, f_prime + list, "{buffers} buffers");
    }
}

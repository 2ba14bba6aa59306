//! The optimizer's cutoffs sit at this system's own forced-strategy
//! crossovers. Each test sweeps a selectivity over a log grid on a small
//! synthetic dataset (×0.01, T0 = 100 000: the smallest scale whose stored
//! ids have the workloads' widths, 3 bytes for T0 and 2 for the other
//! tables), runs the competing forced plans at every point, and checks
//! that the committed cutoff lies within one grid step of the first point
//! where the cheaper plan changes.

use ghostdb_datagen::{SyntheticDataset, SyntheticSpec};
use ghostdb_exec::optimizer::{
    CROSS_PRE_CUTOFF, DEFER_RATIO, HIDDEN_ROOT_PRE_POST_CUTOFF, OWN_CROSS_PRE_CUTOFF,
    PRE_POST_CUTOFF, ROOT_PRE_CUTOFF, ROOT_PRE_POST_CUTOFF, SIBLING_PRE_POST_CUTOFF,
};
use ghostdb_exec::strategy::{VisDecision, VisStrategy};
use ghostdb_exec::{Database, ExecOptions, Executor, SpjQuery};
use ghostdb_storage::TableId;
use VisStrategy::*;

/// Grid step: three points per doubling (2^(1/3)).
const STEP: f64 = 1.259_921_049_894_873_2;

fn setup() -> (SyntheticDataset, Database) {
    let mut spec = SyntheticSpec::paper(0.01);
    spec.visible_attrs = 3;
    let ds = SyntheticDataset::generate(spec);
    let db = ds.build().expect("build");
    (ds, db)
}

/// Simulated time of `q` with every listed table pinned to its strategy.
fn cost(db: &mut Database, q: &SpjQuery, plan: &[(TableId, VisStrategy)]) -> u128 {
    let opts = ExecOptions {
        strategies: plan
            .iter()
            .map(|&(table, strategy)| VisDecision { table, strategy })
            .collect(),
        ..ExecOptions::default()
    };
    let (_, report) = Executor::run(db, q, &opts).expect("forced plan runs");
    report.total().as_ns()
}

/// The first grid point from `lo` (stepping by [`STEP`]) where the second
/// of the two `costs` is the cheaper; the first must win at `lo`.
fn crossover<C: PartialOrd>(lo: f64, hi: f64, mut costs: impl FnMut(f64) -> (C, C)) -> f64 {
    let mut x = lo;
    let mut first = true;
    while x <= hi * (1.0 + 1e-9) {
        let (ca, cb) = costs(x);
        if cb < ca {
            assert!(!first, "the second plan already wins at {x}");
            return x;
        }
        first = false;
        x *= STEP;
    }
    panic!("no crossover in {lo}..{hi}");
}

fn assert_within_one_step(name: &str, cutoff: f64, measured: f64) {
    assert!(
        measured / STEP <= cutoff && cutoff <= measured * STEP,
        "{name} = {cutoff}, but the measured crossover is at {measured}"
    );
}

#[test]
fn pre_post_cutoff_is_the_measured_crossover() {
    // A visible-only selection on T1: no cross-filtering applies.
    let (ds, mut db) = setup();
    let (t0, t1) = (db.schema.root(), db.schema.table_id("T1").unwrap());
    let q = |sv: f64| {
        SpjQuery::new()
            .pred(t1, ds.selectivity_pred("T1", "v1", sv))
            .project(t0, "id")
            .project(t1, "id")
            .project(t1, "v1")
    };
    let measured = crossover(0.005, 0.2, |sv| {
        let q = q(sv);
        (
            cost(&mut db, &q, &[(t1, Pre)]),
            cost(&mut db, &q, &[(t1, Post)]),
        )
    });
    assert_within_one_step("PRE_POST_CUTOFF", PRE_POST_CUTOFF, measured);
}

/// A visible selection on T1 at `sv` beside a hidden one on `hidden`
/// (table, column) at `sh`.
fn beside_hidden(
    ds: &SyntheticDataset,
    db: &Database,
    hidden: (&str, &str),
    sv: f64,
    sh: f64,
) -> SpjQuery {
    let (t0, t1) = (db.schema.root(), db.schema.table_id("T1").unwrap());
    let th = db.schema.table_id(hidden.0).unwrap();
    SpjQuery::new()
        .pred(t1, ds.selectivity_pred("T1", "v1", sv))
        .pred(th, ds.selectivity_pred(hidden.0, hidden.1, sh))
        .project(t0, "id")
        .project(t1, "id")
        .project(t1, "v1")
}

/// The hidden selectivity moves the crossover of T1's plans `a` and `b`
/// beside a hidden selection, and the optimizer cannot see it, so at each
/// sV from `lo` this compares the worst regret of `a` and of `b` over sH,
/// in simulated ns lost; the result is the first sV where `b`'s worst
/// regret is the smaller.
fn minimax_crossover(hidden: (&str, &str), [a, b]: [VisStrategy; 2], lo: f64, hi: f64) -> f64 {
    let (ds, mut db) = setup();
    let t1 = db.schema.table_id("T1").unwrap();
    crossover(lo, hi, |sv| {
        let (mut a_worst, mut b_worst) = (0, 0);
        for sh in [0.01, 0.03, 0.1, 0.3] {
            let q = beside_hidden(&ds, &db, hidden, sv, sh);
            let ca = cost(&mut db, &q, &[(t1, a)]);
            let cb = cost(&mut db, &q, &[(t1, b)]);
            a_worst = a_worst.max(ca - ca.min(cb));
            b_worst = b_worst.max(cb - ca.min(cb));
        }
        (a_worst, b_worst)
    })
}

#[test]
fn hidden_root_pre_post_cutoff_is_the_narrowest_range_crossover() {
    // Beside a hidden root selection the crossover moves with sH (0.010 at
    // sH = 0.01, 0.013 at 0.03, 0.010 at 0.1, 0.008 at 0.3). The cutoff
    // sits at the narrowest swept sH, so a narrow hidden range never pays
    // Pre's regret.
    let (ds, mut db) = setup();
    let t1 = db.schema.table_id("T1").unwrap();
    let measured = crossover(0.005, 0.2, |sv| {
        let q = beside_hidden(&ds, &db, ("T0", "h1"), sv, 0.01);
        (
            cost(&mut db, &q, &[(t1, Pre)]),
            cost(&mut db, &q, &[(t1, Post)]),
        )
    });
    assert_within_one_step(
        "HIDDEN_ROOT_PRE_POST_CUTOFF",
        HIDDEN_ROOT_PRE_POST_CUTOFF,
        measured,
    );
}

#[test]
fn a_hidden_sibling_selection_has_its_own_pre_post_cutoff() {
    // With the hidden selection on T2 instead of the root, the minimax
    // point sits well above the plain crossover: a thinned root stream
    // gains little from SJoin's foreign-key route, so Post pays later.
    let measured = minimax_crossover(("T2", "h1"), [Pre, Post], 0.005, 0.2);
    assert_within_one_step("SIBLING_PRE_POST_CUTOFF", SIBLING_PRE_POST_CUTOFF, measured);
}

#[test]
fn a_hidden_selection_on_the_table_itself_has_its_own_cross_pre_cutoff() {
    // `T1.v1 ∧ T1.h1`, the hidden selection on the filtered table itself:
    // Post overtakes Cross-Pre far below CROSS_PRE_CUTOFF once sH is wide,
    // and far above it when sH is narrow (sV ≈ 0.4 at sH 0.01, 0.05 at
    // 0.1). The cutoff is the worst-regret point.
    let measured = minimax_crossover(("T1", "h1"), [CrossPre, Post], 0.02, 0.5);
    assert_within_one_step("OWN_CROSS_PRE_CUTOFF", OWN_CROSS_PRE_CUTOFF, measured);
}

#[test]
fn cross_pre_cutoff_is_the_measured_crossover() {
    // The §6.4 query Q: visible T1.v1, hidden T12.h2 at sH = 0.1. Cross-Pre
    // against the cheapest of every other plan.
    let (ds, mut db) = setup();
    let t0 = db.schema.root();
    let (t1, t12) = (
        db.schema.table_id("T1").unwrap(),
        db.schema.table_id("T12").unwrap(),
    );
    let q = |sv: f64| {
        SpjQuery::new()
            .pred(t1, ds.selectivity_pred("T1", "v1", sv))
            .pred(t12, ds.selectivity_pred("T12", "h2", 0.1))
            .project(t0, "id")
            .project(t1, "id")
            .project(t12, "id")
            .project(t1, "v1")
    };
    let measured = crossover(0.1, 1.0, |sv| {
        let q = q(sv);
        let others = [Post, CrossPost, NoFilter]
            .iter()
            .map(|s| cost(&mut db, &q, &[(t1, *s)]))
            .min();
        (cost(&mut db, &q, &[(t1, CrossPre)]), others.unwrap())
    });
    assert_within_one_step("CROSS_PRE_CUTOFF", CROSS_PRE_CUTOFF, measured);
}

/// A visible selection on the root at `sv`, projecting a hidden T1 column.
fn root_query(ds: &SyntheticDataset, db: &Database, sv: f64) -> SpjQuery {
    let (t0, t1) = (db.schema.root(), db.schema.table_id("T1").unwrap());
    SpjQuery::new()
        .pred(t0, ds.selectivity_pred("T0", "v1", sv))
        .project(t0, "id")
        .project(t1, "h1")
}

#[test]
fn root_pre_cutoff_is_the_measured_crossover() {
    // Pre against NoFilter on the root. Past ROOT_PRE_POST_CUTOFF Post
    // beats Pre while its Bloom filter is useful, as at sV = 0.5.
    let (ds, mut db) = setup();
    let t0 = db.schema.root();
    let measured = crossover(0.25, 1.0, |sv| {
        let q = root_query(&ds, &db, sv);
        (
            cost(&mut db, &q, &[(t0, Pre)]),
            cost(&mut db, &q, &[(t0, NoFilter)]),
        )
    });
    assert_within_one_step("ROOT_PRE_CUTOFF", ROOT_PRE_CUTOFF, measured);
    let sv = 0.5;
    let q = root_query(&ds, &db, sv);
    let pre = cost(&mut db, &q, &[(t0, Pre)]);
    let post = cost(&mut db, &q, &[(t0, Post)]);
    assert!(
        post < pre,
        "root Post {post} ns vs Pre {pre} ns at sV = {sv}"
    );
}

#[test]
fn root_pre_post_cutoff_is_the_measured_crossover() {
    let (ds, mut db) = setup();
    let t0 = db.schema.root();
    let measured = crossover(0.005, 1.0, |sv| {
        let q = root_query(&ds, &db, sv);
        (
            cost(&mut db, &q, &[(t0, Pre)]),
            cost(&mut db, &q, &[(t0, Post)]),
        )
    });
    assert_within_one_step("ROOT_PRE_POST_CUTOFF", ROOT_PRE_POST_CUTOFF, measured);
}

#[test]
fn defer_ratio_is_the_measured_crossover() {
    // Two visible tables without hidden selections: T2 fixed at sV = 0.01
    // and filtered with Pre; T1 swept upwards from the same sV. Filtering T1
    // too (Pre) against deferring it to projection.
    let (ds, mut db) = setup();
    let t0 = db.schema.root();
    let (t1, t2) = (
        db.schema.table_id("T1").unwrap(),
        db.schema.table_id("T2").unwrap(),
    );
    let sv2 = 0.01;
    let q = |ratio: f64| {
        SpjQuery::new()
            .pred(t1, ds.selectivity_pred("T1", "v1", ratio * sv2))
            .pred(t2, ds.selectivity_pred("T2", "v1", sv2))
            .project(t0, "id")
            .project(t1, "id")
            .project(t2, "id")
    };
    let measured = crossover(1.0, 16.0, |r| {
        let q = q(r);
        (
            cost(&mut db, &q, &[(t1, Pre), (t2, Pre)]),
            cost(&mut db, &q, &[(t1, NoFilter), (t2, Pre)]),
        )
    });
    assert_within_one_step("DEFER_RATIO", DEFER_RATIO, measured);
}

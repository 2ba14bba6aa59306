//! Automatic strategy selection — the cost-based optimizer the paper lists
//! as future work, with cutoffs measured on this system's own cost model.
//!
//! The visible selectivity `sV` is exact and free: the PC computes it (its
//! cycles are not the bottleneck and the count leaks nothing — the query is
//! public). The chosen plan is visible to the host, so the decision reads
//! nothing else: [`UntrustedHost::count`] results and the public row count
//! of each table. A plan chosen from hidden cardinalities would publish
//! them.
//!
//! Each cutoff is the selectivity at which two forced strategies cost the
//! same simulated time, found by sweeping sV over the synthetic dataset
//! (`tests/optimizer_cutoffs.rs` re-measures every one of them at ×0.01,
//! the smallest scale whose id widths are the workloads': T0 ids 3 bytes,
//! the other tables' 2; each constant's doc also gives ×0.002):
//!
//! * cross-filtering applies whenever a hidden selection exists on the
//!   table or its subtree; Cross-Pre is then the cheapest plan up to
//!   [`CROSS_PRE_CUTOFF`] (every sV since SJoin reads a Cross-Pre probe's
//!   targets through its keys), or [`OWN_CROSS_PRE_CUTOFF`] when the
//!   hidden selection is on the table itself, after which the table is
//!   treated as if it had no hidden selection below it (Cross-Post never
//!   wins by more than a few percent);
//! * without Cross: Pre wins up to [`PRE_POST_CUTOFF`] (Figure 10); Post
//!   is used above only while the Bloom filter stays useful, otherwise the
//!   selection is deferred to projection (the sV = 0.5 cutoff);
//! * a hidden selection moves the Pre/Post crossover with its hidden
//!   selectivity, which the optimizer may not see. On the root it thins
//!   the root stream that Post checks, and the cutoff is
//!   [`HIDDEN_ROOT_PRE_POST_CUTOFF`], the crossover beside the narrowest
//!   hidden root range. Outside the table's own subtree the cutoff is
//!   [`SIBLING_PRE_POST_CUTOFF`], the worst-regret crossover over hidden
//!   selectivities: below the plain one now that a selection whose index
//!   keys are the full values is not re-checked, well above it while
//!   every one was. Past a cross cutoff, a hidden selection in the
//!   table's own subtree leaves the plain [`PRE_POST_CUTOFF`];
//! * a selection on the root needs no climbing-index probe, and its
//!   shipped ids stream straight into SJoin, so Pre is the cheapest root
//!   plan at every selectivity swept (0.005–1);
//! * with visible selections on several tables, the most selective one is
//!   filtered and every other one whose sV exceeds [`DEFER_RATIO`] times
//!   that is deferred to projection: its probes would cost more than
//!   checking it on the already-filtered root stream.
//!
//! [`UntrustedHost::count`]: ghostdb_untrusted::UntrustedHost::count

use crate::ctx::ExecCtx;
use crate::query::Analyzed;
use crate::strategy::{VisDecision, VisStrategy};
use crate::Result;
use ghostdb_bloom::worth_post_filtering;

/// Cross-Pre vs the cheapest other strategy on a table with a hidden
/// selection in its subtree (measured: no crossover up to sV = 1 at ×0.01
/// or ×0.002 since SJoin reads a keyed probe's targets through its keys
/// instead of the root's SKT; 0.25 at ×0.01 and 0.20 at ×0.002 before;
/// 0.20 and 0.126 until Pre plans streamed their merged root ids into
/// SJoin and climbing-index descriptors narrowed; 0.50 at both scales
/// until every stored id took its table's id width, which made Post's
/// SJoin and Merge cheaper; 0.63 → 0.50 once post plans stopped reading F'
/// back into columns).
pub const CROSS_PRE_CUTOFF: f64 = 1.0;
/// Cross-Pre vs Post when the hidden selection is on the filtered table
/// itself (`T1.v1 ∧ T1.h1`): the worst-regret point over hidden
/// selectivities 0.01–0.3, regret counted in simulated time lost
/// (measured: 0.40 at ×0.01, none up to 0.5 at ×0.002, since SJoin reads
/// a keyed probe's targets through its keys; 0.08 at ×0.01 and 0.10 at
/// ×0.002 before; 0.063 at both before Pre plans streamed their merged
/// root ids into SJoin). Post's own crossover moves with the hidden
/// range, since Cross-Pre's probe grows with sH: at ×0.01 Post wins below
/// sV = 0.2 at sH 0.3 and by 0.4 at sH 0.1, and not up to sV = 0.5 at
/// sH ≤ 0.03 (before keyed SJoin: from sV ≈ 0.4 at sH 0.01, 0.16 at 0.03,
/// 0.05 at 0.1 and 0.032 at 0.3).
pub const OWN_CROSS_PRE_CUTOFF: f64 = 0.4;
/// Pre vs Post on a non-root table without cross-filtering or any hidden
/// selection (measured: 0.032 at ×0.01, 0.063 at ×0.002, since SJoin
/// reads a Pre probe's targets through its keys; 0.0063 at ×0.01 and
/// ×0.002 before). SJoin's foreign-key
/// route made Post's single-column SJoin cheap, which moved this from 0.08
/// to 0.020; bitmap-window Merge reductions made Pre's wide `∈`-probe
/// merge cheaper, which moved it back up to 0.03. Post plans writing the
/// QEPSJ result as the columns projection reads, with no partition pass,
/// moved it 0.03 → 0.016 (0.032 → 0.016 at ×0.002, 0.025 → 0.013 at
/// ×0.01). Narrow id cells in projection temporaries, which save most on
/// Post's larger QEPSJ result, moved it 0.016 → 0.010, and narrow stored
/// ids, which halve the foreign-key column Post's SJoin reads, 0.010 →
/// 0.006. Pre plans streaming their merged root ids into SJoin left it at
/// 0.0063 at ×0.01 (0.008 at ×0.002).
pub const PRE_POST_CUTOFF: f64 = 0.032;
/// Pre vs Post on a non-root table without cross-filtering beside a hidden
/// selection in a sibling subtree: the worst-regret point over hidden
/// selectivities 0.01–0.3, regret counted in simulated time lost or as a
/// ratio alike (measured: 0.020 at ×0.01 and 0.032 at ×0.002 since hidden
/// selections whose keys are the full values skip the projection
/// re-check; 0.10 at ×0.01,
/// and no crossover up to 0.2 at ×0.002, since keyed SJoin; 0.08 at
/// ×0.002 before; 0.08 and 0.050 before Pre plans streamed their merged
/// root ids into SJoin; 0.13 at ×0.002 and 0.16 at ×0.01 before narrow
/// stored ids, and 0.16 → 0.13 at ×0.002 once post plans stopped reading
/// F' back into columns).
pub const SIBLING_PRE_POST_CUTOFF: f64 = 0.02;
/// Pre vs Post on a non-root table without cross-filtering when the root
/// carries a hidden selection: the crossover at hidden selectivity 0.01,
/// the narrowest swept (measured: 0.0127 at ×0.01 and 0.016 at ×0.002,
/// unmoved by skipping the re-check of hidden selections whose keys are
/// the full values; 0.0127 at both before keyed SJoin; 0.010 and
/// 0.008 before Pre plans streamed their merged root ids into SJoin; 0.016
/// before narrow stored ids, down from 0.032 before SJoin's foreign-key
/// route; 0.020 since bitmap-window Merge reductions, one grid step up,
/// and 0.020 → 0.016 once post plans stopped reading F' back into
/// columns). Wider hidden root ranges move the crossover (0.020 at 0.03,
/// 0.020 at 0.1, 0.025 at 0.3, at ×0.01; 0.016, 0.0127 and 0.008 while
/// every hidden selection was re-checked), so on them one side pays a
/// little regret between here and there: the price of never paying Pre's
/// regret on a narrow hidden range.
pub const HIDDEN_ROOT_PRE_POST_CUTOFF: f64 = 0.0126;
/// With several visible tables, a table is deferred to projection when its
/// sV exceeds this multiple of the most selective table's (measured: 10.1
/// at ×0.01, 8.0 at ×0.002, with the most selective sV at 0.01; 8.0 and
/// 6.35 before keyed SJoin; 6.35 and
/// 2.52 before Pre plans streamed their merged root ids into SJoin; 4.0 at
/// ×0.002 and 10.1 at ×0.01 before narrow stored ids; 3.17 and 5.0 before
/// bitmap-window Merge reductions made filtering cheaper; 8.0 at ×0.01
/// while projection shipped a filtered table's ids a second time).
pub const DEFER_RATIO: f64 = 8.0;

/// Decide a strategy for every table carrying visible predicates.
pub fn decide(ctx: &ExecCtx<'_>, a: &Analyzed) -> Result<Vec<VisDecision>> {
    let root = ctx.cat.schema.root();
    let mut svs = Vec::with_capacity(a.vis_preds.len());
    for (t, preds) in &a.vis_preds {
        let rows = ctx.cat.rows[*t].max(1);
        let matching = ctx.cat.untrusted.count(*t, preds)?;
        svs.push((matching, matching as f64 / rows as f64));
    }
    let min_sv = svs.iter().map(|(_, sv)| *sv).fold(f64::INFINITY, f64::min);
    let pre_post_cutoff = |t| {
        if a.hid_sels.iter().any(|h| h.table == root) {
            HIDDEN_ROOT_PRE_POST_CUTOFF
        } else if a.hid_sels.len() > a.hidden_in_subtree(ctx.cat.schema, t).len() {
            SIBLING_PRE_POST_CUTOFF
        } else {
            PRE_POST_CUTOFF
        }
    };
    let worth_post = |matching, sv| worth_post_filtering(matching, sv, ctx.ram().total_bytes() / 2);
    let mut out = Vec::with_capacity(svs.len());
    for ((t, _), (matching, sv)) in a.vis_preds.iter().zip(svs) {
        let cross_applicable = *t != root && !a.hidden_in_subtree(ctx.cat.schema, *t).is_empty();
        let cross_pre_cutoff = if a.hid_sels.iter().any(|h| h.table == *t) {
            OWN_CROSS_PRE_CUTOFF
        } else {
            CROSS_PRE_CUTOFF
        };
        let strategy = if sv > DEFER_RATIO * min_sv {
            VisStrategy::NoFilter
        } else if *t == root {
            VisStrategy::Pre
        } else if cross_applicable && sv <= cross_pre_cutoff {
            VisStrategy::CrossPre
        } else if sv <= pre_post_cutoff(*t) {
            VisStrategy::Pre
        } else if worth_post(matching, sv) {
            VisStrategy::Post
        } else {
            VisStrategy::NoFilter
        };
        out.push(VisDecision {
            table: *t,
            strategy,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::analyze;
    use crate::testkit::{self, pad8, TINY_ROWS};
    use crate::SpjQuery;
    use ghostdb_bloom::worth_post_filtering;
    use ghostdb_storage::{CmpOp, Predicate};

    /// Decide the strategy for T1 carrying `v1 < pad8(k)` (sv = k/120),
    /// optionally with a hidden selection on T12 (⊂ T1's subtree) making
    /// cross-filtering applicable.
    fn decide_t1(k: u64, with_hidden: bool) -> VisStrategy {
        let mut db = testkit::tiny_db();
        let t1 = db.schema.table_id("T1").unwrap();
        let t12 = db.schema.table_id("T12").unwrap();
        let mut q = SpjQuery::new().pred(t1, Predicate::new("v1", CmpOp::Lt, pad8(k), None));
        if with_hidden {
            q = q.pred(t12, Predicate::eq("h1", pad8(1)));
        }
        let a = analyze(&db.schema, &q).unwrap();
        let ctx = crate::ExecCtx::new(&mut db);
        let decisions = decide(&ctx, &a).unwrap();
        decisions
            .iter()
            .find(|d| d.table == t1)
            .expect("T1 decided")
            .strategy
    }

    #[test]
    fn cutoffs_switch_strategies_at_their_boundaries() {
        let n1 = TINY_ROWS[1] as f64;
        // Without Cross: Pre up to PRE_POST_CUTOFF (3/120), Post past it.
        assert!(3.0 / n1 <= PRE_POST_CUTOFF && 4.0 / n1 > PRE_POST_CUTOFF);
        assert_eq!(decide_t1(3, false), VisStrategy::Pre);
        assert_eq!(decide_t1(4, false), VisStrategy::Post);
        // With Cross: Cross-Pre at every selectivity.
        for k in [30, 31, 90, 120] {
            assert_eq!(decide_t1(k, true), VisStrategy::CrossPre, "{k}/120");
        }
    }

    #[test]
    fn a_hidden_selection_on_the_table_itself_has_its_own_cross_cutoff() {
        // T1 carries `v1 < pad8(k)` and a hidden `h1` selection of its own:
        // Cross-Pre up to OWN_CROSS_PRE_CUTOFF (48/120), then the plain
        // rules, Post at 49/120.
        let decide_own = |k: u64| {
            let mut db = testkit::tiny_db();
            let t1 = db.schema.table_id("T1").unwrap();
            let q = SpjQuery::new()
                .pred(t1, Predicate::new("v1", CmpOp::Lt, pad8(k), None))
                .pred(t1, Predicate::eq("h1", pad8(1)));
            let a = analyze(&db.schema, &q).unwrap();
            let ctx = crate::ExecCtx::new(&mut db);
            let d = decide(&ctx, &a).unwrap();
            d.iter().find(|d| d.table == t1).unwrap().strategy
        };
        let n1 = TINY_ROWS[1] as f64;
        assert!(48.0 / n1 <= OWN_CROSS_PRE_CUTOFF && 49.0 / n1 > OWN_CROSS_PRE_CUTOFF);
        assert_eq!(decide_own(48), VisStrategy::CrossPre);
        assert_eq!(decide_own(49), VisStrategy::Post);
        // A hidden selection below T1 keeps the subtree cutoff.
        assert_eq!(decide_t1(49, true), VisStrategy::CrossPre);
    }

    #[test]
    fn a_hidden_root_selection_lowers_the_pre_post_cutoff() {
        // T1 carries `v1 < pad8(k)` beside a hidden selection on the root
        // (T0.h1) or on a sibling subtree (T2.h1): each has its own
        // Pre/Post cutoff.
        let decide_with = |k: u64, hidden: &str| {
            let mut db = testkit::tiny_db();
            let t1 = db.schema.table_id("T1").unwrap();
            let th = db.schema.table_id(hidden).unwrap();
            let q = SpjQuery::new()
                .pred(t1, Predicate::new("v1", CmpOp::Lt, pad8(k), None))
                .pred(th, Predicate::eq("h1", pad8(1)));
            let a = analyze(&db.schema, &q).unwrap();
            let ctx = crate::ExecCtx::new(&mut db);
            let d = decide(&ctx, &a).unwrap();
            d.iter().find(|d| d.table == t1).unwrap().strategy
        };
        let n1 = TINY_ROWS[1] as f64;
        assert!(1.0 / n1 <= HIDDEN_ROOT_PRE_POST_CUTOFF && 2.0 / n1 > HIDDEN_ROOT_PRE_POST_CUTOFF);
        assert!(2.0 / n1 <= SIBLING_PRE_POST_CUTOFF && 3.0 / n1 > SIBLING_PRE_POST_CUTOFF);
        assert_eq!(decide_with(1, "T0"), VisStrategy::Pre);
        assert_eq!(decide_with(2, "T0"), VisStrategy::Post);
        assert_eq!(decide_with(2, "T2"), VisStrategy::Pre);
        assert_eq!(decide_with(3, "T2"), VisStrategy::Post);
    }

    /// Decisions for a query with visible selections on T1 (`k1` of 120
    /// rows) and T2 (`k2` of 40 rows), without hidden selections.
    fn decide_t1_t2(k1: u64, k2: u64) -> (VisStrategy, VisStrategy) {
        let mut db = testkit::tiny_db();
        let t1 = db.schema.table_id("T1").unwrap();
        let t2 = db.schema.table_id("T2").unwrap();
        let q = SpjQuery::new()
            .pred(t1, Predicate::new("v1", CmpOp::Lt, pad8(k1), None))
            .pred(t2, Predicate::new("v1", CmpOp::Lt, pad8(k2), None));
        let a = analyze(&db.schema, &q).unwrap();
        let ctx = crate::ExecCtx::new(&mut db);
        let d = decide(&ctx, &a).unwrap();
        let of = |t| d.iter().find(|d| d.table == t).unwrap().strategy;
        (of(t1), of(t2))
    }

    #[test]
    fn less_selective_tables_are_deferred() {
        // T2 at 1/40 = 0.025 is the most selective; T1 ties it at 3/120 and
        // at 24/120 = 0.2 stays within DEFER_RATIO × 0.025: both keep
        // their own filter (Pre within PRE_POST_CUTOFF, Post past it).
        assert_eq!(decide_t1_t2(3, 1), (VisStrategy::Pre, VisStrategy::Pre));
        assert_eq!(decide_t1_t2(24, 1), (VisStrategy::Post, VisStrategy::Pre));
        // At 25/120 T1 is past the ratio: it is checked at projection.
        let (n1, n2) = (TINY_ROWS[1] as f64, TINY_ROWS[2] as f64);
        assert!(24.0 / n1 <= DEFER_RATIO / n2 && 25.0 / n1 > DEFER_RATIO / n2);
        assert_eq!(
            decide_t1_t2(25, 1),
            (VisStrategy::NoFilter, VisStrategy::Pre)
        );
        // The rule is symmetric: the most selective table is kept whichever
        // it is (T1 at 1/120; T2 at 3/40 is 9 times that).
        assert_eq!(
            decide_t1_t2(1, 3),
            (VisStrategy::Pre, VisStrategy::NoFilter)
        );
    }

    #[test]
    fn root_selections_are_pre_unless_deferred() {
        let mut db = testkit::tiny_db();
        let t0 = db.schema.root();
        let t2 = db.schema.table_id("T2").unwrap();
        let n0 = TINY_ROWS[0];
        // `T0.v1 < pad8(k0)`, beside `T2.v1 < pad8(k2)` when given.
        let decide_t0 = |db: &mut crate::Database, k0: u64, k2: Option<u64>| {
            let mut q = SpjQuery::new().pred(t0, Predicate::new("v1", CmpOp::Lt, pad8(k0), None));
            if let Some(k2) = k2 {
                q = q.pred(t2, Predicate::new("v1", CmpOp::Lt, pad8(k2), None));
            }
            let a = analyze(&db.schema, &q).unwrap();
            let ctx = crate::ExecCtx::new(db);
            decide(&ctx, &a).unwrap()[0].strategy
        };
        // Alone, the root's selection is Pre at every selectivity.
        for k in [0, 1, 78, 79, n0 / 2, n0 * 9 / 10, n0] {
            assert_eq!(decide_t0(&mut db, k, None), VisStrategy::Pre, "{k}/{n0}");
        }
        // Beside a table more than DEFER_RATIO times more selective (T2 at
        // 1/40), it is deferred to projection.
        let at = (DEFER_RATIO / TINY_ROWS[2] as f64 * n0 as f64) as u64;
        assert_eq!(decide_t0(&mut db, at, Some(1)), VisStrategy::Pre);
        assert_eq!(decide_t0(&mut db, at + 1, Some(1)), VisStrategy::NoFilter);
    }

    #[test]
    fn saturated_bloom_falls_back_to_no_filter() {
        // sv = 90/120 = 0.75: the filter would pass ~3/4 of the SJoin
        // stream — Figure 10's "Post-Filter is simply not executed".
        assert_eq!(decide_t1(90, false), VisStrategy::NoFilter);
        // And the pure saturation case: more elements than budget bits
        // (< 1 bit/element) makes the filter hopeless regardless of sv.
        assert!(!worth_post_filtering(500_000, 0.01, 65_536 / 2));
    }

    #[test]
    fn cross_needs_a_subtree_hidden_selection() {
        // Same low selectivity: without a hidden selection below T1 the
        // cross strategies are not applicable and the plain rules apply.
        assert_eq!(decide_t1(4, true), VisStrategy::CrossPre);
        assert_eq!(decide_t1(4, false), VisStrategy::Post);
        assert_eq!(decide_t1(0, false), VisStrategy::Pre);
    }

    #[test]
    fn root_table_never_crosses() {
        // A visible selection on the root cannot cross-filter (the probe
        // list climbs *to* the root); even with hidden selections present
        // the decision stays in the Pre/Post family.
        let mut db = testkit::tiny_db();
        let t0 = db.schema.root();
        let t12 = db.schema.table_id("T12").unwrap();
        let q = SpjQuery::new()
            .pred(t0, Predicate::new("v1", CmpOp::Lt, pad8(6), None))
            .pred(t12, Predicate::eq("h1", pad8(1)));
        let a = analyze(&db.schema, &q).unwrap();
        let ctx = crate::ExecCtx::new(&mut db);
        let d = decide(&ctx, &a).unwrap();
        assert_eq!(d[0].strategy, VisStrategy::Pre);
    }
}

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
//!   [`CROSS_PRE_CUTOFF`], or [`OWN_CROSS_PRE_CUTOFF`] when the hidden
//!   selection is on the table itself, after which the table is treated
//!   as if it had no hidden selection below it (Cross-Post never wins by
//!   more than a few percent);
//! * without Cross: Pre wins up to [`PRE_POST_CUTOFF`] (Figure 10); Post
//!   is used above only while the Bloom filter stays useful, otherwise the
//!   selection is deferred to projection (the sV = 0.5 cutoff);
//! * a hidden selection moves the Pre/Post crossover with its hidden
//!   selectivity, which the optimizer may not see. On the root it thins
//!   the root stream that Post checks, and the cutoff is
//!   [`HIDDEN_ROOT_PRE_POST_CUTOFF`], the crossover beside the narrowest
//!   hidden root range. Outside the table's own subtree the cutoff is
//!   [`SIBLING_PRE_POST_CUTOFF`], the worst-regret crossover over hidden
//!   selectivities: there the thinned root stream gains little from
//!   SJoin's foreign-key route, so Post's advantage comes later than in the
//!   plain case. Past a cross cutoff, a hidden selection in the table's
//!   own subtree leaves the plain [`PRE_POST_CUTOFF`];
//! * a selection on the root needs no climbing-index probe, so Pre wins
//!   there up to [`ROOT_PRE_POST_CUTOFF`]. Above it Post wins while its
//!   Bloom filter stays useful; past that Pre wins again, and the
//!   selection is deferred above [`ROOT_PRE_CUTOFF`];
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
/// selection in its subtree (measured: 0.20 at ×0.01, 0.126 at ×0.002;
/// 0.50 at both scales until every stored id took its table's id width,
/// which made Post's SJoin and Merge cheaper; 0.63 → 0.50 once post plans
/// stopped reading F' back into columns).
pub const CROSS_PRE_CUTOFF: f64 = 0.19;
/// Cross-Pre vs Post when the hidden selection is on the filtered table
/// itself (`T1.v1 ∧ T1.h1`): the worst-regret point over hidden
/// selectivities 0.01–0.3, regret counted in simulated time lost
/// (measured: 0.063 at ×0.01 and ×0.002). Post's own crossover moves
/// with the hidden range: at ×0.01, from sV ≈ 0.4 at sH 0.01, 0.16 at
/// 0.03, 0.05 at 0.1 and 0.032 at 0.3. Counted as a ratio the worst
/// regret would sit at sH 0.01, where the whole query is cheap (Post 2.2×
/// a 7 ms Cross-Pre at sV 0.05, against Cross-Pre 1.2× a 38 ms Post at sH
/// 0.3), and the point would move up to 0.16. [`CROSS_PRE_CUTOFF`],
/// swept with the hidden selection on T12 instead, sits three times
/// higher.
pub const OWN_CROSS_PRE_CUTOFF: f64 = 0.055;
/// Pre vs Post on a non-root table without cross-filtering or any hidden
/// selection (measured: 0.0063 at ×0.01 and ×0.002). SJoin's foreign-key
/// route made Post's single-column SJoin cheap, which moved this from 0.08
/// to 0.020; bitmap-window Merge reductions made Pre's wide `∈`-probe
/// merge cheaper, which moved it back up to 0.03. Post plans writing the
/// QEPSJ result as the columns projection reads, with no partition pass,
/// moved it 0.03 → 0.016 (0.032 → 0.016 at ×0.002, 0.025 → 0.013 at
/// ×0.01). Narrow id cells in projection temporaries, which save most on
/// Post's larger QEPSJ result, moved it 0.016 → 0.010, and narrow stored
/// ids, which halve the foreign-key column Post's SJoin reads, 0.010 →
/// 0.006.
pub const PRE_POST_CUTOFF: f64 = 0.006;
/// Pre vs Post on a non-root table without cross-filtering beside a hidden
/// selection in a sibling subtree: the worst-regret point over hidden
/// selectivities 0.01–0.3, regret counted in simulated time lost or as a
/// ratio alike (measured: 0.08 at ×0.01, 0.050 at ×0.002;
/// 0.13 at ×0.002 and 0.16 at ×0.01 before narrow stored ids, and
/// 0.16 → 0.13 at ×0.002 once post plans stopped reading F' back into
/// columns).
pub const SIBLING_PRE_POST_CUTOFF: f64 = 0.07;
/// Pre vs Post on a non-root table without cross-filtering when the root
/// carries a hidden selection: the crossover at hidden selectivity 0.01,
/// the narrowest swept (measured: 0.010 at ×0.01, 0.008 at ×0.002; 0.016
/// before narrow stored ids, down from 0.032 before SJoin's foreign-key
/// route; 0.020 since bitmap-window Merge reductions, one grid step up,
/// and 0.020 → 0.016 once post plans stopped reading F' back into
/// columns). Wider hidden root ranges move the crossover (0.013 at 0.03,
/// 0.010 at 0.1, 0.008 at 0.3, at ×0.01), so on them one side pays a
/// little regret between here and there: the price of never paying Pre's
/// regret on a narrow hidden range.
pub const HIDDEN_ROOT_PRE_POST_CUTOFF: f64 = 0.009;
/// Pre vs Post on the root table (measured: the first grid point where
/// Post wins is 0.16 at ×0.002 and ×0.01, 0.127 before narrow stored ids;
/// 0.16 before narrow id cells in projection temporaries). Post never beat
/// Pre on the root while post-filter plans wrote F' as rows and projection
/// read them back into per-table columns; with SJoin writing the columns
/// directly it wins from here until its Bloom filter stops being useful
/// (sV ≈ 0.7).
pub const ROOT_PRE_POST_CUTOFF: f64 = 0.13;
/// Pre vs NoFilter on the root table (measured: 0.81–0.93; the first grid
/// point where NoFilter wins is 1.0 at ×0.002 and ×0.01).
pub const ROOT_PRE_CUTOFF: f64 = 0.9;
/// With several visible tables, a table is deferred to projection when its
/// sV exceeds this multiple of the most selective table's (measured: 6.35
/// at ×0.01, 2.52 at ×0.002, with the most selective sV at 0.01; 4.0 at
/// ×0.002 and 10.1 at ×0.01 before narrow stored ids; 3.17 and 5.0 before
/// bitmap-window Merge reductions made filtering cheaper; 8.0 at ×0.01
/// while projection shipped a filtered table's ids a second time).
pub const DEFER_RATIO: f64 = 5.5;

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
            if sv > ROOT_PRE_POST_CUTOFF && worth_post(matching, sv) {
                VisStrategy::Post
            } else if sv <= ROOT_PRE_CUTOFF {
                VisStrategy::Pre
            } else {
                VisStrategy::NoFilter
            }
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
        // Without Cross: Pre up to PRE_POST_CUTOFF, which one T1 row of
        // 120 already passes, Post past it.
        assert!(1.0 / n1 > PRE_POST_CUTOFF);
        assert_eq!(decide_t1(0, false), VisStrategy::Pre);
        assert_eq!(decide_t1(1, false), VisStrategy::Post);
        // With Cross: Cross-Pre up to CROSS_PRE_CUTOFF (22/120), then the
        // plain rules, whose Bloom filter is still useful at 23/120.
        assert!(22.0 / n1 <= CROSS_PRE_CUTOFF && 23.0 / n1 > CROSS_PRE_CUTOFF);
        assert_eq!(decide_t1(22, true), VisStrategy::CrossPre);
        assert_eq!(decide_t1(23, true), VisStrategy::Post);
    }

    #[test]
    fn a_hidden_selection_on_the_table_itself_has_its_own_cross_cutoff() {
        // T1 carries `v1 < pad8(k)` and a hidden `h1` selection of its own:
        // Cross-Pre up to OWN_CROSS_PRE_CUTOFF (6/120), Post past it: the
        // sibling Pre/Post cutoff does not apply to T1's own selection.
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
        assert!(6.0 / n1 <= OWN_CROSS_PRE_CUTOFF && 7.0 / n1 > OWN_CROSS_PRE_CUTOFF);
        assert!(7.0 / n1 <= SIBLING_PRE_POST_CUTOFF);
        assert_eq!(decide_own(6), VisStrategy::CrossPre);
        assert_eq!(decide_own(7), VisStrategy::Post);
        // A hidden selection below T1 keeps the subtree cutoff.
        assert_eq!(decide_t1(7, true), VisStrategy::CrossPre);
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
        assert!(8.0 / n1 <= SIBLING_PRE_POST_CUTOFF && 9.0 / n1 > SIBLING_PRE_POST_CUTOFF);
        assert_eq!(decide_with(1, "T0"), VisStrategy::Pre);
        assert_eq!(decide_with(2, "T0"), VisStrategy::Post);
        assert_eq!(decide_with(8, "T2"), VisStrategy::Pre);
        assert_eq!(decide_with(9, "T2"), VisStrategy::Post);
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
        // at 16/120 = 0.133 stays within DEFER_RATIO × 0.025: both keep
        // their own filter (Post, both being past PRE_POST_CUTOFF).
        assert_eq!(decide_t1_t2(3, 1), (VisStrategy::Post, VisStrategy::Post));
        assert_eq!(decide_t1_t2(16, 1), (VisStrategy::Post, VisStrategy::Post));
        // At 17/120 T1 is past the ratio: it is checked at projection.
        let (n1, n2) = (TINY_ROWS[1] as f64, TINY_ROWS[2] as f64);
        assert!(16.0 / n1 <= DEFER_RATIO / n2 && 17.0 / n1 > DEFER_RATIO / n2);
        assert_eq!(
            decide_t1_t2(17, 1),
            (VisStrategy::NoFilter, VisStrategy::Post)
        );
        // The rule is symmetric: the most selective table is kept whichever
        // it is (T1 at 1/120, past PRE_POST_CUTOFF).
        assert_eq!(
            decide_t1_t2(1, 2),
            (VisStrategy::Post, VisStrategy::NoFilter)
        );
    }

    #[test]
    fn root_selections_switch_at_the_root_cutoffs() {
        let mut db = testkit::tiny_db();
        let t0 = db.schema.root();
        let n0 = TINY_ROWS[0];
        let decide_t0 = |db: &mut crate::Database, k: u64| {
            let q = SpjQuery::new().pred(t0, Predicate::new("v1", CmpOp::Lt, pad8(k), None));
            let a = analyze(&db.schema, &q).unwrap();
            let ctx = crate::ExecCtx::new(db);
            decide(&ctx, &a).unwrap()[0].strategy
        };
        // Pre up to ROOT_PRE_POST_CUTOFF (78/600), Post past it while the
        // Bloom filter is useful.
        let n = n0 as f64;
        assert!(78.0 / n <= ROOT_PRE_POST_CUTOFF && 79.0 / n > ROOT_PRE_POST_CUTOFF);
        assert_eq!(decide_t0(&mut db, 78), VisStrategy::Pre);
        assert_eq!(decide_t0(&mut db, 79), VisStrategy::Post);
        assert_eq!(decide_t0(&mut db, n0 / 2), VisStrategy::Post);
        // A filter passing 90% of the root stream prunes too little: Pre
        // again, up to ROOT_PRE_CUTOFF.
        let at = (ROOT_PRE_CUTOFF * n0 as f64) as u64;
        assert_eq!(decide_t0(&mut db, at), VisStrategy::Pre);
        assert_eq!(decide_t0(&mut db, at + 1), VisStrategy::NoFilter);
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
        assert_eq!(decide_t1(1, true), VisStrategy::CrossPre);
        assert_eq!(decide_t1(1, false), VisStrategy::Post);
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

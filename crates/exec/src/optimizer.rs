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
//!   table or its subtree; Cross-Pre is then the cheapest plan at every sV
//!   (SJoin reads a Cross-Pre probe's targets through its keys), or up to
//!   [`OWN_CROSS_PRE_CUTOFF`] when the hidden selection is on the table
//!   itself, after which the table is treated as if it had no hidden
//!   selection below it (Cross-Post never wins by more than a few
//!   percent);
//! * without Cross: Pre wins up to [`PRE_POST_CUTOFF`] (Figure 10); Post
//!   is used above only while the Bloom filter stays useful, otherwise the
//!   selection is deferred to projection (the sV = 0.5 cutoff);
//! * a hidden selection moves the Pre/Post crossover with its hidden
//!   selectivity, which the optimizer may not see. On the root it thins
//!   the root stream that Post checks, and the cutoff is
//!   [`HIDDEN_ROOT_PRE_POST_CUTOFF`], the crossover beside the narrowest
//!   hidden root range, which climbs to
//!   [`SMALL_HIDDEN_ROOT_PRE_POST_CUTOFF`] on small roots. Outside the
//!   table's own subtree the cutoff is [`SIBLING_PRE_POST_CUTOFF`], the
//!   worst-regret crossover over hidden selectivities. Past a cross
//!   cutoff, a hidden selection in the table's own subtree leaves the
//!   plain [`PRE_POST_CUTOFF`];
//! * beside a table that Cross-Pre filters, whose root stream is thinned
//!   by its hidden selection too, a table is Pre only up to that table's
//!   sV (measured at ×0.01: the crossover lies within one grid step of
//!   it);
//! * Pre is taken only while its probe's root ids, estimated from public
//!   row counts, keep SJoin keyed (`keyed_fits`): past that, SJoin reads
//!   the root SKT and Pre's cost jumps (at ×0.02 the plain crossover is
//!   this jump, at sV 0.063);
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
use crate::sjoin::KeyedIds;
use crate::strategy::{VisDecision, VisStrategy};
use crate::Result;
use ghostdb_bloom::worth_post_filtering;
use ghostdb_storage::TableId;

/// Cross-Pre vs Post when the hidden selection is on the filtered table
/// itself (`T1.v1 ∧ T1.h1`): the worst-regret point over hidden
/// selectivities 0.01–0.3, regret counted in simulated time lost
/// (measured: 0.51 at ×0.01, none up to 1 at ×0.002, since primary-key
/// probes read offset arrays; 0.40 at ×0.01, none up to 0.5 at ×0.002,
/// since SJoin reads
/// a keyed probe's targets through its keys; 0.08 at ×0.01 and 0.10 at
/// ×0.002 before; 0.063 at both before Pre plans streamed their merged
/// root ids into SJoin). Post's own crossover moves with the hidden
/// range, since Cross-Pre's probe grows with sH: at ×0.01 Post wins from
/// sV 0.51 at sH 0.3 and at 1 at sH 0.1, and not up to sV = 1 at
/// sH ≤ 0.03 (before offset arrays: below sV = 0.2 at sH 0.3 and by 0.4
/// at sH 0.1; before keyed SJoin: from sV ≈ 0.4 at sH 0.01, 0.16 at 0.03,
/// 0.05 at 0.1 and 0.032 at 0.3).
pub const OWN_CROSS_PRE_CUTOFF: f64 = 0.5;
/// Pre vs Post on a non-root table without cross-filtering or any hidden
/// selection (measured: 0.10 at ×0.01, none up to 0.5 at ×0.002, since
/// primary-key probes read offset arrays; 0.032 at ×0.01, 0.063 at
/// ×0.002, since SJoin
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
pub const PRE_POST_CUTOFF: f64 = 0.1;
/// Pre vs Post on a non-root table without cross-filtering beside a hidden
/// selection in a sibling subtree: the worst-regret point over hidden
/// selectivities 0.01–0.3, regret counted in simulated time lost or as a
/// ratio alike (measured: 0.063 at ×0.01 and none up to 0.5 at ×0.002
/// since primary-key probes read offset arrays; 0.020 at ×0.01 and 0.032
/// at ×0.002 since hidden
/// selections whose keys are the full values skip the projection
/// re-check; 0.10 at ×0.01,
/// and no crossover up to 0.2 at ×0.002, since keyed SJoin; 0.08 at
/// ×0.002 before; 0.08 and 0.050 before Pre plans streamed their merged
/// root ids into SJoin; 0.13 at ×0.002 and 0.16 at ×0.01 before narrow
/// stored ids, and 0.16 → 0.13 at ×0.002 once post plans stopped reading
/// F' back into columns).
pub const SIBLING_PRE_POST_CUTOFF: f64 = 0.063;
/// Pre vs Post on a non-root table without cross-filtering when the root
/// carries a hidden selection: the crossover at hidden selectivity 0.01,
/// the narrowest swept (measured: 0.050 at ×0.01 and 0.080 at ×0.002
/// since primary-key probes read offset arrays; 0.0127 at ×0.01 and 0.016
/// at ×0.002, unmoved by skipping the re-check of hidden selections whose keys are
/// the full values; 0.0127 at both before keyed SJoin; 0.010 and
/// 0.008 before Pre plans streamed their merged root ids into SJoin; 0.016
/// before narrow stored ids, down from 0.032 before SJoin's foreign-key
/// route; 0.020 since bitmap-window Merge reductions, one grid step up,
/// and 0.020 → 0.016 once post plans stopped reading F' back into
/// columns). Wider hidden root ranges move the crossover (0.063 at 0.03,
/// 0.080 at 0.1 and at 0.3, at ×0.01; 0.020, 0.020 and 0.025 before
/// offset arrays; 0.016, 0.0127 and 0.008 while every hidden selection
/// was re-checked), so on them one side pays a
/// little regret between here and there: the price of never paying Pre's
/// regret on a narrow hidden range.
pub const HIDDEN_ROOT_PRE_POST_CUTOFF: f64 = 0.05;
/// [`HIDDEN_ROOT_PRE_POST_CUTOFF`] at ×0.002 (a root of 20 000 rows, a
/// fifth of ×0.01's): the crossover beside the narrowest hidden root range
/// there (measured: 0.080 since primary-key probes read offset arrays;
/// 0.016 before). With offset arrays Pre's probe costs a few pages on
/// small tables, so the crossover climbs as the root shrinks. The cutoff
/// moves from this one to the ×0.01 one log-linearly in the root's public
/// row count, and stays at the nearer one outside that range.
pub const SMALL_HIDDEN_ROOT_PRE_POST_CUTOFF: f64 = 0.08;
/// Root rows of the ×0.01 and ×0.002 datasets the two hidden-root cutoffs
/// were measured on.
const HIDDEN_ROOT_CUTOFF_ROWS: [u64; 2] = [100_000, 20_000];

/// The hidden-root Pre/Post cutoff for a root of `root_rows` rows (see
/// [`SMALL_HIDDEN_ROOT_PRE_POST_CUTOFF`]).
pub fn hidden_root_pre_post_cutoff(root_rows: u64) -> f64 {
    let [large, small] = HIDDEN_ROOT_CUTOFF_ROWS.map(|r| (r as f64).ln());
    let at = ((root_rows.max(1) as f64).ln() - small) / (large - small);
    let at = at.clamp(0.0, 1.0);
    SMALL_HIDDEN_ROOT_PRE_POST_CUTOFF
        + at * (HIDDEN_ROOT_PRE_POST_CUTOFF - SMALL_HIDDEN_ROOT_PRE_POST_CUTOFF)
}
/// With several visible tables, a table is deferred to projection when its
/// sV exceeds this multiple of the most selective table's (measured: 16.0
/// at ×0.01, 80.6 at ×0.002, with the most selective sV at 0.01, since
/// primary-key probes read offset arrays; 10.1 at ×0.01, 8.0 at ×0.002
/// before; 8.0 and
/// 6.35 before keyed SJoin; 6.35 and
/// 2.52 before Pre plans streamed their merged root ids into SJoin; 4.0 at
/// ×0.002 and 10.1 at ×0.01 before narrow stored ids; 3.17 and 5.0 before
/// bitmap-window Merge reductions made filtering cheaper; 8.0 at ×0.01
/// while projection shipped a filtered table's ids a second time).
pub const DEFER_RATIO: f64 = 16.0;

/// Whether a Pre probe of `matching` ids of non-root table `t` is expected
/// to keep SJoin keyed: its root ids, estimated from public row counts
/// alone as `matching × |T0| / |T|`, paired with their keys, fit the arena
/// beside one SJoin writer per non-root table of the query (the rule
/// `plan_keyed` applies to the actual pairs). Past that point SJoin reads
/// the root SKT instead, and Pre's cost jumps.
fn keyed_fits(ctx: &ExecCtx<'_>, a: &Analyzed, t: TableId, matching: u64) -> bool {
    let rows = &ctx.cat.rows;
    let root_rows = rows[ctx.cat.schema.root()];
    let pairs = u128::from(matching) * u128::from(root_rows) / u128::from(rows[t].max(1));
    let pairs = u64::try_from(pairs).unwrap_or(u64::MAX);
    let (buffers, _) = KeyedIds::buffers(ctx, t, pairs, matching, &[]);
    buffers + a.tables.len() <= ctx.ram().capacity()
}

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
            hidden_root_pre_post_cutoff(ctx.cat.rows[root])
        } else if a.hid_sels.len() > a.hidden_in_subtree(ctx.cat.schema, t).len() {
            SIBLING_PRE_POST_CUTOFF
        } else {
            PRE_POST_CUTOFF
        }
    };
    let worth_post = |matching, sv| worth_post_filtering(matching, sv, ctx.ram().total_bytes() / 2);
    let cross = |t: TableId, sv: f64| {
        t != root
            && !a.hidden_in_subtree(ctx.cat.schema, t).is_empty()
            && (a.hid_sels.iter().all(|h| h.table != t) || sv <= OWN_CROSS_PRE_CUTOFF)
    };
    // The least sV among the tables Cross-Pre filters.
    let cross_sv = (a.vis_preds.iter().zip(&svs))
        .filter(|((t, _), (_, sv))| cross(*t, *sv))
        .map(|(_, (_, sv))| *sv)
        .fold(f64::INFINITY, f64::min);
    let mut out = Vec::with_capacity(svs.len());
    for ((t, _), &(matching, sv)) in a.vis_preds.iter().zip(&svs) {
        let strategy = if sv > DEFER_RATIO * min_sv {
            VisStrategy::NoFilter
        } else if *t == root {
            VisStrategy::Pre
        } else if cross(*t, sv) {
            VisStrategy::CrossPre
        } else if sv <= pre_post_cutoff(*t).min(cross_sv) && keyed_fits(ctx, a, *t, matching) {
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
        // Without Cross: Pre up to PRE_POST_CUTOFF (12/120), Post past it.
        assert!(12.0 / n1 <= PRE_POST_CUTOFF && 13.0 / n1 > PRE_POST_CUTOFF);
        assert_eq!(decide_t1(12, false), VisStrategy::Pre);
        assert_eq!(decide_t1(13, false), VisStrategy::Post);
        // With Cross: Cross-Pre at every selectivity.
        for k in [30, 31, 90, 120] {
            assert_eq!(decide_t1(k, true), VisStrategy::CrossPre, "{k}/120");
        }
    }

    #[test]
    fn a_hidden_selection_on_the_table_itself_has_its_own_cross_cutoff() {
        // T1 carries `v1 < pad8(k)` and a hidden `h1` selection of its own:
        // Cross-Pre up to OWN_CROSS_PRE_CUTOFF (60/120), then the plain
        // rules, Post at 61/120.
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
        assert!(60.0 / n1 <= OWN_CROSS_PRE_CUTOFF && 61.0 / n1 > OWN_CROSS_PRE_CUTOFF);
        assert_eq!(decide_own(60), VisStrategy::CrossPre);
        assert_eq!(decide_own(61), VisStrategy::Post);
        // A hidden selection below T1 keeps Cross-Pre.
        assert_eq!(decide_t1(61, true), VisStrategy::CrossPre);
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
        // The tiny root is below ×0.002's: the small-root cutoff applies.
        let hidden_root = hidden_root_pre_post_cutoff(TINY_ROWS[0]);
        assert_eq!(hidden_root, SMALL_HIDDEN_ROOT_PRE_POST_CUTOFF);
        assert!(9.0 / n1 <= hidden_root && 10.0 / n1 > hidden_root);
        assert!(7.0 / n1 <= SIBLING_PRE_POST_CUTOFF && 8.0 / n1 > SIBLING_PRE_POST_CUTOFF);
        assert_eq!(decide_with(9, "T0"), VisStrategy::Pre);
        assert_eq!(decide_with(10, "T0"), VisStrategy::Post);
        assert_eq!(decide_with(7, "T2"), VisStrategy::Pre);
        assert_eq!(decide_with(8, "T2"), VisStrategy::Post);
    }

    #[test]
    fn the_hidden_root_cutoff_moves_with_the_root_size() {
        let cutoff = hidden_root_pre_post_cutoff;
        assert_eq!(cutoff(100_000), HIDDEN_ROOT_PRE_POST_CUTOFF);
        assert_eq!(cutoff(1_000_000), HIDDEN_ROOT_PRE_POST_CUTOFF);
        assert_eq!(cutoff(20_000), SMALL_HIDDEN_ROOT_PRE_POST_CUTOFF);
        assert_eq!(cutoff(0), SMALL_HIDDEN_ROOT_PRE_POST_CUTOFF);
        let mid = cutoff(44_721); // √(20 000 × 100 000)
        let half = (HIDDEN_ROOT_PRE_POST_CUTOFF + SMALL_HIDDEN_ROOT_PRE_POST_CUTOFF) / 2.0;
        assert!((mid - half).abs() < 1e-4, "{mid} vs {half}");
    }

    #[test]
    fn a_cross_pre_table_caps_the_pre_post_cutoff_of_the_others() {
        // T1 (`v1 < pad8(k1)` of 120) is Cross-Pre filtered through the
        // hidden T12 selection; T2 (`v1 < pad8(k2)` of 40) has no hidden
        // selection below it: Pre while its sV does not exceed T1's.
        let decide_t2 = |k1: u64, k2: u64| {
            let mut db = testkit::tiny_db();
            let t1 = db.schema.table_id("T1").unwrap();
            let t2 = db.schema.table_id("T2").unwrap();
            let t12 = db.schema.table_id("T12").unwrap();
            let q = SpjQuery::new()
                .pred(t1, Predicate::new("v1", CmpOp::Lt, pad8(k1), None))
                .pred(t2, Predicate::new("v1", CmpOp::Lt, pad8(k2), None))
                .pred(t12, Predicate::eq("h1", pad8(1)));
            let a = analyze(&db.schema, &q).unwrap();
            let ctx = crate::ExecCtx::new(&mut db);
            let d = decide(&ctx, &a).unwrap();
            let of = |t| d.iter().find(|d| d.table == t).unwrap().strategy;
            (of(t1), of(t2))
        };
        // T1 at 6/120 = 0.05: T2 at 2/40 = 0.05 ties it, 3/40 is past it.
        assert_eq!(decide_t2(6, 2), (VisStrategy::CrossPre, VisStrategy::Pre));
        assert_eq!(decide_t2(6, 3), (VisStrategy::CrossPre, VisStrategy::Post));
        // Without the hidden selection T1 is plain Pre, and T2 at 3/40
        // keeps Pre.
        assert_eq!(decide_t1_t2(6, 3), (VisStrategy::Pre, VisStrategy::Pre));
    }

    #[test]
    fn pre_is_taken_only_while_the_keyed_pairs_fit() {
        // T1 at 3/120, within PRE_POST_CUTOFF: Pre with the paper's 32
        // buffers. Its 3 T1 ids estimate 3 × 600 / 120 = 15 root ids, 2
        // bytes each plus a 1-byte key: one buffer of 64 bytes, beside
        // one buffer per table of the query, overflows a 2-buffer arena.
        assert_eq!(decide_t1(3, false), VisStrategy::Pre);
        let mut db = testkit::tiny_db();
        db.token.ram = ghostdb_token::RamArena::new(64, 2);
        let t1 = db.schema.table_id("T1").unwrap();
        let q = SpjQuery::new().pred(t1, Predicate::new("v1", CmpOp::Lt, pad8(3), None));
        let a = analyze(&db.schema, &q).unwrap();
        let ctx = crate::ExecCtx::new(&mut db);
        assert!(!keyed_fits(&ctx, &a, t1, 3));
        assert_ne!(decide(&ctx, &a).unwrap()[0].strategy, VisStrategy::Pre);
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
        // at 48/120 = 0.4 stays within DEFER_RATIO × 0.025: both keep
        // their own filter (Pre within PRE_POST_CUTOFF, Post past it).
        assert_eq!(decide_t1_t2(3, 1), (VisStrategy::Pre, VisStrategy::Pre));
        assert_eq!(decide_t1_t2(48, 1), (VisStrategy::Post, VisStrategy::Pre));
        // At 49/120 T1 is past the ratio: it is checked at projection.
        let (n1, n2) = (TINY_ROWS[1] as f64, TINY_ROWS[2] as f64);
        assert!(48.0 / n1 <= DEFER_RATIO / n2 && 49.0 / n1 > DEFER_RATIO / n2);
        assert_eq!(
            decide_t1_t2(49, 1),
            (VisStrategy::NoFilter, VisStrategy::Pre)
        );
        // The rule is symmetric: the most selective table is kept whichever
        // it is (T1 at 1/120; T2 at 7/40 is 21 times that).
        assert_eq!(
            decide_t1_t2(1, 7),
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
        assert_eq!(decide_t1(13, true), VisStrategy::CrossPre);
        assert_eq!(decide_t1(13, false), VisStrategy::Post);
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

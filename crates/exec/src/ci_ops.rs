//! The `CI` operator: climbing-index lookups (paper §3.3).
//!
//! `CI(I, P, π)` looks up index `I`, and for each entry satisfying `P`
//! delivers the sorted sublist of IDs of the table selected by `π`
//! (the indexed table or any ancestor the index climbs to). `P` is either
//! `attribute θ value` (range/equality) or `attribute ∈ {value}` (the
//! probe-list form produced by visible selections).

use crate::ctx::ExecCtx;
use crate::error::ExecError;
use crate::report::OpKind;
use crate::source::IdSource;
use crate::Result;
use ghostdb_flash::{FlashDevice, FlashStats};
use ghostdb_index::ClimbingIndex;
use ghostdb_storage::{Id, IdList, Predicate, TableId};
use ghostdb_token::RamArena;
use std::collections::HashMap;

/// Key of one shared climbing-index traversal: the probed index identity
/// plus the key range derived from the predicate. A pure function of
/// public query text and the catalog — never of host-returned data — so
/// grouping queries by this key reveals nothing the queries themselves
/// don't (see `SECURITY.md`).
pub type PrefetchKey = (TableId, String, u64, u64);

/// One banked traversal: every level's sublists decoded from a single
/// `CiProbe::lookup_range_multi` pass, plus the flash-counter delta that
/// pass cost. By the level-independence property the differential suite
/// pins down (`ci_multi_equivalence`), that delta equals what a solo
/// query's own traversal over the same range would charge regardless of
/// which level subset it asks for — which is what lets a hit bill the
/// served query as-if-solo, bit for bit.
#[derive(Debug)]
pub struct PrefetchEntry {
    levels: Vec<Vec<IdList>>,
    io: FlashStats,
}

impl PrefetchEntry {
    /// The banked sublists of one level.
    pub fn level(&self, level: usize) -> &[IdList] {
        &self.levels[level]
    }

    /// Flash cost of the banked traversal (what each hit charges).
    pub fn io(&self) -> FlashStats {
        self.io
    }
}

/// Cross-query climbing-index prefetch: the serve-mode batch scheduler's
/// bank of shared traversals. Built once per admission batch (one
/// `lookup_range_multi` over **all** levels per key demanded by ≥ 2
/// queued probes), then handed read-only to every execution in the batch
/// via `ExecCtx::prefetch`. Entries are never consumed: a query probing
/// the same key twice hits twice and is charged twice, exactly as its
/// solo execution would re-traverse.
#[derive(Debug, Default)]
pub struct CiPrefetch {
    entries: HashMap<PrefetchKey, PrefetchEntry>,
}

impl CiPrefetch {
    /// Empty bank.
    pub fn new() -> Self {
        CiPrefetch::default()
    }

    /// Number of banked traversals.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing was banked (the scheduler then skips the
    /// prefetch plumbing entirely).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Run and bank one shared traversal over **all** of `ci`'s levels.
    /// `ram` must be a scratch arena (`RamArena::fresh_like`), not the
    /// token's: the bank is built outside any query, so its buffers must
    /// not count toward any query's RAM peak.
    pub fn insert_traversal(
        &mut self,
        dev: &mut FlashDevice,
        ram: &RamArena,
        ci: &ClimbingIndex,
        lo: u64,
        hi: u64,
    ) -> Result<()> {
        ram.check_page_fit(dev.page_size())?;
        let mut probe = ci.probe(ram)?;
        let levels: Vec<usize> = (0..ci.levels.len()).collect();
        let before = dev.snapshot();
        let lists = probe.lookup_range_multi(dev, lo, hi, &levels)?;
        let io = dev.stats_since(&before);
        self.entries.insert(
            (ci.table, ci.column.clone(), lo, hi),
            PrefetchEntry { levels: lists, io },
        );
        Ok(())
    }

    /// The banked traversal for `(ci, [lo, hi])`, if any.
    pub fn get(&self, ci: &ClimbingIndex, lo: u64, hi: u64) -> Option<&PrefetchEntry> {
        self.entries.get(&(ci.table, ci.column.clone(), lo, hi))
    }
}

/// Resolve the level index of `target` in `ci`, erroring with context.
pub fn level_of(ctx: &ExecCtx<'_>, ci: &ClimbingIndex, target: TableId) -> Result<usize> {
    ci.level_of(target).ok_or_else(|| {
        ExecError::StrategyNotApplicable(format!(
            "index on {}.{} does not climb to {}",
            ctx.cat.schema.def(ci.table).name,
            ci.column,
            ctx.cat.schema.def(target).name
        ))
    })
}

/// `CI(I, attribute θ value, target)`: one sorted sublist per matching
/// entry.
pub fn select_sublists(
    ctx: &mut ExecCtx<'_>,
    ci: &ClimbingIndex,
    pred: &Predicate,
    target: TableId,
) -> Result<Vec<IdSource>> {
    let level = level_of(ctx, ci, target)?;
    let (lo, hi) = pred.key_range();
    if let Some(hit) = ctx.knobs.prefetch.and_then(|p| p.get(ci, lo, hi)) {
        return ctx.track(OpKind::Ci, |ctx| {
            // Reproduce the solo probe's RAM pin (it counts toward the
            // query's RAM peak) and bill the banked traversal's flash
            // delta, so reports match solo execution bit for bit.
            let ram = ctx.ram();
            let _probe = ci.probe(&ram)?;
            ctx.lane.charge(hit.io());
            Ok(hit
                .level(level)
                .iter()
                .copied()
                .map(IdSource::Flash)
                .collect())
        });
    }
    ctx.track(OpKind::Ci, |ctx| {
        let ram = ctx.ram();
        let mut probe = ci.probe(&ram)?;
        let lists = ctx
            .lane
            .with_flash(|dev| probe.lookup_range(dev, lo, hi, level))?;
        Ok(lists.into_iter().map(IdSource::Flash).collect())
    })
}

/// `CI(I, attribute θ value, {targets})`: sublists for several levels from
/// a **single** B+-tree traversal — the paper's remark that the "redundant
/// lookup" of Cross-Post plans "can be easily avoided in practice", since
/// every leaf payload carries all levels. Each qualifying leaf entry is
/// visited once (`CiProbe::lookup_range_multi` in `ghostdb_index`) and all
/// requested levels
/// decode from its payload, so the flash pages charged to `OpKind::Ci`
/// equal those of *one* per-level scan, independent of `targets.len()`.
///
/// [`naive_select_sublists_multi`] keeps the per-level reference path; the
/// differential suite (`ci_multi_equivalence`) and the `micro/ci/multi-*`
/// perfbench pair hold the two to identical sublists.
pub fn select_sublists_multi(
    ctx: &mut ExecCtx<'_>,
    ci: &ClimbingIndex,
    pred: &Predicate,
    targets: &[TableId],
) -> Result<Vec<Vec<IdSource>>> {
    let levels: Vec<usize> = targets
        .iter()
        .map(|t| level_of(ctx, ci, *t))
        .collect::<Result<_>>()?;
    let (lo, hi) = pred.key_range();
    if let Some(hit) = ctx.knobs.prefetch.and_then(|p| p.get(ci, lo, hi)) {
        return ctx.track(OpKind::Ci, |ctx| {
            let ram = ctx.ram();
            let _probe = ci.probe(&ram)?;
            ctx.lane.charge(hit.io());
            Ok(levels
                .iter()
                .map(|&l| hit.level(l).iter().copied().map(IdSource::Flash).collect())
                .collect())
        });
    }
    ctx.track(OpKind::Ci, |ctx| {
        let ram = ctx.ram();
        let mut probe = ci.probe(&ram)?;
        let lists = ctx
            .lane
            .with_flash(|dev| probe.lookup_range_multi(dev, lo, hi, &levels))?;
        Ok(lists
            .into_iter()
            .map(|level| level.into_iter().map(IdSource::Flash).collect())
            .collect())
    })
}

/// Per-level reference for [`select_sublists_multi`]: one full
/// `CiProbe::naive_lookup_range` traversal per target level on a shared
/// probe — the pre-batching behaviour verbatim (mirroring the
/// `NaiveUnionStream` pattern). Same sublists; re-reads the range's leaf
/// pages and re-copies every payload once per level, so it is the honest
/// baseline the single-traversal path is judged against.
pub fn naive_select_sublists_multi(
    ctx: &mut ExecCtx<'_>,
    ci: &ClimbingIndex,
    pred: &Predicate,
    targets: &[TableId],
) -> Result<Vec<Vec<IdSource>>> {
    let levels: Vec<usize> = targets
        .iter()
        .map(|t| level_of(ctx, ci, *t))
        .collect::<Result<_>>()?;
    let (lo, hi) = pred.key_range();
    ctx.track(OpKind::Ci, |ctx| {
        let ram = ctx.ram();
        let mut probe = ci.probe(&ram)?;
        let mut out: Vec<Vec<IdSource>> = vec![Vec::new(); targets.len()];
        ctx.lane.with_flash(|dev| -> Result<()> {
            for (i, level) in levels.iter().enumerate() {
                let lists = probe.naive_lookup_range(dev, lo, hi, *level)?;
                out[i] = lists.into_iter().map(IdSource::Flash).collect();
            }
            Ok(())
        })?;
        Ok(out)
    })
}

/// `CI(I, id ∈ probe_ids, target)`: one sublist per present probe id.
///
/// Probe ids are sorted once (they normally arrive ascending from sorted
/// visible selections or merges, making the sort a single verification
/// pass) and the whole batch walks the B+-tree strictly forward, so runs of
/// ids falling in the same leaf are resolved in place without per-id
/// root-to-leaf descents.
pub fn probe_in(
    ctx: &mut ExecCtx<'_>,
    ci: &ClimbingIndex,
    probe_ids: &[Id],
    target: TableId,
) -> Result<Vec<IdSource>> {
    let level = level_of(ctx, ci, target)?;
    let mut keys: Vec<u64> = probe_ids.iter().map(|id| *id as u64).collect();
    keys.sort_unstable();
    ctx.track(OpKind::Ci, |ctx| {
        let ram = ctx.ram();
        let mut probe = ci.probe(&ram)?;
        let lists = ctx
            .lane
            .with_flash(|dev| probe.lookup_eq_run(dev, &keys, level))?;
        Ok(lists
            .into_iter()
            .filter(|l| l.count > 0)
            .map(IdSource::Flash)
            .collect())
    })
}

/// Estimated selectivity of a hidden predicate from index statistics
/// (distinct-count uniformity assumption; used by the optimizer).
pub fn estimate_selectivity(ci: &ClimbingIndex, pred: &Predicate) -> f64 {
    let distinct = ci.distinct().max(1) as f64;
    match pred.op {
        ghostdb_storage::CmpOp::Eq => 1.0 / distinct,
        _ => {
            // Range selectivity from the key range: assume keys spread
            // uniformly — good enough to pick a strategy.
            let (lo, hi) = pred.key_range();
            if hi <= lo {
                return 0.0;
            }
            // Normalise against the full u64 span only when unbounded;
            // otherwise this is a heuristic third.
            if lo == 0 || hi == u64::MAX {
                0.33
            } else {
                0.5
            }
        }
    }
}

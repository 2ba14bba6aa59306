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
use ghostdb_index::ClimbingIndex;
use ghostdb_storage::{Id, Predicate, TableId};

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
/// entry ([`select_sublists_multi`] with one target).
pub fn select_sublists(
    ctx: &mut ExecCtx<'_>,
    ci: &ClimbingIndex,
    pred: &Predicate,
    target: TableId,
) -> Result<Vec<IdSource>> {
    let mut levels = select_sublists_multi(ctx, ci, pred, &[target])?;
    Ok(levels.pop().unwrap_or_default())
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
/// The differential suite (`ci_multi_equivalence`) holds it to the
/// per-level reference path: identical sublists, never more I/O.
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

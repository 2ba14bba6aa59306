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
use ghostdb_index::{ClimbingIndex, KeyRange, PkIndex};
use ghostdb_storage::{Id, IdList, Predicate, TableId};

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
/// every leaf carries an offset column per level. Each qualifying leaf
/// entry is visited once (`CiProbe::lookup_range_multi` in
/// `ghostdb_index`) and all requested levels decode from its leaf, so the
/// flash pages charged to `OpKind::Ci` are those of *one* per-level
/// lookup, independent of `targets.len()`; only the leaves between the
/// range's ends, read column by column, cost more bytes for each extra
/// level, never more than the per-level lookups together.
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
    let KeyRange { lo, hi, .. } = ci.key_range(pred);
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

/// `CI(I, id ∈ probe_ids, target)` on a table's primary-key index: each
/// probe id with its sublist, empty sublists dropped. Every id of a probe
/// id's sublist joins that probe id, which is what a keyed SJoin reads
/// back (see [`crate::strategy`]).
///
/// Probe ids are sorted once (they normally arrive ascending from sorted
/// visible selections or merges, making the sort a single verification
/// pass); the index finds each id's offsets by arithmetic, and the whole
/// batch reads each offset-array page once ([`PkIndex::probe_run`]).
pub fn probe_in(
    ctx: &mut ExecCtx<'_>,
    pk: &PkIndex,
    probe_ids: &[Id],
    target: TableId,
) -> Result<Vec<(Id, IdList)>> {
    let level = pk.level_of(target).ok_or_else(|| {
        ExecError::StrategyNotApplicable(format!(
            "primary-key index of {} does not climb to {}",
            ctx.cat.schema.def(pk.table).name,
            ctx.cat.schema.def(target).name
        ))
    })?;
    let mut keys = probe_ids.to_vec();
    keys.sort_unstable();
    keys.dedup();
    ctx.track(OpKind::Ci, |ctx| {
        let ram = ctx.ram();
        let lists = ctx
            .lane
            .with_flash(|dev| pk.probe_run(dev, &ram, &keys, level))?;
        Ok(keys
            .into_iter()
            .zip(lists)
            .filter(|(_, l)| l.count > 0)
            .collect())
    })
}

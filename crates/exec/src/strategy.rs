//! Filtering strategies for visible selections (paper §3.3, Figures 8–11).
//!
//! Every visible selection can be processed by:
//!
//! * **Pre-Filter** — ship the visible ids, probe the primary-key climbing
//!   index once per id, and merge the resulting root sublists (pushes the
//!   selection before the joins; suffers repetitive lookups + huge merges
//!   at low selectivity);
//! * **Cross-Pre** — first intersect the visible ids with hidden selections
//!   climbing to the *same* table, shrinking the probe list;
//! * **Post-Filter** — build a Bloom filter over the visible ids and probe
//!   it behind `SJoin` (pushes the selection after the joins; introduces
//!   false positives discarded at projection time);
//! * **Cross-Post** — Bloom over the cross-intersected set (smaller filter,
//!   fewer false positives);
//! * **Post-Select / Cross-Post-Select** — the exact-RAM-filter baseline of
//!   Figure 11;
//! * **NoFilter** — defer the visible selection entirely to projection time
//!   (also the automatic fallback when a Bloom filter would saturate,
//!   reproducing the Figure 10 cutoff at sV = 0.5).

use crate::bloom_ops::{build_bloom, BloomHandle};
use crate::ci_ops::{probe_in, select_sublists, select_sublists_multi};
use crate::ctx::ExecCtx;
use crate::error::ExecError;
use crate::merge::{merge_to_list, merge_to_vec, open_merge};
use crate::query::Analyzed;
use crate::report::OpKind;
use crate::sjoin::{sjoin_stream, SJoinTable, SJoinWriter};
use crate::source::{IdSource, SharedIds};
use crate::Result;
use ghostdb_bloom::calibrate;
use ghostdb_storage::{Id, IdList, Predicate, TableId};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Strategy for one visible selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VisStrategy {
    /// Selection before joins via pk-index probes.
    Pre,
    /// Pre with cross-filtering against subtree hidden selections.
    CrossPre,
    /// Bloom filter behind SJoin.
    Post,
    /// Bloom over the cross-intersected set.
    CrossPost,
    /// Exact RAM filter behind SJoin (Figure 11 baseline).
    PostSelect,
    /// Exact RAM filter over the cross-intersected set.
    CrossPostSelect,
    /// Defer the visible selection to projection time.
    NoFilter,
}

impl VisStrategy {
    /// Display name matching the paper's legends.
    pub fn name(&self) -> &'static str {
        match self {
            VisStrategy::Pre => "Pre-Filter",
            VisStrategy::CrossPre => "Cross-Pre-Filter",
            VisStrategy::Post => "Post-Filter",
            VisStrategy::CrossPost => "Cross-Post-Filter",
            VisStrategy::PostSelect => "Post-Select",
            VisStrategy::CrossPostSelect => "Cross-Post-Select",
            VisStrategy::NoFilter => "NoFilter",
        }
    }

    fn is_cross(&self) -> bool {
        matches!(
            self,
            VisStrategy::CrossPre | VisStrategy::CrossPost | VisStrategy::CrossPostSelect
        )
    }
}

/// Per-visible-table strategy decision.
#[derive(Debug, Clone, Copy)]
pub struct VisDecision {
    /// The table carrying visible predicates.
    pub table: TableId,
    /// Chosen strategy.
    pub strategy: VisStrategy,
}

/// The select-join result.
#[derive(Debug)]
pub enum RootIds {
    /// No selection at all: every root tuple qualifies.
    All,
    /// Sorted, duplicate-free root ids (pre-filter outcomes; exact up to
    /// deferred/approximate components listed in the outcome).
    List(IdList),
    /// Materialised `<idT0, idTi …>` rows (post-filter outcomes).
    Table(SJoinTable),
}

/// Outcome of QEPSJ, handed to the projection phase.
#[derive(Debug)]
pub struct SjOutcome {
    /// The surviving root tuples.
    pub root: RootIds,
    /// Visible tables filtered approximately (Bloom): projection must
    /// discard false positives with the exact visible id set.
    pub approx_vis: Vec<TableId>,
    /// Visible tables whose selection was not applied at all in QEPSJ:
    /// projection must apply it.
    pub deferred_vis: Vec<TableId>,
    /// Hidden predicates needing exact re-checks at projection time
    /// (non-injective index keys).
    pub recheck: Vec<(TableId, Predicate)>,
}

struct PostPlan {
    table: TableId,
    strategy: VisStrategy,
    /// Ids the filter is built over (vis ids, or the cross-intersected set).
    ids: SharedIds,
}

/// Execute the select-join part of the plan under the given per-table
/// strategies. `proj_tables` lists tables the projection phase will need id
/// columns for (they are folded into the SJoin projection, footnote 7).
pub fn execute_sj(
    ctx: &mut ExecCtx<'_>,
    a: &Analyzed,
    decisions: &[VisDecision],
    proj_tables: &[TableId],
) -> Result<SjOutcome> {
    let schema = ctx.cat.schema;
    let root = schema.root();
    let mut groups: Vec<Vec<IdSource>> = Vec::new();
    let mut crossed: HashSet<usize> = HashSet::new();
    // Root-level sublists banked by Cross-Post traversals: the hidden loop
    // below consumes these instead of re-walking the B+-tree (the paper's
    // "redundant lookup" of Cross-Post plans, avoided via the multi-level
    // read path).
    let mut root_prefetch: HashMap<usize, Vec<IdSource>> = HashMap::new();
    let mut post_plans: Vec<PostPlan> = Vec::new();
    let mut approx_vis = Vec::new();
    let mut deferred_vis = Vec::new();

    // Visible selections, per decision.
    for (t, preds) in &a.vis_preds {
        let decision = decisions
            .iter()
            .find(|d| d.table == *t)
            .copied()
            .unwrap_or(VisDecision {
                table: *t,
                strategy: VisStrategy::Pre,
            });
        let strategy = decision.strategy;
        if strategy == VisStrategy::NoFilter {
            deferred_vis.push(*t);
            continue;
        }
        // Ship the sorted visible id list (ids only at this stage).
        let shipment = ctx.vis(*t, preds, &[])?;
        let vis_ids: SharedIds = Arc::new(shipment.ids);

        // Cross-intersection with subtree hidden selections.
        let cross_ids: Option<SharedIds> = if strategy.is_cross() {
            let sels: Vec<(usize, &crate::query::HiddenSel)> = a
                .hid_sels
                .iter()
                .enumerate()
                .filter(|(_, h)| schema.is_ancestor_or_self(*t, h.table))
                .collect();
            if sels.is_empty() {
                return Err(ExecError::StrategyNotApplicable(format!(
                    "{} on {}: no hidden selection on the table or its subtree",
                    strategy.name(),
                    schema.def(*t).name
                )));
            }
            let mut lgroups: Vec<Vec<IdSource>> = vec![vec![IdSource::Host(vis_ids.clone())]];
            for (i, sel) in &sels {
                let ci = ctx.attr_index(sel.table, &sel.pred.column)?;
                // Cross-PRE applies these hidden selections exactly through
                // the probe; they leave the root groups. Cross-POST keeps
                // them (the Bloom filter is approximate), so the same index
                // is walked again for the root level in the hidden loop
                // below — decode both levels from one traversal instead.
                if strategy == VisStrategy::CrossPre {
                    lgroups.push(select_sublists(ctx, ci, &sel.pred, *t)?);
                    crossed.insert(*i);
                } else if root_prefetch.contains_key(i) {
                    // An earlier visible table already banked the root
                    // sublists of this hidden selection; only the cross
                    // level is needed here.
                    lgroups.push(select_sublists(ctx, ci, &sel.pred, *t)?);
                } else {
                    let mut both = select_sublists_multi(ctx, ci, &sel.pred, &[*t, root])?;
                    let root_subs = both.pop().expect("two requested levels");
                    lgroups.push(both.pop().expect("two requested levels"));
                    root_prefetch.insert(*i, root_subs);
                }
            }
            Some(Arc::new(merge_to_vec(ctx, lgroups, ctx.cat.rows[*t])?))
        } else {
            None
        };

        match strategy {
            VisStrategy::Pre | VisStrategy::CrossPre => {
                let probe_list = cross_ids.unwrap_or_else(|| vis_ids.clone());
                if *t == root {
                    groups.push(vec![IdSource::Host(probe_list)]);
                } else {
                    let ci = ctx.pk_index(*t)?;
                    let subs = probe_in(ctx, ci, &probe_list, root)?;
                    if subs.is_empty() {
                        // Empty selection: empty group → empty intersection.
                        groups.push(vec![IdSource::Host(Arc::new(Vec::new()))]);
                    } else {
                        groups.push(subs);
                    }
                }
            }
            VisStrategy::Post
            | VisStrategy::CrossPost
            | VisStrategy::PostSelect
            | VisStrategy::CrossPostSelect => {
                post_plans.push(PostPlan {
                    table: *t,
                    strategy,
                    ids: cross_ids.unwrap_or(vis_ids),
                });
            }
            VisStrategy::NoFilter => unreachable!("handled above"),
        }
    }

    // Hidden selections not folded into a Cross-Pre probe climb to the
    // root — via the sublists a Cross-Post traversal already banked where
    // possible, a fresh single-level scan otherwise.
    for (i, sel) in a.hid_sels.iter().enumerate() {
        if crossed.contains(&i) {
            continue;
        }
        let subs = match root_prefetch.remove(&i) {
            Some(subs) => subs,
            None => {
                let ci = ctx.attr_index(sel.table, &sel.pred.column)?;
                select_sublists(ctx, ci, &sel.pred, root)?
            }
        };
        if subs.is_empty() {
            groups.push(vec![IdSource::Host(Arc::new(Vec::new()))]);
        } else {
            groups.push(subs);
        }
    }

    // Exact re-checks the projection must run.
    let recheck: Vec<(TableId, Predicate)> = a
        .hid_sels
        .iter()
        .filter(|h| !h.exact)
        .map(|h| (h.table, h.pred.clone()))
        .collect();

    if post_plans.is_empty() {
        let root_ids = if groups.is_empty() {
            RootIds::All
        } else {
            RootIds::List(merge_to_list(ctx, groups, ctx.cat.rows[root])?)
        };
        return Ok(SjOutcome {
            root: root_ids,
            approx_vis,
            deferred_vis,
            recheck,
        });
    }

    // Post side: Bloom filters (or exact RAM filters) probed behind SJoin.
    let mut bloom_filters: Vec<(TableId, BloomHandle)> = Vec::new();
    let mut exact_filters: Vec<(TableId, SharedIds)> = Vec::new();
    for plan in post_plans {
        match plan.strategy {
            VisStrategy::Post | VisStrategy::CrossPost => {
                // Leave merge + SJoin room: the SJoin reserve below and a
                // little merge headroom; everything else may go to the BF.
                let reserve = 7usize.min(ctx.ram().capacity() / 2);
                let budget = (ctx.ram().available().saturating_sub(reserve)) * ctx.ram().buf_size();
                let n = plan.ids.len() as u64;
                let useful = calibrate(n, budget)
                    .map(|c| {
                        // Fraction of the SJoin stream the filter passes:
                        // genuine matches + fp on the rest.
                        let sel = n as f64 / ctx.cat.rows[plan.table].max(1) as f64;
                        sel + (1.0 - sel) * c.expected_fp < 0.7
                    })
                    .unwrap_or(false);
                if !useful {
                    // Figure 10: "Post-Filter is simply not executed and the
                    // selection is postponed to projection time."
                    deferred_vis.push(plan.table);
                    continue;
                }
                let sources = vec![IdSource::Host(plan.ids.clone())];
                let bf = build_bloom(ctx, OpKind::Bloom, n, &sources, budget)?
                    .expect("calibrate() succeeded above");
                approx_vis.push(plan.table);
                bloom_filters.push((plan.table, bf));
            }
            VisStrategy::PostSelect | VisStrategy::CrossPostSelect => {
                exact_filters.push((plan.table, plan.ids));
            }
            _ => unreachable!("post_plans only hold post strategies"),
        }
    }

    // Column set of F': root + post/filter tables + projection tables.
    let mut cols: Vec<TableId> = Vec::new();
    for t in bloom_filters
        .iter()
        .map(|(t, _)| *t)
        .chain(exact_filters.iter().map(|(t, _)| *t))
        .chain(proj_tables.iter().copied())
        .chain(recheck.iter().map(|(t, _)| *t))
        .chain(deferred_vis.iter().copied())
    {
        if t != root && !cols.contains(&t) {
            cols.push(t);
        }
    }

    // Merge → SJoin → ProbeBF, pipelined (reduction guarantees the merge
    // fits beside the already-allocated Bloom RAM; SJoin needs 2 scan
    // buffers, 1 for its id lookahead and 1 writer buffer → reserve 4).
    if groups.is_empty() {
        groups.push(vec![IdSource::Range {
            start: 0,
            end: ctx.cat.rows[root] as Id,
        }]);
    }
    let upper: u64 = groups
        .iter()
        .map(|g| g.iter().map(|s| s.count()).sum::<u64>())
        .min()
        .unwrap_or(0);
    let mut stream = open_merge(ctx, groups, 4, ctx.cat.rows[root])?;
    if cols.is_empty() {
        // Root-only plan (single-table schema or all filters on the root):
        // no SKT is involved, probe the owner ids directly.
        let mut writer = SJoinWriter::create(ctx, root, &cols, upper)?;
        'ids: while let Some(id) = stream.next(ctx)? {
            for (_, bf) in &bloom_filters {
                if !bf.contains(id) {
                    continue 'ids;
                }
            }
            writer.push(ctx, id, &[])?;
        }
        // The exhausted merge's readers go back to the arena before the
        // post-select passes size their RAM chunks.
        drop(stream);
        drop(bloom_filters);
        let mut table = writer.finish(ctx)?;
        for (t, ids) in exact_filters {
            table = post_select_pass(ctx, table, t, &ids)?;
        }
        return Ok(SjOutcome {
            root: RootIds::Table(table),
            approx_vis,
            deferred_vis,
            recheck,
        });
    }
    let skt = ctx.skt(root)?;
    let mut writer = SJoinWriter::create(ctx, root, &cols, upper)?;
    // Each filter with the target column it probes; root-table filters
    // probe the owner id itself.
    let probes = bloom_filters
        .iter()
        .map(|(t, bf)| {
            if *t == root {
                return Ok((None, bf));
            }
            let idx = cols
                .iter()
                .position(|c| c == t)
                .ok_or_else(|| ExecError::Query("Bloom filter column missing in F'".into()))?;
            Ok((Some(idx), bf))
        })
        .collect::<Result<Vec<_>>>()?;
    sjoin_stream(
        ctx,
        skt,
        &cols,
        |ctx| stream.next(ctx),
        |ctx, id, targets| {
            for (idx, bf) in &probes {
                if !bf.contains(idx.map_or(id, |i| targets[i])) {
                    return Ok(());
                }
            }
            writer.push(ctx, id, targets)
        },
    )?;
    drop(stream);
    drop(bloom_filters);
    let mut table = writer.finish(ctx)?;

    // Exact post-selects (Figure 11): RAM-chunked passes over F'.
    for (t, ids) in exact_filters {
        table = post_select_pass(ctx, table, t, &ids)?;
    }

    Ok(SjOutcome {
        root: RootIds::Table(table),
        approx_vis,
        deferred_vis,
        recheck,
    })
}

/// Post-Select: filter F' against an exact id set, loading the set into RAM
/// chunk by chunk and re-scanning F' per chunk (the multi-pass behaviour
/// that makes Figure 11's Post-Select curve expensive at low selectivity).
fn post_select_pass(
    ctx: &mut ExecCtx<'_>,
    table: SJoinTable,
    t: TableId,
    ids: &[Id],
) -> Result<SJoinTable> {
    let col = table
        .col_of(t)
        .ok_or_else(|| ExecError::Query("post-select column missing in F'".into()))?;
    // RAM chunk: leave 3 buffers for the scan + writer.
    let chunk_ids = ((ctx.ram().available().saturating_sub(3)) * ctx.ram().buf_size() / 4).max(1);
    let n_chunks = (ids.len() as u64).div_ceil(chunk_ids as u64).max(1);

    // Each pass scans F' fully and emits survivors of its chunk; since a row
    // matches exactly one chunk (chunks partition the id set), passes append
    // disjoint row sets. Rows must end sorted by root id: passes emit in F'
    // order, so we merge the per-pass runs at the end.
    let mut runs: Vec<SJoinTable> = Vec::new();
    for c in 0..n_chunks {
        let lo = (c * chunk_ids as u64) as usize;
        let hi = ((c + 1) * chunk_ids as u64).min(ids.len() as u64) as usize;
        let chunk: HashSet<Id> = ids[lo..hi].iter().copied().collect();
        // Hold the chunk in a RAM region (honest accounting of "loads in
        // RAM the IDs resulting from the Visible selection").
        let buffers_needed = (((hi - lo) * 4).div_ceil(ctx.ram().buf_size())).max(1);
        let _region = ctx
            .ram()
            .alloc_region(buffers_needed.min(ctx.ram().available().saturating_sub(3).max(1)))?;
        let ram = ctx.ram();
        let page_size = ctx.page_size();
        let mut reader = table.table.reader(&ram, page_size)?;
        let mut writer =
            SJoinWriter::create(ctx, table.cols[0], &table.cols[1..], table.table.rows())?;
        loop {
            // One attributed scope per row: read + decode + chunk probe.
            let next = ctx.tracked(OpKind::SJoin, |dev| -> Result<_> {
                let row = reader.next_row(dev)?;
                let Some(row) = row else { return Ok(None) };
                let layout = &table.table.layout;
                let owner = layout.get_id(row, 0);
                let mut targets = Vec::with_capacity(table.cols.len() - 1);
                for i in 1..table.cols.len() {
                    targets.push(layout.get_id(row, i));
                }
                // Column 0 is the owner id: a root-table filter probes it.
                let keep = chunk.contains(&layout.get_id(row, col));
                Ok(Some((owner, targets, keep)))
            })?;
            let Some((owner, targets, keep)) = next else {
                break;
            };
            if keep {
                writer.push(ctx, owner, &targets)?;
            }
        }
        runs.push(writer.finish(ctx)?);
    }
    if runs.len() == 1 {
        return Ok(runs.into_iter().next().expect("one run"));
    }
    merge_sjoin_runs(ctx, runs)
}

/// K-way merge of SJoin run tables by root id (column 0).
fn merge_sjoin_runs(ctx: &mut ExecCtx<'_>, runs: Vec<SJoinTable>) -> Result<SJoinTable> {
    let cols = runs[0].cols.clone();
    let total: u64 = runs.iter().map(|r| r.table.rows()).sum();
    let ram = ctx.ram();
    let page_size = ctx.page_size();
    let mut readers = runs
        .iter()
        .map(|r| {
            r.table
                .reader(&ram, page_size)
                .map_err(crate::error::ExecError::from)
        })
        .collect::<Result<Vec<_>>>()?;
    // Heads are row numbers, read in place from each run's reader.
    let mut heads: Vec<Option<u64>> = Vec::new();
    for r in readers.iter_mut() {
        heads.push(ctx.tracked(OpKind::SJoin, |dev| r.advance(dev))?);
    }
    let mut writer = SJoinWriter::create(ctx, cols[0], &cols[1..], total)?;
    let layout = runs[0].table.layout.clone();
    let mut targets: Vec<Id> = vec![0; cols.len() - 1];
    loop {
        let mut best: Option<(usize, Id)> = None;
        for (i, (r, head)) in readers.iter().zip(&heads).enumerate() {
            if let Some(row) = head {
                let key = layout.get_id(r.loaded_row(*row)?, 0);
                if best.is_none_or(|(_, b)| key < b) {
                    best = Some((i, key));
                }
            }
        }
        let Some((b, owner)) = best else { break };
        let row = readers[b].loaded_row(heads[b].expect("best head"))?;
        for (i, t) in targets.iter_mut().enumerate() {
            *t = layout.get_id(row, 1 + i);
        }
        writer.push(ctx, owner, &targets)?;
        heads[b] = ctx.tracked(OpKind::SJoin, |dev| readers[b].advance(dev))?;
    }
    writer.finish(ctx)
}

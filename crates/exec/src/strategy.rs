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
//!
//! Every plan ends with F' written as the id columns projection reads (see
//! [`crate::sjoin`]). Post-Select filters those columns: in one pass over
//! F' when its exact id sets fit in RAM, otherwise in one pass over the
//! filtered table's column per RAM chunk of a set, each writing the
//! positions it keeps; `Merge` combines the passes' lists, and a gather
//! copies the survivors out of the kept columns through [`PageCursor`]s.
//! Whether the sets fit, and the chunk count, are hidden-derived and change
//! only token-internal flash I/O (SECURITY.md claims 12–13).

use crate::bloom_ops::{build_bloom, BloomHandle};
use crate::ci_ops::{probe_in, select_sublists, select_sublists_multi};
use crate::ctx::ExecCtx;
use crate::error::ExecError;
use crate::merge::{merge_to_list, merge_to_vec, open_merge};
use crate::query::Analyzed;
use crate::report::OpKind;
use crate::sjoin::{finish_columns, id_column, SJoinTable, SJoinWriter};
use crate::source::{IdSource, SharedIds, SourceReader};
use crate::Result;
use ghostdb_bloom::calibrate;
use ghostdb_flash::FlashDevice;
use ghostdb_storage::row::id_width;
#[cfg(doc)]
use ghostdb_storage::table::PageCursor;
use ghostdb_storage::{FlashTable, Id, IdList, IdListReader, IdListWriter, Predicate, TableId};
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

/// Outcome of QEPSJ, handed to the projection phase.
#[derive(Debug)]
pub struct SjOutcome {
    /// The QEPSJ result F': the root id column and an id column for every
    /// participant, whatever the plan (footnote 7).
    pub f: SJoinTable,
    /// The non-root tables projection works on, in order: projected
    /// tables, then tables whose visible selection is approximate or
    /// deferred, then tables with a re-check.
    pub participants: Vec<TableId>,
    /// Visible tables filtered approximately (Bloom): projection must
    /// discard false positives with the exact visible id set.
    pub approx_vis: Vec<TableId>,
    /// Visible tables whose selection was not applied at all in QEPSJ:
    /// projection must apply it.
    pub deferred_vis: Vec<TableId>,
    /// Hidden predicates needing exact re-checks at projection time
    /// (non-injective index keys).
    pub recheck: Vec<(TableId, Predicate)>,
    /// The visible ids shipped per table, under all of the table's visible
    /// predicates: projection reuses them instead of shipping them again.
    pub shipped: Vec<(TableId, SharedIds)>,
}

/// The ascending root ids SJoin reads, from whichever source the plan has.
type RootFeed = Box<dyn FnMut(&mut ExecCtx<'_>) -> Result<Option<Id>>>;

struct PostPlan {
    table: TableId,
    strategy: VisStrategy,
    /// Ids the filter is built over (vis ids, or the cross-intersected set).
    ids: SharedIds,
}

/// The non-root tables projection needs an id column of, in its order
/// (see [`SjOutcome::participants`]).
fn participants(
    a: &Analyzed,
    root: TableId,
    approx_vis: &[TableId],
    deferred_vis: &[TableId],
    recheck: &[(TableId, Predicate)],
) -> Vec<TableId> {
    let mut out = Vec::new();
    for t in a
        .projections
        .iter()
        .map(|(t, _)| *t)
        .chain(approx_vis.iter().chain(deferred_vis).copied())
        .chain(recheck.iter().map(|(t, _)| *t))
    {
        if t != root && !out.contains(&t) {
            out.push(t);
        }
    }
    out
}

/// Execute the select-join part of the plan under the given per-table
/// strategies, ending with F' written as the id columns projection reads
/// (footnote 7).
pub fn execute_sj(
    ctx: &mut ExecCtx<'_>,
    a: &Analyzed,
    decisions: &[VisDecision],
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
    let mut shipped = Vec::new();

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
        shipped.push((*t, vis_ids.clone()));

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
                    let levels = select_sublists_multi(ctx, ci, &sel.pred, &[*t, root])?;
                    let [cross_subs, root_subs]: [Vec<IdSource>; 2] =
                        levels.try_into().map_err(|got: Vec<_>| {
                            ExecError::Query(format!(
                                "climbing index returned {} levels, 2 requested",
                                got.len()
                            ))
                        })?;
                    lgroups.push(cross_subs);
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

    let pre = post_plans.is_empty();
    // Columns of F' besides the root: the participants and every post
    // table. A post table is a column whether its Bloom filter is built or
    // its selection deferred, so the set is known before the filters take
    // their RAM.
    let post_tables: Vec<TableId> = post_plans.iter().map(|p| p.table).collect();
    let cols = participants(a, root, &post_tables, &deferred_vis, &recheck);
    // SJoin's two scan buffers and id lookahead, one writer buffer a column.
    let sjoin_reserve = 3 + 1 + cols.len();

    // Post side: Bloom filters (or exact RAM filters) probed behind SJoin.
    let mut bloom_filters: Vec<(TableId, BloomHandle)> = Vec::new();
    let mut exact_filters: Vec<(TableId, SharedIds)> = Vec::new();
    for plan in post_plans {
        match plan.strategy {
            VisStrategy::Post | VisStrategy::CrossPost => {
                // Leave merge + SJoin room: the SJoin reserve and a little
                // merge headroom; everything else may go to the BF.
                let reserve = (sjoin_reserve + 3).min(ctx.ram().capacity() / 2);
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
                    .ok_or_else(|| ExecError::Query(format!("no Bloom filter of {n} ids fits")))?;
                approx_vis.push(plan.table);
                bloom_filters.push((plan.table, bf));
            }
            VisStrategy::PostSelect | VisStrategy::CrossPostSelect => {
                exact_filters.push((plan.table, plan.ids));
            }
            _ => unreachable!("post_plans only hold post strategies"),
        }
    }

    // Pre side: the merged root ids (all of them with no selection), then
    // SJoin (the SJoin whose cost dominates Figures 15–16 for pre-filter
    // plans). Post side: Merge → SJoin → ProbeBF, pipelined: reduction fits
    // the merge beside the Bloom RAM and the SJoin reserve.
    let rows = ctx.cat.rows[root];
    let mut writer;
    let mut next_id: RootFeed;
    if pre {
        let source = if groups.is_empty() {
            IdSource::Range {
                start: 0,
                end: rows as Id,
            }
        } else {
            IdSource::Flash(merge_to_list(ctx, groups, rows)?)
        };
        writer = SJoinWriter::create(ctx, root, &cols, source.count())?;
        let mut feed = SourceReader::open(&source, &ctx.ram(), ctx.page_size())?;
        next_id = Box::new(move |ctx| ctx.tracked(OpKind::SJoin, |dev| feed.next(dev)));
    } else {
        if groups.is_empty() {
            groups.push(vec![IdSource::Range {
                start: 0,
                end: rows as Id,
            }]);
        }
        let upper: u64 = groups
            .iter()
            .map(|g| g.iter().map(|s| s.count()).sum::<u64>())
            .min()
            .unwrap_or(0);
        let mut stream = open_merge(ctx, groups, sjoin_reserve, rows)?;
        writer = SJoinWriter::create(ctx, root, &cols, upper)?;
        next_id = Box::new(move |ctx| stream.next(ctx));
    }
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
    writer.sjoin(ctx, &mut next_id, |id, targets| {
        probes
            .iter()
            .all(|(idx, bf)| bf.contains(idx.map_or(id, |i| targets[i])))
    })?;
    // The exhausted id feed's readers and the filters go back to the arena
    // before the post-select passes size their RAM chunks.
    drop(next_id);
    drop(probes);
    drop(bloom_filters);
    let mut table = writer.finish(ctx)?;

    // Exact post-selects (Figure 11) over F'. A column only a post-select
    // needed is not copied.
    let participants = participants(a, root, &approx_vis, &deferred_vis, &recheck);
    if !exact_filters.is_empty() {
        let keep = |t: &TableId| *t == root || participants.contains(t);
        table = post_select(ctx, &table, &exact_filters, keep)?;
    }

    Ok(SjOutcome {
        f: table,
        participants,
        approx_vis,
        deferred_vis,
        recheck,
        shipped,
    })
}

/// Post-Select: filter F' against exact id sets, keeping the columns
/// `keep` names. When every set fits in RAM beside a reader per column of
/// F' and a writer per kept column, one pass over F' copies the rows whose
/// ids every set holds. Otherwise each set is loaded into RAM chunk
/// by chunk, and each chunk is one pass over its table's column of F' that
/// writes the positions it keeps (the multi-pass behaviour that makes
/// Figure 11's Post-Select curve expensive at low selectivity). `Merge`
/// unions each filter's position lists and intersects the filters',
/// reducing when the lists outnumber the free buffers; one gather then
/// copies the survivors out of the kept columns, reading the survivors'
/// positions once whenever the free buffers hold a cursor and a writer per
/// column.
fn post_select(
    ctx: &mut ExecCtx<'_>,
    f: &SJoinTable,
    filters: &[(TableId, SharedIds)],
    keep: impl Fn(&TableId) -> bool,
) -> Result<SJoinTable> {
    // Each set with the index of its column in F'.
    let sets = (filters.iter())
        .map(|(t, ids)| {
            let at = f.tables.iter().position(|u| u == t);
            let at = at.ok_or_else(|| ExecError::Query("post-select column missing in F'".into()));
            Ok((at?, ids))
        })
        .collect::<Result<Vec<_>>>()?;
    let kept: Vec<usize> = (0..f.tables.len())
        .filter(|&i| keep(&f.tables[i]))
        .collect();
    let tables = kept.iter().map(|&i| f.tables[i]).collect();
    let rows = f.columns[0].rows();
    let set_buffers: usize = (sets.iter())
        .map(|(_, ids)| (ids.len() * 4).div_ceil(ctx.ram().buf_size()).max(1))
        .sum();
    // A column of F' is kept or filtered (or both): the one pass reads all.
    if set_buffers + f.columns.len() + kept.len() <= ctx.ram().available() {
        let _region = ctx.ram().alloc_region(set_buffers)?;
        let sets: Vec<_> = (sets.iter())
            .map(|(at, ids)| (*at, ids.iter().copied().collect()))
            .collect();
        let mut writers = (kept.iter())
            .map(|&i| id_column(ctx, f.columns[i].layout.clone(), rows))
            .collect::<Result<Vec<_>>>()?;
        scan_pass(ctx, &f.columns, &sets, |dev, _, row| {
            for (w, &i) in writers.iter_mut().zip(&kept) {
                w.push_id(dev, row[i])?;
            }
            Ok(())
        })?;
        let columns = finish_columns(ctx, writers)?;
        return Ok(SJoinTable { columns, tables });
    }
    let mut groups = Vec::with_capacity(sets.len());
    for (at, ids) in &sets {
        groups.push(select_positions(ctx, &f.columns[*at], ids)?);
    }
    let survivors = if groups.len() == 1 && groups[0].len() == 1 {
        groups[0][0]
    } else {
        let groups = groups
            .into_iter()
            .map(|g| g.into_iter().map(IdSource::Flash).collect())
            .collect();
        merge_to_list(ctx, groups, rows)?
    };
    // A cursor and a writer a column, beside the positions reader.
    let per_pass = (ctx.ram().available().saturating_sub(1) / 2).max(1);
    let columns: Vec<&FlashTable> = kept.iter().map(|&i| &f.columns[i]).collect();
    let mut out = SJoinTable {
        columns: Vec::with_capacity(columns.len()),
        tables,
    };
    for group in columns.chunks(per_pass) {
        out.columns.extend(gather(ctx, group, survivors)?);
    }
    Ok(out)
}

/// One filter's passes: for each RAM chunk of `ids`, the positions of
/// `column` whose id the chunk holds, as a sorted list on flash. Chunks
/// partition the id set, so the lists are disjoint. An empty set keeps
/// no position and needs no pass.
fn select_positions(ctx: &mut ExecCtx<'_>, column: &FlashTable, ids: &[Id]) -> Result<Vec<IdList>> {
    if ids.is_empty() {
        return Ok(vec![IdList::empty()]);
    }
    // RAM chunk: leave 3 buffers for the column reader and the list writer.
    let chunk_ids = ((ctx.ram().available().saturating_sub(3)) * ctx.ram().buf_size() / 4).max(1);
    let mut lists = Vec::new();
    for chunk in ids.chunks(chunk_ids) {
        // Hold the chunk in a RAM region (honest accounting of "loads in
        // RAM the IDs resulting from the Visible selection").
        let buffers_needed = ((chunk.len() * 4).div_ceil(ctx.ram().buf_size())).max(1);
        let _region = ctx
            .ram()
            .alloc_region(buffers_needed.min(ctx.ram().available().saturating_sub(3).max(1)))?;
        let chunk = [(0, chunk.iter().copied().collect())];
        let (ram, page_size) = (ctx.ram(), ctx.page_size());
        // Positions of F', whose rows are at most the root's.
        let width = id_width(ctx.cat.rows[ctx.cat.schema.root()]);
        let mut writer =
            IdListWriter::create(ctx.lane.alloc(), &ram, column.rows(), width, page_size)?;
        ctx.add_temp(writer.segment());
        scan_pass(ctx, std::slice::from_ref(column), &chunk, |dev, pos, _| {
            Ok(writer.push(dev, pos)?)
        })?;
        lists.push(ctx.tracked(OpKind::Store, |dev| writer.finish(dev))?);
    }
    Ok(lists)
}

/// One pass over F': read `columns` in step and hand `emit` the position
/// and ids of each row whose id in column `at` is in `set`, for every
/// `(at, set)` of `sets`. Reads are billed to `SJoin`, `emit`'s writes to
/// `Store`.
fn scan_pass(
    ctx: &mut ExecCtx<'_>,
    columns: &[FlashTable],
    sets: &[(usize, HashSet<Id>)],
    mut emit: impl FnMut(&mut FlashDevice, Id, &[Id]) -> Result<()>,
) -> Result<()> {
    let (ram, page_size) = (ctx.ram(), ctx.page_size());
    let mut readers = (columns.iter())
        .map(|c| c.reader(&ram, page_size))
        .collect::<std::result::Result<Vec<_>, _>>()?;
    let mut row = vec![0; columns.len()];
    ctx.track_rw(OpKind::SJoin, OpKind::Store, |ctx| {
        ctx.lane.with_flash(|dev| {
            for pos in 0.. {
                for ((reader, column), id) in readers.iter_mut().zip(columns).zip(&mut row) {
                    match reader.next_row(dev)? {
                        Some(bytes) => *id = column.layout.get_id(bytes, 0),
                        None => return Ok(()),
                    }
                }
                if sets.iter().all(|(at, set)| set.contains(&row[*at])) {
                    emit(dev, pos, &row)?;
                }
            }
            Ok(())
        })
    })
}

/// Copy the rows of each of `columns` at the ascending `positions` into a
/// new id column of the same layout, in one read of `positions`: each
/// column is read page by page through its own [`PageCursor`].
fn gather(
    ctx: &mut ExecCtx<'_>,
    columns: &[&FlashTable],
    positions: IdList,
) -> Result<Vec<FlashTable>> {
    let (ram, page_size) = (ctx.ram(), ctx.page_size());
    let mut feed = IdListReader::open(positions, &ram, page_size)?;
    let mut copies = Vec::with_capacity(columns.len());
    for column in columns {
        copies.push((
            column.cursor(&ram, page_size)?,
            id_column(ctx, column.layout.clone(), positions.count)?,
        ));
    }
    ctx.track_rw(OpKind::SJoin, OpKind::Store, |ctx| {
        ctx.lane.with_flash(|dev| {
            let mut next = feed.next_id(dev)?;
            while let Some(pos) = next {
                next = feed.next_id(dev)?;
                for (cursor, writer) in &mut copies {
                    cursor.push(pos as u64);
                    if next.is_none_or(|n| cursor.opens_page(n as u64)) {
                        cursor.flush(dev, next.map(u64::from))?;
                        for item in cursor.ready() {
                            writer.push(dev, item?.1)?;
                        }
                    }
                }
            }
            Ok(())
        })
    })?;
    finish_columns(ctx, copies.into_iter().map(|(_, writer)| writer).collect())
}

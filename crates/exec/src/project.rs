//! Projection: the Figure 5 `Project` algorithm (paper §4), its `NoBF`
//! ablation and the `Brute-Force` baseline (Figures 12–13).
//!
//! Distinctive constraints (§4): the PC ships many values that will not
//! survive the query (it must not learn which); post-filter strategies left
//! Bloom false positives in the QEPSJ result; and RAM is still 64 KB. The
//! algorithm therefore works **table by table** over the QEPSJ result's
//! per-table ID columns, shrinks the visible stream with a Bloom filter
//! (`σVH`), builds complete tuples in RAM-bounded `MJoin` passes, and lets
//! the final position-merge join drop every row a table failed to confirm —
//! which simultaneously kills Bloom false positives and deferred visible
//! selections, and runs the exact re-checks of the hidden selections whose
//! climbing index cannot answer them exactly (`ClimbingIndex::key_range`).
//!
//! The ID columns (Figure 5, line 1) come straight from SJoin, as footnote 7
//! allows: every plan's select-join phase ends by writing them
//! (`SjOutcome::f`), so no pass reads the QEPSJ result back to split it.
//!
//! Every id cell a projection temporary holds is as narrow as its table's
//! public row count allows ([`id_width`]): a table's column of F' and the
//! `idTi` of its MJoin runs take `id_width(|Ti|)` bytes, a run's `pos` and
//! FinalJoin's held root id take `id_width(|T0|)`. Readers take each width
//! from the temporary's layout.
//!
//! Each MJoin pass writes one `<pos, tuple>` run, and FinalJoin reads a
//! table's runs in place as a k-way merge by position (`RunMerge`): the
//! last level of the external merge is folded into its consumer, so no
//! projection row is written twice. Only when one reader per run would not
//! fit the arena's free buffers does FinalJoin first merge the fewest runs
//! that make it fit (`fit_runs`).
//!
//! One table's last pass may write no run at all. The tables' MJoin jobs
//! run in table order but for the one with the widest run row, a public
//! width, which runs last. When that table's last pass holds no more
//! entries than fit beside FinalJoin's buffers, its dict stays in the
//! arena as the table's resident tail (`Resident`): FinalJoin reads the
//! table's F' id column beside its other streams and looks each
//! position's id up in that dict, falling back to the table's earlier runs
//! on a miss (`TableStream`). A resident pass costs one id-column sweep,
//! in FinalJoin instead of MJoin, and saves its run's write and read. The
//! pass before it is cut so that the last one fills the room FinalJoin
//! leaves, where that pays (`mjoin`). The pass and run counts, the cut
//! and whether a tail stays are hidden-derived; they change only
//! token-internal flash I/O, never a host request, shipment or wire byte.
//!
//! A table with no visible side (no visible predicate, no visible
//! projection) has no visible stream to shrink. MJoin over the dense range
//! `0..|Ti|` reads every value of each scanned hidden column and cuts |Ti|
//! dict entries into passes, however few ids the QEPSJ result holds. So
//! `Project` may instead build a sparse σ: the same Bloom filter over the
//! id column, probed with the dense range, its survivors written to a
//! sorted flash temp. A per-table flash-cost comparison (`SigmaShape`)
//! picks the arm. It reads the id column's length, a hidden cardinality,
//! so the choice and the temp stay token-internal: no shipment, host
//! request or wire byte depends on them. `Project-NoBF` keeps the dense
//! range.
//!
//! Every shipment the per-table σVH + MJoin passes need is fetched before
//! the first pass, in table order (the channel's cost model is a byte sum,
//! so hoisting changes nothing); the passes then run table by table below
//! the channel. A table's visible ids are shipped at most once per query
//! outside its values: with a visible projection, its ids+values shipment
//! also gives σVH its ids, and without one the ids the select-join phase
//! shipped are reused (`SjOutcome::shipped`).

use crate::ctx::ExecCtx;
use crate::error::ExecError;
use crate::query::{Analyzed, TableProjection};
use crate::report::OpKind;
use crate::result::ResultSet;
use crate::source::{IdSource, SharedIds, SourceReader};
use crate::strategy::SjOutcome;
use crate::Result;
use ghostdb_bloom::calibrate::{self, calibrate};
use ghostdb_bloom::filter::theoretical_fp;
use ghostdb_bloom::BloomFilter;
use ghostdb_flash::{FlashDevice, FlashTiming};
use ghostdb_storage::idlist::slots_per_page;
use ghostdb_storage::row::{id_width, RowLayout};
use ghostdb_storage::table::{FlashTableReader, FlashTableWriter, PageCursor};
use ghostdb_storage::{
    ColumnType, FlashTable, HiddenColumn, HiddenImage, Id, IdListWriter, Predicate, TableId, Value,
};
use ghostdb_token::{RamArena, RamRegion};
use ghostdb_untrusted::VisShipment;
use std::collections::HashMap;
use std::sync::Arc;

/// Which projection algorithm to run (Figures 12–13).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProjectAlgo {
    /// The full Figure 5 algorithm (Bloom-filtered σVH + MJoin).
    Project,
    /// Project without the Bloom optimisation: irrelevant visible values
    /// are not pre-eliminated, inflating MJoin passes.
    ProjectNoBf,
    /// Load the QEPSJ result in RAM and random-access every attribute.
    BruteForce,
}

impl ProjectAlgo {
    /// Display name matching the paper's legends.
    pub fn name(&self) -> &'static str {
        match self {
            ProjectAlgo::Project => "Project",
            ProjectAlgo::ProjectNoBf => "Project-NoBF",
            ProjectAlgo::BruteForce => "Brute-Force",
        }
    }
}

/// A per-table projection: MJoin's runs, one per dict load written to
/// flash, of rows `<pos, idTi, values…>` sorted by `pos`, and at most one
/// resident tail, the last dict load kept in the arena. Each σ id enters
/// exactly one pass's dict, so the runs and the tail partition the
/// positions the table confirms; FinalJoin reads them as one
/// [`TableStream`]. A table no pass filled has neither and confirms no
/// position.
struct ProjTable {
    runs: Vec<FlashTable>,
    tail: Option<Resident>,
    layout: RowLayout,
    vis: Vec<(String, ColumnType)>,
    hid: Vec<HiddenColumn>,
}

/// MJoin's last pass kept in RAM for FinalJoin: the dict, the region that
/// charges it to the arena, and the table's F' id column, whose cell at
/// each position FinalJoin looks up in the dict.
struct Resident {
    dict: HashMap<Id, Vec<u8>>,
    _region: RamRegion,
    id_col: FlashTable,
}

impl ProjTable {
    /// The run row `<pos, idTi, values…>`: `pos` and `idTi` in the id
    /// widths of the root's and the table's row counts, `rows`, and each
    /// hidden value in its stored width (a foreign key's is its id width).
    fn layout(rows: [u64; 2], vis: &[(String, ColumnType)], hid: &[HiddenColumn]) -> RowLayout {
        let mut widths = rows.map(id_width).to_vec();
        widths.extend(vis.iter().map(|(_, ty)| ty.width()));
        widths.extend(hid.iter().map(HiddenColumn::width));
        RowLayout::new(&widths)
    }

    /// Column `name`'s value in `row`, one of this table's rows.
    fn value(&self, row: &[u8], name: &str) -> Option<Value> {
        if let Some(i) = self.vis.iter().position(|(n, _)| n == name) {
            return Some(Value::decode(&self.vis[i].1, self.layout.field(row, 2 + i)));
        }
        let j = self.hid.iter().position(|c| c.name == name)?;
        Some(self.hid[j].decode(self.layout.field(row, 2 + self.vis.len() + j)))
    }
}

/// The type of `t`'s column `name`, which analysis resolved.
fn column_type(ctx: &ExecCtx<'_>, t: TableId, name: &str) -> Result<ColumnType> {
    let def = ctx.cat.schema.def(t);
    (def.column(name).map(|c| c.ty))
        .ok_or_else(|| ExecError::Query(format!("{}.{name} is not a column", def.name)))
}

/// `names` of `t`'s columns, each with its type.
fn typed(ctx: &ExecCtx<'_>, t: TableId, names: &[String]) -> Result<Vec<(String, ColumnType)>> {
    (names.iter())
        .map(|c| Ok((c.clone(), column_type(ctx, t, c)?)))
        .collect()
}

/// `t`'s MJoin columns under `tproj`, visible then hidden, and the run row
/// that holds them.
type RunRow = (Vec<(String, ColumnType)>, Vec<HiddenColumn>, RowLayout);

fn run_row(ctx: &ExecCtx<'_>, t: TableId, tproj: &TableProjection) -> Result<RunRow> {
    let vis = typed(ctx, t, &tproj.vis)?;
    let image = &ctx.cat.hidden[t];
    let hid = (tproj.hid.iter())
        .map(|c| Ok(image.column(c)?.clone()))
        .collect::<Result<Vec<_>>>()?;
    let rows = [ctx.cat.rows[ctx.cat.schema.root()], ctx.cat.rows[t]];
    let layout = ProjTable::layout(rows, &vis, &hid);
    Ok((vis, hid, layout))
}

/// A projection input that analysis and planning guarantee, found missing.
fn unplanned(what: impl std::fmt::Display) -> ExecError {
    ExecError::Query(format!("projection: {what} is missing"))
}

/// A table's MJoin runs read as one stream in position order: a k-way
/// merge with one reader (one buffer) per run. Each head is a row number
/// read in place from its reader's buffer, and a reader advances only
/// past a consumed head.
struct RunMerge {
    layout: RowLayout,
    readers: Vec<FlashTableReader>,
    heads: Vec<Option<u64>>,
}

impl RunMerge {
    /// Open a reader on every run and load its head.
    fn open(
        dev: &mut FlashDevice,
        runs: &[FlashTable],
        layout: &RowLayout,
        ram: &RamArena,
        page_size: usize,
    ) -> Result<Self> {
        let mut readers = runs
            .iter()
            .map(|r| r.reader(ram, page_size))
            .collect::<std::result::Result<Vec<_>, _>>()?;
        let heads = readers
            .iter_mut()
            .map(|r| r.advance(dev))
            .collect::<std::result::Result<_, _>>()?;
        Ok(RunMerge {
            layout: layout.clone(),
            readers,
            heads,
        })
    }

    /// The row at `run`'s head.
    fn head(&self, run: usize) -> Result<&[u8]> {
        let row = self.heads[run]
            .ok_or_else(|| ExecError::Query(format!("MJoin run {run} has no row left")))?;
        Ok(self.readers[run].loaded_row(row)?)
    }

    /// The position at `run`'s head, `None` once the run is consumed.
    fn pos(&self, run: usize) -> Result<Option<u32>> {
        match self.heads[run] {
            Some(_) => Ok(Some(self.layout.get_id(self.head(run)?, 0))),
            None => Ok(None),
        }
    }

    /// Consume `run`'s head.
    fn pop(&mut self, dev: &mut FlashDevice, run: usize) -> Result<()> {
        self.heads[run] = self.readers[run].advance(dev)?;
        Ok(())
    }

    /// The run whose head holds the least position, `None` once every run
    /// is consumed.
    fn least(&self) -> Result<Option<usize>> {
        let mut best: Option<(usize, u32)> = None;
        for run in 0..self.heads.len() {
            if let Some(pos) = self.pos(run)? {
                if best.is_none_or(|(_, b)| pos < b) {
                    best = Some((run, pos));
                }
            }
        }
        Ok(best.map(|(run, _)| run))
    }

    /// Consume every head before `pos`; the run whose head then sits at
    /// `pos`, if any. `pos` must not fall below an earlier seek's.
    fn seek(&mut self, dev: &mut FlashDevice, pos: u32) -> Result<Option<usize>> {
        let mut at = None;
        for run in 0..self.heads.len() {
            while let Some(p) = self.pos(run)? {
                if p < pos {
                    self.pop(dev, run)?;
                    continue;
                }
                if p == pos {
                    debug_assert!(at.is_none(), "MJoin runs share position {pos}");
                    at = Some(run);
                }
                break;
            }
        }
        Ok(at)
    }
}

/// Where a table's stream found a position: a run's head, or the resident
/// tail's dict entry for an id.
#[derive(Debug, Clone, Copy)]
enum Confirm {
    Run(usize),
    Tail(Id),
}

/// A table's stream in FinalJoin: its runs through a [`RunMerge`] and, when
/// MJoin kept its last pass resident, one reader over the table's F' id
/// column whose cell at each position is looked up in that pass's dict.
struct TableStream<'t> {
    runs: RunMerge,
    tail: Option<(&'t Resident, FlashTableReader)>,
}

impl<'t> TableStream<'t> {
    fn open(
        dev: &mut FlashDevice,
        pt: &'t ProjTable,
        ram: &RamArena,
        page_size: usize,
    ) -> Result<Self> {
        let runs = RunMerge::open(dev, &pt.runs, &pt.layout, ram, page_size)?;
        let tail = match &pt.tail {
            Some(r) => Some((r, r.id_col.reader(ram, page_size)?)),
            None => None,
        };
        Ok(TableStream { runs, tail })
    }

    /// Where the table confirms `pos`, if it does: the tail's dict first,
    /// then the runs. `pos` must rise from call to call.
    fn seek(&mut self, dev: &mut FlashDevice, pos: u32) -> Result<Option<Confirm>> {
        if let Some((resident, reader)) = &mut self.tail {
            // The id column has a row per position; skip to `pos`.
            while let Some(row) = reader.advance(dev)? {
                if row == u64::from(pos) {
                    let id = resident.id_col.layout.get_id(reader.loaded_row(row)?, 0);
                    if resident.dict.contains_key(&id) {
                        return Ok(Some(Confirm::Tail(id)));
                    }
                    break;
                }
            }
        }
        Ok(self.runs.seek(dev, pos)?.map(Confirm::Run))
    }

    /// The row found at `at`.
    fn head(&self, at: Confirm) -> Result<&[u8]> {
        match at {
            Confirm::Run(run) => self.runs.head(run),
            Confirm::Tail(id) => (self.tail.as_ref())
                .and_then(|(r, _)| r.dict.get(&id))
                .map(Vec::as_slice)
                .ok_or_else(|| missing(id)),
        }
    }
}

/// Everything one table's σVH + MJoin pass needs from the channel,
/// prefetched before the first pass.
struct TablePrep<'q> {
    tproj: &'q TableProjection,
    rechecks: Vec<&'q Predicate>,
    /// Ids satisfying the table's visible predicates (`None` when the table
    /// has no visible side at all → dense range).
    sigma_ids: Option<SharedIds>,
    /// Visible values for MJoin (the ids+values shipment of a table with a
    /// visible projection, whose ids are also `sigma_ids`).
    vis_values: Option<VisShipment>,
    /// The columns MJoin projects and its run row.
    row: RunRow,
}

/// `t`'s visible ids under `preds`, all of its visible predicates: the
/// select-join phase's shipment when it made one, a new ids-only shipment
/// otherwise.
fn vis_ids(
    ctx: &mut ExecCtx<'_>,
    sj: &SjOutcome,
    t: TableId,
    preds: &[Predicate],
) -> Result<SharedIds> {
    match sj.shipped.iter().find(|(s, _)| *s == t) {
        Some((_, ids)) => Ok(ids.clone()),
        None => Ok(Arc::new(ctx.vis(t, preds, &[])?.ids)),
    }
}

/// Execute projection and deliver the final result set.
pub fn execute(
    ctx: &mut ExecCtx<'_>,
    a: &Analyzed,
    sj: SjOutcome,
    algo: ProjectAlgo,
) -> Result<ResultSet> {
    // Step 1 (Figure 5, line 1): the per-table ID columns in root order,
    // as the select-join phase wrote them.
    let participants = &sj.participants;
    let root_col = sj.f.columns[0].clone();
    let id_cols = participants
        .iter()
        .map(|t| {
            sj.f.column(*t)
                .cloned()
                .ok_or_else(|| ExecError::Query("projection column missing in F'".into()))
        })
        .collect::<Result<Vec<_>>>()?;

    if algo == ProjectAlgo::BruteForce {
        return brute_force(ctx, a, &sj, root_col, participants, &id_cols);
    }

    // Prefetch phase: every channel shipment the per-table
    // passes will need, in table order. The channel charges a byte sum, so
    // hoisting the shipments out of the per-table loop leaves `comm` and
    // `bytes_to_secure` exactly as the interleaved serial order did.
    let mut preps: Vec<TablePrep<'_>> = Vec::with_capacity(participants.len());
    for t in participants {
        let tproj = projection_of(a, *t);
        let rechecks: Vec<&Predicate> = sj
            .recheck
            .iter()
            .filter(|(tt, _)| tt == t)
            .map(|(_, p)| p)
            .collect();
        let vis_preds = a.vis_preds_of(*t);
        let vis_values = if tproj.vis.is_empty() {
            None
        } else {
            Some(ctx.vis(*t, vis_preds, &tproj.vis)?)
        };
        let sigma_ids: Option<SharedIds> = match &vis_values {
            Some(s) => Some(Arc::new(s.ids.clone())),
            None if !vis_preds.is_empty() => Some(vis_ids(ctx, &sj, *t, vis_preds)?),
            None => None,
        };
        preps.push(TablePrep {
            tproj,
            rechecks,
            sigma_ids,
            vis_values,
            row: run_row(ctx, *t, tproj)?,
        });
    }

    // Steps 2–3, one job per participating table, in table order but for
    // the widest run row (the later table on a tie), which runs last so
    // that its last pass can stay resident for FinalJoin. Run rows are
    // public, so the order is too.
    let widths: Vec<usize> = preps.iter().map(|prep| prep.row.2.size()).collect();
    // FinalJoin's held entry: the root id, then each table's run row.
    let held = RowLayout::new(&[&[root_col.layout.size()], &widths[..]].concat());
    let fixed = final_fixed(ctx, a, &sj, &held);
    let last = (0..participants.len()).max_by_key(|i| widths[*i]);
    let job = |ctx: &mut ExecCtx<'_>, i: usize, finale: Option<usize>| -> Result<ProjTable> {
        let t = participants[i];
        let prep = &preps[i];
        let rows = ctx.cat.rows[t];
        // σVH: the visible ids filtered against this table's QEPSJ column.
        // A table with no visible side probes the dense range instead, when
        // that is cheaper than MJoin over the whole table.
        let sparse = prep.sigma_ids.is_none()
            && algo == ProjectAlgo::Project
            && sparse_sigma_pays(ctx, t, prep, id_cols[i].rows())?;
        let sigma: IdSource = match (&prep.sigma_ids, algo) {
            (Some(ids), ProjectAlgo::Project) => sigma_vh(ctx, &id_cols[i], Probe::Shipment(ids))?,
            (Some(ids), _) => IdSource::Host(ids.clone()),
            (None, _) if sparse => sigma_vh(ctx, &id_cols[i], Probe::Dense(rows as Id))?,
            (None, _) => IdSource::Range {
                start: 0,
                end: rows as Id,
            },
        };
        mjoin(ctx, t, prep, &id_cols[i], sigma, finale)
    };
    let mut outs: Vec<Option<ProjTable>> = participants.iter().map(|_| None).collect();
    for i in (0..participants.len()).filter(|i| Some(*i) != last) {
        outs[i] = Some(job(ctx, i, None)?);
    }
    if let Some(i) = last {
        // FinalJoin's buffers beside the last table's runs and dict: its
        // fixed ones, every other run's reader and the tail's F' reader.
        let runs: usize = outs.iter().flatten().map(|pt| pt.runs.len()).sum();
        outs[i] = Some(job(ctx, i, Some(fixed + runs + 1))?);
    }
    let proj_tables: Vec<(TableId, ProjTable)> = participants
        .iter()
        .copied()
        .zip(outs.into_iter().flatten())
        .collect();

    // Step 4: the final position-merge join.
    final_join(ctx, a, &sj, root_col, proj_tables, &held, fixed)
}

/// The projection analysis asked of `t`, none if it asked nothing.
fn projection_of(a: &Analyzed, t: TableId) -> &TableProjection {
    static NONE: TableProjection = TableProjection {
        vis: Vec::new(),
        hid: Vec::new(),
        id: false,
    };
    (a.projections.iter())
        .find(|(tt, _)| *tt == t)
        .map_or(&NONE, |(_, p)| p)
}

/// The buffers FinalJoin holds besides the tables' streams: the root
/// reader, the region of `held` entries, and one cursor per root re-check
/// and per projected root hidden column.
fn final_fixed(ctx: &ExecCtx<'_>, a: &Analyzed, sj: &SjOutcome, held: &RowLayout) -> usize {
    let root = ctx.cat.schema.root();
    let rechecks = sj.recheck.iter().filter(|(t, _)| *t == root).count();
    let held_buffers = held.size().div_ceil(ctx.ram().buf_size());
    1 + held_buffers + rechecks + projection_of(a, root).hid.len()
}

/// What a table's σVH Bloom filter is probed with.
#[derive(Clone, Copy)]
enum Probe<'a> {
    /// The ids of the table's visible shipment (Figure 5, line 4).
    Shipment(&'a SharedIds),
    /// The dense range `0..|Ti|`, for a table with no visible side.
    Dense(Id),
}

/// Figure 5, lines 3–4: Bloom over the table's QEPSJ id column, probed with
/// the visible ids → σVH. "The Bloom filter is calibrated by default to
/// occupy the entire RAM" (§5) minus the scan buffers.
///
/// A [`Probe::Dense`] filter takes that whole budget whatever the id
/// column's length, because its false positives scale with |Ti|. Its
/// survivors go to a sorted flash temp: σ is derived from hidden data, so
/// it stays in flash or the arena and never becomes a host-side list.
fn sigma_vh(ctx: &mut ExecCtx<'_>, id_col: &FlashTable, probe: Probe<'_>) -> Result<IdSource> {
    let n = id_col.rows();
    let ram = ctx.ram();
    let page_size = ctx.page_size();
    let budget = ram.available().saturating_sub(3) * ram.buf_size();
    let Some(cal) = calibrate(n, budget) else {
        // Hopeless filter: fall back to the unfiltered probe stream.
        return Ok(match probe {
            Probe::Shipment(ids) => IdSource::Host(ids.clone()),
            Probe::Dense(rows) => IdSource::Range {
                start: 0,
                end: rows,
            },
        });
    };
    let m_bits = match probe {
        Probe::Shipment(_) => cal.m_bits,
        Probe::Dense(_) => (budget as u64 * 8).max(cal.m_bits),
    };
    let region = ram.alloc_region(m_bits.div_ceil(8).div_ceil(ram.buf_size() as u64) as usize)?;
    let mut bf = BloomFilter::new(region, m_bits, cal.k);
    let mut reader = id_col.reader(&ram, page_size)?;
    ctx.track(OpKind::ProjBloom, |ctx| {
        ctx.lane.with_flash(|dev| {
            while let Some(row) = reader.next_row(dev)? {
                bf.insert(id_col.layout.get_id(row, 0) as u64);
            }
            Ok(())
        })
    })?;
    drop(reader);
    match probe {
        Probe::Shipment(ids) => Ok(IdSource::Host(Arc::new(
            ids.iter()
                .copied()
                .filter(|id| bf.contains(*id as u64))
                .collect(),
        ))),
        Probe::Dense(rows) => {
            let width = id_width(rows.into());
            let mut writer =
                IdListWriter::create(ctx.lane.alloc(), &ram, rows.into(), width, page_size)?;
            ctx.add_temp(writer.segment());
            let list = ctx.track(OpKind::ProjBloom, |ctx| {
                ctx.lane.with_flash(|dev| {
                    for id in (0..rows).filter(|id| bf.contains(*id as u64)) {
                        writer.push(dev, id)?;
                    }
                    Ok(writer.finish(dev)?)
                })
            })?;
            Ok(IdSource::Flash(list))
        }
    }
}

/// Whether a table with no visible side should build its σ from the QEPSJ
/// id column ([`Probe::Dense`]) rather than run MJoin over the dense range.
/// Reads the id column's length, a hidden cardinality, so the choice and
/// everything it changes stay below the channel.
fn sparse_sigma_pays(ctx: &ExecCtx<'_>, t: TableId, prep: &TablePrep<'_>, n: u64) -> Result<bool> {
    // Scans and dict entries alike hold each column's stored cells.
    let image = &ctx.cat.hidden[t];
    let widths = (prep.tproj.hid.iter())
        .chain(prep.rechecks.iter().map(|p| &p.column))
        .map(|c| Ok(image.column(c)?.width()))
        .collect::<Result<Vec<usize>>>()?;
    let projected: usize = widths[..prep.tproj.hid.len()].iter().sum();
    let id_bytes = id_width(ctx.cat.rows[t]);
    let ram = ctx.ram();
    // What MJoin's dict keeps after its scans, its two buffers (§4) and,
    // for the sparse arm, the σ reader.
    let dict_buffers = ram.available().saturating_sub(widths.len() + 2);
    let shape = SigmaShape {
        n,
        rows: ctx.cat.rows[t],
        id_bytes,
        pos_bytes: id_width(ctx.cat.rows[ctx.cat.schema.root()]),
        entry_bytes: id_bytes + projected,
        widths,
        dict_bytes: dict_buffers * ram.buf_size(),
        buf_size: ram.buf_size(),
        filter_bits: ram.available().saturating_sub(3) as u64 * ram.buf_size() as u64 * 8,
    };
    Ok(shape.sparse_ns(ctx.lane.timing(), ctx.page_size())
        < shape.dense_ns(ctx.lane.timing(), ctx.page_size()))
}

/// The inputs of the sparse-σ cost rule: the flash time each σ arm costs
/// MJoin under the Table 1 model. MJoin reads its columns in page spans
/// ([`page_spans`]): a page's spans never cost more than one whole-page
/// read, nor more than one span per wanted value. The dense arm wants
/// every value, so it reads every page whole; the filter arm's scans are
/// bounded by the cheaper of the two, so both estimates stay upper bounds
/// of what each arm reads.
///
/// [`page_spans`]: ghostdb_storage::table::page_spans
#[derive(Debug, Clone, PartialEq)]
struct SigmaShape {
    /// Rows of the QEPSJ id column.
    n: u64,
    /// |Ti|.
    rows: u64,
    /// Bytes of an `idTi` cell: of the id column and of a dict entry.
    id_bytes: usize,
    /// Bytes of a run row's `pos` cell.
    pos_bytes: usize,
    /// Widths of the hidden columns MJoin scans: projections, then
    /// re-checks.
    widths: Vec<usize>,
    /// Bytes of one dict entry (`idTi` plus the projected values).
    entry_bytes: usize,
    /// RAM left for the dict with the dense range (no σ reader).
    dict_bytes: usize,
    /// One RAM buffer (the σ reader's cost in dict space).
    buf_size: usize,
    /// Bits of the dense-probe Bloom filter.
    filter_bits: u64,
}

impl SigmaShape {
    /// MJoin over `0..|Ti|`: every page of every scanned column, and one
    /// id-column sweep per dict load.
    fn dense_ns(&self, t: &FlashTiming, page_size: usize) -> u128 {
        let columns: u128 = self
            .widths
            .iter()
            .map(|w| {
                column_pages(self.rows, *w, page_size) as u128
                    * page_read_ns(t, self.rows, *w, page_size)
            })
            .sum();
        columns + self.passes_ns(t, page_size, self.rows, self.dict_bytes)
    }

    /// Bloom sweep of the id column, the σ temp's write and read, at most
    /// one span per σ id per scanned column (never more than the whole
    /// column), and MJoin's passes over σ.
    /// σ holds at most min(n, |Ti|) distinct ids plus the filter's false
    /// positives over the rest of the range.
    fn sparse_ns(&self, t: &FlashTiming, page_size: usize) -> u128 {
        let distinct = self.n.min(self.rows);
        let fp = theoretical_fp(self.filter_bits.max(1), distinct, calibrate::PAPER_K);
        let sigma = distinct + (fp * (self.rows - distinct) as f64).ceil() as u64;
        let sigma_pages = sigma.div_ceil(slots_per_page(self.id_bytes, page_size));
        let fixed = self.sweep_ns(t, page_size)
            + sigma_pages as u128 * (t.write_cost_ns(page_size) + t.read_cost_ns(0))
            + sigma as u128 * self.id_bytes as u128 * t.transfer_ns_per_byte as u128;
        let columns: u128 = self
            .widths
            .iter()
            .map(|w| {
                let pages = column_pages(self.rows, *w, page_size) as u128
                    * page_read_ns(t, self.rows, *w, page_size);
                pages.min(sigma as u128 * t.read_cost_ns(*w))
            })
            .sum();
        let dict_bytes = self.dict_bytes.saturating_sub(self.buf_size);
        fixed + columns + self.passes_ns(t, page_size, sigma, dict_bytes)
    }

    /// One sequential read of the id column.
    fn sweep_ns(&self, t: &FlashTiming, page_size: usize) -> u128 {
        scan_ns(t, page_size, self.n * self.id_bytes as u64)
    }

    /// MJoin's passes over `entries` σ ids with `dict_bytes` of dict: one
    /// id-column sweep each, plus one read and rewrite of the runs when
    /// there is more than one. FinalJoin reads the runs in place unless
    /// [`fit_runs`] must merge some, so the term is an over-estimate.
    /// It stays on measurement: dropping it made ghostbench `sql-hidden`
    /// `sim_p50_ms` 26–39% worse.
    fn passes_ns(
        &self,
        t: &FlashTiming,
        page_size: usize,
        entries: u64,
        dict_bytes: usize,
    ) -> u128 {
        let capacity = (dict_bytes / self.entry_bytes).max(1) as u64;
        let passes = entries.div_ceil(capacity).max(1);
        let mut ns = passes as u128 * self.sweep_ns(t, page_size);
        if passes > 1 {
            let run_bytes = self.n * (self.entry_bytes + self.pos_bytes) as u64;
            ns += temp_ns(t, page_size, run_bytes);
        }
        ns
    }
}

/// One sequential read of `bytes` on flash, page by page.
fn scan_ns(t: &FlashTiming, page_size: usize, bytes: u64) -> u128 {
    bytes.div_ceil(page_size as u64) as u128 * t.read_cost_ns(0)
        + bytes as u128 * t.transfer_ns_per_byte as u128
}

/// Writing `bytes` to a flash temp and reading them back once.
fn temp_ns(t: &FlashTiming, page_size: usize, bytes: u64) -> u128 {
    bytes.div_ceil(page_size as u64) as u128 * (t.read_cost_ns(0) + t.write_cost_ns(page_size))
        + bytes as u128 * t.transfer_ns_per_byte as u128
}

/// Pages of a hidden column of `rows` values of `width` bytes.
fn column_pages(rows: u64, width: usize, page_size: usize) -> u64 {
    rows.div_ceil((page_size / width) as u64)
}

/// One whole-page read of a hidden column: the page and every value on it.
fn page_read_ns(t: &FlashTiming, rows: u64, width: usize, page_size: usize) -> u128 {
    let per_page = (page_size / width) as u64;
    t.read_cost_ns(per_page.min(rows) as usize * width)
}

/// A re-check: an exact hidden predicate, read page by page.
struct Recheck<'a> {
    column: &'a HiddenColumn,
    pred: &'a Predicate,
    cursor: PageCursor,
}

impl<'a> Recheck<'a> {
    fn open(
        image: &'a HiddenImage,
        pred: &'a Predicate,
        ram: &RamArena,
        page_size: usize,
    ) -> Result<Self> {
        let column = image.column(&pred.column)?;
        Ok(Recheck {
            column,
            pred,
            cursor: column.table().cursor(ram, page_size)?,
        })
    }
}

/// Push ascending `ids` through `cursor`, loading each page the next id
/// leaves; `each` sees every id loaded, in order, with its bytes. The ids
/// of the last page stay queued until a [`drain`].
fn through(
    dev: &mut FlashDevice,
    cursor: &mut PageCursor,
    ids: &[Id],
    mut each: impl FnMut(Id, &[u8]) -> Result<()>,
) -> Result<()> {
    for &id in ids {
        if cursor.opens_page(id as u64) {
            drain(dev, cursor, Some(id), &mut each)?;
        }
        cursor.push(id as u64);
    }
    Ok(())
}

/// Load `cursor`'s queued page, `next` being the least id still to come
/// (see [`PageCursor::flush`]); `each` sees every id loaded.
fn drain(
    dev: &mut FlashDevice,
    cursor: &mut PageCursor,
    next: Option<Id>,
    mut each: impl FnMut(Id, &[u8]) -> Result<()>,
) -> Result<()> {
    if cursor.flush(dev, next.map(u64::from))? {
        for item in cursor.ready() {
            let (row, bytes) = item?;
            each(row as Id, bytes)?;
        }
    }
    Ok(())
}

/// Run ascending `ids` through every re-check in turn; returns the ids all
/// of them accepted. Ids on a page a column has not loaded yet wait in its
/// cursor, unless `flush` is set: then each column also drains its queued
/// page, `next` being the least id still to come.
fn recheck_chain(
    dev: &mut FlashDevice,
    rechecks: &mut [Recheck<'_>],
    mut ids: Vec<Id>,
    flush: bool,
    next: Option<Id>,
) -> Result<Vec<Id>> {
    for r in rechecks {
        let mut kept = Vec::with_capacity(ids.len());
        let mut keep = |id, bytes: &[u8]| {
            if r.pred.matches(&r.column.decode(bytes)) {
                kept.push(id);
            }
            Ok(())
        };
        through(dev, &mut r.cursor, &ids, &mut keep)?;
        if flush {
            drain(dev, &mut r.cursor, next, &mut keep)?;
        }
        ids = kept;
    }
    Ok(ids)
}

/// Copy a projected value into its id's dict entry, at byte `at`.
fn into_dict(
    dict: &mut HashMap<Id, Vec<u8>>,
    at: usize,
) -> impl FnMut(Id, &[u8]) -> Result<()> + '_ {
    move |id, value| {
        let entry = dict.get_mut(&id).ok_or_else(|| missing(id))?;
        entry[at..at + value.len()].copy_from_slice(value);
        Ok(())
    }
}

/// An MJoin id that should be, and is not, in the visible shipment or the
/// dict.
fn missing(id: Id) -> ExecError {
    ExecError::Query(format!("MJoin: id {id} lost between lookahead and dict"))
}

/// Figure 5, line 6: MJoin — merge visible values, hidden columns and σVH
/// into complete tuples held in RAM (capacity minus the scan buffers), then
/// sweep the table's id column once per RAM-load, writing the `<pos, tuple>`
/// run of that pass (but for a resident last pass, below). The runs are
/// returned unmerged: FinalJoin reads them in place (see [`fit_runs`] for
/// when it merges some first). `prep` gives the table's columns, re-checks
/// and visible shipment; `sigma` is a shipment's filtered ids, a sparse σ
/// temp on flash (one more buffer, so a smaller dict) or the dense range. A σ id that is a
/// Bloom false positive enters the dict and matches no position. Each
/// re-check and projected column is read page by page through a
/// [`PageCursor`], in the spans the page's wanted ids need.
///
/// `finale` is set for the table [`execute`] runs last: the buffers
/// FinalJoin will hold besides this table's runs and dict (its fixed
/// buffers, every other table's run readers and this table's F' reader).
/// Then the pass σ runs out in writes no run when its entries fit the
/// buffers FinalJoin leaves beside one reader per run written so far: its
/// dict stays in the arena, in a region cut to the entries, as the
/// table's [`Resident`] tail. Every pass still takes the whole dict, but
/// for one: when the rest of σ takes this pass and the next, this pass
/// takes only what the next cannot keep, so that the resident pass is as
/// large as FinalJoin allows. σ's length counts the entries still to come
/// only for a table without re-checks, so only such a table cuts. Where the rest would fit this pass alone,
/// the cut adds a pass, and is made only when writing and re-reading the
/// rows the next pass keeps would cost more than the sweep it adds. The
/// pass count, the cut and the tail are hidden-derived, like the run
/// count: they change only token-internal flash I/O.
fn mjoin(
    ctx: &mut ExecCtx<'_>,
    t: TableId,
    prep: &TablePrep<'_>,
    id_col: &FlashTable,
    sigma: IdSource,
    finale: Option<usize>,
) -> Result<ProjTable> {
    let (vis, hid, layout) = prep.row.clone();
    let vis_values = prep.vis_values.as_ref();
    // A dict entry is its run row but for `pos`, which the sweep fills.
    let entry_bytes = layout.size() - layout.width(0);

    // Page cursors over the re-check columns and the projected hidden
    // columns, one buffer each.
    let image = &ctx.cat.hidden[t];
    let ram = ctx.ram();
    let page_size = ctx.page_size();
    // What FinalJoin will find free: MJoin's buffers are all its own.
    let free = ram.available();
    let mut hid_cursors: Vec<PageCursor> = hid
        .iter()
        .map(|c| Ok(c.table().cursor(&ram, page_size)?))
        .collect::<Result<_>>()?;
    let mut recheck_cols: Vec<Recheck<'_>> = (prep.rechecks.iter())
        .map(|p| Recheck::open(image, p, &ram, page_size))
        .collect::<Result<_>>()?;

    // Dict capacity: RAM minus two buffers (§4) and the open scans.
    let reserved = 2 + sigma.buffers_needed();
    let avail = ram.available();
    if avail <= reserved {
        return Err(ExecError::Token(ghostdb_token::TokenError::OutOfRam {
            requested: reserved + 1,
            available: avail,
            capacity: ram.capacity(),
        }));
    }

    // Host map for value lookup of the visible shipment.
    let vis_map: Option<HashMap<Id, usize>> =
        vis_values.map(|s| s.ids.iter().enumerate().map(|(i, id)| (*id, i)).collect());
    // Where each projected hidden value sits in a dict entry.
    let hid_at: Vec<usize> = (0..hid.len())
        .map(|j| layout.offset(2 + vis.len() + j))
        .collect();

    let full = avail - reserved;
    let slots = |buffers: usize| (buffers * ram.buf_size() / entry_bytes.max(1)) as u64;
    // The dict entries FinalJoin leaves room for beside `runs` run readers.
    let reserve = |runs: usize| {
        let buffers = finale.and_then(|need| free.checked_sub(need + runs));
        slots(buffers.unwrap_or(0).min(full))
    };
    // What a cut pass weighs: σ's length (each id pulled counts), the id
    // column's sweep and the run row.
    let timing = *ctx.lane.timing();
    let (sigma_ids, mut pulled) = (sigma.count(), 0u64);
    let n = id_col.rows();
    let sweep_ns = scan_ns(&timing, page_size, n * id_col.layout.size() as u64);

    let mut sigma_reader = SourceReader::open(&sigma, &ram, page_size)?;
    let mut runs: Vec<FlashTable> = Vec::new();
    let mut tail = None;
    loop {
        // Room for this pass's entries should it be the last, and for the
        // next pass's, beside one more run.
        let (keep, next) = (reserve(runs.len()), reserve(runs.len() + 1));
        // When the rest of σ (`left` ids, every one an entry unless a
        // re-check drops some) takes this pass and the next, this one
        // leaves the next exactly what it can keep. Where the rest would
        // fit this pass alone, that adds a pass: it pays when writing and
        // re-reading the kept rows, estimated at the mean positions per σ
        // id, costs more than the id-column sweep it adds.
        let left = sigma_ids - pulled;
        let kept_rows = u128::from(n) * u128::from(next) / u128::from(sigma_ids.max(1));
        let cut = prep.rechecks.is_empty()
            && left > keep
            && next > 0
            && left <= slots(full) + next
            && (left > slots(full)
                || sweep_ns < temp_ns(&timing, page_size, kept_rows as u64 * layout.size() as u64));
        let dict_capacity = if cut { left - next } else { slots(full).max(1) } as usize;
        let dict_region = ram.alloc_region(full)?;
        // Fill the dict with the next RAM-load of σVH entries. The dict's
        // free slots are the lookahead: σ ids are pulled that many at a
        // time, and each column reads them page by page. Ids waiting on a
        // re-check page hold a slot each, so a pass takes exactly the σ
        // ids an id-at-a-time fill would.
        let mut dict: HashMap<Id, Vec<u8>> = HashMap::new();
        let last = ctx.track(OpKind::MJoin, |ctx| {
            ctx.lane.with_flash(|dev| {
                // Enter re-check survivors into the dict and queue their
                // projected values.
                let mut admit = |dev: &mut FlashDevice,
                                 dict: &mut HashMap<Id, Vec<u8>>,
                                 ids: Vec<Id>|
                 -> Result<()> {
                    for &id in &ids {
                        let mut entry = vec![0u8; layout.size()];
                        layout.put_id(&mut entry, 1, id)?;
                        if let (Some(map), Some(shipment)) = (&vis_map, vis_values) {
                            let idx = map.get(&id).copied().ok_or_else(|| missing(id))?;
                            for (c, (_, ty)) in vis.iter().enumerate() {
                                let cell = layout.field_mut(&mut entry, 2 + c);
                                shipment.columns[c].1[idx].encode(ty, cell)?;
                            }
                        }
                        dict.insert(id, entry);
                    }
                    for (cursor, at) in hid_cursors.iter_mut().zip(&hid_at) {
                        through(dev, cursor, &ids, into_dict(dict, *at))?;
                    }
                    Ok(())
                };
                loop {
                    let in_flight: usize = recheck_cols.iter().map(|r| r.cursor.queued()).sum();
                    let free = dict_capacity - dict.len() - in_flight;
                    let next = sigma_reader.peek(dev)?;
                    if free == 0 || next.is_none() {
                        if in_flight == 0 {
                            break;
                        }
                        // Resolve the ids waiting on re-check pages.
                        let ids = recheck_chain(dev, &mut recheck_cols, Vec::new(), true, next)?;
                        admit(dev, &mut dict, ids)?;
                        continue;
                    }
                    let mut batch = Vec::with_capacity(free);
                    for _ in 0..free {
                        let Some(id) = sigma_reader.next(dev)? else {
                            break;
                        };
                        pulled += 1;
                        // Not visible-selected: dropped before any read.
                        if vis_map.as_ref().is_none_or(|m| m.contains_key(&id)) {
                            batch.push(id);
                        }
                    }
                    let ids = recheck_chain(dev, &mut recheck_cols, batch, false, None)?;
                    admit(dev, &mut dict, ids)?;
                }
                // Complete the dict's projected values before the sweep.
                let next = sigma_reader.peek(dev)?;
                for (cursor, at) in hid_cursors.iter_mut().zip(&hid_at) {
                    drain(dev, cursor, next, into_dict(&mut dict, *at))?;
                }
                // σ ran out: this is the last pass.
                Ok(next.is_none())
            })
        })?;
        if dict.is_empty() {
            break;
        }
        // A last pass whose entries fit beside FinalJoin keeps them, in a
        // region cut to their size.
        if last && dict.len() as u64 <= keep {
            let used = (dict.len() * entry_bytes).div_ceil(ram.buf_size());
            drop(dict_region);
            tail = Some(Resident {
                dict,
                _region: ram.alloc_region(used)?,
                id_col: id_col.clone(),
            });
            break;
        }
        // Sweep the id column, emitting each dict hit's row at its `pos`.
        let mut col_reader = id_col.reader(&ram, page_size)?;
        let mut writer = FlashTableWriter::create(
            ctx.lane.alloc(),
            &ram,
            layout.clone(),
            id_col.rows(),
            page_size,
        )?;
        ctx.add_temp(writer.segment());
        ctx.track(OpKind::MJoin, |ctx| {
            ctx.lane.with_flash(|dev| {
                let mut pos = 0u32;
                while let Some(cell) = col_reader.next_row(dev)? {
                    if let Some(row) = dict.get_mut(&id_col.layout.get_id(cell, 0)) {
                        layout.put_id(row, 0, pos)?;
                        writer.push(dev, row)?;
                    }
                    pos += 1;
                }
                Ok(())
            })
        })?;
        let run = ctx.lane.with_flash(|dev| writer.finish(dev))?;
        runs.push(run);
        if last {
            break;
        }
    }
    Ok(ProjTable {
        runs,
        tail,
        layout,
        vis,
        hid,
    })
}

/// FinalJoin's fallback. It holds `fixed` buffers (the root reader, the
/// held region and the root cursors) plus one reader per run and one per
/// resident tail (whose dict the arena already holds). While that exceeds
/// the arena's free buffers, merge the excess + 1 shortest runs of the
/// table with the most runs into one. While the readers fit, no run is
/// merged: a merge reads and rewrites its runs only for FinalJoin to read
/// them again. With every table down to one run, FinalJoin's own
/// allocations report the shortfall.
fn fit_runs(
    ctx: &mut ExecCtx<'_>,
    fixed: usize,
    tables: &mut [(TableId, ProjTable)],
) -> Result<()> {
    loop {
        let need = fixed
            + (tables.iter())
                .map(|(_, pt)| pt.runs.len() + usize::from(pt.tail.is_some()))
                .sum::<usize>();
        let available = ctx.ram().available();
        if need <= available {
            return Ok(());
        }
        let widest = tables
            .iter_mut()
            .map(|(_, pt)| pt)
            .filter(|pt| pt.runs.len() > 1)
            .max_by_key(|pt| pt.runs.len());
        let Some(pt) = widest else {
            return Ok(());
        };
        let merged = (need - available + 1).min(pt.runs.len());
        pt.runs.sort_by_key(FlashTable::rows);
        let batch = pt.runs.drain(..merged).collect();
        let run = merge_runs_by_pos(ctx, batch)?;
        pt.runs.push(run);
    }
}

/// K-way merge of MJoin runs by their `pos` field (field 0), batched so
/// each merge level holds at most `available - 1` run readers. Only
/// [`fit_runs`] merges runs.
fn merge_runs_by_pos(ctx: &mut ExecCtx<'_>, mut runs: Vec<FlashTable>) -> Result<FlashTable> {
    loop {
        let fan_in = ctx.ram().available().saturating_sub(1).max(2);
        if runs.len() <= fan_in {
            return merge_runs_level(ctx, runs);
        }
        let batch: Vec<FlashTable> = runs.drain(..fan_in).collect();
        let merged = merge_runs_level(ctx, batch)?;
        runs.push(merged);
    }
}

/// One merge level over at most `available - 1` runs.
fn merge_runs_level(ctx: &mut ExecCtx<'_>, runs: Vec<FlashTable>) -> Result<FlashTable> {
    let layout = runs[0].layout.clone();
    let total: u64 = runs.iter().map(|r| r.rows()).sum();
    let ram = ctx.ram();
    let page_size = ctx.page_size();
    let mut writer =
        FlashTableWriter::create(ctx.lane.alloc(), &ram, layout.clone(), total, page_size)?;
    ctx.add_temp(writer.segment());
    ctx.track(OpKind::MJoin, |ctx| {
        ctx.lane.with_flash(|dev| {
            let mut merge = RunMerge::open(dev, &runs, &layout, &ram, page_size)?;
            while let Some(run) = merge.least()? {
                writer.push(dev, merge.head(run)?)?;
                merge.pop(dev, run)?;
            }
            Ok(())
        })
    })?;
    Ok(ctx.lane.with_flash(|dev| writer.finish(dev))?)
}

/// Figure 5, line 7: merge every per-table projection stream (and the root
/// streams) in position order; a row survives only if every participating
/// table confirmed its position. A table's stream is a [`TableStream`]: a
/// [`RunMerge`] over its MJoin runs, read in place, and for the table
/// [`execute`] ran last, its resident tail, probed with the F' id column's
/// cell at each position. Survivors wait in one charged buffer, and each
/// flush of it reads the root re-check and root hidden projection columns
/// page by page, in the spans the held root ids need. `held` and `fixed`
/// are the held entry and FinalJoin's own buffers ([`final_fixed`]).
fn final_join(
    ctx: &mut ExecCtx<'_>,
    a: &Analyzed,
    sj: &SjOutcome,
    root_col: FlashTable,
    mut proj_tables: Vec<(TableId, ProjTable)>,
    held_layout: &RowLayout,
    fixed: usize,
) -> Result<ResultSet> {
    let root = ctx.cat.schema.root();
    let ram = ctx.ram();
    let page_size = ctx.page_size();

    // Root-side needs.
    let root_proj = projection_of(a, root);
    let root_vis_preds = a.vis_preds_of(root);
    let root_filter_pending = sj.approx_vis.contains(&root) || sj.deferred_vis.contains(&root);
    let root_shipment = if !root_proj.vis.is_empty() {
        Some(ctx.vis(root, root_vis_preds, &root_proj.vis)?)
    } else {
        None
    };
    let index = |ids: &[Id]| -> HashMap<Id, usize> {
        ids.iter().enumerate().map(|(i, id)| (*id, i)).collect()
    };
    let root_vis_map = match &root_shipment {
        Some(s) => Some(index(&s.ids)),
        None if root_filter_pending => Some(index(&vis_ids(ctx, sj, root, root_vis_preds)?)),
        None => None,
    };

    // Survivors wait in one charged buffer for their root re-checks and
    // root hidden projections: root id, then each table's current row.
    let root_layout = root_col.layout.clone();
    let entry_bytes = held_layout.size();
    let held_buffers = entry_bytes.div_ceil(ram.buf_size());
    let root_rechecks: Vec<&Predicate> = sj
        .recheck
        .iter()
        .filter(|(t, _)| *t == root)
        .map(|(_, p)| p)
        .collect();
    fit_runs(ctx, fixed, &mut proj_tables)?;

    let image = &ctx.cat.hidden[root];
    let mut rechecks: Vec<Recheck<'_>> = root_rechecks
        .into_iter()
        .map(|p| Recheck::open(image, p, &ram, page_size))
        .collect::<Result<_>>()?;
    let mut hid_cursors: Vec<(&HiddenColumn, PageCursor)> = root_proj
        .hid
        .iter()
        .map(|c| {
            let column = image.column(c)?;
            Ok((column, column.table().cursor(&ram, page_size)?))
        })
        .collect::<Result<_>>()?;

    let mut root_reader = root_col.reader(&ram, page_size)?;
    let mut held = ram.alloc_region(held_buffers)?;
    let capacity = held.len() / entry_bytes;

    let columns: Vec<String> = a
        .output
        .iter()
        .map(|(t, c)| format!("{}.{}", ctx.cat.schema.def(*t).name, c))
        .collect();
    let mut rows: Vec<Vec<Value>> = Vec::new();

    ctx.track(OpKind::FinalJoin, |ctx| {
        ctx.lane.with_flash(|dev| {
            let mut streams = proj_tables
                .iter()
                .map(|(_, pt)| TableStream::open(dev, pt, &ram, page_size))
                .collect::<Result<Vec<_>>>()?;
            // Where each table confirmed the current position.
            let mut confirming = vec![Confirm::Run(0); streams.len()];
            // Run held entries through the root re-checks and then the root
            // hidden projections, each page by page, and append the
            // survivors' rows in position order. `next` is the next root id
            // FinalJoin will meet (`None` at the end), so a page it shares
            // is loaded only once.
            let mut flush = |dev: &mut FlashDevice, entries: &[u8], next: Option<Id>| {
                let ids = (entries.chunks(entry_bytes))
                    .map(|e| held_layout.get_id(e, 0))
                    .collect();
                let ids = recheck_chain(dev, &mut rechecks, ids, true, next)?;
                let mut hidden: Vec<Vec<Value>> = Vec::with_capacity(hid_cursors.len());
                for (column, cursor) in hid_cursors.iter_mut() {
                    let mut values = Vec::with_capacity(ids.len());
                    let mut take = |_: Id, bytes: &[u8]| -> Result<()> {
                        values.push(column.decode(bytes));
                        Ok(())
                    };
                    through(dev, cursor, &ids, &mut take)?;
                    drain(dev, cursor, next, &mut take)?;
                    hidden.push(values);
                }
                let mut unread = entries.chunks(entry_bytes);
                for (k, &root_id) in ids.iter().enumerate() {
                    let entry = unread
                        .find(|e| held_layout.get_id(e, 0) == root_id)
                        .ok_or_else(|| {
                            ExecError::Query(format!("root id {root_id} left the held buffer"))
                        })?;
                    let root_idx = root_vis_map.as_ref().and_then(|m| m.get(&root_id).copied());
                    let mut out_row = Vec::with_capacity(a.output.len());
                    for (t, cname) in &a.output {
                        if *t == root {
                            if cname == "id" {
                                out_row.push(Value::Int(root_id as i64));
                            } else if let Some(i) = root_proj.vis.iter().position(|c| c == cname) {
                                let shipment = (root_shipment.as_ref())
                                    .ok_or_else(|| unplanned("the root's visible shipment"))?;
                                let idx = root_idx.ok_or_else(|| {
                                    ExecError::Query(format!(
                                        "root id {root_id} missing from visible shipment"
                                    ))
                                })?;
                                out_row.push(shipment.columns[i].1[idx].clone());
                            } else {
                                let c = (hid_cursors.iter())
                                    .position(|(column, _)| column.name == *cname)
                                    .ok_or_else(|| unplanned(format!("root column {cname}")))?;
                                out_row.push(hidden[c][k].clone());
                            }
                        } else {
                            let i = (proj_tables.iter())
                                .position(|(tt, _)| tt == t)
                                .ok_or_else(|| unplanned(format!("table {t}'s projection")))?;
                            let pt = &proj_tables[i].1;
                            let row = held_layout.field(entry, 1 + i);
                            if cname == "id" {
                                out_row.push(Value::Int(pt.layout.get_id(row, 1) as i64));
                            } else {
                                let value = (pt.value(row, cname))
                                    .ok_or_else(|| unplanned(format!("column {cname}")))?;
                                out_row.push(value);
                            }
                        }
                    }
                    rows.push(out_row);
                }
                Ok::<_, ExecError>(())
            };
            let root_id_of = |row: &[u8]| root_layout.get_id(row, 0);
            let mut next_root = root_reader.next_row(dev)?.map(root_id_of);
            let mut n_held = 0usize;
            let mut pos = 0u32;
            while let Some(root_id) = next_root {
                // Advance each table stream to `pos`.
                let mut all_present = true;
                for (stream, at) in streams.iter_mut().zip(&mut confirming) {
                    match stream.seek(dev, pos)? {
                        Some(found) => *at = found,
                        None => {
                            all_present = false;
                            break;
                        }
                    }
                }
                // A pending root visible filter drops the row before any
                // hidden read.
                let keep = all_present
                    && !(root_filter_pending
                        && root_vis_map
                            .as_ref()
                            .is_some_and(|m| !m.contains_key(&root_id)));
                if keep {
                    let entry = &mut held[n_held * entry_bytes..(n_held + 1) * entry_bytes];
                    held_layout.put_id(entry, 0, root_id)?;
                    for (i, (stream, at)) in streams.iter().zip(&confirming).enumerate() {
                        held_layout
                            .field_mut(entry, 1 + i)
                            .copy_from_slice(stream.head(*at)?);
                    }
                    n_held += 1;
                }
                next_root = root_reader.next_row(dev)?.map(root_id_of);
                pos += 1;
                if n_held == capacity || (next_root.is_none() && n_held > 0) {
                    let entries = &held[..n_held * entry_bytes];
                    flush(dev, entries, next_root)?;
                    n_held = 0;
                }
            }
            Ok(())
        })
    })?;

    Ok(ResultSet { columns, rows })
}

/// A shipment of `ids` with no projected column.
fn ids_only(table: TableId, ids: SharedIds) -> VisShipment {
    VisShipment {
        table,
        ids: ids.to_vec(),
        columns: Vec::new(),
    }
}

/// Figure 12's Brute-Force baseline: load the QEPSJ result into RAM chunk
/// by chunk and random-access every projected attribute.
fn brute_force(
    ctx: &mut ExecCtx<'_>,
    a: &Analyzed,
    sj: &SjOutcome,
    root_col: FlashTable,
    participants: &[TableId],
    id_cols: &[FlashTable],
) -> Result<ResultSet> {
    let root = ctx.cat.schema.root();
    let ram = ctx.ram();
    let page_size = ctx.page_size();

    // Ship ids+values for every table with a visible projection and the
    // ids of every table with a pending visible filter before the scan, so
    // that it runs entirely below the channel. A plan's shipments are
    // charged even where an empty QEPSJ result never reads them.
    let mut shipments: HashMap<TableId, (VisShipment, HashMap<Id, usize>)> = HashMap::new();
    let mut all_tables: Vec<TableId> = participants.to_vec();
    all_tables.push(root);
    for t in &all_tables {
        let tproj = projection_of(a, *t);
        let preds = a.vis_preds_of(*t);
        let s = if !tproj.vis.is_empty() {
            ctx.vis(*t, preds, &tproj.vis)?
        } else if sj.approx_vis.contains(t) || sj.deferred_vis.contains(t) {
            ids_only(*t, vis_ids(ctx, sj, *t, preds)?)
        } else {
            continue;
        };
        let map = s.ids.iter().enumerate().map(|(i, id)| (*id, i)).collect();
        shipments.insert(*t, (s, map));
    }

    let mut root_reader = root_col.reader(&ram, page_size)?;
    let mut col_readers = id_cols
        .iter()
        .map(|c| {
            c.reader(&ram, page_size)
                .map_err(crate::error::ExecError::from)
        })
        .collect::<Result<Vec<_>>>()?;

    // RAM chunk for "loading the result of QEPSJ in RAM": everything left.
    let chunk_buffers = ctx.ram().available();
    let _region = if chunk_buffers > 0 {
        Some(ctx.ram().alloc_region(chunk_buffers)?)
    } else {
        None
    };

    let columns: Vec<String> = a
        .output
        .iter()
        .map(|(t, c)| format!("{}.{}", ctx.cat.schema.def(*t).name, c))
        .collect();
    let mut rows = Vec::new();

    let hidden = ctx.cat.hidden;
    let schema = ctx.cat.schema;
    ctx.track(OpKind::BruteForce, |ctx| {
        ctx.lane.with_flash(|dev| {
            while let Some(cell) = root_reader.next_row(dev)? {
                let root_id = root_col.layout.get_id(cell, 0);
                let mut ids: HashMap<TableId, Id> = HashMap::new();
                ids.insert(root, root_id);
                for ((t, r), col) in participants.iter().zip(col_readers.iter_mut()).zip(id_cols) {
                    let cell = r
                        .next_row(dev)?
                        .ok_or_else(|| ExecError::Query("column underrun".into()))?;
                    ids.insert(*t, col.layout.get_id(cell, 0));
                }
                // Filters: pending visible selections + exact re-checks, all
                // by random access.
                let mut keep = true;
                for t in sj.approx_vis.iter().chain(&sj.deferred_vis) {
                    let (_, map) = (shipments.get(t))
                        .ok_or_else(|| unplanned(format!("table {t}'s visible ids")))?;
                    if !map.contains_key(&ids[t]) {
                        keep = false;
                    }
                }
                if keep {
                    for (t, pred) in &sj.recheck {
                        let col = hidden[*t].column(&pred.column)?.clone();
                        let v = col.get(dev, ids[t])?;
                        if !pred.matches(&v) {
                            keep = false;
                        }
                    }
                }
                if !keep {
                    continue;
                }
                let mut out_row = Vec::with_capacity(a.output.len());
                for (t, cname) in &a.output {
                    let id = ids[t];
                    if cname == "id" {
                        out_row.push(Value::Int(id as i64));
                        continue;
                    }
                    let def = schema.def(*t);
                    let col = (def.column(cname))
                        .ok_or_else(|| unplanned(format!("column {}.{cname}", def.name)))?;
                    match col.visibility {
                        ghostdb_storage::Visibility::Visible => {
                            let (shipment, map) = (shipments.get(t))
                                .ok_or_else(|| unplanned(format!("{}'s shipment", def.name)))?;
                            let idx = *map.get(&id).ok_or_else(|| {
                                ExecError::Query(format!("id {id} missing from shipment"))
                            })?;
                            let c = (shipment.columns.iter())
                                .position(|(n, _)| n == cname)
                                .ok_or_else(|| unplanned(format!("shipped {cname}")))?;
                            out_row.push(shipment.columns[c].1[idx].clone());
                        }
                        ghostdb_storage::Visibility::Hidden => {
                            // Random flash access — the whole point of the
                            // baseline's cost.
                            let hcol = hidden[*t].column(cname)?.clone();
                            out_row.push(hcol.get(dev, id)?);
                        }
                    }
                }
                rows.push(out_row);
            }
            Ok(())
        })
    })?;

    Ok(ResultSet { columns, rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{self, pad8};
    use ghostdb_storage::CmpOp;

    const PAGE: usize = 2048;

    /// T0's id column and MJoin over all 600 of its ids, projecting `h1`
    /// and `h2` and, when `rechecked`, re-checking `h2 < pad8(4)` (half
    /// the ids pass), with the arena cut to `free` buffers: a cursor per
    /// column, the sweep's reader and writer, and the dict. `finale` is
    /// passed on to `mjoin`.
    fn t0_mjoin(
        ctx: &mut ExecCtx<'_>,
        free: usize,
        finale: Option<usize>,
        rechecked: bool,
    ) -> (FlashTable, ProjTable) {
        let t0 = ctx.cat.schema.root();
        let rows = ctx.cat.rows[t0];
        let layout = RowLayout::id_cells(&[rows]);
        let id_col = ctx
            .lane
            .with_flash_alloc(|dev, alloc| {
                FlashTable::bulk_load_with(dev, alloc, layout.clone(), rows, |r, cell| {
                    layout.put_id(cell, 0, r as Id).unwrap()
                })
            })
            .unwrap();
        let tproj = TableProjection {
            hid: vec!["h1".into(), "h2".into()],
            ..TableProjection::default()
        };
        // `h2 = pad8(id % 8)`: half the ids pass.
        let recheck = Predicate::new("h2", CmpOp::Lt, pad8(4), None);
        let ram = ctx.ram();
        let hold = ram.alloc_region(ram.available() - free).unwrap();
        let sigma = IdSource::Range {
            start: 0,
            end: rows as Id,
        };
        let prep = TablePrep {
            tproj: &tproj,
            rechecks: if rechecked { vec![&recheck] } else { vec![] },
            sigma_ids: None,
            vis_values: None,
            row: run_row(ctx, t0, &tproj).unwrap(),
        };
        let pt = mjoin(ctx, t0, &prep, &id_col, sigma, finale).unwrap();
        drop(hold);
        (id_col, pt)
    }

    /// `(pos, idT0, h1)` of every row `pt`'s runs and tail hold, read
    /// through the stream FinalJoin uses: one seek per position of the id
    /// column.
    fn merged_rows(
        ctx: &mut ExecCtx<'_>,
        id_col: &FlashTable,
        pt: &ProjTable,
    ) -> Vec<(u64, u64, Value)> {
        let ram = ctx.ram();
        ctx.lane
            .with_flash(|dev| {
                let mut stream = TableStream::open(dev, pt, &ram, PAGE)?;
                let mut got = Vec::new();
                for pos in 0..id_col.rows() as u32 {
                    if let Some(at) = stream.seek(dev, pos)? {
                        let row = stream.head(at)?;
                        let id = pt.layout.get_id(row, 1) as u64;
                        let value = pt.value(row, "h1").unwrap();
                        got.push((pos as u64, id, value));
                    }
                }
                Ok::<_, ExecError>(got)
            })
            .unwrap()
    }

    /// T0's ids passing `h2 < pad8(4)`, as `merged_rows` reads them.
    fn expected_rows(rows: u64) -> Vec<(u64, u64, Value)> {
        (0..rows)
            .filter(|id| id % 8 < 4)
            .map(|id| (id, id, pad8(id % 4)))
            .collect()
    }

    /// Every T0 id, as `merged_rows` reads them.
    fn every_row(rows: u64) -> Vec<(u64, u64, Value)> {
        (0..rows).map(|id| (id, id, pad8(id % 4))).collect()
    }

    /// With the dict cut to one buffer, MJoin over T0's 600 ids takes
    /// exactly ⌈survivors / capacity⌉ passes, as an id-at-a-time fill does:
    /// ids waiting on a re-check page hold their dict slot. It writes only
    /// its pass runs.
    #[test]
    fn mjoin_passes_fill_the_dict_exactly() {
        let mut db = testkit::tiny_db();
        let mut ctx = ExecCtx::new(&mut db);
        let rows = ctx.cat.rows[ctx.cat.schema.root()];
        let id_layout = RowLayout::id_cells(&[rows]);
        let free = ctx.lane.alloc().free_pages() - id_layout.pages_for(rows, PAGE);
        let (id_col, pt) = t0_mjoin(&mut ctx, 6, None, true);
        // |T0| = 600: `pos` and `idT0` take 2 bytes each, so a run row is
        // `<2, 2, 10, 10>` and a dict entry 22 bytes.
        assert_eq!(pt.layout, RowLayout::new(&[2, 2, 10, 10]));
        // Each pass registers one run temp sized for the whole id column,
        // and nothing merges them.
        let capacity = PAGE / (2 + 10 + 10);
        let passes = 300u64.div_ceil(capacity as u64);
        assert_eq!(pt.runs.len() as u64, passes);
        assert_eq!(
            free - ctx.lane.alloc().free_pages(),
            passes * pt.layout.pages_for(rows, PAGE)
        );
        assert_eq!(merged_rows(&mut ctx, &id_col, &pt), expected_rows(rows));
    }

    /// FinalJoin reads the runs in place while one reader per run fits the
    /// arena's free buffers. When they do not, the fallback merges exactly
    /// the excess + 1 shortest runs, and the merged stream reads the same.
    #[test]
    fn the_run_merge_fires_only_when_the_readers_exceed_the_arena() {
        let mut db = testkit::tiny_db();
        let mut ctx = ExecCtx::new(&mut db);
        let t0 = ctx.cat.schema.root();
        let rows = ctx.cat.rows[t0];
        let (id_col, pt) = t0_mjoin(&mut ctx, 6, None, true);
        let runs = pt.runs.len();
        assert!(runs >= 3, "{runs} runs");
        let mut tables = vec![(t0, pt)];
        let ram = ctx.ram();

        // Exactly enough room: nothing is merged or written.
        let fixed = ram.available() - runs;
        let free = ctx.lane.alloc().free_pages();
        fit_runs(&mut ctx, fixed, &mut tables).unwrap();
        assert_eq!(tables[0].1.runs.len(), runs);
        assert_eq!(ctx.lane.alloc().free_pages(), free);

        // Two buffers short: the three shortest runs merge into one.
        let shortest: u64 = {
            let mut lens: Vec<u64> = tables[0].1.runs.iter().map(FlashTable::rows).collect();
            lens.sort_unstable();
            lens[..3].iter().sum()
        };
        fit_runs(&mut ctx, fixed + 2, &mut tables).unwrap();
        let pt = &tables[0].1;
        assert_eq!(pt.runs.len(), runs - 2);
        assert_eq!(pt.runs.last().unwrap().rows(), shortest);
        assert_eq!(
            free - ctx.lane.alloc().free_pages(),
            pt.layout.pages_for(shortest, PAGE)
        );
        assert_eq!(ram.in_use(), 0);
        let pt = tables.pop().unwrap().1;
        assert_eq!(merged_rows(&mut ctx, &id_col, &pt), expected_rows(rows));
    }

    /// With `finale` FinalJoin buffers to leave, MJoin sizes each pass so
    /// that FinalJoin fits beside its dict and one reader per run so far,
    /// and keeps the pass σ runs out in resident; a pass whose reserve the
    /// arena cannot hold writes its run. Each case is `(free, finale)` and
    /// the runs and tail entries it gives: 300 entries of 22 bytes, 93 a
    /// buffer, against dicts of 4, 3 and 1 buffers.
    #[test]
    fn the_last_pass_stays_resident_where_finaljoin_fits_beside_it() {
        let cases: [(usize, usize, usize, Option<usize>); 4] = [
            // One pass, 372 slots: nothing written.
            (12, 3, 0, Some(300)),
            // 279 slots, then the 21 left stay resident.
            (8, 3, 1, Some(21)),
            // 93 slots a pass, three written, the 21 left resident.
            (6, 2, 3, Some(21)),
            // The fourth pass cannot keep FinalJoin's reserve: written.
            (6, 3, 4, None),
        ];
        for (free, finale, runs, tail) in cases {
            let mut db = testkit::tiny_db();
            let mut ctx = ExecCtx::new(&mut db);
            let rows = ctx.cat.rows[ctx.cat.schema.root()];
            let id_layout = RowLayout::id_cells(&[rows]);
            let pages = ctx.lane.alloc().free_pages() - id_layout.pages_for(rows, PAGE);
            let (id_col, pt) = t0_mjoin(&mut ctx, free, Some(finale), true);
            let label = format!("{free} free, {finale} for FinalJoin");
            assert_eq!(pt.runs.len(), runs, "{label}");
            assert_eq!(pt.tail.as_ref().map(|r| r.dict.len()), tail, "{label}");
            // Only the written passes take flash.
            let written = ctx.lane.alloc().free_pages();
            assert_eq!(
                pages - written,
                runs as u64 * pt.layout.pages_for(rows, PAGE)
            );
            // FinalJoin's buffers, a reader per run and the tail's reader
            // fit beside the dict the arena still holds.
            let ram = ctx.ram();
            if pt.tail.is_some() {
                assert!(ram.available() >= finale + runs, "{label}");
            } else {
                assert_eq!(ram.in_use(), 0, "{label}");
            }
            assert_eq!(merged_rows(&mut ctx, &id_col, &pt), expected_rows(rows));
            drop(pt);
            assert_eq!(
                ram.in_use(),
                0,
                "{label}: the dict is released with the table"
            );
        }
    }

    /// Without re-checks σ's length counts the entries to come, so the
    /// pass before the last is cut to leave the last what FinalJoin can
    /// keep: 600 entries of 22 bytes, 93 a buffer.
    #[test]
    fn the_pass_before_the_last_leaves_it_what_finaljoin_can_keep() {
        let cases: [(usize, usize, u64); 2] = [
            // Two passes either way (465 slots): 135 written, 465 kept,
            // not 465 written and 135 kept.
            (9, 3, 465),
            // One 744-slot pass would do, but not resident (558 slots):
            // the cut adds a pass, and a sweep of 600 two-byte ids costs
            // less than writing and reading 465 run rows.
            (12, 6, 465),
        ];
        for (free, finale, kept) in cases {
            let mut db = testkit::tiny_db();
            let mut ctx = ExecCtx::new(&mut db);
            let rows = ctx.cat.rows[ctx.cat.schema.root()];
            let (id_col, pt) = t0_mjoin(&mut ctx, free, Some(finale), false);
            let label = format!("{free} free, {finale} for FinalJoin");
            assert_eq!(pt.runs.len(), 1, "{label}");
            assert_eq!(pt.runs[0].rows(), rows - kept, "{label}");
            assert_eq!(pt.tail.as_ref().map(|r| r.dict.len() as u64), Some(kept));
            // FinalJoin's buffers and the run's reader fit beside the dict.
            assert!(ctx.ram().available() >= finale + pt.runs.len(), "{label}");
            assert_eq!(merged_rows(&mut ctx, &id_col, &pt), every_row(rows));
        }
    }

    /// `fit_runs` counts a resident tail's reader beside the runs'.
    #[test]
    fn the_run_merge_counts_the_tail_reader() {
        let mut db = testkit::tiny_db();
        let mut ctx = ExecCtx::new(&mut db);
        let t0 = ctx.cat.schema.root();
        let rows = ctx.cat.rows[t0];
        let (id_col, pt) = t0_mjoin(&mut ctx, 6, Some(2), true);
        assert_eq!((pt.runs.len(), pt.tail.is_some()), (3, true));
        let mut tables = vec![(t0, pt)];
        let ram = ctx.ram();
        let fixed = ram.available() - 4;
        fit_runs(&mut ctx, fixed, &mut tables).unwrap();
        assert_eq!(tables[0].1.runs.len(), 3);
        // One buffer short: the two shortest runs merge.
        fit_runs(&mut ctx, fixed + 1, &mut tables).unwrap();
        assert_eq!(tables[0].1.runs.len(), 2);
        let pt = tables.pop().unwrap().1;
        assert_eq!(merged_rows(&mut ctx, &id_col, &pt), expected_rows(rows));
    }

    /// A table's σ inputs on the paper's 32 × 2 KB arena, with `scans`
    /// char(10) columns open and the first `projected` of them projected.
    fn shape(n: u64, rows: u64, scans: usize, projected: usize) -> SigmaShape {
        SigmaShape {
            n,
            rows,
            id_bytes: id_width(rows),
            pos_bytes: 4,
            widths: vec![10; scans],
            entry_bytes: id_width(rows) + 10 * projected,
            dict_bytes: (32 - scans - 2) * PAGE,
            buf_size: PAGE,
            filter_bits: 29 * PAGE as u64 * 8,
        }
    }

    fn pays(s: &SigmaShape) -> bool {
        let t = FlashTiming::default();
        s.sparse_ns(&t, PAGE) < s.dense_ns(&t, PAGE)
    }

    #[test]
    fn a_point_lookup_on_a_large_table_takes_the_filter() {
        // `T1.h1 = <point>` projecting `T1.h2` at ×0.05: a dozen ids
        // against 2 × 246 column pages and 13 dict loads.
        assert!(pays(&shape(12, 50_000, 2, 1)));
    }

    #[test]
    fn an_empty_id_column_takes_the_filter() {
        assert!(pays(&shape(0, 5_000, 1, 0)));
        assert_eq!(
            shape(0, 5_000, 1, 0).sparse_ns(&FlashTiming::default(), PAGE),
            0
        );
    }

    #[test]
    fn a_table_with_no_scanned_column_keeps_the_dense_range() {
        // Only `Ti.id` projected, one dict load either way: the sweep and
        // the σ temp are pure overhead.
        assert!(!pays(&shape(10, 2_000, 0, 0)));
    }

    #[test]
    fn the_choice_flips_once_as_the_id_column_grows() {
        // A re-check-only table (`T12` at ×0.05): 25 column pages, one dict
        // load. The filter pays for a handful of ids and stops paying
        // before its one span per distinct id costs a whole-column read.
        let flips: Vec<u64> = (1..=5_000)
            .filter(|n| pays(&shape(n - 1, 5_000, 1, 0)) != pays(&shape(*n, 5_000, 1, 0)))
            .collect();
        assert_eq!(flips.len(), 1, "one boundary, got {flips:?}");
        let boundary = flips[0];
        assert!(pays(&shape(boundary - 1, 5_000, 1, 0)));
        assert!(!pays(&shape(boundary, 5_000, 1, 0)));
        let t = FlashTiming::default();
        let column_ns = column_pages(5_000, 10, PAGE) as u128 * page_read_ns(&t, 5_000, 10, PAGE);
        let spans = (column_ns / t.read_cost_ns(10)) as u64;
        assert!(boundary > 1 && boundary <= spans, "{boundary}");
    }

    #[test]
    fn an_id_column_covering_the_table_never_takes_the_filter() {
        // σ can then hold every id: each of the filter arm's terms is at
        // least the dense arm's, plus the sweep and the σ temp.
        for rows in [100, 5_000, 50_000] {
            for (scans, projected) in [(0, 0), (1, 0), (1, 1), (2, 1), (3, 2)] {
                for n in [rows, rows + 1, 4 * rows] {
                    assert!(
                        !pays(&shape(n, rows, scans, projected)),
                        "{rows} {n} {scans}"
                    );
                }
            }
        }
    }
}

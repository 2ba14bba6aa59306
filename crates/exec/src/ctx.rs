//! Execution-context lanes: catalog, device, cost.
//!
//! The execution state threaded through every operator is split into three
//! composable lanes so that independent sub-units of one plan can run on
//! concurrent workers without corrupting per-operator attribution:
//!
//! * [`CatalogCtx`] — the shared **read-only** lane: schema, cardinalities,
//!   hidden images, SKTs, climbing indexes and the untrusted PC. `Copy`, so
//!   every worker sees the same catalog at zero cost.
//! * [`DeviceLane`] — the per-worker **device** lane: a flash handle
//!   (the token's own on the serial path, a [`FlashDevice::fork`] on a
//!   worker), a RAM arena, a segment-allocator slice and a temp registry.
//!   The lane mirrors every flash counter delta it causes into a
//!   **lane-local** [`FlashStats`], which is what makes cost tracking
//!   reentrant: concurrent lanes never read each other's deltas. Locking
//!   is **per page operation, per chip** inside the device, so per-row CPU
//!   work overlaps across lanes, and lanes whose allocator slices sit on
//!   disjoint chips never contend at all.
//! * [`CostScope`] — the per-worker **cost** lane: local `OpKind →
//!   SimDuration` accumulation, merged into the parent scope in canonical
//!   operator order when workers join. Merging is associative and
//!   order-insensitive (checked by the property suite), so intra-parallel
//!   reports are bit-identical to serial ones.
//!
//! [`ExecCtx`] recomposes the three lanes (plus the channel, root lane
//! only) and the query's `RunKnobs`; `ExecCtx::assemble` is the one
//! place a context is built, whether over the token's own resources, a
//! serve job's or an intra-query worker's.
//!
//! In the paper one secure chip runs each query sequentially, so every
//! parallel path here may change wall time only. `LaneCarve` is the one
//! gate a parallel attempt passes before it may write flash: it picks the
//! chips with GC headroom, carves one allocator slice per worker there
//! (rolling back a refused carve), builds each worker's `WorkerLane`
//! and snapshots the GC counters, so the caller can discard an attempt a
//! collection overlapped. Its two callers are [`ExecCtx::run_lanes`]
//! (intra-query fan-out: slices adopted as query temps) and serve's
//! parallel drain (one slice per query, released after the batch).

use crate::database::Database;
use crate::error::ExecError;
use crate::executor::ExecOptions;
use crate::report::{split_rw, ExecReport, OpKind};
use crate::Result;
use ghostdb_flash::{FlashDevice, FlashStats, FlashTiming, Segment, SegmentAllocator, SimDuration};
use ghostdb_index::{ClimbingIndex, SubtreeKeyTable};
use ghostdb_storage::{HiddenImage, Predicate, SchemaTree, TableId};
use ghostdb_token::{Channel, RamArena};
use ghostdb_untrusted::{PadMode, UntrustedHost, VisShipment};
use std::collections::HashMap;
use std::sync::Mutex;

/// The shared read-only catalog lane.
#[derive(Debug, Clone, Copy)]
pub struct CatalogCtx<'a> {
    /// Schema (catalog lifetime: references escape accessor calls).
    pub schema: &'a SchemaTree,
    /// Cardinalities.
    pub rows: &'a [u64],
    /// Hidden images per table.
    pub hidden: &'a [HiddenImage],
    /// SKTs per table.
    pub skts: &'a [Option<SubtreeKeyTable>],
    /// Climbing indexes.
    pub cis: &'a HashMap<(TableId, String), ClimbingIndex>,
    /// The untrusted PC.
    pub untrusted: &'a UntrustedHost,
}

impl<'a> CatalogCtx<'a> {
    /// The primary-key climbing index of a table.
    pub fn pk_index(&self, t: TableId) -> Result<&'a ClimbingIndex> {
        self.cis
            .get(&(t, "id".to_string()))
            .ok_or_else(|| ExecError::MissingIndex {
                table: self.schema.def(t).name.clone(),
                column: "id".into(),
            })
    }

    /// The climbing index on an attribute.
    pub fn attr_index(&self, t: TableId, column: &str) -> Result<&'a ClimbingIndex> {
        self.cis
            .get(&(t, column.to_string()))
            .ok_or_else(|| ExecError::MissingIndex {
                table: self.schema.def(t).name.clone(),
                column: column.into(),
            })
    }

    /// The SKT of a table.
    pub fn skt(&self, t: TableId) -> Result<&'a SubtreeKeyTable> {
        self.skts[t]
            .as_ref()
            .ok_or_else(|| ExecError::Query(format!("no SKT on table {}", self.schema.def(t).name)))
    }
}

/// The per-worker device lane: flash handle + RAM arena + allocator slice +
/// temp registry, with a lane-local mirror of the flash counters.
///
/// The flash handle is exclusive to the lane ([`FlashDevice`] is itself a
/// forkable handle over the shared chip array): the serial path borrows
/// the token's own handle, worker lanes own a fork. All synchronisation
/// happens *inside* the device, per chip and per page operation, so a
/// lane never holds a device-wide lock across an operator scope — and the
/// handle-local `snapshot`/`stats_since` the mirror is built on stays
/// exact while sibling lanes drive the same chips.
#[derive(Debug)]
pub struct DeviceLane<'a> {
    flash: &'a mut FlashDevice,
    ram: RamArena,
    alloc: &'a mut SegmentAllocator,
    temps: Vec<Segment>,
    /// Flash I/O issued by THIS lane (concurrent lanes never show up here).
    io: FlashStats,
    timing: FlashTiming,
    page_size: usize,
}

impl<'a> DeviceLane<'a> {
    /// Build a lane over its resources. `flash` is the lane's exclusive
    /// handle: the token's own on the serial path, a fork on worker lanes.
    pub fn new(flash: &'a mut FlashDevice, ram: RamArena, alloc: &'a mut SegmentAllocator) -> Self {
        let (timing, page_size) = (*flash.timing(), flash.page_size());
        DeviceLane {
            flash,
            ram,
            alloc,
            temps: Vec::new(),
            io: FlashStats::default(),
            timing,
            page_size,
        }
    }

    /// Run `f` against the flash device, mirroring the counter delta it
    /// causes into the lane-local [`FlashStats`]. Chip locks are acquired
    /// (and released) per page operation inside the device, never across
    /// `f` as a whole.
    pub fn with_flash<T>(&mut self, f: impl FnOnce(&mut FlashDevice) -> T) -> T {
        self.with_flash_delta(f).0
    }

    /// [`Self::with_flash`], also returning the counter delta `f` caused —
    /// the hot-path variant per-operation attribution is built on (one
    /// snapshot, no re-derivation from the monotone lane counter). The
    /// delta diffs this handle's local counter, so it is exact even while
    /// sibling lanes drive the same chips.
    pub fn with_flash_delta<T>(
        &mut self,
        f: impl FnOnce(&mut FlashDevice) -> T,
    ) -> (T, FlashStats) {
        let start = self.flash.snapshot();
        let out = f(self.flash);
        let d = self.flash.stats_since(&start);
        self.io += d;
        (out, d)
    }

    /// Run `f` with both the device and this lane's allocator (bulk loads
    /// that allocate and write in one step), mirroring the counter delta.
    pub fn with_flash_alloc<T>(
        &mut self,
        f: impl FnOnce(&mut FlashDevice, &mut SegmentAllocator) -> T,
    ) -> T {
        let start = self.flash.snapshot();
        let out = f(self.flash, self.alloc);
        self.io += self.flash.stats_since(&start);
        out
    }

    /// The RAM arena (cheap clone of the shared handle).
    pub fn ram(&self) -> RamArena {
        self.ram.clone()
    }

    /// Flash page size.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Timing model in force.
    pub fn timing(&self) -> &FlashTiming {
        &self.timing
    }

    /// The lane's segment allocator (the root allocator on the serial path,
    /// a carved slice on worker lanes).
    pub fn alloc(&mut self) -> &mut SegmentAllocator {
        &mut *self.alloc
    }

    /// Flash I/O issued by this lane so far (monotone).
    pub fn io(&self) -> FlashStats {
        self.io
    }

    /// Charge a pre-measured counter delta to this lane, exactly as if the
    /// lane had issued the operations itself. This is how a cross-query
    /// prefetch hit (`ci_ops::CiPrefetch`) bills the served query the same
    /// flash cost its own traversal would have caused: the delta was
    /// snapshotted when the shared traversal ran, and charging it here
    /// makes `track` scopes and `finish_report` indistinguishable from the
    /// solo execution.
    pub fn charge(&mut self, d: FlashStats) {
        self.io += d;
    }

    /// Simulated time implied by a counter delta under this lane's model.
    pub fn elapsed_of(&self, d: &FlashStats) -> SimDuration {
        d.elapsed(&self.timing, self.page_size)
    }

    /// Register a temp segment to free when the query finishes.
    pub fn add_temp(&mut self, seg: Segment) {
        self.temps.push(seg);
    }
}

/// The per-worker cost lane: local per-operator attribution, merged into
/// the parent in canonical operator order on join.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CostScope {
    op_ns: [u128; OpKind::ALL.len()],
    /// High-water mark of RAM buffers observed by this scope's lane.
    pub peak_ram: usize,
    /// Flash I/O the scope's lane issued (every operation, attributed or
    /// not). The query's aggregate `io` is the sum of accepted scopes —
    /// never the shared device counters, so a torn-down parallel attempt
    /// leaves no trace in the report.
    pub io: FlashStats,
}

impl CostScope {
    /// Empty scope.
    pub fn new() -> Self {
        CostScope::default()
    }

    /// Attribute simulated time to an operator.
    pub fn add(&mut self, op: OpKind, d: SimDuration) {
        self.op_ns[op.idx()] += d.as_ns();
    }

    /// Time attributed to an operator.
    pub fn op(&self, op: OpKind) -> SimDuration {
        SimDuration::from_ns(self.op_ns[op.idx()])
    }

    /// Total attributed time across all operators.
    pub fn total(&self) -> SimDuration {
        SimDuration::from_ns(self.op_ns.iter().sum())
    }

    /// Fold another scope into this one. Element-wise `u128` addition per
    /// operator bucket plus a max over RAM peaks: associative and
    /// commutative, so any join order of worker scopes yields the same
    /// parent scope (the property suite pins this down).
    pub fn merge_from(&mut self, other: &CostScope) {
        for (a, b) in self.op_ns.iter_mut().zip(&other.op_ns) {
            *a += b;
        }
        self.peak_ram = self.peak_ram.max(other.peak_ram);
        self.io += other.io;
    }

    /// Write the buckets into a report, walking [`OpKind::ALL`] in its
    /// canonical order.
    pub fn apply_to(&self, report: &mut ExecReport) {
        for op in OpKind::ALL {
            let ns = self.op_ns[op.idx()];
            if ns > 0 {
                report.add(op, SimDuration::from_ns(ns));
            }
        }
        report.peak_ram_buffers = report.peak_ram_buffers.max(self.peak_ram);
    }
}

/// How one query runs: the execution knobs a context carries, copied
/// whole into every context built for the query (root, serve job or
/// intra-query worker).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RunKnobs<'a> {
    /// Intra-query worker budget for `run_lanes` (1 = serial).
    pub(crate) intra: usize,
    /// Pad every `Vis` shipment to a power-of-two row bucket (the volume
    /// side-channel countermeasure; see `SECURITY.md`).
    pub(crate) padded: bool,
    /// Climbing-index read-ahead window in pages (`0` = serial). Forwarded
    /// to every `CiProbe` this context opens; counters and results are
    /// bit-identical at any value.
    pub(crate) read_ahead: usize,
    /// Cross-query climbing-index prefetch (the serve-mode batch
    /// scheduler's shared traversals). `None` on solo executions; hits are
    /// billed as-if-solo via [`DeviceLane::charge`], so the report is
    /// bit-identical either way.
    pub(crate) prefetch: Option<&'a crate::ci_ops::CiPrefetch>,
}

impl Default for RunKnobs<'_> {
    fn default() -> Self {
        RunKnobs::of(&ExecOptions::default(), None)
    }
}

impl<'a> RunKnobs<'a> {
    /// The knobs `opts` asks for, plus an optional prefetch bank.
    pub(crate) fn of(opts: &ExecOptions, prefetch: Option<&'a crate::ci_ops::CiPrefetch>) -> Self {
        RunKnobs {
            intra: opts.intra_threads,
            padded: opts.padded,
            read_ahead: opts.read_ahead,
            prefetch,
        }
    }
}

/// Execution state threaded through every operator: the three lanes, plus
/// the channel on the root lane (worker lanes never talk to the PC — every
/// shipment is prefetched before a fan-out).
pub struct ExecCtx<'a> {
    /// The shared read-only catalog lane.
    pub cat: CatalogCtx<'a>,
    /// This worker's device lane.
    pub lane: DeviceLane<'a>,
    /// This worker's cost lane.
    pub cost: CostScope,
    /// The query's execution knobs.
    pub(crate) knobs: RunKnobs<'a>,
    channel: Option<&'a mut Channel>,
    /// Open `track`/`track_rw` scopes; guards the run_lanes nesting rule.
    track_depth: u32,
}

impl<'a> ExecCtx<'a> {
    /// Build a serial root context over a database (the token's own
    /// resources) with default knobs.
    pub fn new(db: &'a mut Database) -> Self {
        Self::with_knobs(db, RunKnobs::default())
    }

    /// Build a root context over a database (the token's own resources).
    pub(crate) fn with_knobs(db: &'a mut Database, knobs: RunKnobs<'a>) -> Self {
        let token = &mut db.token;
        let cat = CatalogCtx {
            schema: &db.schema,
            rows: &db.rows,
            hidden: &db.hidden,
            skts: &db.skts,
            cis: &db.cis,
            untrusted: &db.untrusted,
        };
        let lane = DeviceLane::new(&mut token.flash, token.ram.clone(), &mut db.alloc);
        Self::assemble(cat, lane, Some(&mut token.channel), knobs)
    }

    /// Build a context from its parts: a catalog (possibly over a forked
    /// untrusted host), a device lane over any flash handle, arena and
    /// allocator, an optional channel and the query's knobs. Every context
    /// is built here.
    pub(crate) fn assemble(
        cat: CatalogCtx<'a>,
        lane: DeviceLane<'a>,
        channel: Option<&'a mut Channel>,
        knobs: RunKnobs<'a>,
    ) -> Self {
        ExecCtx {
            cat,
            lane,
            cost: CostScope::new(),
            knobs,
            channel,
            track_depth: 0,
        }
    }

    /// The RAM arena (cheap clone of the shared handle).
    pub fn ram(&self) -> RamArena {
        self.lane.ram()
    }

    /// Flash page size.
    pub fn page_size(&self) -> usize {
        self.lane.page_size()
    }

    /// The primary-key climbing index of a table.
    pub fn pk_index(&self, t: TableId) -> Result<&'a ClimbingIndex> {
        self.cat.pk_index(t)
    }

    /// The climbing index on an attribute.
    pub fn attr_index(&self, t: TableId, column: &str) -> Result<&'a ClimbingIndex> {
        self.cat.attr_index(t, column)
    }

    /// The SKT of a table.
    pub fn skt(&self, t: TableId) -> Result<&'a SubtreeKeyTable> {
        self.cat.skt(t)
    }

    /// The channel to the untrusted PC (root lane only; worker lanes run
    /// strictly below the channel).
    pub fn channel(&mut self) -> Result<&mut Channel> {
        self.channel
            .as_deref_mut()
            .ok_or_else(|| ExecError::Query("channel unavailable on a worker lane".into()))
    }

    /// `Vis(Q, T, π)`: ship the sorted visible ids (+ `projection` values)
    /// of `t` under `preds`, padded to a power-of-two row bucket when the
    /// context runs in padded mode. Root lane only.
    pub fn vis(
        &mut self,
        t: TableId,
        preds: &[Predicate],
        projection: &[String],
    ) -> Result<VisShipment> {
        let name = self.cat.schema.def(t).name.clone();
        let untrusted = self.cat.untrusted;
        let pad = if self.knobs.padded {
            PadMode::PowerOfTwo
        } else {
            PadMode::Exact
        };
        let channel = self.channel()?;
        Ok(untrusted.vis_with(channel, t, &name, preds, projection, pad)?)
    }

    /// Run `f` attributing all flash time **this lane** causes to `op`.
    /// Reentrant across lanes: the delta comes from the lane-local counter
    /// mirror, never from the (possibly shared) device counters.
    pub fn track<T>(&mut self, op: OpKind, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        let before = self.lane.io();
        self.track_depth += 1;
        let out = f(self);
        self.track_depth -= 1;
        let d = self.lane.io() - before;
        self.cost.add(op, self.lane.elapsed_of(&d));
        out
    }

    /// Run `f` splitting this lane's flash time: read-side to `read_op`,
    /// write-side to `write_op` (e.g. SJoin scan vs Store materialisation).
    pub fn track_rw<T>(
        &mut self,
        read_op: OpKind,
        write_op: OpKind,
        f: impl FnOnce(&mut Self) -> Result<T>,
    ) -> Result<T> {
        let before = self.lane.io();
        self.track_depth += 1;
        let out = f(self);
        self.track_depth -= 1;
        let d = self.lane.io() - before;
        let (r, w) = split_rw(&d, self.lane.timing(), self.lane.page_size());
        self.cost.add(read_op, r);
        self.cost.add(write_op, w);
        out
    }

    /// One attributed flash scope: run `f` against the device and charge
    /// the simulated time it causes to `op`. Zero-I/O scopes (a row served
    /// from the reader's pinned buffer) skip the cost math entirely —
    /// adding a zero duration is a no-op, so attribution is unchanged.
    pub fn tracked<T>(&mut self, op: OpKind, f: impl FnOnce(&mut FlashDevice) -> T) -> T {
        let (out, d) = self.lane.with_flash_delta(f);
        if d != FlashStats::default() {
            self.cost.add(op, self.lane.elapsed_of(&d));
        }
        out
    }

    /// Register a temp segment to free when the query finishes.
    pub fn add_temp(&mut self, seg: Segment) {
        self.lane.add_temp(seg);
    }

    /// Free all temps (called by the executor at the end of the query).
    /// Trimming is metadata-only so it does not perturb measured time.
    pub fn free_temps(&mut self) -> Result<()> {
        let temps = std::mem::take(&mut self.lane.temps);
        self.lane.with_flash_alloc(|dev, alloc| {
            for seg in temps {
                alloc.free(seg, dev)?;
            }
            Ok(())
        })
    }

    /// Finalise the report: cost-lane buckets in canonical order, then
    /// channel and lane observations. `io` is the root lane's mirror plus
    /// every accepted worker scope — NOT the shared device counters, so a
    /// torn-down parallel attempt (see [`Self::run_lanes`]) cannot leak
    /// into the report.
    pub fn finish_report(&mut self) -> ExecReport {
        let mut report = ExecReport::new();
        self.cost.apply_to(&mut report);
        if let Some(ch) = self.channel.as_deref() {
            report.comm = ch.elapsed();
            report.bytes_to_secure = ch.bytes_to_secure();
        }
        report.io = self.lane.io() + self.cost.io;
        report.peak_ram_buffers = report.peak_ram_buffers.max(self.lane.ram().peak());
        report
    }

    /// Fan `jobs` independent sub-units of this plan across up to
    /// `knobs.intra` worker lanes and return their results in job order.
    ///
    /// Each worker runs on a `WorkerLane` from `LaneCarve` (a fresh
    /// arena, an allocator slice on a GC-unpressured chip, a forked flash
    /// handle) and its own [`CostScope`]; scopes merge back into the parent
    /// in job order. Because every job issues exactly the flash operations
    /// it would issue serially, and every per-operation cost is
    /// placement-independent, results AND per-operator attribution are
    /// bit-identical to the serial loop (locked by the intra equivalence
    /// suite). Lanes whose slices land on disjoint chips never contend;
    /// lanes sharing a chip serialise per page operation inside the
    /// device, so per-row CPU work still overlaps.
    ///
    /// Falls back to the serial loop on this lane when `intra <= 1`, when
    /// there is at most one job, when the parent arena still holds buffers
    /// (worker arenas start empty, so a non-empty baseline would change
    /// RAM-driven decisions), or when `LaneCarve::try_carve` declines.
    /// A worker failing (e.g. its slice running out of space on a query
    /// the undivided pool could serve) or GC firing mid-attempt tears the
    /// attempt down and replays the whole batch serially on this lane:
    /// worker scopes are dropped unmerged and `io` comes from lane mirrors,
    /// so the discarded work never reaches the report. On success the
    /// slices become query temps, so `free_temps` trims every page any
    /// worker wrote at query end and fan-out data does not linger as GC
    /// fodder. A workload that churns the device to the watermark *after*
    /// a fan-out can still reach GC over perturbed placement; keep
    /// `intra_threads = 1` for bit-exact reports under that regime.
    ///
    /// Must not be nested inside a `track` scope: worker I/O lands on the
    /// worker lanes and would escape the enclosing attribution window.
    pub fn run_lanes<T: Send>(
        &mut self,
        jobs: usize,
        work: impl Fn(&mut ExecCtx<'_>, usize) -> Result<T> + Sync,
    ) -> Result<Vec<T>> {
        debug_assert_eq!(
            self.track_depth, 0,
            "run_lanes must not be nested inside a track scope: worker I/O \
             lands on worker lanes and would escape the enclosing window"
        );
        let lanes = self.knobs.intra.min(jobs);
        if lanes <= 1 || self.lane.ram().in_use() != 0 {
            return (0..jobs).map(|i| work(self, i)).collect();
        }
        let ram = self.lane.ram();
        let Some((carve, workers)) = self
            .lane
            .with_flash_alloc(|dev, alloc| LaneCarve::try_carve(dev, alloc, &ram, lanes))?
        else {
            return (0..jobs).map(|i| work(self, i)).collect();
        };
        let cat = self.cat;
        // Workers never re-fan: one level of intra-query parallelism keeps
        // scheduling analysable.
        let knobs = RunKnobs {
            intra: 1,
            ..self.knobs
        };
        let pool = Mutex::new(workers);
        let results: Result<Vec<(T, CostScope)>> = crate::parallel::fan_out(
            jobs,
            lanes,
            || {
                pool.lock()
                    .expect("slice pool")
                    .pop()
                    .ok_or_else(|| ExecError::Query("lane slice pool exhausted".into()))
            },
            |w, i| {
                let mut ctx = ExecCtx::assemble(cat, w.device_lane(), None, knobs);
                let out = work(&mut ctx, i)?;
                let mut scope = std::mem::take(&mut ctx.cost);
                scope.peak_ram = scope.peak_ram.max(ctx.ram().peak());
                scope.io = ctx.lane.io();
                Ok((out, scope))
            },
        );
        let gc_fired = self.lane.with_flash(|dev| carve.gc_fired(dev));
        match results {
            Ok(res) if !gc_fired => {
                for seg in carve.adopt() {
                    self.lane.add_temp(seg);
                }
                let mut out = Vec::with_capacity(jobs);
                for (value, scope) in res {
                    self.cost.merge_from(&scope);
                    out.push(value);
                }
                Ok(out)
            }
            outcome => {
                drop(outcome);
                self.lane
                    .with_flash_alloc(|dev, alloc| carve.release(dev, alloc))?;
                (0..jobs).map(|i| work(self, i)).collect()
            }
        }
    }
}

/// Smallest allocator slice `LaneCarve` hands a worker: a thinner one
/// would run out of space on queries the undivided pool serves.
const MIN_SLICE_PAGES: u64 = 64;

/// The flash a parallel attempt may write: allocator slices carved on
/// GC-unpressured chips, plus the GC counters as they stood at the carve.
///
/// GC is the one scheduling-dependent cost in the FTL: interleaved worker
/// writes land in thread-timing order, so a collection over them has
/// timing-dependent victims and relocation counts. Two defences keep
/// every parallel path serial-equivalent. The headroom rule keeps an
/// attempt from driving a chip to its watermark itself, and
/// [`Self::gc_fired`] lets the caller discard any attempt a collection
/// did overlap.
#[derive(Debug)]
pub(crate) struct LaneCarve {
    segs: Vec<Segment>,
    gc_before: FlashStats,
}

impl LaneCarve {
    /// Carve `slices` allocator slices and build one `WorkerLane` over
    /// each (in carve order), or decline with `Ok(None)`, leaving `alloc`
    /// as it was.
    ///
    /// * **Eligibility.** A chip hosts slices only while at least 1/8 of
    ///   its physical pages remain programmable before a collection could
    ///   start (`gc_headroom_of(c) * 8 ≥` physical pages). A pressured
    ///   chip stays readable; it just stops hosting slices. The attempt
    ///   declines when no chip is eligible.
    /// * **Placement.** Slice `j` goes to eligible chip `j mod n` and gets
    ///   `free_in_range(chip) / (slices on chip + 1)` pages, keeping one
    ///   share per chip for the parent's own later allocations. The
    ///   attempt declines if any slice would be under 64 pages.
    /// * **Rollback.** A fragmented free list can refuse a carve the page
    ///   count allowed: the partial carves are freed and the attempt
    ///   declines.
    ///
    /// Placement is a pure function of the allocator state and `slices`,
    /// never of worker scheduling.
    pub(crate) fn try_carve(
        dev: &mut FlashDevice,
        alloc: &mut SegmentAllocator,
        ram: &RamArena,
        slices: usize,
    ) -> Result<Option<(LaneCarve, Vec<WorkerLane>)>> {
        let (chip_pages, chip_physical) = (dev.chip_pages(), dev.geometry().physical_pages());
        let eligible: Vec<u64> = (0..dev.chip_count() as u64)
            .filter(|&c| dev.gc_headroom_of(c as usize) * 8 >= chip_physical)
            .collect();
        if eligible.is_empty() {
            return Ok(None);
        }
        let on: Vec<u64> = (0..slices).map(|j| eligible[j % eligible.len()]).collect();
        let range = |c: u64| (c * chip_pages, (c + 1) * chip_pages);
        let pages: Vec<u64> = on
            .iter()
            .map(|&c| {
                let (lo, hi) = range(c);
                let sharing = on.iter().filter(|&&d| d == c).count() as u64;
                alloc.free_in_range(lo, hi) / (sharing + 1)
            })
            .collect();
        if pages.iter().any(|&p| p < MIN_SLICE_PAGES) {
            return Ok(None);
        }
        let mut segs = Vec::with_capacity(slices);
        for (&c, &p) in on.iter().zip(&pages) {
            let (lo, hi) = range(c);
            let Ok(seg) = alloc.alloc_in_range(p, lo, hi) else {
                for seg in segs {
                    alloc.free(seg, dev)?;
                }
                return Ok(None);
            };
            segs.push(seg);
        }
        let workers = segs
            .iter()
            .map(|seg| WorkerLane {
                flash: dev.fork(),
                arena: ram.fresh_like(),
                alloc: SegmentAllocator::over(seg.start(), seg.pages()),
            })
            .collect();
        let carve = LaneCarve {
            segs,
            gc_before: dev.stats(),
        };
        Ok(Some((carve, workers)))
    }

    /// Whether garbage collection ran on `dev` since the carve. A tainted
    /// attempt's costs depend on scheduling: discard it and replay
    /// serially.
    pub(crate) fn gc_fired(&self, dev: &FlashDevice) -> bool {
        let (now, was) = (dev.stats(), &self.gc_before);
        now.blocks_erased != was.blocks_erased
            || now.gc_pages_read != was.gc_pages_read
            || now.gc_pages_written != was.gc_pages_written
    }

    /// Return every slice to `alloc`. Frees trim, so any page a worker
    /// wrote (error-path stragglers included) leaves the logical image.
    pub(crate) fn release(self, dev: &mut FlashDevice, alloc: &mut SegmentAllocator) -> Result<()> {
        for seg in self.segs {
            alloc.free(seg, dev)?;
        }
        Ok(())
    }

    /// Hand the slices to the caller, who now owns freeing them.
    pub(crate) fn adopt(self) -> Vec<Segment> {
        self.segs
    }
}

/// One worker's resources for a parallel attempt: a forked handle onto the
/// shared chip array, a fresh arena (same geometry as the token's, so
/// RAM-driven decisions match the serial path exactly) and an allocator
/// over one carved slice.
#[derive(Debug)]
pub(crate) struct WorkerLane {
    flash: FlashDevice,
    arena: RamArena,
    alloc: SegmentAllocator,
}

impl WorkerLane {
    /// A device lane over these resources.
    pub(crate) fn device_lane(&mut self) -> DeviceLane<'_> {
        DeviceLane::new(&mut self.flash, self.arena.clone(), &mut self.alloc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit;
    use ghostdb_storage::Id;
    use ghostdb_storage::IdListWriter;

    #[test]
    fn tracked_scopes_attribute_lane_local_io() {
        let mut db = testkit::tiny_db();
        let mut ctx = ExecCtx::new(&mut db);
        let page_size = ctx.page_size();
        let ram = ctx.ram();
        let mut writer = ctx
            .track(OpKind::Store, |ctx| {
                Ok(IdListWriter::create(
                    ctx.lane.alloc(),
                    &ram,
                    100,
                    page_size,
                )?)
            })
            .unwrap();
        ctx.tracked(OpKind::Store, |dev| {
            for id in 0..100u32 {
                writer.push(dev, id as Id).unwrap();
            }
            writer.finish(dev).unwrap()
        });
        assert!(ctx.cost.op(OpKind::Store).as_ns() > 0);
        assert_eq!(ctx.cost.op(OpKind::Merge).as_ns(), 0);
        assert!(ctx.lane.io().pages_written > 0);
    }

    #[test]
    fn cost_scope_merge_is_order_insensitive() {
        let mut a = CostScope::new();
        a.add(OpKind::Merge, SimDuration::from_us(5));
        a.peak_ram = 3;
        let mut b = CostScope::new();
        b.add(OpKind::Merge, SimDuration::from_us(7));
        b.add(OpKind::SJoin, SimDuration::from_us(1));
        b.peak_ram = 9;
        let mut ab = a.clone();
        ab.merge_from(&b);
        let mut ba = b.clone();
        ba.merge_from(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.op(OpKind::Merge), SimDuration::from_us(12));
        assert_eq!(ab.peak_ram, 9);
    }

    #[test]
    fn run_lanes_serial_and_parallel_agree() {
        // Pure-CPU jobs: results land in job order on any thread count and
        // the parent scope absorbs the (empty) worker scopes.
        let mut db = testkit::tiny_db();
        for intra in [1usize, 3] {
            let mut ctx = ExecCtx::new(&mut db);
            ctx.knobs.intra = intra;
            let out = ctx.run_lanes(5, |_ctx, i| Ok(i * 10)).unwrap();
            assert_eq!(out, vec![0, 10, 20, 30, 40]);
            ctx.free_temps().unwrap();
        }
    }

    #[test]
    fn run_lanes_workers_write_readable_temps() {
        // Each worker materialises an id list through its own lane; the
        // parent can read every list back and the Store attribution equals
        // the serial run's.
        let mut db = testkit::tiny_db();
        let write_lists = |ctx: &mut ExecCtx<'_>| -> (Vec<Vec<Id>>, CostScope) {
            let lists = ctx
                .run_lanes(4, |ctx, i| {
                    let ram = ctx.ram();
                    let page_size = ctx.page_size();
                    let mut w = ctx.track(OpKind::Store, |ctx| {
                        Ok(IdListWriter::create(
                            ctx.lane.alloc(),
                            &ram,
                            600,
                            page_size,
                        )?)
                    })?;
                    ctx.add_temp(w.segment());
                    let list = ctx.tracked(OpKind::Store, |dev| {
                        for k in 0..600u32 {
                            w.push(dev, (i as Id) * 1000 + k).unwrap();
                        }
                        w.finish(dev).unwrap()
                    });
                    Ok(list)
                })
                .unwrap();
            let ram = ctx.ram();
            let page_size = ctx.page_size();
            let read = lists
                .iter()
                .map(|l| {
                    let mut r = ghostdb_storage::IdListReader::open(*l, &ram, page_size).unwrap();
                    let mut ids = Vec::new();
                    ctx.lane.with_flash(|dev| {
                        while let Some(id) = r.next_id(dev).unwrap() {
                            ids.push(id);
                        }
                    });
                    ids
                })
                .collect();
            (read, ctx.cost.clone())
        };
        let mut serial_ctx = ExecCtx::new(&mut db);
        let (serial_lists, serial_cost) = write_lists(&mut serial_ctx);
        serial_ctx.free_temps().unwrap();
        let mut db2 = testkit::tiny_db();
        let mut par_ctx = ExecCtx::new(&mut db2);
        par_ctx.knobs.intra = 4;
        let (par_lists, par_cost) = write_lists(&mut par_ctx);
        par_ctx.free_temps().unwrap();
        assert_eq!(serial_lists, par_lists);
        assert_eq!(
            serial_cost.op(OpKind::Store),
            par_cost.op(OpKind::Store),
            "per-operator attribution must be bit-identical"
        );
    }

    #[test]
    fn worker_lanes_have_no_channel() {
        let mut db = testkit::tiny_db();
        let mut ctx = ExecCtx::new(&mut db);
        assert!(ctx.channel().is_ok());
        ctx.knobs.intra = 2;
        let errs = ctx
            .run_lanes(2, |ctx, _| Ok(ctx.channel().is_err()))
            .unwrap();
        assert_eq!(errs, vec![true, true]);
        ctx.free_temps().unwrap();
    }

    /// A `chips`-chip device of 288 logical (320 physical) pages per chip,
    /// with a striped allocator and a small arena.
    fn tiny_device(chips: usize) -> (FlashDevice, SegmentAllocator, RamArena) {
        let geometry = ghostdb_flash::FlashGeometry {
            page_size: 256,
            pages_per_block: 8,
            block_count: 40,
            spare_blocks: 4,
        };
        let dev = FlashDevice::with_chips(geometry, FlashTiming::default(), chips);
        let alloc = SegmentAllocator::with_chips(dev.logical_pages(), chips);
        (dev, alloc, RamArena::new(256, 8))
    }

    /// Program every logical page of `chip`, leaving it under 1/8 GC
    /// headroom (the allocator does not see these writes).
    fn pressure(dev: &mut FlashDevice, chip: u64) {
        let pages = dev.chip_pages();
        for lpn in chip * pages..(chip + 1) * pages {
            dev.write(lpn, &[1; 8]).unwrap();
        }
        assert!(dev.gc_headroom_of(chip as usize) * 8 < dev.geometry().physical_pages());
    }

    #[test]
    fn lane_carve_skips_gc_pressured_chips() {
        let (mut dev, mut alloc, ram) = tiny_device(4);
        pressure(&mut dev, 1);
        let (carve, workers) = LaneCarve::try_carve(&mut dev, &mut alloc, &ram, 3)
            .unwrap()
            .expect("three chips are still eligible");
        let chips: Vec<usize> = carve
            .segs
            .iter()
            .map(|s| alloc.chip_of(s.start()))
            .collect();
        assert_eq!(chips, vec![0, 2, 3]);
        for (w, seg) in workers.iter().zip(&carve.segs) {
            assert_eq!(w.alloc.total_pages(), seg.pages());
            assert_eq!(seg.pages(), dev.chip_pages() / 2);
        }
        carve.release(&mut dev, &mut alloc).unwrap();
    }

    #[test]
    fn lane_carve_declines_when_every_chip_is_pressured() {
        let (mut dev, mut alloc, ram) = tiny_device(2);
        pressure(&mut dev, 0);
        pressure(&mut dev, 1);
        let before = format!("{alloc:?}");
        assert!(LaneCarve::try_carve(&mut dev, &mut alloc, &ram, 2)
            .unwrap()
            .is_none());
        assert_eq!(
            format!("{alloc:?}"),
            before,
            "a declined carve carves nothing"
        );
    }

    #[test]
    fn lane_carve_rolls_back_a_refused_carve() {
        // A 100-page hole, eight 10-page holes and an 18-page tail: 198
        // free pages size each of two slices at 66. The first fits the
        // 100-page hole; the second fits nowhere.
        let (mut dev, mut alloc, ram) = tiny_device(1);
        let big = alloc.alloc(100).unwrap();
        let small: Vec<Segment> = (0..18).map(|_| alloc.alloc(10).unwrap()).collect();
        alloc.free(big, &mut dev).unwrap();
        for seg in small.into_iter().skip(1).step_by(2) {
            alloc.free(seg, &mut dev).unwrap();
        }
        assert_eq!(alloc.free_pages(), 198);
        let before = format!("{alloc:?}");
        assert!(LaneCarve::try_carve(&mut dev, &mut alloc, &ram, 2)
            .unwrap()
            .is_none());
        assert_eq!(format!("{alloc:?}"), before, "the partial carve leaked");
    }

    #[test]
    fn released_slices_restore_the_free_pool() {
        let (mut dev, mut alloc, ram) = tiny_device(4);
        let before = (alloc.free_pages(), format!("{alloc:?}"));
        let (carve, workers) = LaneCarve::try_carve(&mut dev, &mut alloc, &ram, 6)
            .unwrap()
            .expect("a fresh device hosts six slices");
        assert_eq!(workers.len(), 6);
        assert!(alloc.free_pages() < before.0);
        assert!(!carve.gc_fired(&dev));
        carve.release(&mut dev, &mut alloc).unwrap();
        assert_eq!((alloc.free_pages(), format!("{alloc:?}")), before);
    }

    #[test]
    fn lane_carve_reports_gc_during_the_attempt() {
        let (mut dev, mut alloc, ram) = tiny_device(1);
        let (carve, _workers) = LaneCarve::try_carve(&mut dev, &mut alloc, &ram, 2)
            .unwrap()
            .expect("a fresh device hosts two slices");
        // Rewriting the whole logical space twice overflows the spares.
        for _ in 0..2 {
            for lpn in 0..dev.chip_pages() {
                dev.write(lpn, &[2; 8]).unwrap();
            }
        }
        assert!(carve.gc_fired(&dev));
        carve.release(&mut dev, &mut alloc).unwrap();
    }
}

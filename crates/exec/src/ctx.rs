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
//!   (the token's own on the serial path, a [`FlashDevice::fork`] under
//!   intra-query fan-out), a RAM arena, a segment-allocator slice and a
//!   temp registry. The lane mirrors every flash counter delta it causes
//!   into a **lane-local** [`FlashStats`], which is what makes cost
//!   tracking reentrant: concurrent lanes never read each other's deltas.
//!   Locking is **per page operation, per chip** inside the device — a
//!   whole tracked operator scope (an entire MJoin dict-fill) no longer
//!   holds any device-wide lock, so per-row CPU work overlaps across
//!   lanes, and lanes whose allocator slices sit on disjoint chips never
//!   contend at all.
//! * [`CostScope`] — the per-worker **cost** lane: local `OpKind →
//!   SimDuration` accumulation, merged into the parent scope in canonical
//!   operator order when workers join. Merging is associative and
//!   order-insensitive (checked by the property suite), so intra-parallel
//!   reports are bit-identical to serial ones.
//!
//! [`ExecCtx`] recomposes the three lanes (plus the channel, root lane
//! only) and is what operators borrow. [`ExecCtx::run_lanes`] is the
//! intra-query fan-out point: it gives each worker a forked device
//! handle, a fresh arena, an allocator slice carved on a GC-unpressured
//! chip and an empty cost scope, and deterministically merges results
//! and attribution back.

use crate::database::Database;
use crate::error::ExecError;
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

    /// A fresh handle onto this lane's device with zeroed local counters
    /// (what a worker lane is built over).
    pub fn fork_device(&self) -> FlashDevice {
        self.flash.fork()
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
    /// Intra-query worker budget for `run_lanes` (1 = serial).
    pub intra: usize,
    /// Pad every `Vis` shipment to a power-of-two row bucket (the volume
    /// side-channel countermeasure; see `SECURITY.md`).
    pub padded: bool,
    /// Climbing-index read-ahead window in pages (`0` = serial). Forwarded
    /// to every `CiProbe` this context opens; counters and results are
    /// bit-identical at any value.
    pub read_ahead: usize,
    /// Cross-query climbing-index prefetch (the serve-mode batch
    /// scheduler's shared traversals). `None` on solo executions; hits are
    /// billed as-if-solo via [`DeviceLane::charge`], so the report is
    /// bit-identical either way.
    pub prefetch: Option<&'a crate::ci_ops::CiPrefetch>,
    channel: Option<&'a mut Channel>,
    /// Open `track`/`track_rw` scopes; guards the run_lanes nesting rule.
    track_depth: u32,
}

impl<'a> ExecCtx<'a> {
    /// Build a root context over a database (the token's own resources).
    pub fn new(db: &'a mut Database) -> Self {
        let token = &mut db.token;
        ExecCtx {
            cat: CatalogCtx {
                schema: &db.schema,
                rows: &db.rows,
                hidden: &db.hidden,
                skts: &db.skts,
                cis: &db.cis,
                untrusted: &db.untrusted,
            },
            lane: DeviceLane::new(&mut token.flash, token.ram.clone(), &mut db.alloc),
            cost: CostScope::new(),
            intra: 1,
            padded: false,
            read_ahead: 0,
            prefetch: None,
            channel: Some(&mut token.channel),
            track_depth: 0,
        }
    }

    /// Build a context from explicitly assembled parts: a catalog (with a
    /// possibly forked untrusted host), a device lane over any flash
    /// handle/arena/allocator, and an optional channel. This is the serve
    /// worker path — per-query isolated resources standing in for the
    /// token's own.
    pub(crate) fn from_parts(
        cat: CatalogCtx<'a>,
        lane: DeviceLane<'a>,
        channel: Option<&'a mut Channel>,
    ) -> Self {
        ExecCtx {
            cat,
            lane,
            cost: CostScope::new(),
            intra: 1,
            padded: false,
            read_ahead: 0,
            prefetch: None,
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
        let pad = if self.padded {
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
    /// `self.intra` worker lanes and return their results in job order.
    ///
    /// Each worker runs on its own [`DeviceLane`] (fresh RAM arena of the
    /// same geometry, a segment-allocator slice carved on a GC-unpressured
    /// chip, a forked flash handle onto the shared chip array) and its own
    /// [`CostScope`]; scopes merge back into the parent in job order.
    /// Because every job issues exactly the flash operations it would
    /// issue serially, and every per-operation cost is
    /// placement-independent, results AND per-operator attribution are
    /// bit-identical to the serial loop (locked by the intra equivalence
    /// suite). Lanes whose slices land on disjoint chips never contend;
    /// lanes sharing a chip serialise per page operation inside the
    /// device, so per-row CPU work still overlaps.
    ///
    /// Falls back to the serial loop on this lane when `intra <= 1`, when
    /// there is at most one job, when the parent arena still holds buffers
    /// (worker arenas start empty, so a non-empty baseline would change
    /// RAM-driven decisions), when the allocator cannot carve a meaningful
    /// slice per worker (including a fragmented free list refusing a carve
    /// the page count allowed), or when **every** chip is close enough to
    /// its GC watermark that a fan-out's writes could trigger collection.
    /// GC pressure is judged per chip: a pressured chip simply stops
    /// hosting lane slices (its data stays readable — reads never program
    /// pages) while lanes keep fanning out across the unpressured chips;
    /// only a device with no unpressured chip left forces the whole
    /// fan-out serial. On a single-chip device this degenerates to the
    /// old all-or-nothing check.
    ///
    /// GC is the one scheduling-dependent cost: interleaved worker writes
    /// land in the FTL in thread-timing order, so a collection pass over
    /// such blocks has timing-dependent relocation counts. Three defences
    /// keep reports serial-identical: the headroom precondition keeps a
    /// fan-out from driving any chip to its watermark itself, the
    /// GC-taint window below tears down and serially replays any attempt a
    /// collection did overlap, and free_temps trims every worker page at
    /// query end so fan-out data does not linger as GC fodder. A workload
    /// that churns the device to the watermark *after* a fan-out (past the
    /// trim) can still reach GC over perturbed placement; keep
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
        let lanes = self.intra.min(jobs);
        if lanes <= 1 || self.lane.ram().in_use() != 0 {
            return (0..jobs).map(|i| work(self, i)).collect();
        }
        const MIN_SLICE_PAGES: u64 = 64;
        // Per-chip GC pressure: GC only fires near physical exhaustion, so
        // a chip is eligible to host lane slices while at least 1/8 of its
        // physical pages remain programmable before a collection could
        // start. Within that margin typical temp bursts cannot reach the
        // watermark; the taint window below remains the hard guard.
        let (chips, chip_pages, chip_physical) = self.lane.with_flash(|dev| {
            (
                dev.chip_count() as u64,
                dev.chip_pages(),
                dev.geometry().physical_pages(),
            )
        });
        let mut eligible: Vec<u64> = Vec::new();
        for c in 0..chips {
            let headroom = self.lane.with_flash(|dev| dev.gc_headroom_of(c as usize));
            if headroom * 8 >= chip_physical {
                eligible.push(c);
            }
        }
        if eligible.is_empty() {
            return (0..jobs).map(|i| work(self, i)).collect();
        }
        // Round-robin lanes over the eligible chips; size each lane's
        // slice as an equal share of its chip's free pages, keeping one
        // share per chip in reserve for the parent's own later
        // allocations.
        let lane_chip: Vec<u64> = (0..lanes).map(|j| eligible[j % eligible.len()]).collect();
        let mut lanes_on = vec![0u64; chips as usize];
        for &c in &lane_chip {
            lanes_on[c as usize] += 1;
        }
        let mut slice_pages: Vec<u64> = Vec::with_capacity(lanes);
        for &c in &lane_chip {
            let free = self
                .lane
                .alloc()
                .free_in_range(c * chip_pages, (c + 1) * chip_pages);
            slice_pages.push(free / (lanes_on[c as usize] + 1));
        }
        if slice_pages.iter().any(|&p| p < MIN_SLICE_PAGES) {
            return (0..jobs).map(|i| work(self, i)).collect();
        }
        let mut carves: Vec<Segment> = Vec::with_capacity(lanes);
        let mut slices: Vec<SegmentAllocator> = Vec::with_capacity(lanes);
        for (j, &c) in lane_chip.iter().enumerate() {
            // A fragmented free list can refuse a carve the page count
            // allowed: return what was carved and run serially instead of
            // failing the query (and leaking the partial carves).
            match self.lane.alloc().alloc_in_range(
                slice_pages[j],
                c * chip_pages,
                (c + 1) * chip_pages,
            ) {
                Ok(seg) => {
                    slices.push(SegmentAllocator::over(seg.start(), seg.pages()));
                    carves.push(seg);
                }
                Err(_) => {
                    self.lane.with_flash_alloc(|dev, alloc| {
                        for seg in carves {
                            alloc.free(seg, dev)?;
                        }
                        Ok::<(), ExecError>(())
                    })?;
                    return (0..jobs).map(|i| work(self, i)).collect();
                }
            }
        }
        let cat = self.cat;
        let padded = self.padded;
        let read_ahead = self.read_ahead;
        let prefetch = self.prefetch;
        let arena = self.lane.ram();
        let proto = self.lane.fork_device();
        // GC placement is the one scheduling-dependent cost in the FTL: if
        // garbage collection fires while workers interleave writes, victim
        // selection (and so relocation counts) depends on thread timing.
        // Snapshot the GC counters around the attempt; a GC-tainted run is
        // torn down and replayed serially below.
        let gc_before = self.lane.with_flash(|dev| dev.stats());
        let results: Result<Vec<(T, CostScope)>> = {
            let pool = Mutex::new(slices);
            crate::parallel::fan_out(
                jobs,
                lanes,
                || {
                    let alloc = pool
                        .lock()
                        .expect("slice pool")
                        .pop()
                        .ok_or_else(|| ExecError::Query("lane slice pool exhausted".into()))?;
                    Ok(WorkerLane {
                        alloc,
                        arena: arena.fresh_like(),
                        flash: proto.fork(),
                    })
                },
                |w, i| {
                    let mut ctx = ExecCtx {
                        cat,
                        lane: DeviceLane::new(&mut w.flash, w.arena.clone(), &mut w.alloc),
                        cost: CostScope::new(),
                        // Workers never re-fan: one level of intra-query
                        // parallelism keeps scheduling analysable.
                        intra: 1,
                        padded,
                        read_ahead,
                        prefetch,
                        channel: None,
                        track_depth: 0,
                    };
                    let out = work(&mut ctx, i)?;
                    let mut scope = ctx.cost;
                    scope.peak_ram = scope.peak_ram.max(w.arena.peak());
                    scope.io = ctx.lane.io();
                    Ok((out, scope))
                },
            )
        };
        let gc_after = self.lane.with_flash(|dev| dev.stats());
        let gc_fired = gc_after.blocks_erased != gc_before.blocks_erased
            || gc_after.gc_pages_read != gc_before.gc_pages_read
            || gc_after.gc_pages_written != gc_before.gc_pages_written;
        match results {
            Ok(res) if !gc_fired => {
                // Success: the carves become query temps — freeing them at
                // the end trims every page any worker wrote and returns the
                // slices to the parent pool.
                for seg in carves {
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
                // A worker failed (e.g. its slice ran out of logical space
                // on a query the undivided pool could serve) or GC fired
                // mid-fan-out (scheduling-dependent relocation costs): tear
                // the attempt down — trims are metadata-only, worker scopes
                // are dropped unmerged, and `io` comes from lane mirrors so
                // the discarded work never reaches the report — and replay
                // the whole batch serially on this lane. Intra-parallel
                // execution is therefore *always* serial-equivalent; the
                // parallel path is strictly an optimisation.
                drop(outcome);
                self.lane.with_flash_alloc(|dev, alloc| {
                    for seg in carves {
                        alloc.free(seg, dev)?;
                    }
                    Ok::<(), ExecError>(())
                })?;
                (0..jobs).map(|i| work(self, i)).collect()
            }
        }
    }
}

/// Per-worker state of an intra-query fan-out: a fresh arena (same
/// geometry as the token's, so RAM-driven decisions match the serial path
/// exactly), an allocator slice carved on one chip, and a forked handle
/// onto the shared chip array.
struct WorkerLane {
    alloc: SegmentAllocator,
    arena: RamArena,
    flash: FlashDevice,
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
            ctx.intra = intra;
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
        par_ctx.intra = 4;
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
        ctx.intra = 2;
        let errs = ctx
            .run_lanes(2, |ctx, _| Ok(ctx.channel().is_err()))
            .unwrap();
        assert_eq!(errs, vec![true, true]);
        ctx.free_temps().unwrap();
    }
}

//! The execution context: catalog and device lanes, plus the report.
//!
//! The execution state threaded through every operator is split into two
//! lanes and the report they feed:
//!
//! * [`CatalogCtx`] — the shared **read-only** lane: schema, cardinalities,
//!   hidden images, SKTs, climbing indexes and the untrusted PC.
//! * [`DeviceLane`] — the **device** lane: the token's flash handle, its
//!   RAM arena, the segment allocator and a temp registry. The lane
//!   mirrors every flash counter delta it causes into a **lane-local**
//!   [`FlashStats`], which also takes the banked deltas a cross-query
//!   prefetch hit is billed ([`DeviceLane::charge`]), so the query's I/O
//!   reads as if it had run solo.
//! * [`ExecReport`] — per-operator attribution: every `track` scope adds
//!   the simulated time its flash I/O implies to its `OpKind` bucket, and
//!   [`ExecCtx::finish_report`] fills in the channel and lane observations.
//!
//! [`ExecCtx`] recomposes the two lanes, the report, the query's channel
//! and its `RunKnobs` over the token's own resources. In the paper one
//! secure chip runs each query sequentially, and so does every context
//! here: operators run one after another on the one lane.

use crate::database::Database;
use crate::error::ExecError;
use crate::executor::ExecOptions;
use crate::report::{split_rw, ExecReport, OpKind};
use crate::Result;
use ghostdb_flash::{FlashDevice, FlashStats, FlashTiming, Segment, SegmentAllocator, SimDuration};
use ghostdb_index::{ClimbingIndex, SubtreeKeyTable};
use ghostdb_storage::row::RowLayout;
use ghostdb_storage::{HiddenColumn, HiddenImage, Predicate, SchemaTree, TableId};
use ghostdb_token::{Channel, RamArena};
use ghostdb_untrusted::{PadMode, UntrustedHost, VisShipment};
use std::collections::HashMap;

/// The shared read-only catalog lane.
#[derive(Debug)]
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

    /// The hidden foreign-key column of `child`'s parent that references
    /// `child`, found through the schema's `foreign_keys`: one 4-byte id
    /// per parent row, the same ids the parent's SKT holds for `child`.
    pub fn fk_column(&self, child: TableId) -> Result<&'a HiddenColumn> {
        let name = &self.schema.def(child).name;
        let (Some(parent), Some((def, fk))) =
            (self.schema.parent(child), self.schema.fk_into(child))
        else {
            return Err(ExecError::Query(format!(
                "no foreign key references {name}"
            )));
        };
        let column = self.hidden[parent].column(&fk.column).map_err(|_| {
            ExecError::Query(format!(
                "foreign key {}.{} is not loaded",
                def.name, fk.column
            ))
        })?;
        if column.table().layout != RowLayout::ids(1) {
            return Err(ExecError::Query(format!(
                "foreign key {}.{} is not a 4-byte id column",
                def.name, fk.column
            )));
        }
        Ok(column)
    }
}

/// The device lane: flash handle + RAM arena + allocator + temp registry,
/// with a lane-local mirror of the flash counters.
///
/// The mirror is built on the handle-local `snapshot`/`stats_since` of the
/// token's flash handle. It exists apart from the device's own counters
/// because a cross-query prefetch hit bills a banked delta into it
/// ([`Self::charge`]) that this query never issued on the device.
#[derive(Debug)]
pub struct DeviceLane<'a> {
    flash: &'a mut FlashDevice,
    ram: RamArena,
    alloc: &'a mut SegmentAllocator,
    temps: Vec<Segment>,
    /// Flash I/O issued by (or charged to) this lane.
    io: FlashStats,
    timing: FlashTiming,
    page_size: usize,
}

impl<'a> DeviceLane<'a> {
    /// Build a lane over its resources. `flash` is the lane's exclusive
    /// handle.
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
    /// causes into the lane-local [`FlashStats`].
    pub fn with_flash<T>(&mut self, f: impl FnOnce(&mut FlashDevice) -> T) -> T {
        self.with_flash_delta(f).0
    }

    /// [`Self::with_flash`], also returning the counter delta `f` caused —
    /// the hot-path variant per-operation attribution is built on (one
    /// snapshot, no re-derivation from the monotone lane counter).
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

    /// The lane's segment allocator.
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

/// How one query runs: the execution knobs its context carries.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RunKnobs<'a> {
    /// Pad every `Vis` shipment to a power-of-two row bucket (the volume
    /// side-channel countermeasure; see `SECURITY.md`).
    pub(crate) padded: bool,
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
            padded: opts.padded,
            prefetch,
        }
    }
}

/// Execution state threaded through every operator: the two lanes, the
/// report they feed and the query's channel to the PC.
pub struct ExecCtx<'a> {
    /// The shared read-only catalog lane.
    pub cat: CatalogCtx<'a>,
    /// The query's device lane.
    pub lane: DeviceLane<'a>,
    /// Per-operator attribution so far (channel and lane observations are
    /// filled in by [`Self::finish_report`]).
    pub cost: ExecReport,
    /// The query's execution knobs.
    pub(crate) knobs: RunKnobs<'a>,
    channel: &'a mut Channel,
}

impl<'a> ExecCtx<'a> {
    /// Build a context over a database (the token's own resources) with
    /// default knobs.
    pub fn new(db: &'a mut Database) -> Self {
        Self::with_knobs(db, RunKnobs::default())
    }

    /// Build a context over a database (the token's own resources).
    pub(crate) fn with_knobs(db: &'a mut Database, knobs: RunKnobs<'a>) -> Self {
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
            cost: ExecReport::new(),
            knobs,
            channel: &mut token.channel,
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

    /// The query's channel to the untrusted PC.
    pub fn channel(&mut self) -> &mut Channel {
        &mut *self.channel
    }

    /// `Vis(Q, T, π)`: ship the sorted visible ids (+ `projection` values)
    /// of `t` under `preds`, padded to a power-of-two row bucket when the
    /// context runs in padded mode.
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
        let channel = self.channel();
        Ok(untrusted.vis_with(channel, t, &name, preds, projection, pad)?)
    }

    /// Run `f` attributing all flash time **this lane** causes to `op`.
    /// The delta comes from the lane-local counter mirror, never from the
    /// (possibly shared) device counters.
    pub fn track<T>(&mut self, op: OpKind, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        let before = self.lane.io();
        let out = f(self);
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
        let out = f(self);
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

    /// Finalise the report: the per-operator buckets, then channel and
    /// lane observations. `io` is the lane's mirror (its own I/O plus any
    /// charged prefetch deltas), NOT the device counters.
    pub fn finish_report(&self) -> ExecReport {
        let mut report = self.cost.clone();
        report.comm = self.channel.elapsed();
        report.bytes_to_secure = self.channel.bytes_to_secure();
        report.io = self.lane.io();
        report.peak_ram_buffers = self.lane.ram().peak();
        report
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
}

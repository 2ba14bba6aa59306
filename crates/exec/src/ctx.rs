//! The execution context: catalog and device lanes, plus the report.
//!
//! The execution state threaded through every operator is split into two
//! lanes and the report they feed:
//!
//! * [`CatalogCtx`] — the shared **read-only** lane: schema, cardinalities,
//!   hidden images, SKTs, climbing indexes and the untrusted PC.
//! * [`DeviceLane`] — the **device** lane: the token's flash handle, its
//!   RAM arena, the segment allocator and a temp registry. The lane holds
//!   the only `&mut FlashDevice` while a query runs, so the query's I/O is
//!   the device's counters since the snapshot the lane took when it was
//!   built ([`DeviceLane::io`]).
//! * [`ExecReport`] — per-operator attribution: every `track` scope adds
//!   the simulated time its flash I/O implies to its `OpKind` bucket, and
//!   [`ExecCtx::finish_report`] fills in the channel and lane observations.
//!
//! [`ExecCtx`] recomposes the two lanes, the report, the query's channel
//! and its padding mode over the token's own resources. In the paper one
//! secure chip runs each query sequentially, and so does every context
//! here: operators run one after another on the one lane.

use crate::database::Database;
use crate::error::ExecError;
use crate::report::{split_rw, ExecReport, OpKind};
use crate::Result;
use ghostdb_flash::{
    FlashDevice, FlashSnapshot, FlashStats, FlashTiming, Segment, SegmentAllocator, SimDuration,
};
use ghostdb_index::{ClimbingIndex, PkIndex, SubtreeKeyTable};
#[cfg(doc)]
use ghostdb_storage::row::id_width;
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
    /// Climbing indexes on hidden attributes.
    pub cis: &'a HashMap<(TableId, String), ClimbingIndex>,
    /// Primary-key climbing indexes per table.
    pub pks: &'a [Option<PkIndex>],
    /// The untrusted PC.
    pub untrusted: &'a UntrustedHost,
}

impl<'a> CatalogCtx<'a> {
    /// The primary-key climbing index of a table.
    pub fn pk_index(&self, t: TableId) -> Result<&'a PkIndex> {
        (self.pks.get(t).and_then(Option::as_ref)).ok_or_else(|| ExecError::MissingIndex {
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
    /// `child`, found through the schema's `foreign_keys`: one
    /// [`id_width`]`(|child|)`-byte id per parent row, the same ids, at the
    /// same width, that the parent's SKT holds for `child`.
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
        if column.table().layout != RowLayout::id_cells(&[self.rows[child]]) {
            return Err(ExecError::Query(format!(
                "foreign key {}.{} is not an id column of {name}'s width",
                def.name, fk.column
            )));
        }
        Ok(column)
    }
}

/// The device lane: flash handle + RAM arena + allocator + temp registry.
#[derive(Debug)]
pub struct DeviceLane<'a> {
    flash: &'a mut FlashDevice,
    ram: RamArena,
    alloc: &'a mut SegmentAllocator,
    temps: Vec<Segment>,
    /// The device counters when the lane was built.
    start: FlashSnapshot,
    timing: FlashTiming,
    page_size: usize,
}

impl<'a> DeviceLane<'a> {
    /// Build a lane over its resources. `flash` is the lane's exclusive
    /// handle.
    pub fn new(flash: &'a mut FlashDevice, ram: RamArena, alloc: &'a mut SegmentAllocator) -> Self {
        let (timing, page_size) = (*flash.timing(), flash.page_size());
        let start = flash.snapshot();
        DeviceLane {
            flash,
            ram,
            alloc,
            temps: Vec::new(),
            start,
            timing,
            page_size,
        }
    }

    /// Run `f` against the flash device.
    pub fn with_flash<T>(&mut self, f: impl FnOnce(&mut FlashDevice) -> T) -> T {
        f(self.flash)
    }

    /// [`Self::with_flash`], also returning the counter delta `f` caused —
    /// the hot-path variant per-operation attribution is built on.
    pub fn with_flash_delta<T>(
        &mut self,
        f: impl FnOnce(&mut FlashDevice) -> T,
    ) -> (T, FlashStats) {
        let start = self.flash.snapshot();
        let out = f(self.flash);
        (out, self.flash.stats_since(&start))
    }

    /// Run `f` with both the device and this lane's allocator (bulk loads
    /// that allocate and write in one step).
    pub fn with_flash_alloc<T>(
        &mut self,
        f: impl FnOnce(&mut FlashDevice, &mut SegmentAllocator) -> T,
    ) -> T {
        f(self.flash, self.alloc)
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

    /// Flash I/O issued by this lane so far (monotone): the device's
    /// counters since the lane was built.
    pub fn io(&self) -> FlashStats {
        self.flash.stats_since(&self.start)
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

impl Drop for DeviceLane<'_> {
    /// The drop guard of the temp registry: a query that unwinds past
    /// [`ExecCtx::free_temps`] (a panic) still returns its temp segments to
    /// the allocator here. On every other exit the executor has freed them,
    /// with its errors reported, and nothing is left.
    fn drop(&mut self) {
        for seg in std::mem::take(&mut self.temps) {
            // Nothing can report a failure from a drop: a segment that does
            // not free stays allocated, as it would without the guard.
            let _ = self.alloc.free(seg, self.flash);
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
    /// Pad every `Vis` shipment to a power-of-two row bucket (the volume
    /// side-channel countermeasure; see `SECURITY.md`).
    pub(crate) padded: bool,
    channel: &'a mut Channel,
}

impl<'a> ExecCtx<'a> {
    /// Build an unpadded context over a database (the token's own
    /// resources).
    pub fn new(db: &'a mut Database) -> Self {
        let token = &mut db.token;
        ExecCtx {
            cat: CatalogCtx {
                schema: &db.schema,
                rows: &db.rows,
                hidden: &db.hidden,
                skts: &db.skts,
                cis: &db.cis,
                pks: &db.pks,
                untrusted: &db.untrusted,
            },
            lane: DeviceLane::new(&mut token.flash, token.ram.clone(), &mut db.alloc),
            cost: ExecReport::new(),
            padded: false,
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
    pub fn pk_index(&self, t: TableId) -> Result<&'a PkIndex> {
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
        let pad = if self.padded {
            PadMode::PowerOfTwo
        } else {
            PadMode::Exact
        };
        let channel = self.channel();
        Ok(untrusted.vis_with(channel, t, &name, preds, projection, pad)?)
    }

    /// Run `f` attributing all flash time **this lane** causes to `op`.
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

    /// Free all temps (called by the executor on every exit of the query).
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
    /// lane observations. `io` is the device's I/O since the context was
    /// built.
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
                    1,
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

//! The logical flash device used by the storage engine: a forkable handle
//! over a shared [`ChipArray`], with exact handle-local I/O accounting.
//!
//! `FlashDevice` is no longer the array itself but a *handle*: the chips
//! live in an `Arc<ChipArray>` and every handle keeps its own local
//! [`FlashStats`] mirror, fed the exact per-operation delta computed
//! inside the chip lock. [`FlashDevice::fork`] hands a worker lane its
//! own handle onto the same chips: lanes on disjoint chips proceed
//! without contention, lanes sharing a chip serialise per page operation
//! (not per operator scope), and each lane's `snapshot`/`stats_since`
//! attribution stays exact because it diffs the lane's own counter, never
//! a device-wide one another lane is concurrently bumping.
//!
//! Device-wide ground truth ([`FlashDevice::stats`], `elapsed`) sums over
//! chips; the handle-local view
//! ([`FlashDevice::snapshot`], `stats_since`, `elapsed_since`) is what
//! per-operator cost attribution reads. With a single handle on a single
//! chip the two views coincide, which is exactly the pre-multi-chip
//! behaviour.

use crate::chip::{ChipArray, PageReq, PageWrite};
use crate::geometry::FlashGeometry;
use crate::stats::{FlashSnapshot, FlashStats, SimDuration};
use crate::timing::FlashTiming;
use crate::{Lpn, Result};
use std::sync::Arc;

/// A handle on a simulated flash device: logical page reads/writes with
/// exact I/O accounting and a simulated clock derived from the Table 1
/// cost model.
#[derive(Debug)]
pub struct FlashDevice {
    array: Arc<ChipArray>,
    /// Counters charged through *this handle* (exact: accumulated from
    /// per-op deltas computed inside the chip lock).
    local: FlashStats,
    /// This handle's channel-overlapped clock: single operations add
    /// their full issue time, vectored batches add only the batch
    /// makespan (busiest chip). Side-band wall-model information — the
    /// counters above never see it, so attribution stays batch-invariant.
    overlap: SimDuration,
}

impl FlashDevice {
    /// New single-chip device over an erased module.
    pub fn new(geometry: FlashGeometry, timing: FlashTiming) -> Self {
        FlashDevice::with_chips(geometry, timing, 1)
    }

    /// New device with `chips` identical chips, each over `geometry` and
    /// owning a contiguous slice of the logical address space.
    pub fn with_chips(geometry: FlashGeometry, timing: FlashTiming, chips: usize) -> Self {
        FlashDevice {
            array: Arc::new(ChipArray::new(geometry, timing, chips)),
            local: FlashStats::default(),
            overlap: SimDuration::ZERO,
        }
    }

    /// Device with default geometry (256 MB) and paper timing.
    pub fn default_key() -> Self {
        FlashDevice::new(FlashGeometry::default(), FlashTiming::default())
    }

    /// A new handle onto the same chips with a zeroed local counter: what
    /// a worker lane gets. The fork sees (and contends on) the same
    /// array, but its `snapshot`/`stats_since` attribution is private.
    pub fn fork(&self) -> FlashDevice {
        FlashDevice {
            array: Arc::clone(&self.array),
            local: FlashStats::default(),
            overlap: SimDuration::ZERO,
        }
    }

    /// Per-chip geometry of the module (all chips are identical).
    pub fn geometry(&self) -> &FlashGeometry {
        self.array.geometry()
    }

    /// Page size in bytes (the I/O unit).
    pub fn page_size(&self) -> usize {
        self.geometry().page_size
    }

    /// Number of logical pages addressable by the storage engine (all
    /// chips together).
    pub fn logical_pages(&self) -> u64 {
        self.array.logical_pages()
    }

    /// Number of physical pages across all chips, spares included.
    pub fn physical_pages(&self) -> u64 {
        self.array.physical_pages()
    }

    /// Number of chips (= independent channels).
    pub fn chip_count(&self) -> usize {
        self.array.chip_count()
    }

    /// Logical pages owned by each chip.
    pub fn chip_pages(&self) -> u64 {
        self.array.chip_pages()
    }

    /// Chip that owns a logical page.
    pub fn chip_of(&self, lpn: Lpn) -> usize {
        self.array.chip_of(lpn)
    }

    /// Timing model in force.
    pub fn timing(&self) -> &FlashTiming {
        self.array.timing()
    }

    /// Mirror a single operation's exact delta into the handle-local
    /// counters; a lone operation occupies its channel for its full issue
    /// time, so the overlap clock advances by the whole delta.
    fn charge_single(&mut self, delta: FlashStats) {
        self.overlap += delta.elapsed(self.array.timing(), self.array.geometry().page_size);
        self.local += delta;
    }

    /// Read bytes from within one logical page.
    pub fn read(&mut self, lpn: Lpn, offset: usize, buf: &mut [u8]) -> Result<()> {
        let delta = self.array.read(lpn, offset, buf)?;
        self.charge_single(delta);
        Ok(())
    }

    /// Vectored scatter read: execute a batch of page reads, each request
    /// filling its own destination buffer. The handle-local counters
    /// receive the exact summed delta — bit-identical to a loop of
    /// [`FlashDevice::read`] calls — while the overlap clock advances by
    /// only the batch **makespan** (requests binned per chip, all channels
    /// streaming concurrently, busiest chip wins). Returns the makespan.
    pub fn read_batch_into(
        &mut self,
        reqs: &[PageReq],
        outs: &mut [&mut [u8]],
    ) -> Result<SimDuration> {
        let (delta, makespan) = self.array.read_batch(reqs, outs)?;
        self.local += delta;
        self.overlap += makespan;
        Ok(makespan)
    }

    /// Vectored gather read: like [`FlashDevice::read_batch_into`], but
    /// request `i` fills `out[sum of len 0..i ..][..len_i]` — one
    /// contiguous destination sliced per request in submission order
    /// (`out` must be exactly the summed request length).
    pub fn read_batch(&mut self, reqs: &[PageReq], out: &mut [u8]) -> Result<SimDuration> {
        let total: usize = reqs.iter().map(|r| r.len).sum();
        assert_eq!(out.len(), total, "gather destination must match the batch");
        let mut outs: Vec<&mut [u8]> = Vec::with_capacity(reqs.len());
        let mut rest = out;
        for req in reqs {
            let (head, tail) = rest.split_at_mut(req.len);
            outs.push(head);
            rest = tail;
        }
        self.read_batch_into(reqs, &mut outs)
    }

    /// Write a full logical page (short images are zero-padded).
    pub fn write(&mut self, lpn: Lpn, image: &[u8]) -> Result<()> {
        let delta = self.array.write(lpn, image)?;
        self.charge_single(delta);
        Ok(())
    }

    /// Vectored write: program a batch of full logical pages, binned per
    /// chip with each involved chip locked exactly once. The handle-local
    /// counters receive the exact summed delta — bit-identical to a loop
    /// of [`FlashDevice::write`] calls in submission order — while the
    /// overlap clock advances by only the batch **makespan** (all
    /// channels programming concurrently, busiest chip wins). Returns the
    /// makespan.
    ///
    /// On a mid-batch failure (`OutOfSpace` under exhausted GC) the work
    /// that did happen — per-chip prefixes of the batch — is still billed
    /// to the handle before the error is returned, so the local mirror
    /// never drifts from device ground truth. Validation failures (bad
    /// address, oversized image) are detected up front and charge
    /// nothing.
    pub fn write_batch(&mut self, reqs: &[PageWrite<'_>]) -> Result<SimDuration> {
        let (delta, makespan, result) = self.array.write_batch(reqs);
        self.local += delta;
        self.overlap += makespan;
        result.map(|()| makespan)
    }

    /// Read-modify-write of a byte range within one logical page.
    pub fn write_at(&mut self, lpn: Lpn, offset: usize, data: &[u8]) -> Result<()> {
        let delta = self.array.write_at(lpn, offset, data)?;
        self.charge_single(delta);
        Ok(())
    }

    /// Release a logical page (metadata only).
    pub fn trim(&mut self, lpn: Lpn) -> Result<()> {
        let delta = self.array.trim(lpn)?;
        self.charge_single(delta);
        Ok(())
    }

    /// Cumulative I/O counters of the whole device since construction —
    /// every handle, every chip. This is the ground truth GC-taint
    /// detection reads.
    pub fn stats(&self) -> FlashStats {
        self.array.stats()
    }

    /// Cumulative counters of one chip (all handles).
    pub fn chip_stats(&self, chip: usize) -> FlashStats {
        self.array.chip_stats(chip)
    }

    /// Snapshot of *this handle's* counters, for per-operator attribution.
    /// Diffing with [`FlashDevice::stats_since`] is exact even while other
    /// handles drive the same chips.
    pub fn snapshot(&self) -> FlashSnapshot {
        self.local
    }

    /// Counters this handle accumulated since `snap`.
    pub fn stats_since(&self, snap: &FlashSnapshot) -> FlashStats {
        self.local - *snap
    }

    /// Simulated time implied by all I/O so far (single-channel sum over
    /// every chip: the serial-issue clock).
    pub fn elapsed(&self) -> SimDuration {
        self.stats().elapsed(self.timing(), self.page_size())
    }

    /// Simulated busy time of one chip's channel.
    pub fn chip_elapsed(&self, chip: usize) -> SimDuration {
        self.array.chip_elapsed(chip)
    }

    /// Simulated completion time with all channels streaming concurrently
    /// (the busiest chip). `elapsed() / channel_makespan()` is the
    /// device-level parallel speedup.
    pub fn channel_makespan(&self) -> SimDuration {
        self.array.channel_makespan()
    }

    /// Simulated time implied by the I/O this handle performed since
    /// `snap`.
    pub fn elapsed_since(&self, snap: &FlashSnapshot) -> SimDuration {
        self.stats_since(snap)
            .elapsed(self.timing(), self.page_size())
    }

    /// This handle's channel-overlapped clock: the simulated time its
    /// I/O took with vectored batches overlapping across chips. Single
    /// operations advance it by their full issue time; a batch advances
    /// it by its makespan only. Always ≤ the issue-sum clock implied by
    /// [`FlashDevice::snapshot`]; the ratio of the two is the vectoring
    /// win. Forks start at zero, like the counter mirror.
    pub fn overlap_elapsed(&self) -> SimDuration {
        self.overlap
    }

    /// Largest per-chip wear spread (diagnostics).
    pub fn wear_spread(&self) -> u64 {
        self.array.wear_spread()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_tracks_cost_model() {
        let mut dev = FlashDevice::new(
            FlashGeometry {
                page_size: 2048,
                pages_per_block: 16,
                block_count: 8,
                spare_blocks: 2,
            },
            FlashTiming::default(),
        );
        dev.write(0, &[7u8; 2048]).unwrap();
        let mut buf = [0u8; 4];
        dev.read(0, 0, &mut buf).unwrap();
        let expect = dev.timing().write_cost_ns(2048) + dev.timing().read_cost_ns(4);
        assert_eq!(dev.elapsed().as_ns(), expect);
    }

    #[test]
    fn snapshot_attribution() {
        let mut dev = FlashDevice::new(
            FlashGeometry {
                page_size: 512,
                pages_per_block: 16,
                block_count: 8,
                spare_blocks: 2,
            },
            FlashTiming::default(),
        );
        dev.write(1, &[1u8; 512]).unwrap();
        let snap = dev.snapshot();
        let mut buf = [0u8; 16];
        dev.read(1, 0, &mut buf).unwrap();
        let d = dev.stats_since(&snap);
        assert_eq!(d.pages_written, 0);
        assert_eq!(d.pages_read, 1);
        assert_eq!(d.bytes_to_ram, 16);
        assert_eq!(
            dev.elapsed_since(&snap).as_ns(),
            dev.timing().read_cost_ns(16)
        );
    }

    fn multichip(chips: usize) -> FlashDevice {
        FlashDevice::with_chips(
            FlashGeometry {
                page_size: 256,
                pages_per_block: 4,
                block_count: 8,
                spare_blocks: 2,
            },
            FlashTiming::default(),
            chips,
        )
    }

    #[test]
    fn multichip_roundtrip_spans_chip_boundaries() {
        let mut dev = multichip(4);
        assert_eq!(dev.chip_count(), 4);
        assert_eq!(dev.logical_pages(), 4 * dev.chip_pages());
        for lpn in 0..dev.logical_pages() {
            dev.write(lpn, &(lpn as u32).to_le_bytes()).unwrap();
        }
        for lpn in 0..dev.logical_pages() {
            let mut buf = [0u8; 4];
            dev.read(lpn, 0, &mut buf).unwrap();
            assert_eq!(u32::from_le_bytes(buf), lpn as u32, "lpn {lpn}");
        }
    }

    #[test]
    fn fork_attribution_is_handle_local_and_sums_device_wide() {
        let mut dev = multichip(2);
        let mut lane = dev.fork();
        dev.write(0, &[1; 64]).unwrap();
        let lane_snap = lane.snapshot();
        lane.write(dev.chip_pages(), &[2; 64]).unwrap();
        lane.write(dev.chip_pages() + 1, &[2; 64]).unwrap();
        // Each handle only sees its own traffic...
        assert_eq!(dev.snapshot().pages_written, 1);
        assert_eq!(lane.stats_since(&lane_snap).pages_written, 2);
        // ...while the device-wide view sees everything from any handle.
        assert_eq!(dev.stats().pages_written, 3);
        assert_eq!(lane.stats(), dev.stats());
    }

    #[test]
    fn read_batch_bills_like_singles_but_clocks_the_makespan() {
        let mut dev = multichip(4);
        let span = dev.chip_pages();
        // One written page per chip, then a 4-request batch across chips.
        for chip in 0..4u64 {
            dev.write(chip * span, &[chip as u8; 256]).unwrap();
        }
        let mut serial = dev.fork();
        let mut batched = dev.fork();
        let reqs: Vec<PageReq> = (0..4u64)
            .map(|c| PageReq::full_page(c * span, 256))
            .collect();
        let mut serial_out = vec![0u8; 4 * 256];
        for (i, r) in reqs.iter().enumerate() {
            serial
                .read(r.lpn, r.offset, &mut serial_out[i * 256..(i + 1) * 256])
                .unwrap();
        }
        let mut batch_out = vec![0u8; 4 * 256];
        let makespan = batched.read_batch(&reqs, &mut batch_out).unwrap();
        // Same bytes, same counters — the batch is invisible to attribution.
        assert_eq!(batch_out, serial_out);
        assert_eq!(batched.snapshot(), serial.snapshot());
        // One request per chip: the batch completes in 1/4 the issue sum.
        let issue = serial.elapsed_since(&FlashStats::default());
        assert_eq!(4 * makespan.as_ns(), issue.as_ns());
        assert_eq!(batched.overlap_elapsed(), makespan);
        assert_eq!(serial.overlap_elapsed(), issue);
    }

    #[test]
    fn read_batch_handles_duplicates_and_partial_ranges() {
        let mut dev = multichip(2);
        dev.write(3, &[9u8; 256]).unwrap();
        let reqs = [
            PageReq {
                lpn: 3,
                offset: 8,
                len: 16,
            },
            PageReq {
                lpn: 3,
                offset: 8,
                len: 16,
            },
            PageReq {
                lpn: 3 + dev.chip_pages(),
                offset: 0,
                len: 4,
            }, // unmapped: zero-fill, zero cost
        ];
        let mut out = vec![1u8; 36];
        dev.read_batch(&reqs, &mut out).unwrap();
        assert_eq!(&out[..16], &[9u8; 16]);
        assert_eq!(&out[16..32], &[9u8; 16]);
        assert_eq!(&out[32..], &[0u8; 4]);
        // Duplicates each charge a full page load, like repeated singles.
        assert_eq!(dev.snapshot().pages_read, 2);
        assert_eq!(dev.snapshot().bytes_to_ram, 32);
    }

    #[test]
    fn failed_batch_charges_nothing() {
        let mut dev = multichip(2);
        let bad = [PageReq::full_page(dev.logical_pages(), 256)];
        let mut out = vec![0u8; 256];
        assert!(dev.read_batch(&bad, &mut out).is_err());
        let oversize = [PageReq {
            lpn: 0,
            offset: 128,
            len: 256,
        }];
        let mut out = vec![0u8; 256];
        assert!(dev.read_batch(&oversize, &mut out).is_err());
        assert_eq!(dev.snapshot(), FlashStats::default());
        assert_eq!(dev.overlap_elapsed(), SimDuration::ZERO);
    }

    #[test]
    fn write_batch_bills_like_singles_but_clocks_the_makespan() {
        let serial_dev = multichip(4);
        let batched_dev = multichip(4);
        let span = serial_dev.chip_pages();
        let images: Vec<Vec<u8>> = (0..4u8).map(|c| vec![c; 256]).collect();
        let mut serial = serial_dev.fork();
        for (c, image) in images.iter().enumerate() {
            serial.write(c as u64 * span, image).unwrap();
        }
        let mut batched = batched_dev.fork();
        let reqs: Vec<PageWrite> = images
            .iter()
            .enumerate()
            .map(|(c, image)| PageWrite {
                lpn: c as u64 * span,
                image,
            })
            .collect();
        let makespan = batched.write_batch(&reqs).unwrap();
        // Same counters and same device state as the loop of singles.
        assert_eq!(batched.snapshot(), serial.snapshot());
        for (c, image) in images.iter().enumerate() {
            let mut buf = vec![0u8; 256];
            batched.read(c as u64 * span, 0, &mut buf).unwrap();
            assert_eq!(&buf, image);
        }
        // One program per chip: the batch completes in 1/4 the issue sum.
        let issue = serial.overlap_elapsed();
        assert_eq!(4 * makespan.as_ns(), issue.as_ns());
        assert_eq!(
            batched.overlap_elapsed().as_ns(),
            makespan.as_ns() + {
                // the verification reads above also advanced the clock
                4 * batched.timing().read_cost_ns(256)
            }
        );
    }

    #[test]
    fn failed_write_batch_validation_charges_nothing() {
        let mut dev = multichip(2);
        let bad = [PageWrite {
            lpn: dev.logical_pages(),
            image: &[0u8; 8],
        }];
        assert!(dev.write_batch(&bad).is_err());
        let oversize_image = vec![0u8; 257];
        let oversize = [PageWrite {
            lpn: 0,
            image: &oversize_image,
        }];
        assert!(dev.write_batch(&oversize).is_err());
        assert_eq!(dev.snapshot(), FlashStats::default());
        assert_eq!(dev.overlap_elapsed(), SimDuration::ZERO);
    }

    #[test]
    fn failed_write_batch_keeps_mirror_and_ground_truth_in_sync() {
        let mut dev = FlashDevice::new(
            FlashGeometry {
                page_size: 128,
                pages_per_block: 4,
                block_count: 6,
                spare_blocks: 2,
            },
            FlashTiming::default(),
        );
        for lpn in 0..dev.logical_pages() {
            dev.write(lpn, &[1; 8]).unwrap();
        }
        let before = dev.snapshot();
        // A bad address anywhere in the batch fails validation up front:
        // no request is applied, even ones listed before the bad one.
        let img = [2u8; 8];
        let reqs = [
            PageWrite {
                lpn: 0,
                image: &img,
            },
            PageWrite {
                lpn: dev.logical_pages(),
                image: &img,
            },
        ];
        assert!(dev.write_batch(&reqs).is_err());
        assert_eq!(dev.stats_since(&before), FlashStats::default());
        let mut buf = [0u8; 8];
        dev.read(0, 0, &mut buf).unwrap();
        assert_eq!(buf, [1; 8], "no prefix of the failed batch applied");
        // The invariant write_batch maintains on every outcome: the sole
        // handle's mirror equals device-wide ground truth.
        assert_eq!(dev.snapshot(), dev.stats());
    }

    #[test]
    fn makespan_reflects_channel_concurrency() {
        let mut dev = multichip(2);
        // Balanced load: both chips equally busy.
        dev.write(0, &[1; 256]).unwrap();
        dev.write(dev.chip_pages(), &[1; 256]).unwrap();
        assert_eq!(dev.elapsed().as_ns(), 2 * dev.channel_makespan().as_ns());
        assert_eq!(dev.chip_elapsed(0), dev.chip_elapsed(1));
    }
}

//! Multi-chip NAND array: independent chips behind per-chip locks.
//!
//! The paper's token (§2.2/§6.1) models a single flash module; modern
//! NAND packages expose several chips on independent channels, each with
//! its own data register, program/erase state machine and — in this
//! simulator — its own FTL and GC state. `ChipArray` shards a flat
//! logical address space across chips in contiguous per-chip ranges
//! (`chip = lpn / chip_pages`) and serialises access **per chip**, not
//! per device: two workers touching disjoint chips never contend, and a
//! worker touching a busy chip blocks only for the duration of one page
//! operation, not a whole operator scope.
//!
//! Every operation returns the exact [`FlashStats`] delta it charged,
//! computed inside the chip lock, so callers can keep handle-local
//! counters that stay exact under concurrency. All per-operation costs
//! (Table 1) are placement-independent — a page read costs the same on
//! any chip — which is what keeps multi-chip execution bit-identical to
//! single-chip execution as long as GC (the one placement-dependent
//! cost) does not run inside the compared window.

use crate::error::FlashError;
use crate::ftl::{check_in_page, Ftl};
use crate::geometry::FlashGeometry;
use crate::stats::{FlashStats, SimDuration};
use crate::timing::FlashTiming;
use crate::{Lpn, Result};
use std::sync::Mutex;

/// One page-read request of a vectored batch: read `len` bytes starting
/// at `offset` within logical page `lpn` — exactly the contract of
/// [`ChipArray::read`], just batched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageReq {
    /// Logical page to read.
    pub lpn: Lpn,
    /// Byte offset within the page.
    pub offset: usize,
    /// Bytes to transfer into the destination buffer.
    pub len: usize,
}

impl PageReq {
    /// A whole-page read request (offset 0, `len` = the page size).
    pub fn full_page(lpn: Lpn, page_size: usize) -> Self {
        PageReq {
            lpn,
            offset: 0,
            len: page_size,
        }
    }
}

/// One page-program request of a vectored batch: replace the content of
/// logical page `lpn` with `image` — exactly the contract of
/// [`ChipArray::write`], just batched. Images shorter than a page are
/// zero-padded by the FTL.
#[derive(Debug, Clone, Copy)]
pub struct PageWrite<'a> {
    /// Logical page to program.
    pub lpn: Lpn,
    /// New page content (at most one page).
    pub image: &'a [u8],
}

/// A bank of independent NAND chips sharing one flat logical address
/// space. Chip `c` owns logical pages `[c·chip_pages, (c+1)·chip_pages)`.
#[derive(Debug)]
pub struct ChipArray {
    chips: Vec<Mutex<Ftl>>,
    /// Per-chip geometry (every chip is identical).
    geometry: FlashGeometry,
    timing: FlashTiming,
    chip_pages: u64,
}

impl ChipArray {
    /// `chips` identical chips, each with `geometry` and its own FTL.
    pub fn new(geometry: FlashGeometry, timing: FlashTiming, chips: usize) -> Self {
        assert!(chips >= 1, "need at least one chip");
        ChipArray {
            chips: (0..chips).map(|_| Mutex::new(Ftl::new(geometry))).collect(),
            geometry,
            timing,
            chip_pages: geometry.logical_pages(),
        }
    }

    /// Number of chips (= independent channels).
    pub fn chip_count(&self) -> usize {
        self.chips.len()
    }

    /// Per-chip geometry.
    pub fn geometry(&self) -> &FlashGeometry {
        &self.geometry
    }

    /// Timing model in force (shared by every channel).
    pub fn timing(&self) -> &FlashTiming {
        &self.timing
    }

    /// Logical pages owned by each chip.
    pub fn chip_pages(&self) -> u64 {
        self.chip_pages
    }

    /// Logical pages of the whole array.
    pub fn logical_pages(&self) -> u64 {
        self.chip_pages * self.chips.len() as u64
    }

    /// Physical pages of the whole array (all chips, spares included).
    pub fn physical_pages(&self) -> u64 {
        self.geometry.physical_pages() * self.chips.len() as u64
    }

    /// Chip that owns a logical page.
    pub fn chip_of(&self, lpn: Lpn) -> usize {
        (lpn / self.chip_pages) as usize
    }

    /// Split a global logical page into (chip, chip-local page).
    fn route(&self, lpn: Lpn) -> Result<(usize, Lpn)> {
        if lpn >= self.logical_pages() {
            return Err(FlashError::BadAddress(lpn));
        }
        Ok(((lpn / self.chip_pages) as usize, lpn % self.chip_pages))
    }

    /// Read within one logical page; returns the counters this op charged.
    pub fn read(&self, lpn: Lpn, offset: usize, buf: &mut [u8]) -> Result<FlashStats> {
        let (chip, local) = self.route(lpn)?;
        let mut ftl = self.chips[chip].lock().unwrap();
        let before = *ftl.stats();
        ftl.read(local, offset, buf)?;
        Ok(*ftl.stats() - before)
    }

    /// Program a full logical page; returns the counters this op charged.
    pub fn write(&self, lpn: Lpn, image: &[u8]) -> Result<FlashStats> {
        let (chip, local) = self.route(lpn)?;
        let mut ftl = self.chips[chip].lock().unwrap();
        let before = *ftl.stats();
        ftl.write(local, image)?;
        Ok(*ftl.stats() - before)
    }

    /// Read-modify-write within one logical page; returns the delta.
    pub fn write_at(&self, lpn: Lpn, offset: usize, data: &[u8]) -> Result<FlashStats> {
        let (chip, local) = self.route(lpn)?;
        let mut ftl = self.chips[chip].lock().unwrap();
        let before = *ftl.stats();
        ftl.write_at(local, offset, data)?;
        Ok(*ftl.stats() - before)
    }

    /// Release a logical page (metadata only, zero cost).
    pub fn trim(&self, lpn: Lpn) -> Result<FlashStats> {
        let (chip, local) = self.route(lpn)?;
        let mut ftl = self.chips[chip].lock().unwrap();
        let before = *ftl.stats();
        ftl.trim(local)?;
        Ok(*ftl.stats() - before)
    }

    /// Vectored read: execute a batch of page reads, binning requests per
    /// chip and locking each involved chip exactly once. Request `i`
    /// fills `outs[i]` (which must be `reqs[i].len` bytes).
    ///
    /// Billing is the heart of the contract. The returned `FlashStats`
    /// delta is the *sum* of every per-request delta — bit-identical to a
    /// loop of [`ChipArray::read`] calls, so handle-local counter mirrors
    /// stay exact. The returned `SimDuration` is the batch **makespan**:
    /// the busiest chip's in-batch issue time with all channels streaming
    /// concurrently. The makespan is side-band wall-model information only
    /// — it never enters the counters.
    ///
    /// Every request is validated (address range, intra-page bounds,
    /// destination length) before any I/O is issued, so a failed batch
    /// charges nothing; per `Ftl::read`, a pre-validated read cannot fail.
    pub fn read_batch(
        &self,
        reqs: &[PageReq],
        outs: &mut [&mut [u8]],
    ) -> Result<(FlashStats, SimDuration)> {
        assert_eq!(reqs.len(), outs.len(), "one destination per request");
        let page_size = self.geometry.page_size;
        let mut routed = Vec::with_capacity(reqs.len());
        for (req, out) in reqs.iter().zip(outs.iter()) {
            let (chip, local) = self.route(req.lpn)?;
            check_in_page(req.offset, req.len, page_size)?;
            assert_eq!(
                out.len(),
                req.len,
                "destination length must match the request"
            );
            routed.push((chip, local));
        }
        // Bin request indices per chip; within a chip, submission order is
        // preserved (reads are side-effect-free on the FTL map, so order
        // only matters for determinism of the counters, which are sums).
        let mut bins: Vec<Vec<usize>> = vec![Vec::new(); self.chips.len()];
        for (i, (chip, _)) in routed.iter().enumerate() {
            bins[*chip].push(i);
        }
        let mut total = FlashStats::default();
        let mut makespan = SimDuration::ZERO;
        for (chip, bin) in bins.iter().enumerate() {
            if bin.is_empty() {
                continue;
            }
            let mut ftl = self.chips[chip].lock().unwrap();
            let before = *ftl.stats();
            for &i in bin {
                let (_, local) = routed[i];
                ftl.read(local, reqs[i].offset, outs[i])
                    .expect("pre-validated batch read cannot fail");
            }
            let delta = *ftl.stats() - before;
            makespan = makespan.max(delta.elapsed(&self.timing, page_size));
            total += delta;
        }
        Ok((total, makespan))
    }

    /// Vectored write: execute a batch of page programs, binning requests
    /// per chip and locking each involved chip exactly once. Within a
    /// chip, submission order is preserved; chips are independent, so the
    /// resulting device state is identical to a loop of
    /// [`ChipArray::write`] calls in submission order.
    ///
    /// Billing mirrors [`ChipArray::read_batch`]: the `FlashStats` delta
    /// is the *sum* of every per-request delta (GC charges included),
    /// bit-identical to the loop of singles, and the `SimDuration` is the
    /// batch **makespan** — the busiest chip's in-batch issue time with
    /// all channels programming concurrently.
    ///
    /// Unlike reads, a pre-validated write can still fail mid-batch
    /// (`OutOfSpace` when GC cannot reclaim enough room), leaving the
    /// per-chip prefixes of the batch applied. The charged delta and
    /// makespan of the work that *did* happen are therefore returned even
    /// on failure, so handle-local counter mirrors stay exact. Validation
    /// failures (bad address, oversized image) are detected before any
    /// I/O and charge nothing.
    pub fn write_batch(&self, reqs: &[PageWrite<'_>]) -> (FlashStats, SimDuration, Result<()>) {
        let page_size = self.geometry.page_size;
        let mut routed = Vec::with_capacity(reqs.len());
        for req in reqs {
            let (chip, local) = match self.route(req.lpn) {
                Ok(r) => r,
                Err(e) => return (FlashStats::default(), SimDuration::ZERO, Err(e)),
            };
            if req.image.len() > page_size {
                let err = FlashError::OutOfPage {
                    offset: 0,
                    len: req.image.len(),
                    page_size,
                };
                return (FlashStats::default(), SimDuration::ZERO, Err(err));
            }
            routed.push((chip, local));
        }
        let mut bins: Vec<Vec<usize>> = vec![Vec::new(); self.chips.len()];
        for (i, (chip, _)) in routed.iter().enumerate() {
            bins[*chip].push(i);
        }
        let mut total = FlashStats::default();
        let mut makespan = SimDuration::ZERO;
        for (chip, bin) in bins.iter().enumerate() {
            if bin.is_empty() {
                continue;
            }
            let mut ftl = self.chips[chip].lock().unwrap();
            let before = *ftl.stats();
            let mut failed = None;
            for &i in bin {
                let (_, local) = routed[i];
                if let Err(e) = ftl.write(local, reqs[i].image) {
                    failed = Some(e);
                    break;
                }
            }
            let delta = *ftl.stats() - before;
            makespan = makespan.max(delta.elapsed(&self.timing, page_size));
            total += delta;
            if let Some(e) = failed {
                return (total, makespan, Err(e));
            }
        }
        (total, makespan, Ok(()))
    }

    /// Cumulative counters of one chip.
    pub fn chip_stats(&self, chip: usize) -> FlashStats {
        *self.chips[chip].lock().unwrap().stats()
    }

    /// Cumulative counters of the whole array (sum over chips).
    pub fn stats(&self) -> FlashStats {
        (0..self.chips.len())
            .map(|c| self.chip_stats(c))
            .fold(FlashStats::default(), |a, b| a + b)
    }

    /// Simulated busy time of one chip's channel.
    pub fn chip_elapsed(&self, chip: usize) -> SimDuration {
        self.chip_stats(chip)
            .elapsed(&self.timing, self.geometry.page_size)
    }

    /// Simulated completion time with all channels streaming concurrently:
    /// the busiest chip's elapsed time. Against [`ChipArray::stats`]'s
    /// single-channel sum, the ratio is the device-level parallel speedup.
    pub fn channel_makespan(&self) -> SimDuration {
        (0..self.chips.len())
            .map(|c| self.chip_elapsed(c))
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Largest per-chip wear spread (diagnostics).
    pub fn wear_spread(&self) -> u64 {
        (0..self.chips.len())
            .map(|c| self.chips[c].lock().unwrap().nand().wear_spread())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_array(chips: usize) -> ChipArray {
        ChipArray::new(
            FlashGeometry {
                page_size: 128,
                pages_per_block: 4,
                block_count: 6,
                spare_blocks: 2,
            },
            FlashTiming::default(),
            chips,
        )
    }

    #[test]
    fn routes_to_contiguous_chip_ranges() {
        let arr = tiny_array(4);
        assert_eq!(arr.chip_pages(), 16);
        assert_eq!(arr.logical_pages(), 64);
        assert_eq!(arr.chip_of(0), 0);
        assert_eq!(arr.chip_of(15), 0);
        assert_eq!(arr.chip_of(16), 1);
        assert_eq!(arr.chip_of(63), 3);
    }

    #[test]
    fn per_chip_stats_sum_to_array_stats() {
        let arr = tiny_array(2);
        arr.write(0, b"chip0").unwrap();
        arr.write(arr.chip_pages(), b"chip1").unwrap();
        arr.write(arr.chip_pages() + 1, b"chip1 again").unwrap();
        assert_eq!(arr.chip_stats(0).pages_written, 1);
        assert_eq!(arr.chip_stats(1).pages_written, 2);
        assert_eq!(arr.stats().pages_written, 3);
    }

    #[test]
    fn op_deltas_are_exact_and_placement_independent() {
        let arr = tiny_array(2);
        let d0 = arr.write(3, &[7u8; 64]).unwrap();
        let d1 = arr.write(arr.chip_pages() + 3, &[7u8; 64]).unwrap();
        assert_eq!(d0, d1, "same op costs the same on any chip");
        let mut buf = [0u8; 16];
        let r = arr.read(3, 0, &mut buf).unwrap();
        assert_eq!(r.pages_read, 1);
        assert_eq!(r.bytes_to_ram, 16);
        assert_eq!(r.pages_written, 0);
    }

    #[test]
    fn makespan_is_busiest_channel_not_the_sum() {
        let arr = tiny_array(4);
        for chip in 0..4u64 {
            for i in 0..4u64 {
                arr.write(chip * arr.chip_pages() + i, &[1; 32]).unwrap();
            }
        }
        let serial = arr.stats().elapsed(arr.timing(), 128);
        let makespan = arr.channel_makespan();
        assert_eq!(serial.as_ns(), 4 * makespan.as_ns());
    }

    #[test]
    fn out_of_range_addresses_are_rejected_globally() {
        let arr = tiny_array(2);
        let out = arr.logical_pages();
        assert!(matches!(
            arr.write(out, &[0]),
            Err(FlashError::BadAddress(lpn)) if lpn == out
        ));
    }
}

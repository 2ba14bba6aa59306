//! Contiguous logical-page segments for tables, indexes and temporaries.
//!
//! The storage engine lays every persistent structure (hidden columns, SKTs,
//! climbing-index runs) and every temporary (materialised ID lists, sort
//! runs) into contiguous logical runs so that sequential scans touch each
//! page exactly once — the access pattern all the paper's operators are
//! built around.

use crate::device::FlashDevice;
use crate::error::FlashError;
use crate::{Lpn, Result};

/// A contiguous run of logical pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    start: Lpn,
    pages: u64,
}

impl Segment {
    /// First logical page.
    pub fn start(&self) -> Lpn {
        self.start
    }

    /// Number of pages.
    pub fn pages(&self) -> u64 {
        self.pages
    }

    /// Logical page number of the `i`-th page of the segment.
    pub fn lpn(&self, i: u64) -> Result<Lpn> {
        if i >= self.pages {
            return Err(FlashError::SegmentOverflow);
        }
        Ok(self.start + i)
    }

    /// Capacity in bytes for a device with the given page size.
    pub fn byte_capacity(&self, page_size: usize) -> u64 {
        self.pages * page_size as u64
    }
}

/// A logical-page run striped across chips: `k` per-chip contiguous parts
/// with page `i` living on part `i % k` (round-robin). Consecutive pages
/// of the run land on distinct channels, so a vectored read of a window
/// of neighbouring pages ([`FlashDevice::read_batch`]) overlaps across
/// `min(window, k)` chips — this is the placement that makes the B+-tree
/// leaf chain channel-parallel for a *single* scan. With `k = 1` the run
/// is exactly a contiguous [`Segment`], bit-identical to the flat layout.
///
/// Placement stays a pure function of the alloc/free call sequence, and
/// every per-page cost is placement-independent, so striping changes no
/// counter, report, trace or transcript (see `SECURITY.md` claim 11).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StripedSegment {
    /// Per-chip contiguous parts, in stripe order. Never empty.
    parts: Vec<Segment>,
    /// Total pages across parts.
    pages: u64,
}

impl StripedSegment {
    /// Wrap a contiguous run as a 1-way stripe (the degenerate layout).
    pub fn contiguous(seg: Segment) -> Self {
        let pages = seg.pages();
        StripedSegment {
            parts: vec![seg],
            pages,
        }
    }

    /// Number of pages.
    pub fn pages(&self) -> u64 {
        self.pages
    }

    /// Stripe width (1 = contiguous).
    pub fn stripe_width(&self) -> usize {
        self.parts.len()
    }

    /// The per-chip contiguous parts, in stripe order.
    pub fn parts(&self) -> &[Segment] {
        &self.parts
    }

    /// Logical page number of the `i`-th page of the run: part `i % k`,
    /// page `i / k` within it.
    pub fn lpn(&self, i: u64) -> Result<Lpn> {
        if i >= self.pages {
            return Err(FlashError::SegmentOverflow);
        }
        let k = self.parts.len() as u64;
        self.parts[(i % k) as usize].lpn(i / k)
    }

    /// Capacity in bytes for a device with the given page size.
    pub fn byte_capacity(&self, page_size: usize) -> u64 {
        self.pages * page_size as u64
    }
}

/// First-fit allocator over the logical address space with free-run
/// coalescing. Freeing a segment trims its pages so the FTL can reclaim
/// the physical space.
///
/// When built over a multi-chip device ([`SegmentAllocator::with_chips`])
/// allocations stripe across chips: a rotating cursor picks the next chip
/// and the run is placed first-fit *within* that chip's contiguous range,
/// so consecutively built structures (sublists, index runs, per-lane
/// temporaries) land on distinct chips and independent scans hit
/// independent channels. Placement is a pure function of the alloc/free
/// call sequence — it never depends on data values or on scheduling — so
/// striping opens no new leakage channel (see `SECURITY.md`).
#[derive(Debug)]
pub struct SegmentAllocator {
    /// Sorted, disjoint, coalesced free runs (start, len).
    free: Vec<(Lpn, u64)>,
    total_pages: u64,
    /// Pages per chip; 0 = flat space, no striping (single chip / carved
    /// sub-range slices).
    chip_pages: u64,
    chips: usize,
    /// Rotating cursor: the chip the next striped allocation tries first.
    next_chip: usize,
}

impl SegmentAllocator {
    /// Allocator over the whole logical space of a single-chip device.
    pub fn new(total_pages: u64) -> Self {
        SegmentAllocator {
            free: vec![(0, total_pages)],
            total_pages,
            chip_pages: 0,
            chips: 1,
            next_chip: 0,
        }
    }

    /// Allocator over the logical space of a `chips`-chip device, striping
    /// allocations across the per-chip ranges. `total_pages` must split
    /// evenly (it does by construction: the device's logical space is
    /// `chips` identical slices).
    pub fn with_chips(total_pages: u64, chips: usize) -> Self {
        assert!(chips >= 1, "need at least one chip");
        assert_eq!(total_pages % chips as u64, 0, "uneven chip split");
        let mut a = SegmentAllocator::new(total_pages);
        if chips > 1 {
            a.chip_pages = total_pages / chips as u64;
            a.chips = chips;
        }
        a
    }

    /// Allocator over a carved sub-range of the logical space (a per-worker
    /// slice handed out by a parent allocator; the parent keeps owning the
    /// range and reclaims it wholesale when the slice is retired).
    pub fn over(start: Lpn, pages: u64) -> Self {
        SegmentAllocator {
            free: vec![(start, pages)],
            total_pages: pages,
            chip_pages: 0,
            chips: 1,
            next_chip: 0,
        }
    }

    /// Number of chips allocations stripe across (1 = flat space).
    pub fn chips(&self) -> usize {
        self.chips
    }

    /// Chip that owns a logical page (0 when not striped).
    pub fn chip_of(&self, lpn: Lpn) -> usize {
        lpn.checked_div(self.chip_pages).unwrap_or(0) as usize
    }

    /// Pages not currently allocated.
    pub fn free_pages(&self) -> u64 {
        self.free.iter().map(|(_, len)| len).sum()
    }

    /// Total pages managed.
    pub fn total_pages(&self) -> u64 {
        self.total_pages
    }

    /// Allocate a contiguous run of `pages` logical pages. On a flat
    /// space: first fit. On a striped space: rotate the chip cursor, place
    /// first-fit within the first chip (in rotation order) that can hold
    /// the whole run, and fall back to a global chip-spanning first fit
    /// only when no single chip can.
    pub fn alloc(&mut self, pages: u64) -> Result<Segment> {
        if pages == 0 {
            return Ok(Segment { start: 0, pages: 0 });
        }
        if self.chips > 1 {
            for i in 0..self.chips {
                let chip = (self.next_chip + i) % self.chips;
                let (lo, hi) = self.chip_range(chip);
                if let Some((slot, start)) = self.find_in_range(pages, lo, hi) {
                    self.carve(slot, start, pages);
                    self.next_chip = (chip + 1) % self.chips;
                    return Ok(Segment { start, pages });
                }
            }
        }
        let slot = self
            .free
            .iter()
            .position(|(_, len)| *len >= pages)
            .ok_or(FlashError::OutOfLogicalSpace { requested: pages })?;
        let start = self.free[slot].0;
        self.carve(slot, start, pages);
        Ok(Segment { start, pages })
    }

    /// Allocate a run constrained to one chip's range (each part of a
    /// striped run).
    pub fn alloc_on_chip(&mut self, pages: u64, chip: usize) -> Result<Segment> {
        let (lo, hi) = self.chip_range(chip);
        self.alloc_in_range(pages, lo, hi)
    }

    /// Allocate a run placed entirely inside `[lo, hi)`, first fit.
    pub fn alloc_in_range(&mut self, pages: u64, lo: Lpn, hi: Lpn) -> Result<Segment> {
        if pages == 0 {
            return Ok(Segment { start: 0, pages: 0 });
        }
        let (slot, start) = self
            .find_in_range(pages, lo, hi)
            .ok_or(FlashError::OutOfLogicalSpace { requested: pages })?;
        self.carve(slot, start, pages);
        Ok(Segment { start, pages })
    }

    /// Free pages inside one chip's range (the whole space when flat).
    pub fn free_in_chip(&self, chip: usize) -> u64 {
        let (lo, hi) = self.chip_range(chip);
        self.free_in_range(lo, hi)
    }

    /// Free pages inside `[lo, hi)`.
    pub fn free_in_range(&self, lo: Lpn, hi: Lpn) -> u64 {
        self.free
            .iter()
            .map(|(s, l)| {
                let a = (*s).max(lo);
                let b = (s + l).min(hi);
                b.saturating_sub(a)
            })
            .sum()
    }

    /// The logical range owned by `chip` (the whole space when flat).
    fn chip_range(&self, chip: usize) -> (Lpn, Lpn) {
        if self.chip_pages == 0 {
            (0, self.total_pages)
        } else {
            let lo = chip as u64 * self.chip_pages;
            (lo, lo + self.chip_pages)
        }
    }

    /// First free slot able to hold `pages` entirely inside `[lo, hi)`;
    /// returns (slot index, placement start).
    fn find_in_range(&self, pages: u64, lo: Lpn, hi: Lpn) -> Option<(usize, Lpn)> {
        for (slot, (s, l)) in self.free.iter().enumerate() {
            let a = (*s).max(lo);
            let b = (s + l).min(hi);
            if b.saturating_sub(a) >= pages {
                return Some((slot, a));
            }
            if *s >= hi {
                break;
            }
        }
        None
    }

    /// Remove `[start, start + pages)` from the free run at `slot`,
    /// re-inserting the (possibly empty) remainders in sorted order.
    fn carve(&mut self, slot: usize, start: Lpn, pages: u64) {
        let (s, l) = self.free[slot];
        debug_assert!(start >= s && start + pages <= s + l);
        self.free.remove(slot);
        let post = (s + l) - (start + pages);
        if post > 0 {
            self.free.insert(slot, (start + pages, post));
        }
        if start > s {
            self.free.insert(slot, (s, start - s));
        }
    }

    /// Allocate enough pages to hold `bytes` with the given page size.
    pub fn alloc_bytes(&mut self, bytes: u64, page_size: usize) -> Result<Segment> {
        self.alloc(bytes.div_ceil(page_size as u64).max(1))
    }

    /// Allocate a `pages`-page run striped round-robin across the chips:
    /// one contiguous part per chip (in rotation order), so consecutive
    /// run pages land on distinct channels. On a flat space — or when any
    /// chip cannot host its part — the allocation falls back to a single
    /// contiguous run, so the call always succeeds whenever [`Self::alloc`]
    /// would. A failed striped attempt is rolled back without trims
    /// (nothing was written yet).
    pub fn alloc_striped(&mut self, pages: u64) -> Result<StripedSegment> {
        let k = (self.chips as u64).min(pages);
        if k <= 1 {
            return Ok(StripedSegment::contiguous(self.alloc(pages)?));
        }
        let base = self.next_chip;
        let mut parts = Vec::with_capacity(k as usize);
        for j in 0..k {
            // Part j owns run pages {j, j+k, j+2k, …}: ⌈(pages - j) / k⌉.
            let part_pages = (pages - j).div_ceil(k);
            let chip = (base + j as usize) % self.chips;
            match self.alloc_on_chip(part_pages, chip) {
                Ok(seg) => parts.push(seg),
                Err(_) => {
                    for seg in parts {
                        self.insert_free_run(seg.start(), seg.pages());
                    }
                    return Ok(StripedSegment::contiguous(self.alloc(pages)?));
                }
            }
        }
        self.next_chip = (base + 1) % self.chips;
        Ok(StripedSegment { parts, pages })
    }

    /// Return a striped run to the free pool, trimming every page.
    pub fn free_striped(
        &mut self,
        segment: &StripedSegment,
        device: &mut FlashDevice,
    ) -> Result<()> {
        for part in &segment.parts {
            self.free(*part, device)?;
        }
        Ok(())
    }

    /// Return a segment to the free pool, trimming its pages on `device`.
    pub fn free(&mut self, segment: Segment, device: &mut FlashDevice) -> Result<()> {
        if segment.pages == 0 {
            return Ok(());
        }
        for i in 0..segment.pages {
            device.trim(segment.start + i)?;
        }
        self.insert_free_run(segment.start, segment.pages);
        Ok(())
    }

    fn insert_free_run(&mut self, start: Lpn, len: u64) {
        let pos = self.free.partition_point(|(s, _)| *s < start);
        self.free.insert(pos, (start, len));
        // Coalesce with neighbours.
        if pos + 1 < self.free.len() {
            let (s, l) = self.free[pos];
            let (ns, nl) = self.free[pos + 1];
            if s + l == ns {
                self.free[pos] = (s, l + nl);
                self.free.remove(pos + 1);
            }
        }
        if pos > 0 {
            let (ps, pl) = self.free[pos - 1];
            let (s, l) = self.free[pos];
            if ps + pl == s {
                self.free[pos - 1] = (ps, pl + l);
                self.free.remove(pos);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::FlashGeometry;
    use crate::timing::FlashTiming;

    fn device() -> FlashDevice {
        FlashDevice::new(
            FlashGeometry {
                page_size: 256,
                pages_per_block: 4,
                block_count: 20,
                spare_blocks: 4,
            },
            FlashTiming::default(),
        )
    }

    #[test]
    fn alloc_free_roundtrip_coalesces() {
        let mut dev = device();
        let mut alloc = SegmentAllocator::new(dev.logical_pages());
        let total = alloc.free_pages();
        let a = alloc.alloc(10).unwrap();
        let b = alloc.alloc(5).unwrap();
        let c = alloc.alloc(7).unwrap();
        assert_eq!(alloc.free_pages(), total - 22);
        alloc.free(b, &mut dev).unwrap();
        alloc.free(a, &mut dev).unwrap();
        alloc.free(c, &mut dev).unwrap();
        assert_eq!(alloc.free_pages(), total);
        // Everything coalesced back into one run: a full-size alloc works.
        let all = alloc.alloc(total).unwrap();
        assert_eq!(all.pages(), total);
    }

    #[test]
    fn first_fit_reuses_hole() {
        let mut dev = device();
        let mut alloc = SegmentAllocator::new(dev.logical_pages());
        let a = alloc.alloc(8).unwrap();
        let _b = alloc.alloc(8).unwrap();
        alloc.free(a, &mut dev).unwrap();
        let c = alloc.alloc(4).unwrap();
        assert_eq!(c.start(), 0, "hole should be reused first-fit");
    }

    #[test]
    fn exhaustion_errors() {
        let dev = device();
        let mut alloc = SegmentAllocator::new(dev.logical_pages());
        assert!(matches!(
            alloc.alloc(dev.logical_pages() + 1),
            Err(FlashError::OutOfLogicalSpace { .. })
        ));
    }

    #[test]
    fn byte_sizing_rounds_up() {
        let dev = device();
        let mut alloc = SegmentAllocator::new(dev.logical_pages());
        let s = alloc.alloc_bytes(257, dev.page_size()).unwrap();
        assert_eq!(s.pages(), 2);
        assert_eq!(s.byte_capacity(dev.page_size()), 512);
    }

    #[test]
    fn striped_allocs_rotate_across_chips() {
        let mut alloc = SegmentAllocator::with_chips(64, 4);
        let a = alloc.alloc(4).unwrap();
        let b = alloc.alloc(4).unwrap();
        let c = alloc.alloc(4).unwrap();
        let d = alloc.alloc(4).unwrap();
        let e = alloc.alloc(4).unwrap();
        assert_eq!(
            [a, b, c, d, e].map(|s| alloc.chip_of(s.start())),
            [0, 1, 2, 3, 0],
            "rotating cursor lands consecutive allocs on distinct chips"
        );
        assert_eq!(e.start(), 4, "second round continues within chip 0");
    }

    #[test]
    fn striped_alloc_falls_back_to_spanning_runs() {
        let mut alloc = SegmentAllocator::with_chips(64, 4);
        // No single 16-page chip can hold 20 pages; the global first fit
        // must span chips rather than fail.
        let big = alloc.alloc(20).unwrap();
        assert_eq!(big.start(), 0);
        assert_eq!(alloc.free_pages(), 44);
    }

    #[test]
    fn alloc_on_chip_respects_ranges_and_accounts_free_space() {
        let mut dev = device();
        let mut alloc = SegmentAllocator::with_chips(64, 4);
        let s = alloc.alloc_on_chip(6, 2).unwrap();
        assert_eq!(alloc.chip_of(s.start()), 2);
        assert_eq!(alloc.free_in_chip(2), 10);
        assert_eq!(alloc.free_in_chip(0), 16);
        assert!(matches!(
            alloc.alloc_on_chip(11, 2),
            Err(FlashError::OutOfLogicalSpace { .. })
        ));
        alloc.free(s, &mut dev).unwrap();
        assert_eq!(alloc.free_in_chip(2), 16);
        // A coalesced free space admits a full-size spanning alloc again.
        let all = alloc.alloc(64).unwrap();
        assert_eq!(all.pages(), 64);
    }

    #[test]
    fn single_chip_striping_is_plain_first_fit() {
        let mut flat = SegmentAllocator::new(64);
        let mut one = SegmentAllocator::with_chips(64, 1);
        for pages in [3u64, 7, 1, 12] {
            assert_eq!(one.alloc(pages).unwrap(), flat.alloc(pages).unwrap());
        }
    }

    #[test]
    fn striped_segment_rotates_pages_across_chips() {
        let mut alloc = SegmentAllocator::with_chips(64, 4);
        let s = alloc.alloc_striped(10).unwrap();
        assert_eq!(s.pages(), 10);
        assert_eq!(s.stripe_width(), 4);
        // Parts split ⌈10/4⌉-wise: 3, 3, 2, 2 pages.
        assert_eq!(
            s.parts().iter().map(|p| p.pages()).collect::<Vec<_>>(),
            [3, 3, 2, 2]
        );
        // Consecutive run pages land on consecutive chips.
        for i in 0..10u64 {
            assert_eq!(
                alloc.chip_of(s.lpn(i).unwrap()),
                (i % 4) as usize,
                "page {i}"
            );
        }
        // Within one chip the part is contiguous and ascending.
        assert_eq!(s.lpn(4).unwrap(), s.lpn(0).unwrap() + 1);
        assert!(matches!(s.lpn(10), Err(FlashError::SegmentOverflow)));
    }

    #[test]
    fn striped_alloc_falls_back_to_contiguous_when_a_chip_is_full() {
        let mut dev = device();
        let mut alloc = SegmentAllocator::with_chips(64, 4);
        // Exhaust chip 1 so the striped attempt cannot place a part there.
        let hog = alloc.alloc_on_chip(16, 1).unwrap();
        let s = alloc.alloc_striped(12).unwrap();
        assert_eq!(s.stripe_width(), 1, "fallback is a single contiguous part");
        assert_eq!(s.pages(), 12);
        // The rolled-back parts returned to the pool: freeing everything
        // restores the full space.
        alloc.free_striped(&s, &mut dev).unwrap();
        alloc.free(hog, &mut dev).unwrap();
        assert_eq!(alloc.free_pages(), 64);
    }

    #[test]
    fn flat_striped_alloc_is_contiguous() {
        let mut flat = SegmentAllocator::new(64);
        let s = flat.alloc_striped(8).unwrap();
        assert_eq!(s.stripe_width(), 1);
        for i in 0..8u64 {
            assert_eq!(s.lpn(i).unwrap(), s.lpn(0).unwrap() + i);
        }
    }

    #[test]
    fn segment_lpn_bounds() {
        let mut alloc = SegmentAllocator::new(100);
        let s = alloc.alloc(3).unwrap();
        assert_eq!(s.lpn(2).unwrap(), s.start() + 2);
        assert!(matches!(s.lpn(3), Err(FlashError::SegmentOverflow)));
    }
}

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
}

/// First-fit allocator over the logical address space with free-run
/// coalescing. Freeing a segment trims its pages so the FTL can reclaim
/// the physical space. Placement is a pure function of the alloc/free
/// call sequence — it never depends on data values — so it opens no
/// leakage channel (see `SECURITY.md` claim 11).
#[derive(Debug)]
pub struct SegmentAllocator {
    /// Sorted, disjoint, coalesced free runs (start, len).
    free: Vec<(Lpn, u64)>,
    total_pages: u64,
}

impl SegmentAllocator {
    /// Allocator over the whole logical space of a device.
    pub fn new(total_pages: u64) -> Self {
        SegmentAllocator {
            free: vec![(0, total_pages)],
            total_pages,
        }
    }

    /// Pages not currently allocated.
    pub fn free_pages(&self) -> u64 {
        self.free.iter().map(|(_, len)| len).sum()
    }

    /// Total pages managed.
    pub fn total_pages(&self) -> u64 {
        self.total_pages
    }

    /// Allocate a contiguous run of `pages` logical pages, first fit.
    pub fn alloc(&mut self, pages: u64) -> Result<Segment> {
        if pages == 0 {
            return Ok(Segment { start: 0, pages: 0 });
        }
        let slot = self
            .free
            .iter()
            .position(|(_, len)| *len >= pages)
            .ok_or(FlashError::OutOfLogicalSpace { requested: pages })?;
        let (start, len) = self.free[slot];
        if len == pages {
            self.free.remove(slot);
        } else {
            self.free[slot] = (start + pages, len - pages);
        }
        Ok(Segment { start, pages })
    }

    /// Allocate enough pages to hold `bytes` with the given page size.
    pub fn alloc_bytes(&mut self, bytes: u64, page_size: usize) -> Result<Segment> {
        self.alloc(bytes.div_ceil(page_size as u64).max(1))
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
    }

    #[test]
    fn segment_lpn_bounds() {
        let mut alloc = SegmentAllocator::new(100);
        let s = alloc.alloc(3).unwrap();
        assert_eq!(s.lpn(2).unwrap(), s.start() + 2);
        assert!(matches!(s.lpn(3), Err(FlashError::SegmentOverflow)));
    }
}

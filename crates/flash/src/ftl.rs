//! Flash Translation Layer: logical→physical mapping, out-of-place updates,
//! greedy garbage collection and erase-count wear levelling.
//!
//! §6.1 of the paper: the simulator's I/O counts include "the I/O performed
//! by the Flash Translation Layer which manages wear levering \[sic\],
//! garbage collection and translation of logical addresses to physical
//! (updates are not performed in place in Flash)". This module is that FTL.

use crate::error::FlashError;
use crate::geometry::FlashGeometry;
use crate::nand::NandArray;
use crate::stats::FlashStats;
use crate::{Lpn, Ppn, Result};
use std::collections::{BTreeMap, BTreeSet};

/// Keep at least this many free blocks at all times; GC kicks in below it.
/// One block is always needed as the relocation destination.
const GC_LOW_WATER: usize = 2;

/// Overflow-safe in-page range check: `offset + len` must fit in the page.
/// The addition itself can exceed `usize::MAX` for hostile offsets, which
/// would wrap in release builds and sail past a plain `>` guard.
pub(crate) fn check_in_page(offset: usize, len: usize, page_size: usize) -> Result<()> {
    match offset.checked_add(len) {
        Some(end) if end <= page_size => Ok(()),
        _ => Err(FlashError::OutOfPage {
            offset,
            len,
            page_size,
        }),
    }
}

/// Wear-levelling pool of erased blocks with O(log n) least-erased
/// selection.
///
/// Replaces the original `Vec<u64>` + `min_by_key` erase-count scan (O(n)
/// per block activation — quadratic over a long ingest) while keeping the
/// selected block, including tie-breaking, **bit-identical**: the pool
/// mirrors the Vec's ordering discipline exactly (push appends, take
/// swap-removes) and resolves erase-count ties to the smallest slot index,
/// which is precisely the element `Iterator::min_by_key` returns. This is
/// sound because a block's erase count is static while it sits in the pool:
/// the erase happens before the push, and nothing erases a free block.
#[derive(Debug, Default)]
pub struct FreeBlockPool {
    /// `(block, erase count at push time)`, in exactly the order the plain
    /// `Vec<u64>` implementation would hold the blocks.
    slots: Vec<(u64, u64)>,
    /// Erase count → slot positions currently holding that count.
    by_count: BTreeMap<u64, BTreeSet<usize>>,
    /// Membership bitmap indexed by block id.
    is_free: Vec<bool>,
}

impl FreeBlockPool {
    /// An empty pool able to track blocks `0..block_count`.
    pub fn new(block_count: u64) -> Self {
        FreeBlockPool {
            slots: Vec::new(),
            by_count: BTreeMap::new(),
            is_free: vec![false; block_count as usize],
        }
    }

    /// Number of free blocks.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no blocks are free.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// True if `block` is currently in the pool.
    pub fn contains(&self, block: u64) -> bool {
        self.is_free.get(block as usize).copied().unwrap_or(false)
    }

    /// Append a freshly erased block (mirrors `Vec::push`).
    pub fn push(&mut self, block: u64, erase_count: u64) {
        let pos = self.slots.len();
        self.slots.push((block, erase_count));
        self.by_count.entry(erase_count).or_default().insert(pos);
        self.is_free[block as usize] = true;
    }

    #[allow(
        clippy::expect_used,
        reason = "invariant: every occupied slot's position sits in the bucket \
                  of the erase count stored beside it, and a bucket is dropped \
                  only once empty, so the lookup cannot miss"
    )]
    fn bucket_remove(&mut self, count: u64, pos: usize) {
        let bucket = self.by_count.get_mut(&count).expect("bucket exists");
        bucket.remove(&pos);
        if bucket.is_empty() {
            self.by_count.remove(&count);
        }
    }

    /// Remove the slot at `pos` with `Vec::swap_remove` semantics, keeping
    /// the position index coherent.
    fn swap_remove(&mut self, pos: usize) -> u64 {
        let (block, count) = self.slots[pos];
        self.bucket_remove(count, pos);
        let last = self.slots.len() - 1;
        if pos != last {
            let (_, last_count) = self.slots[last];
            self.bucket_remove(last_count, last);
            self.by_count.entry(last_count).or_default().insert(pos);
        }
        self.slots.swap_remove(pos);
        self.is_free[block as usize] = false;
        block
    }

    /// Take the least-erased free block; ties go to the smallest slot index
    /// (= the first minimum a linear `min_by_key` scan would find).
    pub fn take_least_erased(&mut self) -> Option<u64> {
        let pos = self.by_count.values().find_map(|p| p.first().copied())?;
        Some(self.swap_remove(pos))
    }
}

/// Page-mapped FTL over a [`NandArray`].
#[derive(Debug)]
pub struct Ftl {
    nand: NandArray,
    /// Logical page → physical page. `None` = never written or trimmed.
    map: Vec<Option<Ppn>>,
    /// Block currently receiving programs, and the next page index in it.
    active_block: u64,
    next_in_active: u64,
    /// Erased blocks ready to become active; selection applies wear
    /// levelling (lowest erase count first, first-minimum tie-break).
    free_blocks: FreeBlockPool,
    stats: FlashStats,
    scratch: Vec<u8>,
    /// True while GC relocates pages; suppresses re-entrant GC. The
    /// low-water margin guarantees the relocation destination exists.
    in_gc: bool,
}

impl Ftl {
    /// A fresh FTL over an erased array.
    pub fn new(geometry: FlashGeometry) -> Self {
        let nand = NandArray::new(geometry);
        assert!(geometry.block_count > 0, "geometry has at least one block");
        // The highest block starts active; the rest are free with erase
        // count 0 (same state the old `collect` + `pop` produced).
        let active_block = geometry.block_count - 1;
        let mut free_blocks = FreeBlockPool::new(geometry.block_count);
        for block in 0..active_block {
            free_blocks.push(block, 0);
        }
        Ftl {
            map: vec![None; geometry.logical_pages() as usize],
            active_block,
            next_in_active: 0,
            free_blocks,
            stats: FlashStats::default(),
            scratch: vec![0; geometry.page_size],
            in_gc: false,
            nand,
        }
    }

    /// Geometry of the underlying array.
    pub fn geometry(&self) -> &FlashGeometry {
        self.nand.geometry()
    }

    /// Cumulative I/O counters.
    pub fn stats(&self) -> &FlashStats {
        &self.stats
    }

    /// Underlying array (read-only, for diagnostics and tests).
    pub fn nand(&self) -> &NandArray {
        &self.nand
    }

    fn check_lpn(&self, lpn: Lpn) -> Result<()> {
        if lpn >= self.map.len() as u64 {
            return Err(FlashError::BadAddress(lpn));
        }
        Ok(())
    }

    /// Read `buf.len()` bytes at `offset` within logical page `lpn`.
    ///
    /// Cost: one page load (25 µs) plus `buf.len()` register→RAM transfers.
    /// Reading a never-written page returns zeroes at zero cost (the FTL map
    /// answers without touching the array).
    pub fn read(&mut self, lpn: Lpn, offset: usize, buf: &mut [u8]) -> Result<()> {
        self.check_lpn(lpn)?;
        let page_size = self.geometry().page_size;
        check_in_page(offset, buf.len(), page_size)?;
        match self.map[lpn as usize] {
            Some(ppn) => {
                self.nand.read(ppn, offset, buf);
                self.stats.pages_read += 1;
                self.stats.bytes_to_ram += buf.len() as u64;
            }
            None => buf.fill(0),
        }
        Ok(())
    }

    /// Write a full logical page out of place.
    ///
    /// `image` may be shorter than the page; the tail is zero-padded. Cost:
    /// one page program (200 µs) plus a full-page RAM→register transfer.
    pub fn write(&mut self, lpn: Lpn, image: &[u8]) -> Result<()> {
        self.check_lpn(lpn)?;
        let page_size = self.geometry().page_size;
        if image.len() > page_size {
            return Err(FlashError::OutOfPage {
                offset: 0,
                len: image.len(),
                page_size,
            });
        }
        // Allocate first: GC may run inside and uses the scratch buffer.
        let ppn = self.allocate_page()?;
        let mut full = std::mem::take(&mut self.scratch);
        full[..image.len()].copy_from_slice(image);
        full[image.len()..].fill(0);
        self.nand.program(ppn, lpn, &full);
        self.scratch = full;
        if let Some(old) = self.map[lpn as usize].replace(ppn) {
            self.nand.invalidate(old);
        }
        self.stats.pages_written += 1;
        self.stats.bytes_from_ram += page_size as u64;
        Ok(())
    }

    /// Drop the mapping of a logical page (used when segments are freed).
    /// Pure metadata: no array I/O is charged.
    pub fn trim(&mut self, lpn: Lpn) -> Result<()> {
        self.check_lpn(lpn)?;
        if let Some(ppn) = self.map[lpn as usize].take() {
            self.nand.invalidate(ppn);
        }
        Ok(())
    }

    /// True if the logical page has a current physical image.
    pub fn is_mapped(&self, lpn: Lpn) -> bool {
        self.map
            .get(lpn as usize)
            .map(|m| m.is_some())
            .unwrap_or(false)
    }

    /// Grab the next programmable physical page, rotating the active block
    /// and triggering GC as needed.
    fn allocate_page(&mut self) -> Result<Ppn> {
        let ppb = self.geometry().pages_per_block;
        if self.next_in_active >= ppb {
            if !self.in_gc {
                self.collect_garbage_if_needed()?;
            }
            self.active_block = self.take_free_block()?;
            self.next_in_active = 0;
        }
        let ppn = self.geometry().block_first_page(self.active_block) + self.next_in_active;
        self.next_in_active += 1;
        Ok(ppn)
    }

    /// Wear levelling: always activate the least-erased free block.
    fn take_free_block(&mut self) -> Result<u64> {
        self.free_blocks
            .take_least_erased()
            .ok_or(FlashError::OutOfSpace)
    }

    /// Greedy GC: while free blocks are scarce, erase the block with the
    /// most stale pages, relocating its valid pages into the active block.
    fn collect_garbage_if_needed(&mut self) -> Result<()> {
        self.in_gc = true;
        let result = self.collect_garbage_inner();
        self.in_gc = false;
        result
    }

    fn collect_garbage_inner(&mut self) -> Result<()> {
        while self.free_blocks.len() < GC_LOW_WATER {
            let Some(victim) = self.pick_victim() else {
                // Nothing reclaimable: either genuinely full, or only the
                // low-water margin is unmet while space remains — the latter
                // is fine, allocation will use the remaining free blocks.
                if self.free_blocks.is_empty() {
                    return Err(FlashError::OutOfSpace);
                }
                return Ok(());
            };
            self.relocate_and_erase(victim)?;
        }
        Ok(())
    }

    /// Victim = most invalid pages; ties broken toward least-worn blocks so
    /// static data does not pin wear to a few blocks.
    fn pick_victim(&self) -> Option<u64> {
        let geometry = *self.geometry();
        (0..geometry.block_count)
            .filter(|b| *b != self.active_block && !self.free_blocks.contains(*b))
            .filter(|b| self.nand.invalid_in_block(*b) > 0)
            .max_by_key(|b| {
                (
                    self.nand.invalid_in_block(*b),
                    u64::MAX - self.nand.erase_count(*b),
                )
            })
    }

    fn relocate_and_erase(&mut self, victim: u64) -> Result<()> {
        let moves: Vec<(Ppn, Lpn)> = self.nand.valid_pages_of_block(victim).collect();
        for (src, lpn) in moves {
            let mut image = std::mem::take(&mut self.scratch);
            self.nand.read(src, 0, &mut image);
            self.stats.gc_pages_read += 1;
            // The relocation destination must not be the victim itself; the
            // victim is excluded from `pick_victim` only as a non-active
            // block, and allocate_page can only return pages in the active
            // block or a fresh free block.
            let dst = self.allocate_page()?;
            self.nand.program(dst, lpn, &image);
            self.scratch = image;
            self.stats.gc_pages_written += 1;
            self.nand.invalidate(src);
            self.map[lpn as usize] = Some(dst);
        }
        self.nand.erase_block(victim);
        self.stats.blocks_erased += 1;
        self.free_blocks.push(victim, self.nand.erase_count(victim));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ftl() -> Ftl {
        Ftl::new(FlashGeometry {
            page_size: 128,
            pages_per_block: 4,
            block_count: 6,
            spare_blocks: 2,
        })
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut ftl = tiny_ftl();
        ftl.write(5, b"hello").unwrap();
        let mut buf = [0u8; 5];
        ftl.read(5, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        assert_eq!(ftl.stats().pages_written, 1);
        assert_eq!(ftl.stats().pages_read, 1);
        assert_eq!(ftl.stats().bytes_to_ram, 5);
        assert_eq!(ftl.stats().bytes_from_ram, 128);
    }

    #[test]
    fn unwritten_page_reads_zero_at_no_cost() {
        let mut ftl = tiny_ftl();
        let mut buf = [9u8; 4];
        ftl.read(0, 10, &mut buf).unwrap();
        assert_eq!(buf, [0; 4]);
        assert_eq!(ftl.stats().pages_read, 0);
    }

    #[test]
    fn overwrite_is_out_of_place() {
        let mut ftl = tiny_ftl();
        ftl.write(0, b"v1").unwrap();
        ftl.write(0, b"v2").unwrap();
        let mut buf = [0u8; 2];
        ftl.read(0, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"v2");
        // Two physical programs happened; one stale page exists somewhere.
        assert_eq!(ftl.stats().pages_written, 2);
        let stale: u32 = (0..ftl.geometry().block_count)
            .map(|b| ftl.nand().invalid_in_block(b))
            .sum();
        assert_eq!(stale, 1);
    }

    #[test]
    fn sustained_overwrites_trigger_gc_and_stay_consistent() {
        let mut ftl = tiny_ftl(); // 16 logical pages, 24 physical
        for round in 0u8..40 {
            for lpn in 0..ftl.geometry().logical_pages() {
                ftl.write(lpn, &[round ^ lpn as u8; 16]).unwrap();
            }
        }
        for lpn in 0..ftl.geometry().logical_pages() {
            let mut buf = [0u8; 16];
            ftl.read(lpn, 0, &mut buf).unwrap();
            assert_eq!(buf, [39 ^ lpn as u8; 16], "lpn {lpn}");
        }
        assert!(ftl.stats().blocks_erased > 0, "GC never ran");
        assert!(ftl.stats().gc_pages_written > 0 || ftl.stats().blocks_erased > 0);
    }

    #[test]
    fn wear_levelling_bounds_spread() {
        let mut ftl = tiny_ftl();
        // Hammer a single logical page; wear must spread across blocks
        // rather than ping-ponging on one.
        for i in 0u32..600 {
            ftl.write(0, &i.to_le_bytes()).unwrap();
        }
        assert!(
            ftl.nand().wear_spread() <= 16,
            "wear spread {} too large",
            ftl.nand().wear_spread()
        );
    }

    #[test]
    fn trim_releases_space() {
        let mut ftl = tiny_ftl();
        for lpn in 0..ftl.geometry().logical_pages() {
            ftl.write(lpn, &[1; 8]).unwrap();
        }
        for lpn in 0..ftl.geometry().logical_pages() {
            ftl.trim(lpn).unwrap();
            assert!(!ftl.is_mapped(lpn));
        }
        // All space reclaimable: a full rewrite round succeeds.
        for lpn in 0..ftl.geometry().logical_pages() {
            ftl.write(lpn, &[2; 8]).unwrap();
        }
    }

    #[test]
    fn bad_addresses_are_rejected() {
        let mut ftl = tiny_ftl();
        let out = ftl.geometry().logical_pages();
        assert!(matches!(
            ftl.write(out, &[0]),
            Err(FlashError::BadAddress(_))
        ));
        let mut buf = [0u8; 200];
        assert!(matches!(
            ftl.read(0, 0, &mut buf),
            Err(FlashError::OutOfPage { .. })
        ));
    }

    #[test]
    fn overflowing_offsets_return_out_of_page_not_panic() {
        // Regression: `offset + len` used to be an unchecked usize addition;
        // offsets near usize::MAX wrapped in release builds, passed the
        // `> page_size` guard, and panicked inside NandArray.
        let mut ftl = tiny_ftl();
        ftl.write(0, &[7; 16]).unwrap();
        let mut buf = [0u8; 16];
        for offset in [usize::MAX, usize::MAX - 1, usize::MAX - 15] {
            assert!(
                matches!(
                    ftl.read(0, offset, &mut buf),
                    Err(FlashError::OutOfPage { .. })
                ),
                "read at offset {offset}"
            );
        }
        // Exact-boundary accesses still work.
        let page = ftl.geometry().page_size;
        ftl.read(0, page - 1, &mut buf[..1]).unwrap();
        // One past the end is rejected without overflow.
        assert!(matches!(
            ftl.read(0, page, &mut buf[..1]),
            Err(FlashError::OutOfPage { .. })
        ));
    }

    #[test]
    fn free_block_pool_matches_min_by_key_reference() {
        // The pool must select exactly what the old linear scan selected:
        // the first block (in Vec order) with the minimal erase count.
        let mut pool = FreeBlockPool::new(8);
        let mut reference: Vec<(u64, u64)> = Vec::new();
        let pushes: [(u64, u64); 8] = [
            (3, 5),
            (1, 2),
            (7, 2),
            (0, 9),
            (4, 2),
            (2, 0),
            (6, 0),
            (5, 7),
        ];
        let mut i = 0;
        for round in 0..pushes.len() * 2 {
            if round % 3 != 2 && i < pushes.len() {
                let (b, c) = pushes[i];
                i += 1;
                pool.push(b, c);
                reference.push((b, c));
            } else if !reference.is_empty() {
                let (idx, _) = reference
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, (_, c))| *c)
                    .unwrap();
                let want = reference.swap_remove(idx).0;
                assert_eq!(pool.take_least_erased(), Some(want));
            }
        }
        while let Some(got) = pool.take_least_erased() {
            let (idx, _) = reference
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, c))| *c)
                .unwrap();
            assert_eq!(got, reference.swap_remove(idx).0);
        }
        assert!(reference.is_empty());
        assert!(pool.is_empty());
    }

    #[test]
    fn free_block_pool_membership_tracks_take_and_push() {
        let mut pool = FreeBlockPool::new(4);
        pool.push(0, 1);
        pool.push(2, 0);
        assert!(pool.contains(0) && pool.contains(2));
        assert!(!pool.contains(1) && !pool.contains(3));
        assert_eq!(pool.take_least_erased(), Some(2));
        assert!(!pool.contains(2));
        assert_eq!(pool.len(), 1);
        pool.push(2, 1);
        // Tie on erase count 1: block 0 sits at slot 0, before block 2.
        assert_eq!(pool.take_least_erased(), Some(0));
    }

    #[test]
    fn filling_logical_space_succeeds_and_overcommit_fails_gracefully() {
        let mut ftl = tiny_ftl();
        for lpn in 0..ftl.geometry().logical_pages() {
            ftl.write(lpn, &[3; 8]).unwrap();
        }
        // Rewriting everything several times still works thanks to GC.
        for _ in 0..5 {
            for lpn in 0..ftl.geometry().logical_pages() {
                ftl.write(lpn, &[4; 8]).unwrap();
            }
        }
    }
}

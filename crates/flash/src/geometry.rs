//! Physical layout of the simulated NAND module.

use serde::{Deserialize, Serialize};

/// Geometry of the NAND flash module.
///
/// The GhostDB experimental platform (§6.1) uses 2 KB pages — the I/O unit
/// between Flash and RAM — grouped into erase blocks. The paper does not fix
/// the block size; 64 pages per block (128 KB blocks) matches the large-block
/// NAND parts contemporary with the paper and is the default here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlashGeometry {
    /// Bytes per page (the Flash↔RAM I/O unit). Paper value: 2048.
    pub page_size: usize,
    /// Pages per erase block.
    pub pages_per_block: u64,
    /// Total number of physical blocks, including over-provisioned spares.
    pub block_count: u64,
    /// Blocks reserved for the FTL (over-provisioning). These never hold
    /// logical data steady-state; they give GC room to breathe.
    pub spare_blocks: u64,
}

impl FlashGeometry {
    /// Geometry sized to hold `logical_bytes` of user data with default page
    /// and block parameters, over-provisioned with one spare block per 12
    /// logical blocks (~8.3%), floored at 4 spare blocks so tiny modules
    /// still give GC room to breathe.
    pub fn for_capacity(logical_bytes: u64) -> Self {
        let page_size = 2048usize;
        let pages_per_block = 64u64;
        let block_bytes = page_size as u64 * pages_per_block;
        let logical_blocks = logical_bytes.div_ceil(block_bytes).max(1);
        let spare_blocks = (logical_blocks / 12).max(4);
        FlashGeometry {
            page_size,
            pages_per_block,
            block_count: logical_blocks + spare_blocks,
            spare_blocks,
        }
    }

    /// Number of physical pages in the array.
    pub fn physical_pages(&self) -> u64 {
        self.block_count * self.pages_per_block
    }

    /// Number of pages exposed to the logical address space.
    pub fn logical_pages(&self) -> u64 {
        (self.block_count - self.spare_blocks) * self.pages_per_block
    }

    /// Logical capacity in bytes.
    pub fn logical_bytes(&self) -> u64 {
        self.logical_pages() * self.page_size as u64
    }

    /// Block that a physical page belongs to.
    pub fn block_of(&self, ppn: u64) -> u64 {
        ppn / self.pages_per_block
    }

    /// First physical page of a block.
    pub fn block_first_page(&self, block: u64) -> u64 {
        block * self.pages_per_block
    }

    /// Basic sanity checks; panics on nonsensical configurations so that
    /// misconfiguration fails fast at construction time.
    pub fn validate(&self) {
        assert!(self.page_size >= 64, "page size too small");
        assert!(
            self.pages_per_block >= 1,
            "need at least one page per block"
        );
        assert!(
            self.block_count > self.spare_blocks,
            "need at least one logical block"
        );
        assert!(self.spare_blocks >= 1, "FTL needs at least one spare block");
    }
}

impl Default for FlashGeometry {
    /// 256 MB module, the capacity announced for the first commercial keys
    /// in §6.1.
    fn default() -> Self {
        FlashGeometry::for_capacity(256 * 1024 * 1024)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_geometry_matches_paper_platform() {
        let g = FlashGeometry::default();
        g.validate();
        assert_eq!(g.page_size, 2048);
        assert!(g.logical_bytes() >= 256 * 1024 * 1024);
    }

    #[test]
    fn for_capacity_rounds_up_to_blocks() {
        let g = FlashGeometry::for_capacity(1);
        g.validate();
        assert!(g.logical_pages() >= 1);
        assert!(g.block_count > g.spare_blocks);
    }

    #[test]
    fn for_capacity_overprovisions_one_spare_per_twelve_floored_at_four() {
        // Tiny capacities (1 logical block here) floor at 4 spare blocks.
        let tiny = FlashGeometry::for_capacity(1);
        assert_eq!(tiny.block_count - tiny.spare_blocks, 1);
        assert_eq!(tiny.spare_blocks, 4);
        // 256 MB at 128 KB blocks = 2048 logical blocks → exactly
        // 2048 / 12 = 170 spares, ~8.3% over-provisioning.
        let g = FlashGeometry::for_capacity(256 * 1024 * 1024);
        let logical_blocks = g.block_count - g.spare_blocks;
        assert_eq!(logical_blocks, 2048);
        assert_eq!(g.spare_blocks, logical_blocks / 12);
        assert_eq!(g.spare_blocks, 170);
        // The floor only binds below 48 logical blocks (48 / 12 = 4).
        let edge = FlashGeometry::for_capacity(48 * 64 * 2048);
        assert_eq!(edge.block_count - edge.spare_blocks, 48);
        assert_eq!(edge.spare_blocks, 4);
    }

    #[test]
    fn block_arithmetic() {
        let g = FlashGeometry {
            page_size: 2048,
            pages_per_block: 64,
            block_count: 10,
            spare_blocks: 2,
        };
        assert_eq!(g.physical_pages(), 640);
        assert_eq!(g.logical_pages(), 512);
        assert_eq!(g.block_of(0), 0);
        assert_eq!(g.block_of(63), 0);
        assert_eq!(g.block_of(64), 1);
        assert_eq!(g.block_first_page(3), 192);
    }
}

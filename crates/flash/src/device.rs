//! The logical flash device used by the storage engine: one NAND module
//! behind one FTL, with a simulated clock derived from its I/O counters.
//!
//! The paper's token (§2.2, §6.1) has a single flash module, so the
//! device owns its [`Ftl`] directly. Every readout — device-wide
//! ([`FlashDevice::stats`], `elapsed`) and per-operator
//! ([`FlashDevice::snapshot`], `stats_since`, `elapsed_since`) — reads
//! the FTL's cumulative counters, so the two views always agree.

use crate::ftl::Ftl;
use crate::geometry::FlashGeometry;
use crate::stats::{FlashSnapshot, FlashStats, SimDuration};
use crate::timing::FlashTiming;
use crate::{Lpn, Result};

/// A simulated flash device: logical page reads/writes with exact I/O
/// accounting and a simulated clock derived from the Table 1 cost model.
#[derive(Debug)]
pub struct FlashDevice {
    ftl: Ftl,
    timing: FlashTiming,
}

impl FlashDevice {
    /// New device over an erased module.
    pub fn new(geometry: FlashGeometry, timing: FlashTiming) -> Self {
        FlashDevice {
            ftl: Ftl::new(geometry),
            timing,
        }
    }

    /// Geometry of the module.
    pub fn geometry(&self) -> &FlashGeometry {
        self.ftl.geometry()
    }

    /// Page size in bytes (the I/O unit).
    pub fn page_size(&self) -> usize {
        self.geometry().page_size
    }

    /// Number of logical pages addressable by the storage engine.
    pub fn logical_pages(&self) -> u64 {
        self.geometry().logical_pages()
    }

    /// Number of physical pages, spares included.
    pub fn physical_pages(&self) -> u64 {
        self.geometry().physical_pages()
    }

    /// Timing model in force.
    pub fn timing(&self) -> &FlashTiming {
        &self.timing
    }

    /// Read bytes from within one logical page.
    pub fn read(&mut self, lpn: Lpn, offset: usize, buf: &mut [u8]) -> Result<()> {
        self.ftl.read(lpn, offset, buf)
    }

    /// Write a full logical page (short images are zero-padded).
    pub fn write(&mut self, lpn: Lpn, image: &[u8]) -> Result<()> {
        self.ftl.write(lpn, image)
    }

    /// Release a logical page (metadata only).
    pub fn trim(&mut self, lpn: Lpn) -> Result<()> {
        self.ftl.trim(lpn)
    }

    /// Cumulative I/O counters since construction, FTL traffic included.
    pub fn stats(&self) -> FlashStats {
        *self.ftl.stats()
    }

    /// Snapshot of the counters, for per-operator attribution: diff it
    /// with [`FlashDevice::stats_since`].
    pub fn snapshot(&self) -> FlashSnapshot {
        self.stats()
    }

    /// Counters accumulated since `snap`.
    pub fn stats_since(&self, snap: &FlashSnapshot) -> FlashStats {
        self.stats() - *snap
    }

    /// Simulated time implied by all I/O so far.
    pub fn elapsed(&self) -> SimDuration {
        self.stats().elapsed(self.timing(), self.page_size())
    }

    /// Simulated time implied by the I/O performed since `snap`.
    pub fn elapsed_since(&self, snap: &FlashSnapshot) -> SimDuration {
        self.stats_since(snap)
            .elapsed(self.timing(), self.page_size())
    }

    /// Erase-count spread across blocks (diagnostics).
    pub fn wear_spread(&self) -> u64 {
        self.ftl.nand().wear_spread()
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
}

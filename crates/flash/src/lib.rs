//! # ghostdb-flash
//!
//! An **I/O-accurate NAND Flash simulator** modelling the external Flash
//! module of the GhostDB secure USB key (SIGMOD 2007, §2.2 and §6.1).
//!
//! The paper's measurements come from an I/O-accurate (not cycle-accurate)
//! device simulator: what matters is the exact number of pages read and
//! written in Flash (including traffic generated by the Flash Translation
//! Layer) and the number of bytes moved between the Flash *data register* and
//! the token RAM. This crate reproduces that model:
//!
//! * [`geometry::FlashGeometry`] — page/block layout (2 KB pages by default);
//! * [`timing::FlashTiming`] — the Table 1 cost model: loading a page into
//!   the data register costs 25 µs, moving a byte between the data register
//!   and RAM costs 50 ns, programming a page costs 200 µs;
//! * [`nand::NandArray`] — the raw physical array (pages can only be
//!   programmed when free, erased a block at a time);
//! * [`ftl::Ftl`] — a Flash Translation Layer performing out-of-place
//!   updates, greedy garbage collection and erase-count wear levelling;
//! * [`device::FlashDevice`] — the logical-page API the storage engine
//!   uses: one module behind one FTL, with exact I/O accounting;
//! * [`segment::SegmentAllocator`] — contiguous logical-page segments for
//!   tables, indexes and temporaries;
//! * [`stats::FlashStats`] — the I/O counters and the derived simulated time.
//!
//! Reads of `k` bytes cost `25 µs + k × 50 ns`; programming a page costs
//! `200 µs + page_size × 50 ns` (program time plus the RAM→register
//! transfer), which reproduces the paper's observed write/read ratio of
//! roughly 2.5× (full-page read) to 12× (single-word read).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod device;
pub mod error;
pub mod ftl;
pub mod geometry;
pub mod nand;
pub mod segment;
pub mod stats;
pub mod timing;

pub use device::FlashDevice;
pub use error::FlashError;
pub use ftl::FreeBlockPool;
pub use geometry::FlashGeometry;
pub use segment::{Segment, SegmentAllocator};
pub use stats::{FlashSnapshot, FlashStats, SimDuration};
pub use timing::FlashTiming;

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, FlashError>;

/// A logical page number, the unit addressed by the storage engine.
pub type Lpn = u64;

/// A physical page number inside the NAND array.
pub type Ppn = u64;

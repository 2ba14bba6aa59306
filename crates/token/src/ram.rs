//! The secured RAM of the token, enforced as a hard-capped buffer pool.
//!
//! §2.2: "the RAM must be small — the smaller the silicon die, the most
//! difficult it is to snoop or tamper with processing". §3.4: "a central
//! requirement is to evaluate the QEP … with a very small RAM (a typical
//! value is 64KB, that is 32 buffers of 2KB, the I/O unit with the Flash
//! module)". Every GhostDB operator acquires its working buffers here; an
//! allocation beyond the cap fails, forcing the caller down the paper's
//! reduction/spill paths instead of silently using host memory.

use crate::error::TokenError;
use crate::Result;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Reject a buffer size that cannot hold one flash page.
pub(crate) fn check_page_fit(buf_size: usize, page_size: usize) -> Result<()> {
    if buf_size < page_size {
        return Err(TokenError::BufferTooSmall {
            buf_size,
            page_size,
        });
    }
    Ok(())
}

#[derive(Debug)]
struct ArenaState {
    buf_size: usize,
    capacity: usize,
    in_use: AtomicUsize,
    peak: AtomicUsize,
}

/// The bounded RAM pool. Cheap to clone (shared handle); all clones draw
/// from the same budget. One token's executor is still sequential (the
/// secure chip has one core), but the accounting is atomic so a whole token
/// — and therefore a whole `Database` — can move to another thread: the
/// parallel executor runs one independent token per worker.
#[derive(Debug, Clone)]
pub struct RamArena {
    state: Arc<ArenaState>,
}

impl RamArena {
    /// Arena with `capacity` buffers of `buf_size` bytes each.
    pub fn new(buf_size: usize, capacity: usize) -> Self {
        assert!(buf_size > 0 && capacity > 0, "degenerate arena");
        RamArena {
            state: Arc::new(ArenaState {
                buf_size,
                capacity,
                in_use: AtomicUsize::new(0),
                peak: AtomicUsize::new(0),
            }),
        }
    }

    /// The paper's default secure chip RAM: 32 × 2 KB = 64 KB.
    pub fn paper_default() -> Self {
        RamArena::new(2048, 32)
    }

    /// Arena sized for `total_bytes` of RAM in `buf_size` buffers.
    pub fn with_total_bytes(total_bytes: usize, buf_size: usize) -> Self {
        RamArena::new(buf_size, (total_bytes / buf_size).max(1))
    }

    /// Buffer size in bytes (the Flash I/O unit).
    pub fn buf_size(&self) -> usize {
        self.state.buf_size
    }

    /// Check that one buffer holds a whole flash page of `page_size` bytes:
    /// every page reader loads a page into a single buffer.
    pub fn check_page_fit(&self, page_size: usize) -> Result<()> {
        check_page_fit(self.state.buf_size, page_size)
    }

    /// Total buffers in the pool.
    pub fn capacity(&self) -> usize {
        self.state.capacity
    }

    /// Buffers currently available.
    pub fn available(&self) -> usize {
        self.state.capacity - self.state.in_use.load(Ordering::Relaxed)
    }

    /// Buffers currently held.
    pub fn in_use(&self) -> usize {
        self.state.in_use.load(Ordering::Relaxed)
    }

    /// High-water mark of concurrently held buffers since the arena was
    /// built or last [`reset_peak`](Self::reset_peak) (for assertions that
    /// a plan never exceeded the secure RAM).
    pub fn peak(&self) -> usize {
        self.state.peak.load(Ordering::Relaxed)
    }

    /// Restart the high-water mark from the buffers held right now. The
    /// executor calls this as each query begins, so a query's reported
    /// peak is its own and does not depend on the queries before it.
    pub fn reset_peak(&self) {
        self.state.peak.store(self.in_use(), Ordering::Relaxed);
    }

    /// Total RAM bytes represented by the pool.
    pub fn total_bytes(&self) -> usize {
        self.state.buf_size * self.state.capacity
    }

    fn reserve(&self, n: usize) -> Result<()> {
        let mut in_use = self.state.in_use.load(Ordering::Relaxed);
        loop {
            if in_use + n > self.state.capacity {
                // Debug aid: set GHOSTDB_RAM_PANIC=1 to get a backtrace at
                // the exact allocation that blew the secure-RAM budget.
                if std::env::var("GHOSTDB_RAM_PANIC").is_ok() {
                    panic!("RAM exhausted: requested {n}, in_use {in_use}");
                }
                return Err(TokenError::OutOfRam {
                    requested: n,
                    available: self.state.capacity - in_use,
                    capacity: self.state.capacity,
                });
            }
            match self.state.in_use.compare_exchange_weak(
                in_use,
                in_use + n,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(current) => in_use = current,
            }
        }
        self.state.peak.fetch_max(in_use + n, Ordering::Relaxed);
        Ok(())
    }

    fn release(&self, n: usize) {
        let before = self.state.in_use.fetch_sub(n, Ordering::Relaxed);
        debug_assert!(before >= n, "releasing more buffers than held");
    }

    /// Acquire one buffer.
    pub fn alloc(&self) -> Result<RamBuffer> {
        self.reserve(1)?;
        Ok(RamBuffer {
            arena: self.clone(),
            data: vec![0; self.state.buf_size],
        })
    }

    /// Acquire a contiguous region of `n` buffers (e.g. a Bloom filter bit
    /// vector spanning several buffers).
    pub fn alloc_region(&self, n: usize) -> Result<RamRegion> {
        self.reserve(n)?;
        Ok(RamRegion {
            arena: self.clone(),
            buffers: n,
            data: vec![0; self.state.buf_size * n],
        })
    }
}

/// A single RAM buffer, returned to the arena on drop.
#[derive(Debug)]
pub struct RamBuffer {
    arena: RamArena,
    data: Vec<u8>,
}

impl Deref for RamBuffer {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl DerefMut for RamBuffer {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl Drop for RamBuffer {
    fn drop(&mut self) {
        self.arena.release(1);
    }
}

/// A multi-buffer RAM region, returned to the arena on drop.
#[derive(Debug)]
pub struct RamRegion {
    arena: RamArena,
    buffers: usize,
    data: Vec<u8>,
}

impl RamRegion {
    /// Number of pool buffers this region holds.
    pub fn buffers(&self) -> usize {
        self.buffers
    }
}

impl Deref for RamRegion {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl DerefMut for RamRegion {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl Drop for RamRegion {
    fn drop(&mut self) {
        self.arena.release(self.buffers);
    }
}

impl AsRef<[u8]> for RamRegion {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl AsMut<[u8]> for RamRegion {
    fn as_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_64kb() {
        let arena = RamArena::paper_default();
        assert_eq!(arena.total_bytes(), 65536);
        assert_eq!(arena.capacity(), 32);
        assert_eq!(arena.buf_size(), 2048);
    }

    #[test]
    fn alloc_release_cycle() {
        let arena = RamArena::new(128, 4);
        let a = arena.alloc().unwrap();
        let b = arena.alloc().unwrap();
        assert_eq!(arena.available(), 2);
        drop(a);
        assert_eq!(arena.available(), 3);
        drop(b);
        assert_eq!(arena.available(), 4);
        assert_eq!(arena.peak(), 2);
    }

    #[test]
    fn reset_peak_restarts_from_the_buffers_held() {
        let arena = RamArena::new(128, 4);
        let a = arena.alloc().unwrap();
        let b = arena.alloc().unwrap();
        drop(b);
        assert_eq!(arena.peak(), 2);
        arena.reset_peak();
        assert_eq!(arena.peak(), 1);
        drop(a);
        arena.reset_peak();
        assert_eq!(arena.peak(), 0);
        let _c = arena.alloc().unwrap();
        assert_eq!(arena.peak(), 1);
    }

    #[test]
    fn exhaustion_is_an_error() {
        let arena = RamArena::new(128, 2);
        let _a = arena.alloc().unwrap();
        let _b = arena.alloc().unwrap();
        let err = arena.alloc().unwrap_err();
        assert!(matches!(
            err,
            TokenError::OutOfRam {
                requested: 1,
                available: 0,
                capacity: 2
            }
        ));
    }

    #[test]
    fn regions_count_against_the_same_budget() {
        let arena = RamArena::new(64, 8);
        let region = arena.alloc_region(6).unwrap();
        assert_eq!(region.len(), 64 * 6);
        assert_eq!(arena.available(), 2);
        assert!(arena.alloc_region(3).is_err());
        drop(region);
        assert!(arena.alloc_region(8).is_ok());
    }

    #[test]
    fn buffers_are_writable_and_sized() {
        let arena = RamArena::new(32, 1);
        let mut buf = arena.alloc().unwrap();
        assert_eq!(buf.len(), 32);
        buf[5] = 99;
        assert_eq!(buf[5], 99);
    }

    #[test]
    fn clones_share_budget() {
        let arena = RamArena::new(16, 2);
        let clone = arena.clone();
        let _a = arena.alloc().unwrap();
        let _b = clone.alloc().unwrap();
        assert!(arena.alloc().is_err());
        assert!(clone.alloc().is_err());
    }
}

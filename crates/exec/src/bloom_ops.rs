//! `BuildBF` / `ProbeBF` operators (paper §3.3–§3.4).

use crate::ctx::ExecCtx;
use crate::report::OpKind;
use crate::source::{IdSource, SourceReader, UnionStream};
use crate::Result;
use ghostdb_bloom::{calibrate, BloomCalibration, BloomFilter};
use ghostdb_storage::Id;
use ghostdb_token::RamRegion;

/// A Bloom filter held in secure-RAM buffers.
pub struct BloomHandle {
    filter: BloomFilter<RamRegion>,
    /// Calibration that produced it.
    pub calibration: BloomCalibration,
}

impl BloomHandle {
    /// Membership probe.
    pub fn contains(&self, id: Id) -> bool {
        self.filter.contains(id as u64)
    }

    /// Elements inserted.
    pub fn inserted(&self) -> u64 {
        self.filter.inserted()
    }
}

/// Calibrate and build a Bloom filter over a set of ID sources within
/// `budget_bytes` of RAM. Returns `None` when even a degraded filter is
/// hopeless (< 1 bit per element), per §3.4.
///
/// `op` attributes the build I/O: `Bloom` during select-join processing,
/// `ProjBloom` during projection.
pub fn build_bloom(
    ctx: &mut ExecCtx<'_>,
    op: OpKind,
    n: u64,
    sources: &[IdSource],
    budget_bytes: usize,
) -> Result<Option<BloomHandle>> {
    let Some(cal) = calibrate(n, budget_bytes) else {
        return Ok(None);
    };
    let buf_size = ctx.ram().buf_size();
    let buffers = cal.bytes.div_ceil(buf_size).max(1);
    let region = ctx.ram().alloc_region(buffers)?;
    let mut filter = BloomFilter::new(region, cal.m_bits, cal.k);
    ctx.track(op, |ctx| {
        let ram = ctx.ram();
        let readers = sources
            .iter()
            .map(|s| SourceReader::open(s, &ram, ctx.page_size()))
            .collect::<Result<Vec<_>>>()?;
        let mut union = UnionStream::new(readers);
        ctx.lane.with_flash(|dev| {
            while let Some(id) = union.next(dev)? {
                filter.insert(id as u64);
            }
            Ok(())
        })
    })?;
    Ok(Some(BloomHandle {
        filter,
        calibration: cal,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::testkit;

    #[test]
    fn bloom_over_sources_has_no_false_negatives() {
        let mut db: Database = testkit::tiny_db();
        let mut ctx = ExecCtx::new(&mut db);
        let ids: Vec<Id> = (0..500).map(|i| i * 2).collect();
        let sources = vec![IdSource::Host(std::sync::Arc::new(ids.clone()))];
        let bf = build_bloom(&mut ctx, OpKind::Bloom, 500, &sources, 4096)
            .unwrap()
            .unwrap();
        for id in ids {
            assert!(bf.contains(id));
        }
        assert_eq!(bf.inserted(), 500);
    }

    #[test]
    fn hopeless_budget_yields_none() {
        let mut db: Database = testkit::tiny_db();
        let mut ctx = ExecCtx::new(&mut db);
        let sources = vec![IdSource::Range {
            start: 0,
            end: 1_000_000,
        }];
        assert!(
            build_bloom(&mut ctx, OpKind::Bloom, 1_000_000, &sources, 1024)
                .unwrap()
                .is_none()
        );
    }

    #[test]
    fn bloom_consumes_arena_buffers_and_releases_on_drop() {
        let mut db: Database = testkit::tiny_db();
        let mut ctx = ExecCtx::new(&mut db);
        let before = ctx.ram().available();
        let sources = vec![IdSource::Range {
            start: 0,
            end: 8000,
        }];
        let bf = build_bloom(&mut ctx, OpKind::Bloom, 8000, &sources, 16384)
            .unwrap()
            .unwrap();
        // 8000 elements × 8 bits = 8000 bytes = 4 × 2KB buffers.
        assert_eq!(ctx.ram().available(), before - 4);
        drop(bf);
        assert_eq!(ctx.ram().available(), before);
    }
}

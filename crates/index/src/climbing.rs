//! Climbing indexes (paper §3.2, Figure 4).
//!
//! A climbing index on attribute `Ti.a` maps each attribute value to **one
//! sorted sublist of IDs per target level**: the indexed table itself and
//! each ancestor up to the root. Selecting on `Ti.a` and "climbing" straight
//! to an ancestor `A` replaces a cascade of index lookups and ID-list unions
//! — the multi-pass, write-intensive pattern §3.2 rules out on a 64 KB-RAM
//! token.
//!
//! On flash the index is a [`BTree`] over order-preserving value keys whose
//! leaf payloads hold, per level, an `(offset, count)` descriptor into that
//! level's packed **ID area** (one contiguous segment per level, sublists
//! back to back in key order — so a range scan touches each area
//! sequentially). The offset is an id slot: a level's ids take its table's
//! [`id_width`]`(|T|)` bytes, as every [`IdList`] does.

use ghostdb_flash::{FlashDevice, Segment};
use ghostdb_storage::btree::{BTree, BTreeCursor};
#[cfg(doc)]
use ghostdb_storage::row::id_width;
use ghostdb_storage::{IdList, Result, StorageError, TableId};
use ghostdb_token::RamArena;

/// Which levels (targets) a climbing index carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LevelSpec {
    /// The indexed table and every ancestor up to the root (FullIndex).
    FullClimb,
    /// The indexed table and the root only (BasicIndex).
    SelfAndRoot,
    /// The indexed table only (StarIndex / JoinIndex selection indexes).
    SelfOnly,
    /// Ancestors only — used for primary-key indexes, where the self level
    /// is the identity (Figure 4's "Climbing Index on T1.id").
    AncestorsOnly,
}

/// Per-level descriptor width in a leaf payload: offset u64 + count u32.
pub const LEVEL_DESC_BYTES: usize = 12;

/// A climbing index on flash.
#[derive(Debug, Clone)]
pub struct ClimbingIndex {
    /// Indexed table.
    pub table: TableId,
    /// Indexed column name (`"id"` for primary-key indexes).
    pub column: String,
    /// Target tables, innermost first (e.g. `[T12, T1, T0]`).
    pub levels: Vec<TableId>,
    /// True when value→key encoding is injective for the indexed data, so
    /// equality probes are exact; otherwise operators must re-check the
    /// predicate on exact values at projection time (same machinery that
    /// discards Bloom false positives).
    pub exact: bool,
    /// Rows in the indexed table (selectivity estimation).
    pub rows: u64,
    tree: BTree,
    /// Packed ID area per level and the width of its ids (parallel to
    /// `levels`).
    areas: Vec<(Segment, usize)>,
}

impl ClimbingIndex {
    /// Assemble from built parts (used by `IndexBuilder`).
    pub fn new(
        table: TableId,
        column: String,
        levels: Vec<TableId>,
        exact: bool,
        rows: u64,
        tree: BTree,
        areas: Vec<(Segment, usize)>,
    ) -> Self {
        assert_eq!(levels.len(), areas.len());
        assert_eq!(tree.payload_size(), levels.len() * LEVEL_DESC_BYTES);
        ClimbingIndex {
            table,
            column,
            levels,
            exact,
            rows,
            tree,
            areas,
        }
    }

    /// Level index of target table `t`, if this index climbs to it.
    pub fn level_of(&self, t: TableId) -> Option<usize> {
        self.levels.iter().position(|l| *l == t)
    }

    /// Distinct keys in the index.
    pub fn distinct(&self) -> u64 {
        self.tree.len()
    }

    /// Bytes occupied on flash: B+-tree plus all ID areas.
    pub fn bytes(&self, page_size: usize) -> u64 {
        self.tree.bytes()
            + self
                .areas
                .iter()
                .map(|(a, _)| a.pages() * page_size as u64)
                .sum::<u64>()
    }

    /// Open a probe (pins one RAM buffer per B+-tree level, §3.4).
    pub fn probe(&self, ram: &RamArena) -> Result<CiProbe<'_>> {
        Ok(CiProbe {
            index: self,
            cursor: self.tree.cursor(ram)?,
            payload: vec![0u8; self.tree.payload_size()],
        })
    }

    fn decode_level(&self, payload: &[u8], level: usize) -> IdList {
        let at = level * LEVEL_DESC_BYTES;
        let offset = u64::from_le_bytes(std::array::from_fn(|i| payload[at + i]));
        let count = u32::from_le_bytes(std::array::from_fn(|i| payload[at + 8 + i]));
        let (segment, width) = self.areas[level];
        IdList {
            segment,
            start: offset,
            count: count as u64,
            width,
        }
    }
}

/// A probe handle over a climbing index.
#[derive(Debug)]
pub struct CiProbe<'a> {
    index: &'a ClimbingIndex,
    cursor: BTreeCursor,
    payload: Vec<u8>,
}

impl CiProbe<'_> {
    fn check_level(&self, level: usize) -> Result<()> {
        if level >= self.index.levels.len() {
            return Err(StorageError::Corrupt(format!(
                "climbing index {}.{} has no level {level}",
                self.index.table, self.index.column
            )));
        }
        Ok(())
    }

    /// Batched equality probes over an **ascending** key run: one sublist
    /// per present key, in input order. The ascending order lets the
    /// cursor resolve runs of keys inside the currently-buffered leaf with
    /// an in-place binary search — no per-key root-to-leaf descent — which
    /// is the hot path of Pre-Filter probe lists (§3.3).
    pub fn lookup_eq_run(
        &mut self,
        dev: &mut FlashDevice,
        keys: &[u64],
        level: usize,
    ) -> Result<Vec<IdList>> {
        self.check_level(level)?;
        debug_assert!(
            keys.windows(2).all(|w| w[0] <= w[1]),
            "lookup_eq_run requires ascending keys"
        );
        let mut out = Vec::with_capacity(keys.len());
        for &key in keys {
            if self
                .cursor
                .lookup_ascending_into(dev, key, &mut self.payload)?
            {
                out.push(self.index.decode_level(&self.payload, level));
            }
        }
        Ok(out)
    }

    /// Reference implementation of one level of
    /// [`lookup_range_multi`](Self::lookup_range_multi): a full
    /// root-to-leaf [`BTreeCursor::seek`] followed by per-entry
    /// [`BTreeCursor::next_into`] payload copies — the pre-batching read
    /// path, kept verbatim so the single-traversal scan is always judged
    /// against what it replaced: this module's tests and the exec crate's
    /// differential suite (`ci_multi_equivalence`) use it as their
    /// reference. Same sublists, same pages read; only the per-entry
    /// copies and the repeated descents differ.
    pub fn naive_lookup_range(
        &mut self,
        dev: &mut FlashDevice,
        lo: u64,
        hi: u64,
        level: usize,
    ) -> Result<Vec<IdList>> {
        self.check_level(level)?;
        let mut out = Vec::new();
        self.cursor.seek(dev, lo)?;
        while let Some(k) = self.cursor.next_into(dev, &mut self.payload)? {
            if k > hi {
                break;
            }
            out.push(self.index.decode_level(&self.payload, level));
        }
        Ok(out)
    }

    /// Range probe over keys in `[lo, hi]` (inclusive), decoding **several
    /// levels from one traversal**: `out[i]` holds one sorted sublist per
    /// matching entry for `levels[i]` — the `{Li}` collections the paper's
    /// plans feed to `Merge`; an inverted range (`lo > hi`) yields none.
    /// Every qualifying leaf entry is visited once and all requested levels are
    /// decoded from its payload (each leaf payload carries a descriptor per
    /// level), so the B+-tree pages are read once instead of once per
    /// level. This is the paper's remark that the "redundant lookup" of
    /// Cross-Post plans "can be easily avoided in practice": the pages
    /// touched equal those of a *single* per-level scan, independent of
    /// `levels.len()` (the differential suite pins both properties down).
    pub fn lookup_range_multi(
        &mut self,
        dev: &mut FlashDevice,
        lo: u64,
        hi: u64,
        levels: &[usize],
    ) -> Result<Vec<Vec<IdList>>> {
        for &level in levels {
            self.check_level(level)?;
        }
        let index = self.index;
        // NB: not `vec![Vec::with_capacity(..); n]` — Vec::clone does not
        // preserve capacity, which would silently drop the hint for all
        // but one slot.
        let hint = self.range_capacity_hint(lo, hi);
        let mut out: Vec<Vec<IdList>> = (0..levels.len())
            .map(|_| Vec::with_capacity(hint))
            .collect();
        self.cursor.scan_range(dev, lo, hi, |_key, payload| {
            for (slot, &level) in out.iter_mut().zip(levels) {
                slot.push(index.decode_level(payload, level));
            }
            Ok(())
        })?;
        Ok(out)
    }

    /// Pre-size hint for range-scan output vectors: matching entries are
    /// bounded by both the distinct-key count and the key-range width (so
    /// equality and narrow probes stay allocation-free), capped so wide
    /// scans over huge indexes don't over-allocate. Shaves the
    /// doubling-realloc churn off wide scans (the multi-level microbench
    /// pushes ~12k descriptors per level per pass).
    fn range_capacity_hint(&self, lo: u64, hi: u64) -> usize {
        let width = hi.saturating_sub(lo).saturating_add(1);
        (self.index.distinct().min(width) as usize).min(16 * 1024)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{ClimbingSpec, FkData, IndexBuilder};
    use ghostdb_flash::{FlashDevice, FlashGeometry, FlashTiming, SegmentAllocator};
    use ghostdb_storage::schema::paper_synthetic_schema;
    use ghostdb_storage::IdListReader;

    /// One equality probe: the sublist of `level` for `key`, if present.
    fn eq(
        probe: &mut CiProbe<'_>,
        dev: &mut FlashDevice,
        key: u64,
        level: usize,
    ) -> Result<Option<IdList>> {
        Ok(probe.lookup_eq_run(dev, &[key], level)?.pop())
    }

    /// One level of a range probe.
    fn range(
        probe: &mut CiProbe<'_>,
        dev: &mut FlashDevice,
        lo: u64,
        hi: u64,
        level: usize,
    ) -> Result<Vec<IdList>> {
        Ok(probe
            .lookup_range_multi(dev, lo, hi, &[level])?
            .pop()
            .unwrap_or_default())
    }

    fn setup() -> (FlashDevice, SegmentAllocator, RamArena) {
        let dev = FlashDevice::new(
            FlashGeometry::for_capacity(32 * 1024 * 1024),
            FlashTiming::default(),
        );
        let alloc = SegmentAllocator::new(dev.logical_pages());
        let ram = RamArena::paper_default();
        (dev, alloc, ram)
    }

    /// Tiny deterministic instance of the paper schema:
    /// T0 rows reference T1 via fk1 = id/2 and T2 via fk2 = id%t2.
    /// T1 rows reference T11 via id%t11 and T12 via id%t12.
    fn tiny_builder(schema: &ghostdb_storage::SchemaTree) -> IndexBuilder {
        let t0 = schema.table_id("T0").unwrap();
        let t1 = schema.table_id("T1").unwrap();
        let t2 = schema.table_id("T2").unwrap();
        let t11 = schema.table_id("T11").unwrap();
        let t12 = schema.table_id("T12").unwrap();
        let rows = {
            let mut r = vec![0u64; schema.len()];
            r[t0] = 40;
            r[t1] = 20;
            r[t2] = 10;
            r[t11] = 5;
            r[t12] = 4;
            r
        };
        let mut fks = FkData::default();
        fks.insert(t0, t1, (0..40).map(|i| (i / 2) as u32).collect());
        fks.insert(t0, t2, (0..40).map(|i| (i % 10) as u32).collect());
        fks.insert(t1, t11, (0..20).map(|i| (i % 5) as u32).collect());
        fks.insert(t1, t12, (0..20).map(|i| (i % 4) as u32).collect());
        IndexBuilder::new(schema.clone(), rows, fks)
    }

    #[test]
    fn climbing_index_climbs_to_every_level() {
        let schema = paper_synthetic_schema(1, 1);
        let (mut dev, mut alloc, ram) = setup();
        let b = tiny_builder(&schema);
        let t12 = schema.table_id("T12").unwrap();
        // Attribute h on T12 rows: key = row id % 2 (two distinct values).
        let keys: Vec<u64> = (0..4).map(|r| (r % 2) as u64).collect();
        let ci = b
            .build_climbing(
                &mut dev,
                &mut alloc,
                ClimbingSpec {
                    table: t12,
                    column: "h1",
                    keys: &keys,
                    levels: LevelSpec::FullClimb,
                    exact: true,
                },
            )
            .unwrap();
        assert_eq!(ci.levels.len(), 3); // T12, T1, T0
        assert_eq!(ci.distinct(), 2);
        let mut probe = ci.probe(&ram).unwrap();
        // key 0 selects T12 ids {0, 2}.
        let self_list = eq(&mut probe, &mut dev, 0, 0).unwrap().unwrap();
        let ids = IdListReader::open(self_list, &ram, dev.page_size())
            .unwrap()
            .drain(&mut dev)
            .unwrap();
        assert_eq!(ids, vec![0, 2]);
        // Climb to T1: T1 rows with fk12 ∈ {0,2} = ids where id%4 ∈ {0,2}.
        let t1_list = eq(&mut probe, &mut dev, 0, 1).unwrap().unwrap();
        let ids = IdListReader::open(t1_list, &ram, dev.page_size())
            .unwrap()
            .drain(&mut dev)
            .unwrap();
        let expect: Vec<u32> = (0..20).filter(|i| i % 4 == 0 || i % 4 == 2).collect();
        assert_eq!(ids, expect);
        // Climb to T0: T0 rows whose T1 parent (id/2) is in the T1 list.
        let t0_list = eq(&mut probe, &mut dev, 0, 2).unwrap().unwrap();
        let ids = IdListReader::open(t0_list, &ram, dev.page_size())
            .unwrap()
            .drain(&mut dev)
            .unwrap();
        let expect: Vec<u32> = (0..40u32)
            .filter(|i| (i / 2) % 4 == 0 || (i / 2) % 4 == 2)
            .collect();
        assert_eq!(ids, expect);
    }

    #[test]
    fn range_probe_returns_one_sublist_per_entry() {
        let schema = paper_synthetic_schema(1, 1);
        let (mut dev, mut alloc, ram) = setup();
        let b = tiny_builder(&schema);
        let t1 = schema.table_id("T1").unwrap();
        let keys: Vec<u64> = (0..20).map(|r| (r % 10) as u64).collect();
        let ci = b
            .build_climbing(
                &mut dev,
                &mut alloc,
                ClimbingSpec {
                    table: t1,
                    column: "h1",
                    keys: &keys,
                    levels: LevelSpec::FullClimb,
                    exact: true,
                },
            )
            .unwrap();
        let mut probe = ci.probe(&ram).unwrap();
        let lists = range(&mut probe, &mut dev, 3, 6, 0).unwrap();
        assert_eq!(lists.len(), 4, "keys 3,4,5,6");
        let all: Vec<Vec<u32>> = lists
            .into_iter()
            .map(|l| {
                IdListReader::open(l, &ram, dev.page_size())
                    .unwrap()
                    .drain(&mut dev)
                    .unwrap()
            })
            .collect();
        assert_eq!(all[0], vec![3, 13]);
        assert_eq!(all[3], vec![6, 16]);
    }

    #[test]
    fn batched_run_matches_scalar_probes() {
        let schema = paper_synthetic_schema(1, 1);
        let (mut dev, mut alloc, ram) = setup();
        let b = tiny_builder(&schema);
        let t1 = schema.table_id("T1").unwrap();
        let keys: Vec<u64> = (0..20).map(|r| (r % 10) as u64).collect();
        let ci = b
            .build_climbing(
                &mut dev,
                &mut alloc,
                ClimbingSpec {
                    table: t1,
                    column: "h1",
                    keys: &keys,
                    levels: LevelSpec::FullClimb,
                    exact: true,
                },
            )
            .unwrap();
        // Ascending probes with hits, misses and a duplicate.
        let probes: Vec<u64> = vec![0, 2, 2, 3, 7, 9, 11, 40];
        for level in 0..ci.levels.len() {
            let mut scalar = ci.probe(&ram).unwrap();
            let snap = dev.snapshot();
            let mut expect = Vec::new();
            for &k in &probes {
                if let Some(l) = eq(&mut scalar, &mut dev, k, level).unwrap() {
                    expect.push(l);
                }
            }
            let scalar_io = dev.stats_since(&snap);
            drop(scalar);
            let mut batched = ci.probe(&ram).unwrap();
            let snap = dev.snapshot();
            let got = batched.lookup_eq_run(&mut dev, &probes, level).unwrap();
            let batched_io = dev.stats_since(&snap);
            assert_eq!(got, expect, "level {level}");
            assert!(
                batched_io.pages_read <= scalar_io.pages_read,
                "batched run must not read more pages"
            );
        }
    }

    #[test]
    fn multi_level_range_matches_per_level_scans() {
        let schema = paper_synthetic_schema(1, 1);
        let (mut dev, mut alloc, ram) = setup();
        let b = tiny_builder(&schema);
        let t12 = schema.table_id("T12").unwrap();
        let keys: Vec<u64> = (0..4).map(|r| r as u64).collect();
        let ci = b
            .build_climbing(
                &mut dev,
                &mut alloc,
                ClimbingSpec {
                    table: t12,
                    column: "h1",
                    keys: &keys,
                    levels: LevelSpec::FullClimb,
                    exact: true,
                },
            )
            .unwrap();
        assert_eq!(ci.levels.len(), 3);
        let levels = [0usize, 1, 2];
        for (lo, hi) in [(0u64, 3u64), (1, 2), (2, 2), (3, 9), (5, 9), (2, 1)] {
            let mut multi_probe = ci.probe(&ram).unwrap();
            let snap = dev.snapshot();
            let multi = multi_probe
                .lookup_range_multi(&mut dev, lo, hi, &levels)
                .unwrap();
            let multi_io = dev.stats_since(&snap);
            drop(multi_probe);
            let mut single_io_max = 0u64;
            for (i, &level) in levels.iter().enumerate() {
                let mut probe = ci.probe(&ram).unwrap();
                let snap = dev.snapshot();
                let single = range(&mut probe, &mut dev, lo, hi, level).unwrap();
                single_io_max = single_io_max.max(dev.stats_since(&snap).pages_read);
                assert_eq!(multi[i], single, "range [{lo},{hi}] level {level}");
            }
            // The whole point: decoding three levels costs the pages of one
            // single-level scan, not three.
            assert_eq!(
                multi_io.pages_read, single_io_max,
                "range [{lo},{hi}]: multi traversal must read exactly one scan's pages"
            );
        }
    }

    #[test]
    fn naive_reference_matches_optimised_range_scan() {
        let schema = paper_synthetic_schema(1, 1);
        let (mut dev, mut alloc, ram) = setup();
        let b = tiny_builder(&schema);
        let t1 = schema.table_id("T1").unwrap();
        let keys: Vec<u64> = (0..20).map(|r| (r % 10) as u64).collect();
        let ci = b
            .build_climbing(
                &mut dev,
                &mut alloc,
                ClimbingSpec {
                    table: t1,
                    column: "h1",
                    keys: &keys,
                    levels: LevelSpec::FullClimb,
                    exact: true,
                },
            )
            .unwrap();
        for (lo, hi) in [(0u64, 9u64), (3, 6), (4, 4), (8, 2), (11, 40)] {
            for level in 0..ci.levels.len() {
                let mut fast = ci.probe(&ram).unwrap();
                let snap = dev.snapshot();
                let got = range(&mut fast, &mut dev, lo, hi, level).unwrap();
                let fast_io = dev.stats_since(&snap);
                drop(fast);
                let mut naive = ci.probe(&ram).unwrap();
                let snap = dev.snapshot();
                let want = naive.naive_lookup_range(&mut dev, lo, hi, level).unwrap();
                let naive_io = dev.stats_since(&snap);
                assert_eq!(got, want, "[{lo},{hi}] level {level}");
                if lo <= hi {
                    assert_eq!(fast_io, naive_io, "[{lo},{hi}] level {level}: same pages");
                } else {
                    // Inverted bounds (a malformed Between): the scan
                    // rejects before touching flash, the naive path still
                    // pays its descent.
                    assert_eq!(fast_io.pages_read, 0, "[{lo},{hi}]: early exit");
                    assert!(fast_io.pages_read <= naive_io.pages_read);
                }
            }
        }
    }

    #[test]
    fn empty_and_inverted_ranges_yield_no_sublists() {
        let schema = paper_synthetic_schema(1, 1);
        let (mut dev, mut alloc, ram) = setup();
        let b = tiny_builder(&schema);
        let t2 = schema.table_id("T2").unwrap();
        // Keys 0, 10, 20, … 90: gaps to aim empty ranges at.
        let keys: Vec<u64> = (0..10).map(|r| r as u64 * 10).collect();
        let ci = b
            .build_climbing(
                &mut dev,
                &mut alloc,
                ClimbingSpec {
                    table: t2,
                    column: "h1",
                    keys: &keys,
                    levels: LevelSpec::FullClimb,
                    exact: true,
                },
            )
            .unwrap();
        let mut probe = ci.probe(&ram).unwrap();
        // Empty range between two present keys.
        assert!(range(&mut probe, &mut dev, 11, 19, 0).unwrap().is_empty());
        // Empty range past the last key.
        assert!(range(&mut probe, &mut dev, 91, 999, 0).unwrap().is_empty());
        // Inverted bounds are rejected cleanly: no error, no sublists.
        assert!(range(&mut probe, &mut dev, 30, 10, 0).unwrap().is_empty());
        let multi = probe.lookup_range_multi(&mut dev, 30, 10, &[0, 1]).unwrap();
        assert_eq!(multi.len(), 2);
        assert!(multi.iter().all(Vec::is_empty));
    }

    #[test]
    fn max_level_probe_works_and_overflow_errors() {
        let schema = paper_synthetic_schema(1, 1);
        let (mut dev, mut alloc, ram) = setup();
        let b = tiny_builder(&schema);
        let t12 = schema.table_id("T12").unwrap();
        let keys: Vec<u64> = (0..4).map(|r| r as u64).collect();
        let ci = b
            .build_climbing(
                &mut dev,
                &mut alloc,
                ClimbingSpec {
                    table: t12,
                    column: "h1",
                    keys: &keys,
                    levels: LevelSpec::FullClimb,
                    exact: true,
                },
            )
            .unwrap();
        let max = ci.levels.len() - 1; // the root level
        let mut probe = ci.probe(&ram).unwrap();
        let lists = range(&mut probe, &mut dev, 0, 3, max).unwrap();
        assert_eq!(lists.len(), 4);
        // Every T0 row joins some T12 row, so the root sublists cover T0.
        assert_eq!(lists.iter().map(|l| l.count).sum::<u64>(), 40);
        // One past the top level errors on both paths, before any I/O.
        assert!(range(&mut probe, &mut dev, 0, 3, max + 1).is_err());
        assert!(probe
            .lookup_range_multi(&mut dev, 0, 3, &[0, max + 1])
            .is_err());
    }

    #[test]
    fn equal_key_run_across_leaf_boundary() {
        let schema = paper_synthetic_schema(1, 1);
        let (mut dev, mut alloc, ram) = setup();
        let t0 = schema.table_id("T0").unwrap();
        let t1 = schema.table_id("T1").unwrap();
        let t2 = schema.table_id("T2").unwrap();
        let t11 = schema.table_id("T11").unwrap();
        let t12 = schema.table_id("T12").unwrap();
        // Enough distinct keys that the B+-tree spans several leaves: with
        // FullClimb from T1 (2 levels → 24-byte payloads) a 2 KiB page
        // holds (2048 - 8) / 32 = 63 leaf entries.
        let n1 = 200u64;
        let mut rows = vec![0u64; schema.len()];
        rows[t0] = 400;
        rows[t1] = n1;
        rows[t2] = 10;
        rows[t11] = 5;
        rows[t12] = 4;
        let mut fks = FkData::default();
        fks.insert(t0, t1, (0..400).map(|i| (i / 2) as u32).collect());
        fks.insert(t0, t2, (0..400).map(|i| (i % 10) as u32).collect());
        fks.insert(t1, t11, (0..n1).map(|i| (i % 5) as u32).collect());
        fks.insert(t1, t12, (0..n1).map(|i| (i % 4) as u32).collect());
        let b = IndexBuilder::new(schema.clone(), rows, fks);
        let keys: Vec<u64> = (0..n1).collect();
        let ci = b
            .build_climbing(
                &mut dev,
                &mut alloc,
                ClimbingSpec {
                    table: t1,
                    column: "h1",
                    keys: &keys,
                    levels: LevelSpec::SelfAndRoot,
                    exact: true,
                },
            )
            .unwrap();
        let leaf_cap = ghostdb_storage::btree::BTree::leaf_capacity(
            dev.page_size(),
            ci.levels.len() * LEVEL_DESC_BYTES,
        ) as u64;
        assert!(n1 > leaf_cap, "index must span more than one leaf");
        let boundary = leaf_cap - 1; // last key of the first leaf
                                     // An ascending probe run holding *equal* keys at and across the
                                     // boundary: the repeated keys re-resolve inside the buffered leaf,
                                     // then the run steps into the next leaf.
        let probes: Vec<u64> = vec![
            boundary,
            boundary,
            boundary, // equal run ending leaf 0
            boundary + 1,
            boundary + 1, // equal run opening leaf 1
            boundary + 2,
        ];
        for level in 0..ci.levels.len() {
            let mut scalar = ci.probe(&ram).unwrap();
            let mut expect = Vec::new();
            for &k in &probes {
                expect.push(eq(&mut scalar, &mut dev, k, level).unwrap().unwrap());
            }
            drop(scalar);
            let mut batched = ci.probe(&ram).unwrap();
            let got = batched.lookup_eq_run(&mut dev, &probes, level).unwrap();
            assert_eq!(got, expect, "level {level}");
        }
    }

    #[test]
    fn missing_key_and_bad_level() {
        let schema = paper_synthetic_schema(1, 1);
        let (mut dev, mut alloc, ram) = setup();
        let b = tiny_builder(&schema);
        let t2 = schema.table_id("T2").unwrap();
        let keys: Vec<u64> = (0..10).map(|r| r as u64 * 10).collect();
        let ci = b
            .build_climbing(
                &mut dev,
                &mut alloc,
                ClimbingSpec {
                    table: t2,
                    column: "h1",
                    keys: &keys,
                    levels: LevelSpec::FullClimb,
                    exact: true,
                },
            )
            .unwrap();
        assert_eq!(ci.levels.len(), 2); // T2, T0
        let mut probe = ci.probe(&ram).unwrap();
        assert!(eq(&mut probe, &mut dev, 5, 0).unwrap().is_none());
        assert!(eq(&mut probe, &mut dev, 0, 5).is_err());
    }

    #[test]
    fn pk_index_has_ancestor_levels_only() {
        let schema = paper_synthetic_schema(1, 1);
        let (mut dev, mut alloc, ram) = setup();
        let b = tiny_builder(&schema);
        let t1 = schema.table_id("T1").unwrap();
        let keys: Vec<u64> = (0..20).map(|r| r as u64).collect(); // id index
        let ci = b
            .build_climbing(
                &mut dev,
                &mut alloc,
                ClimbingSpec {
                    table: t1,
                    column: "id",
                    keys: &keys,
                    levels: LevelSpec::AncestorsOnly,
                    exact: true,
                },
            )
            .unwrap();
        assert_eq!(ci.levels.len(), 1); // T0 only
        let mut probe = ci.probe(&ram).unwrap();
        // T1 id 7 → T0 ids {14, 15} (fk1 = id/2).
        let list = eq(&mut probe, &mut dev, 7, 0).unwrap().unwrap();
        let ids = IdListReader::open(list, &ram, dev.page_size())
            .unwrap()
            .drain(&mut dev)
            .unwrap();
        assert_eq!(ids, vec![14, 15]);
    }

    #[test]
    fn self_and_root_spec() {
        let schema = paper_synthetic_schema(1, 1);
        let (mut dev, mut alloc, _ram) = setup();
        let b = tiny_builder(&schema);
        let t12 = schema.table_id("T12").unwrap();
        let keys: Vec<u64> = (0..4).map(|r| r as u64).collect();
        let ci = b
            .build_climbing(
                &mut dev,
                &mut alloc,
                ClimbingSpec {
                    table: t12,
                    column: "h1",
                    keys: &keys,
                    levels: LevelSpec::SelfAndRoot,
                    exact: true,
                },
            )
            .unwrap();
        let t0 = schema.root();
        assert_eq!(ci.levels, vec![t12, t0]);
        assert!(ci.level_of(schema.table_id("T1").unwrap()).is_none());
    }
}

//! Climbing indexes on attribute values (paper §3.2, Figure 4).
//!
//! A climbing index on attribute `Ti.a` maps each attribute value to **one
//! sorted sublist of IDs per target level**: the indexed table itself and
//! each ancestor up to the root. Selecting on `Ti.a` and "climbing" straight
//! to an ancestor `A` replaces a cascade of index lookups and ID-list unions
//! — the multi-pass, write-intensive pattern §3.2 rules out on a 64 KB-RAM
//! token.
//!
//! On flash the index is a [`BTree`] over order-preserving value keys beside
//! one packed **ID area** per level (one contiguous segment per level,
//! sublists back to back in key order — so a range scan touches each area
//! sequentially). The tree's leaves are column-major: their keys, then one
//! **offset column** per level, whose cells are id slots of that level's
//! area. Entry `i`'s sublist is slots `[off[i], off[i + 1])`, so one offset
//! per entry and level is enough, and each leaf carries the first offset of
//! the next one. A level's ids take its table's [`id_width`]`(|T|)` bytes,
//! as every [`IdList`] does; its offsets range over `0..=|T|`, so each takes
//! [`id_width`]`(|T| + 1)` bytes ([`DescLayout`]): the leaf layout is a
//! function of public row counts and the number of distinct keys only.
//!
//! Primary-key indexes, whose keys are the ids themselves, need no tree:
//! they are offset arrays beside the same ID areas ([`crate::pk`]).

use ghostdb_flash::{FlashDevice, Segment};
use ghostdb_storage::btree::{BTree, BTreeCursor};
use ghostdb_storage::row::id_width;
use ghostdb_storage::{Id, IdList, Predicate, Result, SchemaTree, StorageError, TableId, Value};
use ghostdb_token::RamArena;

/// Which levels (targets) an attribute's climbing index carries. Every
/// spec starts at the indexed table; primary-key indexes, whose self level
/// would be the identity, are [`crate::pk::PkIndex`]es instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LevelSpec {
    /// The indexed table and every ancestor up to the root (FullIndex).
    FullClimb,
    /// The indexed table and the root only (BasicIndex).
    SelfAndRoot,
    /// The indexed table only (StarIndex / JoinIndex selection indexes).
    SelfOnly,
}

impl LevelSpec {
    /// The target tables of an index on `t`, innermost first.
    pub fn levels(self, schema: &SchemaTree, t: TableId) -> Vec<TableId> {
        let mut levels = vec![t];
        match self {
            LevelSpec::FullClimb => levels.extend(schema.ancestors(t)),
            LevelSpec::SelfAndRoot if t != schema.root() => levels.push(schema.root()),
            LevelSpec::SelfAndRoot | LevelSpec::SelfOnly => {}
        }
        levels
    }
}

/// The offset cells of a climbing index's leaves: per level, one id cell
/// of [`id_width`]`(|T| + 1)` bytes for a level table of `|T|` rows, since
/// offsets range over `0..=|T|` (a trailing empty sublist starts at `|T|`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DescLayout(Vec<usize>);

impl DescLayout {
    /// The cell layout for levels of `level_rows` rows each.
    pub fn new(level_rows: &[u64]) -> Self {
        DescLayout(level_rows.iter().map(|&r| id_width(r + 1)).collect())
    }

    /// Offset-cell bytes per leaf entry, over all levels.
    pub fn size(&self) -> usize {
        self.0.iter().sum()
    }

    /// The cell width of each level: the tree's offset columns.
    pub fn widths(&self) -> &[usize] {
        &self.0
    }
}

/// A predicate's probe of a climbing index ([`ClimbingIndex::key_range`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyRange {
    /// Lowest key (inclusive).
    pub lo: u64,
    /// Highest key (inclusive); below `lo` when nothing can match.
    pub hi: u64,
    /// Rows in the range may fail the predicate: the projection must
    /// re-check it on their values.
    pub recheck: bool,
}

/// A climbing index on flash.
#[derive(Debug, Clone)]
pub struct ClimbingIndex {
    /// Indexed table.
    pub table: TableId,
    /// Indexed column name.
    pub column: String,
    /// Target tables, innermost first (e.g. `[T12, T1, T0]`).
    pub levels: Vec<TableId>,
    /// True when every indexed value equals its key
    /// ([`Value::key_is_exact`]), derived from the data at load. Only then
    /// can a predicate go without re-checking ([`key_range`](Self::key_range)).
    pub exact: bool,
    /// Keys and one offset column per level.
    pub(crate) tree: BTree,
    /// Packed ID area per level and the width of its ids (parallel to
    /// `levels`).
    pub(crate) areas: Vec<(Segment, usize)>,
}

impl ClimbingIndex {
    /// The probe `pred` makes of this index: the inclusive key range that
    /// holds every matching row, and whether rows in it may fail `pred`, so
    /// that the projection must re-check them on their values (the same
    /// machinery that discards Bloom false positives). No re-check is
    /// needed iff the keys are the full values ([`exact`](Self::exact))
    /// and every literal of `pred` fits a key ([`Value::key_is_exact`]: a
    /// string of at most 8 bytes, any int or float).
    pub fn key_range(&self, pred: &Predicate) -> KeyRange {
        let exact = self.exact && pred.literals().all(Value::key_is_exact);
        let (lo, hi) = pred.key_range(exact);
        KeyRange {
            lo,
            hi,
            recheck: !exact,
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
        let areas: u64 = self.areas.iter().map(|(a, _)| a.pages()).sum();
        self.tree.bytes() + areas * page_size as u64
    }

    /// Open a probe (pins one RAM buffer per B+-tree level, §3.4).
    pub fn probe(&self, ram: &RamArena) -> Result<CiProbe<'_>> {
        Ok(CiProbe {
            index: self,
            cursor: self.tree.cursor(ram)?,
            bounds: vec![(0, 0); self.levels.len()],
        })
    }

    /// `level`'s sublist of the entry owning offsets `start` and `end`.
    fn sublist(&self, level: usize, start: Id, end: Id) -> Result<IdList> {
        if end < start {
            return Err(StorageError::Corrupt(format!(
                "climbing index {}.{}: offsets of level {level} fall",
                self.table, self.column
            )));
        }
        let (segment, width) = self.areas[level];
        Ok(IdList {
            segment,
            start: start.into(),
            count: (end - start).into(),
            width,
        })
    }
}

/// A probe handle over a climbing index.
#[derive(Debug)]
pub struct CiProbe<'a> {
    index: &'a ClimbingIndex,
    cursor: BTreeCursor,
    /// Each level's offset cells of the entry [`BTreeCursor::next_into`]
    /// last returned.
    bounds: Vec<(Id, Id)>,
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

    /// Reference implementation of one level of
    /// [`lookup_range_multi`](Self::lookup_range_multi): a full
    /// root-to-leaf [`BTreeCursor::seek`] followed by per-entry
    /// [`BTreeCursor::next_into`] cell copies, walking whole leaves down the
    /// next-leaf chain until a key passes `hi` — the pre-batching read
    /// path, kept so the range scan is always judged against what it
    /// replaced: this module's tests and the differential suites
    /// (`ci_multi_equivalence`, `columnar_leaves`) use it as their
    /// reference. Same sublists; the range scan reads the same leaves but
    /// only the decoded columns of those between the range's ends.
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
        while let Some(k) = self.cursor.next_into(dev, &mut self.bounds)? {
            if k > hi {
                break;
            }
            let (start, end) = self.bounds[level];
            out.push(self.index.sublist(level, start, end)?);
        }
        Ok(out)
    }

    /// Range probe over keys in `[lo, hi]` (inclusive), decoding **several
    /// levels from one traversal**: `out[i]` holds one sorted sublist per
    /// matching entry for `levels[i]` — the `{Li}` collections the paper's
    /// plans feed to `Merge`; an inverted range (`lo > hi`) yields none and
    /// reads nothing.
    ///
    /// Every qualifying entry is visited once and all requested levels are
    /// decoded from its leaf ([`BTreeCursor::scan_range`]): the leaves
    /// holding `lo` and `hi` are read whole, and of each leaf between them
    /// only the offset columns of `levels`. This is the paper's remark that
    /// the "redundant lookup" of Cross-Post plans "can be easily avoided in
    /// practice": the lookup loads the pages of a *single*-level lookup,
    /// whatever `levels.len()`, and each middle leaf costs more bytes only
    /// for the columns of the extra levels (the differential suites pin
    /// both down).
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
        // Matching entries are bounded by the distinct keys and the range
        // width; capped so wide scans over huge indexes don't over-allocate.
        // (Not `vec![Vec::with_capacity(..); n]`: clones drop capacity.)
        let width = hi.saturating_sub(lo).saturating_add(1);
        let hint = (index.distinct().min(width) as usize).min(16 * 1024);
        let mut out: Vec<Vec<IdList>> = (0..levels.len())
            .map(|_| Vec::with_capacity(hint))
            .collect();
        self.cursor.scan_range(dev, lo, hi, levels, |run| {
            for (slot, &level) in out.iter_mut().zip(levels) {
                let mut cells = run.cells(level);
                let Some(mut start) = cells.next() else {
                    continue;
                };
                for end in cells {
                    slot.push(index.sublist(level, start, end)?);
                    start = end;
                }
            }
            Ok(())
        })?;
        Ok(out)
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
        Ok(range(probe, dev, key, key, level)?.pop())
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
            let mut single_bytes = 0u64;
            for (i, &level) in levels.iter().enumerate() {
                let mut probe = ci.probe(&ram).unwrap();
                let snap = dev.snapshot();
                let single = range(&mut probe, &mut dev, lo, hi, level).unwrap();
                let io = dev.stats_since(&snap);
                single_bytes += io.bytes_to_ram;
                assert_eq!(multi[i], single, "range [{lo},{hi}] level {level}");
                // The whole point: decoding three levels loads the pages of
                // one single-level lookup, not three.
                assert_eq!(
                    multi_io.pages_read, io.pages_read,
                    "range [{lo},{hi}]: multi traversal must load one lookup's pages"
                );
            }
            assert!(
                multi_io.bytes_to_ram <= single_bytes,
                "range [{lo},{hi}]: no more bytes than the per-level lookups together"
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

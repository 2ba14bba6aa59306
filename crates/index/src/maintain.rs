//! Incremental maintenance of climbing indexes and SKTs.
//!
//! Bulk-built structures answer build-once-query-forever workloads; the
//! write path needs insert/delete without a full reload. A
//! [`MaintainedIndex`] keeps its bulk-built base index immutable on flash;
//! inserts accumulate in a host-side delta (per level: key → new ids) and
//! deletes in per-level tombstone sets. Probes merge base sublists
//! (tombstones filtered) with the delta. After `merge_threshold` ops the
//! base is rebuilt out of place from the logical state and the delta
//! cleared, amortising flash writes over many updates (the classic LSM
//! bargain). `merge_threshold = 1` is rebuild-per-op: every update
//! rewrites the base and nothing stays buffered.
//!
//! The differential suite (`tests/maintain_equivalence.rs`) locks the
//! maintained index to a fresh rebuild at every intermediate state, for
//! thresholds 1 through 5.
//!
//! The logical ground truth is per-level `id → key` maps ([`LevelState`]):
//! exactly the `level_keys` arrays `IndexBuilder::build_climbing` derives
//! from fk chains, but maintained under inserts and deletes (each level
//! row maps to one indexed-table row, so per-key sublists partition each
//! level's live rows).

use crate::climbing::{ClimbingIndex, LEVEL_DESC_BYTES};
use crate::skt::SubtreeKeyTable;
use ghostdb_flash::{FlashDevice, SegmentAllocator};
use ghostdb_storage::btree::BTree;
use ghostdb_storage::{FlashTable, Id, IdListReader, Result, StorageError, TableId};
use ghostdb_token::RamArena;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Live `id → key` mapping of one level table (ascending id order keeps
/// every rebuilt sublist sorted for free).
pub type LevelState = BTreeMap<Id, u64>;

/// Build a [`ClimbingIndex`] directly from per-level logical state.
///
/// Mirrors `IndexBuilder::build_climbing` — same packed-area layout, same
/// `(offset, count)` leaf descriptors, same sequential page writes — but
/// takes explicit `id → key` maps instead of fk chains, so it accepts the
/// sparse id sets left behind by deletes. The B+-tree keys are the sorted
/// union of live keys across all levels; a key absent at some level gets
/// an empty sublist there, exactly like unreferenced rows in the bulk
/// path.
pub fn build_from_state(
    dev: &mut FlashDevice,
    alloc: &mut SegmentAllocator,
    table: TableId,
    column: &str,
    levels: &[TableId],
    exact: bool,
    state: &[LevelState],
) -> Result<ClimbingIndex> {
    assert_eq!(levels.len(), state.len(), "one state map per level");
    let mut distinct: Vec<u64> = state.iter().flat_map(|s| s.values().copied()).collect();
    distinct.sort_unstable();
    distinct.dedup();
    let rank: HashMap<u64, usize> = distinct.iter().enumerate().map(|(i, k)| (*k, i)).collect();

    let page_size = dev.page_size();
    let payload_size = levels.len() * LEVEL_DESC_BYTES;
    let mut payloads: Vec<Vec<u8>> = vec![vec![0u8; payload_size]; distinct.len()];
    let mut areas = Vec::with_capacity(levels.len());

    for (li, level_state) in state.iter().enumerate() {
        let mut counts = vec![0u32; distinct.len()];
        for key in level_state.values() {
            counts[rank[key]] += 1;
        }
        let mut offsets = vec![0u64; distinct.len()];
        let mut acc = 0u64;
        for (i, c) in counts.iter().enumerate() {
            offsets[i] = acc;
            acc += *c as u64 * 4;
        }
        let mut area = vec![0u8; level_state.len() * 4];
        let mut cursor = offsets.clone();
        for (id, key) in level_state {
            let at = &mut cursor[rank[key]];
            area[*at as usize..*at as usize + 4].copy_from_slice(&id.to_le_bytes());
            *at += 4;
        }
        let seg = alloc.alloc_bytes((level_state.len() as u64 * 4).max(1), page_size)?;
        for (p, chunk) in area.chunks(page_size).enumerate() {
            dev.write(seg.lpn(p as u64)?, chunk)?;
        }
        areas.push(seg);
        for (ki, payload) in payloads.iter_mut().enumerate() {
            let at = li * LEVEL_DESC_BYTES;
            payload[at..at + 8].copy_from_slice(&offsets[ki].to_le_bytes());
            payload[at + 8..at + 12].copy_from_slice(&counts[ki].to_le_bytes());
        }
    }

    let entries: Vec<(u64, Vec<u8>)> = distinct.into_iter().zip(payloads).collect();
    let tree = BTree::bulk_build(dev, alloc, payload_size, &entries)?;
    Ok(ClimbingIndex::new(
        table,
        column.to_string(),
        levels.to_vec(),
        exact,
        state[0].len() as u64,
        tree,
        areas,
    ))
}

/// A climbing index that absorbs inserts and deletes.
#[derive(Debug)]
pub struct MaintainedIndex {
    merge_threshold: usize,
    exact: bool,
    column: String,
    table: TableId,
    levels: Vec<TableId>,
    /// Logical ground truth per level.
    state: Vec<LevelState>,
    /// Next id to assign per level (monotonic; ids are never reused).
    next_id: Vec<Id>,
    /// The on-flash base index.
    base: ClimbingIndex,
    /// Per level, key → ids inserted since the last merge.
    delta: Vec<BTreeMap<u64, BTreeSet<Id>>>,
    /// Per level, base ids deleted since the last merge.
    tombstones: Vec<BTreeSet<Id>>,
    /// Updates absorbed since the last merge/rebuild.
    pending: usize,
}

impl MaintainedIndex {
    /// Bulk-build the initial index. `initial[l]` holds level `l`'s keys,
    /// one per row, ids assigned `0..n` in order (the bulk-load contract).
    /// The base absorbs buffered updates every `merge_threshold` ops.
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        dev: &mut FlashDevice,
        alloc: &mut SegmentAllocator,
        table: TableId,
        column: &str,
        levels: Vec<TableId>,
        exact: bool,
        initial: &[Vec<u64>],
        merge_threshold: usize,
    ) -> Result<MaintainedIndex> {
        assert_eq!(levels.len(), initial.len(), "one key vector per level");
        assert!(merge_threshold >= 1, "merge threshold must be positive");
        let state: Vec<LevelState> = initial
            .iter()
            .map(|keys| {
                keys.iter()
                    .enumerate()
                    .map(|(i, k)| (i as Id, *k))
                    .collect()
            })
            .collect();
        let next_id = initial.iter().map(|keys| keys.len() as Id).collect();
        let base = build_from_state(dev, alloc, table, column, &levels, exact, &state)?;
        let n = levels.len();
        Ok(MaintainedIndex {
            merge_threshold,
            exact,
            column: column.to_string(),
            table,
            levels,
            state,
            next_id,
            base,
            delta: vec![BTreeMap::new(); n],
            tombstones: vec![BTreeSet::new(); n],
            pending: 0,
        })
    }

    /// Target tables, innermost first.
    pub fn levels(&self) -> &[TableId] {
        &self.levels
    }

    /// Live rows at a level.
    pub fn live_rows(&self, level: usize) -> usize {
        self.state[level].len()
    }

    /// Updates buffered since the last merge.
    pub fn pending_ops(&self) -> usize {
        self.pending
    }

    /// Logical ground truth (the differential suite's reference input).
    pub fn state(&self) -> &[LevelState] {
        &self.state
    }

    fn check_level(&self, level: usize) -> Result<()> {
        if level >= self.levels.len() {
            return Err(StorageError::Corrupt(format!(
                "maintained index {}.{} has no level {level}",
                self.table, self.column
            )));
        }
        Ok(())
    }

    /// Insert a row with `key` at `level`; returns its assigned id.
    pub fn insert(
        &mut self,
        dev: &mut FlashDevice,
        alloc: &mut SegmentAllocator,
        level: usize,
        key: u64,
    ) -> Result<Id> {
        self.check_level(level)?;
        let id = self.next_id[level];
        self.next_id[level] += 1;
        self.state[level].insert(id, key);
        self.delta[level].entry(key).or_default().insert(id);
        self.note_op(dev, alloc)?;
        Ok(id)
    }

    /// Delete the row `id` at `level`. Returns false when no such live row
    /// exists (nothing changes).
    pub fn delete(
        &mut self,
        dev: &mut FlashDevice,
        alloc: &mut SegmentAllocator,
        level: usize,
        id: Id,
    ) -> Result<bool> {
        self.check_level(level)?;
        let Some(key) = self.state[level].remove(&id) else {
            return Ok(false);
        };
        // An id still sitting in the delta never reached flash: retract it
        // host-side. Otherwise tombstone the base copy.
        let in_delta = match self.delta[level].get_mut(&key) {
            Some(ids) => {
                let was = ids.remove(&id);
                if ids.is_empty() {
                    self.delta[level].remove(&key);
                }
                was
            }
            None => false,
        };
        if !in_delta {
            self.tombstones[level].insert(id);
        }
        self.note_op(dev, alloc)?;
        Ok(true)
    }

    /// Force the base to absorb all buffered updates now.
    pub fn flush(&mut self, dev: &mut FlashDevice, alloc: &mut SegmentAllocator) -> Result<()> {
        if self.pending > 0 {
            self.rebuild(dev, alloc)?;
        }
        Ok(())
    }

    fn note_op(&mut self, dev: &mut FlashDevice, alloc: &mut SegmentAllocator) -> Result<()> {
        self.pending += 1;
        if self.pending >= self.merge_threshold {
            self.rebuild(dev, alloc)?;
        }
        Ok(())
    }

    /// Rebuild the base from logical state out of place, free the old
    /// segments, and clear all buffered updates.
    fn rebuild(&mut self, dev: &mut FlashDevice, alloc: &mut SegmentAllocator) -> Result<()> {
        let fresh = build_from_state(
            dev,
            alloc,
            self.table,
            &self.column,
            &self.levels,
            self.exact,
            &self.state,
        )?;
        let old = std::mem::replace(&mut self.base, fresh);
        old.release(dev, alloc)?;
        for d in &mut self.delta {
            d.clear();
        }
        for t in &mut self.tombstones {
            t.clear();
        }
        self.pending = 0;
        Ok(())
    }

    /// Materialized base sublist for `key` at `level` (empty when absent).
    fn base_ids(
        &self,
        dev: &mut FlashDevice,
        ram: &RamArena,
        level: usize,
        key: u64,
    ) -> Result<Vec<Id>> {
        let mut probe = self.base.probe(ram)?;
        match probe.lookup_eq(dev, key, level)? {
            Some(list) => IdListReader::open(list, ram, dev.page_size())?.drain(dev),
            None => Ok(Vec::new()),
        }
    }

    /// Equality probe: the sorted ids of live rows at `level` whose key is
    /// `key`. Identical to a fresh rebuild's answer.
    pub fn lookup_eq(
        &self,
        dev: &mut FlashDevice,
        ram: &RamArena,
        level: usize,
        key: u64,
    ) -> Result<Vec<Id>> {
        self.check_level(level)?;
        let mut ids = self.base_ids(dev, ram, level, key)?;
        ids.retain(|id| !self.tombstones[level].contains(id));
        if let Some(fresh) = self.delta[level].get(&key) {
            ids.extend(fresh.iter().copied());
            ids.sort_unstable();
        }
        Ok(ids)
    }

    /// Range probe: the sorted ids of live rows at `level` whose key lies
    /// in `[lo, hi]` (inclusive; inverted ranges yield nothing).
    pub fn lookup_range(
        &self,
        dev: &mut FlashDevice,
        ram: &RamArena,
        level: usize,
        lo: u64,
        hi: u64,
    ) -> Result<Vec<Id>> {
        self.check_level(level)?;
        let mut probe = self.base.probe(ram)?;
        let lists = probe.lookup_range(dev, lo, hi, level)?;
        let mut ids = Vec::new();
        for list in lists {
            let sub = IdListReader::open(list, ram, dev.page_size())?.drain(dev)?;
            ids.extend(sub);
        }
        ids.retain(|id| !self.tombstones[level].contains(id));
        if lo <= hi {
            for (_, fresh) in self.delta[level].range(lo..=hi) {
                ids.extend(fresh.iter().copied());
            }
        }
        ids.sort_unstable();
        Ok(ids)
    }

    /// Flash bytes of the current base (host-side delta excluded).
    pub fn bytes(&self, page_size: usize) -> u64 {
        self.base.bytes(page_size)
    }
}

/// A subtree key table that absorbs row updates and appends.
///
/// SKT rows live in a fixed-width [`FlashTable`] sorted by the implicit
/// owner id, so in-place row updates are read-modify-write programs and
/// appends fill the segment's tail capacity. When an append outgrows the
/// segment, the table rebuilds into one with `grow` spare rows (the
/// doubling amortisation of a vector, paid in sequential flash writes).
#[derive(Debug)]
pub struct MaintainedSkt {
    /// The wrapped SKT (readable by `SJoin` exactly like a bulk-built one).
    pub skt: SubtreeKeyTable,
    /// Extra row slots allocated on rebuild.
    grow: u64,
}

impl MaintainedSkt {
    /// Wrap a bulk-built SKT. `grow` is the reserve added when an append
    /// forces a rebuild (min 1).
    pub fn new(skt: SubtreeKeyTable, grow: u64) -> MaintainedSkt {
        MaintainedSkt {
            skt,
            grow: grow.max(1),
        }
    }

    /// Rows currently stored.
    pub fn rows(&self) -> u64 {
        self.skt.rows()
    }

    /// Overwrite the descendant ids of owner row `row`.
    pub fn set_row(&mut self, dev: &mut FlashDevice, row: u64, ids: &[Id]) -> Result<()> {
        let bytes = self.encode(ids)?;
        self.skt.flash.write_row(dev, row, &bytes)
    }

    /// Append a new owner row (owner ids are implicit and dense, so this
    /// is the row of the next owner tuple). Rebuilds into a larger
    /// segment when the current one is full.
    pub fn append_row(
        &mut self,
        dev: &mut FlashDevice,
        alloc: &mut SegmentAllocator,
        ids: &[Id],
    ) -> Result<()> {
        let bytes = self.encode(ids)?;
        let page_size = dev.page_size();
        if self.skt.flash.rows() >= self.skt.flash.capacity(page_size) {
            self.grow_into(dev, alloc)?;
        }
        self.skt.flash.append_row(dev, &bytes)
    }

    fn encode(&self, ids: &[Id]) -> Result<Vec<u8>> {
        let layout = &self.skt.flash.layout;
        if ids.len() != self.skt.descendants.len() {
            return Err(StorageError::Corrupt(format!(
                "SKT row wants {} descendant ids, got {}",
                self.skt.descendants.len(),
                ids.len()
            )));
        }
        let mut out = vec![0u8; layout.size()];
        for (c, id) in ids.iter().enumerate() {
            layout.put_id(&mut out, c, *id);
        }
        Ok(out)
    }

    /// Copy all rows into a fresh segment with `grow` spare row slots and
    /// free the old one.
    fn grow_into(&mut self, dev: &mut FlashDevice, alloc: &mut SegmentAllocator) -> Result<()> {
        let layout = self.skt.flash.layout.clone();
        let rows = self.skt.flash.rows();
        let size = layout.size();
        // Stage old rows host-side (build-path convention), then bulk-load
        // sequentially into the larger segment.
        let mut staged = vec![0u8; rows as usize * size];
        for r in 0..rows {
            self.skt.flash.read_row(
                dev,
                r,
                &mut staged[r as usize * size..(r as usize + 1) * size],
            )?;
        }
        let fresh = FlashTable::bulk_load_with_capacity(
            dev,
            alloc,
            layout,
            rows,
            rows + self.grow,
            |r, out| out.copy_from_slice(&staged[r as usize * size..(r as usize + 1) * size]),
        )?;
        let old = std::mem::replace(&mut self.skt.flash, fresh);
        alloc.free(old.segment(), dev)?;
        Ok(())
    }
}

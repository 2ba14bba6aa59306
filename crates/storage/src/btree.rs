//! Bulk-loaded B+-tree over flash pages.
//!
//! This is the value-lookup layer of GhostDB's climbing indexes. §3.4: "All
//! indexes in CI are implemented by means of B+-Trees, so that CI requires
//! at most one buffer per B+-Tree level" — a [`BTreeCursor`] pins exactly
//! one RAM buffer per level and re-reads a level's page only when the
//! descent actually moves to a different page, so consecutive probes with
//! nearby keys (the sorted-ID probe streams of Pre-Filter plans) share the
//! upper levels for free, while genuinely random probes pay a full descent.
//!
//! Keys are order-preserving `u64` encodings of column values
//! ([`crate::value::Value::order_key`]); payloads are fixed-width byte
//! strings (climbing indexes store per-level ID-run descriptors there).
//!
//! Node layout in one page:
//! ```text
//! byte 0      : node kind (0 = leaf, 1 = internal)
//! bytes 1..3  : entry count (u16 LE)
//! bytes 4..8  : leaf: next-leaf page index (u32 LE, MAX = none)
//! bytes 8..   : entries
//!               leaf     entry = key u64 | payload [P bytes]
//!               internal entry = key u64 (max key of child) | child u32
//! ```

use crate::error::StorageError;
use crate::{bytes_at, Result};
use ghostdb_flash::{FlashDevice, Segment, SegmentAllocator};
use ghostdb_token::{RamArena, RamBuffer};

const HEADER: usize = 8;
const KIND_LEAF: u8 = 0;
const KIND_INTERNAL: u8 = 1;
const NO_LEAF: u32 = u32::MAX;
const INTERNAL_ENTRY: usize = 12;

/// An immutable, bulk-loaded B+-tree on flash.
#[derive(Debug, Clone)]
pub struct BTree {
    segment: Segment,
    /// Number of levels (0 for an empty tree; 1 = single leaf).
    height: u8,
    /// Page index (within the segment) of the root node.
    root_page: u64,
    /// Fixed payload width of leaf entries.
    payload_size: usize,
    /// Total leaf entries.
    entries: u64,
    page_size: usize,
}

impl BTree {
    /// Leaf entries per page for a payload width.
    pub fn leaf_capacity(page_size: usize, payload_size: usize) -> usize {
        (page_size - HEADER) / (8 + payload_size)
    }

    /// Internal entries per page.
    pub fn internal_capacity(page_size: usize) -> usize {
        (page_size - HEADER) / INTERNAL_ENTRY
    }

    /// Pages a tree over `n` entries will occupy (for pre-sizing).
    pub fn pages_needed(n: u64, page_size: usize, payload_size: usize) -> u64 {
        if n == 0 {
            return 1;
        }
        let mut total = 0u64;
        let mut level = n.div_ceil(Self::leaf_capacity(page_size, payload_size) as u64);
        total += level;
        while level > 1 {
            level = level.div_ceil(Self::internal_capacity(page_size) as u64);
            total += level;
        }
        total
    }

    /// Bulk-build from entries **sorted by key, unique keys**.
    ///
    /// Charges sequential page writes — the cost of burning the index onto
    /// the key at load time.
    pub fn bulk_build(
        dev: &mut FlashDevice,
        alloc: &mut SegmentAllocator,
        payload_size: usize,
        entries: &[(u64, Vec<u8>)],
    ) -> Result<BTree> {
        let page_size = dev.page_size();
        let leaf_cap = Self::leaf_capacity(page_size, payload_size);
        assert!(leaf_cap >= 2, "payload too wide for page");
        for w in entries.windows(2) {
            if w[0].0 >= w[1].0 {
                return Err(StorageError::Corrupt(format!(
                    "bulk_build requires strictly increasing keys ({} then {})",
                    w[0].0, w[1].0
                )));
            }
        }
        let n = entries.len() as u64;
        let pages = Self::pages_needed(n, page_size, payload_size);
        let segment = alloc.alloc(pages)?;
        if n == 0 {
            // Single empty leaf.
            let mut image = vec![0u8; HEADER];
            image[0] = KIND_LEAF;
            image[4..8].copy_from_slice(&NO_LEAF.to_le_bytes());
            dev.write(segment.lpn(0)?, &image)?;
            return Ok(BTree {
                segment,
                height: 1,
                root_page: 0,
                payload_size,
                entries: 0,
                page_size,
            });
        }

        // Write leaves; remember (max_key, page) per leaf.
        let n_leaves = n.div_ceil(leaf_cap as u64);
        let mut level_index: Vec<(u64, u32)> = Vec::with_capacity(n_leaves as usize);
        let mut page_no = 0u64;
        let entry_size = 8 + payload_size;
        let mut image = vec![0u8; page_size];
        for chunk in entries.chunks(leaf_cap) {
            image.fill(0);
            image[0] = KIND_LEAF;
            image[1..3].copy_from_slice(&(chunk.len() as u16).to_le_bytes());
            let next = if page_no + 1 < n_leaves {
                (page_no + 1) as u32
            } else {
                NO_LEAF
            };
            image[4..8].copy_from_slice(&next.to_le_bytes());
            for (i, (key, payload)) in chunk.iter().enumerate() {
                debug_assert_eq!(payload.len(), payload_size);
                let at = HEADER + i * entry_size;
                image[at..at + 8].copy_from_slice(&key.to_le_bytes());
                image[at + 8..at + 8 + payload_size].copy_from_slice(payload);
            }
            let used = HEADER + chunk.len() * entry_size;
            dev.write(segment.lpn(page_no)?, &image[..used])?;
            // `chunks` never yields an empty chunk.
            level_index.push((chunk[chunk.len() - 1].0, page_no as u32));
            page_no += 1;
        }

        // Build internal levels bottom-up.
        let mut height = 1u8;
        let int_cap = Self::internal_capacity(page_size);
        while level_index.len() > 1 {
            let mut upper: Vec<(u64, u32)> = Vec::with_capacity(level_index.len() / int_cap + 1);
            for chunk in level_index.chunks(int_cap) {
                image.fill(0);
                image[0] = KIND_INTERNAL;
                image[1..3].copy_from_slice(&(chunk.len() as u16).to_le_bytes());
                for (i, (max_key, child)) in chunk.iter().enumerate() {
                    let at = HEADER + i * INTERNAL_ENTRY;
                    image[at..at + 8].copy_from_slice(&max_key.to_le_bytes());
                    image[at + 8..at + 12].copy_from_slice(&child.to_le_bytes());
                }
                let used = HEADER + chunk.len() * INTERNAL_ENTRY;
                dev.write(segment.lpn(page_no)?, &image[..used])?;
                upper.push((chunk[chunk.len() - 1].0, page_no as u32));
                page_no += 1;
            }
            level_index = upper;
            height += 1;
        }
        debug_assert_eq!(page_no, pages);
        Ok(BTree {
            segment,
            height,
            root_page: page_no - 1,
            payload_size,
            entries: n,
            page_size,
        })
    }

    /// Number of leaf entries.
    pub fn len(&self) -> u64 {
        self.entries
    }

    /// True when the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Number of levels.
    pub fn height(&self) -> u8 {
        self.height
    }

    /// Payload width of leaf entries.
    pub fn payload_size(&self) -> usize {
        self.payload_size
    }

    /// Bytes occupied on flash (size model input).
    pub fn bytes(&self) -> u64 {
        self.segment.pages() * self.page_size as u64
    }

    /// Backing segment (so owners can free a superseded tree when an
    /// index rebuilds itself out of place).
    pub fn segment(&self) -> Segment {
        self.segment
    }

    /// Open a cursor (pins one RAM buffer per level — the §3.4 budget).
    pub fn cursor(&self, ram: &RamArena) -> Result<BTreeCursor> {
        let mut bufs = Vec::with_capacity(self.height as usize);
        for _ in 0..self.height {
            bufs.push(ram.alloc()?);
        }
        Ok(BTreeCursor {
            tree: self.clone(),
            bufs,
            pages: vec![None; self.height as usize],
            leaf_page: None,
            leaf_pos: 0,
        })
    }
}

/// Cursor over a [`BTree`]: seek + forward scan, one RAM buffer per level.
#[derive(Debug)]
pub struct BTreeCursor {
    tree: BTree,
    /// One buffer per level; index 0 = leaf level.
    bufs: Vec<RamBuffer>,
    /// Page currently cached per level.
    pages: Vec<Option<u64>>,
    /// Leaf the cursor is positioned on.
    leaf_page: Option<u64>,
    /// Next entry index within the leaf.
    leaf_pos: usize,
}

impl BTreeCursor {
    fn load(&mut self, dev: &mut FlashDevice, level: usize, page: u64) -> Result<()> {
        if self.pages[level] == Some(page) {
            return Ok(());
        }
        let lpn = self.tree.segment.lpn(page)?;
        let page_size = self.tree.page_size;
        dev.read(lpn, 0, &mut self.bufs[level][..page_size])?;
        self.pages[level] = Some(page);
        Ok(())
    }

    fn node_kind(&self, level: usize) -> u8 {
        self.bufs[level][0]
    }

    fn node_count(&self, level: usize) -> usize {
        u16::from_le_bytes(bytes_at(&self.bufs[level], 1)) as usize
    }

    fn leaf_next(&self) -> Option<u64> {
        let next = u32::from_le_bytes(bytes_at(&self.bufs[0], 4));
        (next != NO_LEAF).then_some(next as u64)
    }

    fn leaf_key(&self, i: usize) -> u64 {
        let at = HEADER + i * (8 + self.tree.payload_size);
        u64::from_le_bytes(bytes_at(&self.bufs[0], at))
    }

    fn leaf_payload(&self, i: usize) -> &[u8] {
        let at = HEADER + i * (8 + self.tree.payload_size) + 8;
        &self.bufs[0][at..at + self.tree.payload_size]
    }

    /// First entry index in the buffered leaf whose key is ≥ `target`
    /// (the leaf-level lower bound shared by `seek` and the ascending
    /// fast path — one implementation so they can never diverge).
    fn leaf_lower_bound(&self, target: u64) -> usize {
        let count = self.node_count(0);
        let mut lo = 0usize;
        let mut hi = count;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.leaf_key(mid) < target {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    fn internal_entry(&self, level: usize, i: usize) -> (u64, u32) {
        let at = HEADER + i * INTERNAL_ENTRY;
        let key = u64::from_le_bytes(bytes_at(&self.bufs[level], at));
        let child = u32::from_le_bytes(bytes_at(&self.bufs[level], at + 8));
        (key, child)
    }

    /// Position at the first entry with `key ≥ target`.
    pub fn seek(&mut self, dev: &mut FlashDevice, target: u64) -> Result<()> {
        if self.tree.height == 0 {
            return Ok(());
        }
        let mut page = self.tree.root_page;
        for level in (1..self.tree.height as usize).rev() {
            self.load(dev, level, page)?;
            debug_assert_eq!(self.node_kind(level), KIND_INTERNAL);
            let count = self.node_count(level);
            // First child whose max key ≥ target; clamp to the last child.
            let mut lo = 0usize;
            let mut hi = count;
            while lo < hi {
                let mid = (lo + hi) / 2;
                if self.internal_entry(level, mid).0 < target {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            let idx = lo.min(count - 1);
            page = self.internal_entry(level, idx).1 as u64;
        }
        self.load(dev, 0, page)?;
        debug_assert_eq!(self.node_kind(0), KIND_LEAF);
        self.leaf_page = Some(page);
        self.leaf_pos = self.leaf_lower_bound(target);
        Ok(())
    }

    /// Next `(key, payload)` in key order; `payload_out` receives the
    /// payload bytes. Crosses leaf boundaries via the next-leaf chain.
    pub fn next_into(
        &mut self,
        dev: &mut FlashDevice,
        payload_out: &mut [u8],
    ) -> Result<Option<u64>> {
        let Some(mut page) = self.leaf_page else {
            return Ok(None);
        };
        loop {
            self.load(dev, 0, page)?;
            if self.leaf_pos < self.node_count(0) {
                let key = self.leaf_key(self.leaf_pos);
                payload_out[..self.tree.payload_size]
                    .copy_from_slice(self.leaf_payload(self.leaf_pos));
                self.leaf_pos += 1;
                return Ok(Some(key));
            }
            match self.leaf_next() {
                Some(next) => {
                    page = next;
                    self.leaf_page = Some(next);
                    self.leaf_pos = 0;
                }
                None => {
                    self.leaf_page = None;
                    return Ok(None);
                }
            }
        }
    }

    /// Exact-match lookup: payload for `key` if present.
    pub fn lookup(&mut self, dev: &mut FlashDevice, key: u64) -> Result<Option<Vec<u8>>> {
        self.seek(dev, key)?;
        let mut payload = vec![0u8; self.tree.payload_size];
        match self.next_into(dev, &mut payload)? {
            Some(k) if k == key => Ok(Some(payload)),
            _ => Ok(None),
        }
    }

    /// Exact-match lookup into a caller buffer, optimised for ascending
    /// probe runs: when the leaf page already buffered covers `key`, the
    /// whole descent is skipped and the leaf is binary-searched in place
    /// (zero I/O, zero internal-node work); otherwise it falls back to a
    /// full [`seek`](Self::seek). Identical results and identical pages
    /// read either way — the fast path only elides work on pages the slow
    /// path would find cached.
    ///
    /// Returns `true` (payload copied into `payload_out`) on an exact hit.
    pub fn lookup_ascending_into(
        &mut self,
        dev: &mut FlashDevice,
        key: u64,
        payload_out: &mut [u8],
    ) -> Result<bool> {
        if self.pages[0].is_some() && self.node_kind(0) == KIND_LEAF {
            let count = self.node_count(0);
            if count > 0 && self.leaf_key(0) <= key && key <= self.leaf_key(count - 1) {
                let lo = self.leaf_lower_bound(key);
                if self.leaf_key(lo) == key {
                    payload_out[..self.tree.payload_size].copy_from_slice(self.leaf_payload(lo));
                    self.leaf_page = self.pages[0];
                    self.leaf_pos = lo + 1;
                    return Ok(true);
                }
                self.leaf_page = self.pages[0];
                self.leaf_pos = lo;
                return Ok(false);
            }
        }
        self.seek(dev, key)?;
        match self.next_into(dev, payload_out)? {
            Some(k) if k == key => Ok(true),
            _ => Ok(false),
        }
    }

    /// Position at the first entry with `key ≥ target`, reusing the cached
    /// leaf when it already covers `target` — the same fast path as
    /// [`lookup_ascending_into`](Self::lookup_ascending_into), shared by
    /// range scans so consecutive ascending scans on one cursor skip the
    /// root-to-leaf descent entirely (zero I/O, zero internal-node work).
    /// Identical position and identical pages read either way — the fast
    /// path only elides work on pages a full [`seek`](Self::seek) would
    /// find cached.
    pub fn seek_ascending(&mut self, dev: &mut FlashDevice, target: u64) -> Result<()> {
        if self.pages[0].is_some() && self.node_kind(0) == KIND_LEAF {
            let count = self.node_count(0);
            if count > 0 && self.leaf_key(0) <= target && target <= self.leaf_key(count - 1) {
                self.leaf_page = self.pages[0];
                self.leaf_pos = self.leaf_lower_bound(target);
                return Ok(());
            }
        }
        self.seek(dev, target)
    }

    /// Single-traversal range scan: hand every `(key, payload)` with
    /// `lo ≤ key ≤ hi` to `visit`, in ascending key order, touching each
    /// qualifying leaf entry exactly once. The payload slice borrows the
    /// leaf buffer directly (no per-entry copy), so a caller can decode
    /// several independent views of one payload from a single traversal —
    /// the climbing-index multi-level read path is built on this.
    ///
    /// Positioning goes through [`seek_ascending`](Self::seek_ascending),
    /// so a scan continuing past an earlier ascending probe or scan reuses
    /// the buffered leaf. An inverted range (`hi < lo`) visits nothing.
    pub fn scan_range(
        &mut self,
        dev: &mut FlashDevice,
        lo: u64,
        hi: u64,
        mut visit: impl FnMut(u64, &[u8]) -> Result<()>,
    ) -> Result<()> {
        if hi < lo {
            return Ok(());
        }
        self.seek_ascending(dev, lo)?;
        let Some(mut page) = self.leaf_page else {
            return Ok(());
        };
        loop {
            self.load(dev, 0, page)?;
            let count = self.node_count(0);
            while self.leaf_pos < count {
                let key = self.leaf_key(self.leaf_pos);
                if key > hi {
                    return Ok(());
                }
                visit(key, self.leaf_payload(self.leaf_pos))?;
                self.leaf_pos += 1;
            }
            match self.leaf_next() {
                Some(next) => {
                    page = next;
                    self.leaf_page = Some(next);
                    self.leaf_pos = 0;
                }
                None => {
                    self.leaf_page = None;
                    return Ok(());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghostdb_flash::{FlashGeometry, FlashTiming};

    fn setup() -> (FlashDevice, SegmentAllocator, RamArena) {
        let dev = FlashDevice::new(
            FlashGeometry::for_capacity(16 * 1024 * 1024),
            FlashTiming::default(),
        );
        let alloc = SegmentAllocator::new(dev.logical_pages());
        let ram = RamArena::paper_default();
        (dev, alloc, ram)
    }

    fn build(dev: &mut FlashDevice, alloc: &mut SegmentAllocator, n: u64, stride: u64) -> BTree {
        let entries: Vec<(u64, Vec<u8>)> = (0..n)
            .map(|i| (i * stride, (i as u32).to_le_bytes().to_vec()))
            .collect();
        BTree::bulk_build(dev, alloc, 4, &entries).unwrap()
    }

    #[test]
    fn lookup_hits_and_misses() {
        let (mut dev, mut alloc, ram) = setup();
        let tree = build(&mut dev, &mut alloc, 10_000, 3);
        assert!(tree.height() >= 2);
        let mut cur = tree.cursor(&ram).unwrap();
        for probe in [0u64, 3, 2_997, 29_997] {
            let got = cur.lookup(&mut dev, probe).unwrap().unwrap();
            assert_eq!(
                u32::from_le_bytes(got.try_into().unwrap()) as u64,
                probe / 3
            );
        }
        assert!(cur.lookup(&mut dev, 1).unwrap().is_none());
        assert!(cur.lookup(&mut dev, 30_000).unwrap().is_none());
    }

    #[test]
    fn range_scan_in_order() {
        let (mut dev, mut alloc, ram) = setup();
        let tree = build(&mut dev, &mut alloc, 5_000, 2);
        let mut cur = tree.cursor(&ram).unwrap();
        cur.seek(&mut dev, 1001).unwrap(); // between 1000 and 1002
        let mut payload = vec![0u8; 4];
        let mut expect = 1002u64;
        let mut count = 0;
        while let Some(k) = cur.next_into(&mut dev, &mut payload).unwrap() {
            assert_eq!(k, expect);
            expect += 2;
            count += 1;
            if count == 600 {
                break;
            }
        }
        assert_eq!(count, 600);
    }

    #[test]
    fn scan_everything_crosses_leaves() {
        let (mut dev, mut alloc, ram) = setup();
        let tree = build(&mut dev, &mut alloc, 2_000, 1);
        let mut cur = tree.cursor(&ram).unwrap();
        cur.seek(&mut dev, 0).unwrap();
        let mut payload = vec![0u8; 4];
        let mut n = 0u64;
        while let Some(k) = cur.next_into(&mut dev, &mut payload).unwrap() {
            assert_eq!(k, n);
            n += 1;
        }
        assert_eq!(n, 2_000);
    }

    #[test]
    fn empty_tree() {
        let (mut dev, mut alloc, ram) = setup();
        let tree = BTree::bulk_build(&mut dev, &mut alloc, 4, &[]).unwrap();
        assert!(tree.is_empty());
        let mut cur = tree.cursor(&ram).unwrap();
        assert!(cur.lookup(&mut dev, 5).unwrap().is_none());
        cur.seek(&mut dev, 0).unwrap();
        let mut p = vec![0u8; 4];
        assert!(cur.next_into(&mut dev, &mut p).unwrap().is_none());
    }

    #[test]
    fn single_leaf_tree() {
        let (mut dev, mut alloc, ram) = setup();
        let tree = build(&mut dev, &mut alloc, 5, 10);
        assert_eq!(tree.height(), 1);
        let mut cur = tree.cursor(&ram).unwrap();
        assert!(cur.lookup(&mut dev, 40).unwrap().is_some());
        assert!(cur.lookup(&mut dev, 41).unwrap().is_none());
    }

    #[test]
    fn unsorted_input_rejected() {
        let (mut dev, mut alloc, _ram) = setup();
        let entries = vec![(5u64, vec![0u8; 4]), (3u64, vec![0u8; 4])];
        assert!(BTree::bulk_build(&mut dev, &mut alloc, 4, &entries).is_err());
    }

    #[test]
    fn cursor_caches_levels_across_nearby_probes() {
        let (mut dev, mut alloc, ram) = setup();
        let tree = build(&mut dev, &mut alloc, 50_000, 1);
        let mut cur = tree.cursor(&ram).unwrap();
        cur.lookup(&mut dev, 1000).unwrap();
        let snap = dev.snapshot();
        // Probing the immediate neighbours shouldn't re-read anything: all
        // levels cached.
        cur.lookup(&mut dev, 1001).unwrap();
        cur.lookup(&mut dev, 1002).unwrap();
        assert_eq!(dev.stats_since(&snap).pages_read, 0);
        // A far probe re-reads at most one page per level.
        let snap = dev.snapshot();
        cur.lookup(&mut dev, 49_000).unwrap();
        assert!(dev.stats_since(&snap).pages_read <= tree.height() as u64);
    }

    #[test]
    fn ascending_lookup_matches_plain_lookup() {
        let (mut dev, mut alloc, ram) = setup();
        let tree = build(&mut dev, &mut alloc, 20_000, 3);
        let mut plain = tree.cursor(&ram).unwrap();
        let mut fast = tree.cursor(&ram).unwrap();
        let mut payload = vec![0u8; 4];
        // Mix of hits, misses and leaf-boundary crossings, ascending.
        for probe in (0u64..60_000).step_by(7) {
            let expect = plain.lookup(&mut dev, probe).unwrap();
            let hit = fast
                .lookup_ascending_into(&mut dev, probe, &mut payload)
                .unwrap();
            assert_eq!(hit, expect.is_some(), "probe {probe}");
            if let Some(p) = expect {
                assert_eq!(payload, p, "probe {probe}");
            }
        }
    }

    #[test]
    fn ascending_lookup_within_cached_leaf_reads_nothing() {
        let (mut dev, mut alloc, ram) = setup();
        let tree = build(&mut dev, &mut alloc, 50_000, 1);
        let mut cur = tree.cursor(&ram).unwrap();
        let mut payload = vec![0u8; 4];
        assert!(cur
            .lookup_ascending_into(&mut dev, 1000, &mut payload)
            .unwrap());
        let snap = dev.snapshot();
        // Neighbours live in the same leaf: the fast path must not touch
        // flash at all, not even cached internal levels.
        // Leaf capacity is (2048-8)/12 = 170 keys; the leaf holding 1000
        // spans 850..=1019, so these probes all stay inside it.
        for probe in 1001..1019 {
            assert!(cur
                .lookup_ascending_into(&mut dev, probe, &mut payload)
                .unwrap());
        }
        assert_eq!(dev.stats_since(&snap).pages_read, 0);
    }

    /// Reference: keys in [lo, hi] via seek + next_into (the pre-scan_range
    /// traversal), for differential checks below.
    fn range_by_cursor(
        dev: &mut FlashDevice,
        tree: &BTree,
        ram: &RamArena,
        lo: u64,
        hi: u64,
    ) -> Vec<(u64, Vec<u8>)> {
        let mut cur = tree.cursor(ram).unwrap();
        let mut payload = vec![0u8; tree.payload_size()];
        let mut out = Vec::new();
        cur.seek(dev, lo).unwrap();
        while let Some(k) = cur.next_into(dev, &mut payload).unwrap() {
            if k > hi {
                break;
            }
            out.push((k, payload.clone()));
        }
        out
    }

    #[test]
    fn scan_range_matches_seek_next_loop() {
        let (mut dev, mut alloc, ram) = setup();
        let tree = build(&mut dev, &mut alloc, 20_000, 3);
        for (lo, hi) in [
            (0u64, 59_997u64), // everything
            (0, 0),            // single key at the left edge
            (3_000, 3_000),    // single mid key
            (3_001, 3_002),    // empty: between keys
            (70_000, 80_000),  // empty: past the last key
            (2_997, 30_003),   // leaf-boundary-spanning slice
            (10, 3),           // inverted
        ] {
            let want = range_by_cursor(&mut dev, &tree, &ram, lo, hi);
            let mut cur = tree.cursor(&ram).unwrap();
            let mut got = Vec::new();
            cur.scan_range(&mut dev, lo, hi, |k, p| {
                got.push((k, p.to_vec()));
                Ok(())
            })
            .unwrap();
            assert_eq!(got, want, "range [{lo}, {hi}]");
        }
    }

    #[test]
    fn scan_range_reads_each_page_at_most_once() {
        let (mut dev, mut alloc, ram) = setup();
        let tree = build(&mut dev, &mut alloc, 20_000, 1);
        let mut cur = tree.cursor(&ram).unwrap();
        let snap = dev.snapshot();
        let mut n = 0u64;
        cur.scan_range(&mut dev, 100, 18_000, |_, _| {
            n += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(n, 17_901);
        let leaf_cap = BTree::leaf_capacity(dev.page_size(), 4) as u64;
        let leaves_spanned = 18_000 / leaf_cap - 100 / leaf_cap + 1;
        let read = dev.stats_since(&snap).pages_read;
        assert!(
            read <= leaves_spanned + tree.height() as u64,
            "read {read} pages for {leaves_spanned} leaves + descent"
        );
    }

    #[test]
    fn ascending_rescan_reuses_cached_leaf() {
        let (mut dev, mut alloc, ram) = setup();
        let tree = build(&mut dev, &mut alloc, 50_000, 1);
        let mut cur = tree.cursor(&ram).unwrap();
        cur.scan_range(&mut dev, 1_000, 1_003, |_, _| Ok(()))
            .unwrap();
        // A second scan inside the same leaf must not touch flash at all:
        // seek_ascending resolves it on the buffered page.
        let snap = dev.snapshot();
        let mut n = 0u64;
        cur.scan_range(&mut dev, 1_005, 1_010, |_, _| {
            n += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(n, 6);
        assert_eq!(dev.stats_since(&snap).pages_read, 0);
    }

    #[test]
    fn cursor_respects_ram_budget() {
        let (mut dev, mut alloc, _ram) = setup();
        let tree = build(&mut dev, &mut alloc, 50_000, 1);
        let h = tree.height() as usize;
        let small = RamArena::new(dev.page_size(), h - 1);
        assert!(tree.cursor(&small).is_err(), "needs one buffer per level");
        let enough = RamArena::new(dev.page_size(), h);
        assert!(tree.cursor(&enough).is_ok());
    }
}

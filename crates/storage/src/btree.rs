//! Bulk-loaded B+-tree over flash pages.
//!
//! This is the value-lookup layer of GhostDB's climbing indexes. §3.4: "All
//! indexes in CI are implemented by means of B+-Trees, so that CI requires
//! at most one buffer per B+-Tree level" — a [`BTreeCursor`] pins exactly
//! one RAM buffer per level and re-reads a level's page only when the
//! descent actually moves to a different page, so consecutive lookups with
//! nearby keys share the upper levels for free, while genuinely random
//! lookups pay a full descent.
//!
//! Keys are order-preserving `u64` encodings of column values
//! ([`crate::value::Value::order_key`]). Beside its keys a tree holds one or
//! more **offset columns** of fixed-width id cells (climbing indexes keep
//! one per level): a column has one cell more than the tree has keys, and
//! entry `i` owns cells `i` and `i + 1`, so a sublist `[off[i], off[i+1])`
//! needs one cell per entry. Leaves are column-major:
//!
//! ```text
//! byte 0      : node kind (0 = leaf, 1 = internal)
//! bytes 1..3  : entry count n (u16 LE)
//! bytes 4..8  : leaf: next-leaf page index (u32 LE, MAX = none)
//! bytes 8..   : internal: n × (key u64 (max key of child) | child u32)
//!               leaf:     n keys (u64 LE), then per column the n + 1
//!                         cells of entries first..=first + n
//! ```
//!
//! Leaves are the tree's first pages, in key order, and all but the last
//! are full, so a leaf's page and its column positions follow from
//! arithmetic. A range scan reads the leaves holding its bounds whole and,
//! of every leaf between them, whose keys all fall in the range, only the
//! columns it decodes ([`BTreeCursor::scan_range`]).

use crate::error::StorageError;
use crate::row::{get_id_cell, put_id_cell};
use crate::table::page_spans;
use crate::{bytes_at, Id, Result};
use ghostdb_flash::{FlashDevice, Segment, SegmentAllocator};
use ghostdb_token::{RamArena, RamBuffer};
use std::ops::Range;

const HEADER: usize = 8;
const KIND_LEAF: u8 = 0;
const KIND_INTERNAL: u8 = 1;
const NO_LEAF: u32 = u32::MAX;
const INTERNAL_ENTRY: usize = 12;
const KEY: usize = 8;

/// An immutable, bulk-loaded B+-tree on flash.
#[derive(Debug, Clone)]
pub struct BTree {
    segment: Segment,
    /// Number of levels (1 = single leaf; an empty tree is one empty leaf).
    height: u8,
    /// Page index (within the segment) of the root node.
    root_page: u64,
    /// Cell width of each offset column.
    widths: Vec<usize>,
    /// Total leaf entries.
    entries: u64,
    page_size: usize,
}

impl BTree {
    /// Leaf entries per page for offset columns of cells `widths` bytes
    /// wide: each entry takes its key and one cell per column, and each
    /// column one trailing cell.
    pub fn leaf_capacity(page_size: usize, widths: &[usize]) -> usize {
        let cells: usize = widths.iter().sum();
        page_size.saturating_sub(HEADER + cells) / (KEY + cells)
    }

    /// Internal entries per page.
    pub fn internal_capacity(page_size: usize) -> usize {
        (page_size - HEADER) / INTERNAL_ENTRY
    }

    /// Pages a tree over `n` entries will occupy (for pre-sizing).
    pub fn pages_needed(n: u64, page_size: usize, widths: &[usize]) -> u64 {
        if n == 0 {
            return 1;
        }
        let mut total = 0u64;
        let mut level = n.div_ceil(Self::leaf_capacity(page_size, widths) as u64);
        total += level;
        while level > 1 {
            level = level.div_ceil(Self::internal_capacity(page_size) as u64);
            total += level;
        }
        total
    }

    /// Bulk-build from `keys`, **strictly increasing**, and one offset
    /// column per cell width of `widths`: `columns[c]` holds
    /// `keys.len() + 1` cells. A cell its width cannot hold is
    /// [`StorageError::IdTooWide`].
    ///
    /// Charges sequential page writes — the cost of burning the index onto
    /// the key at load time.
    pub fn bulk_build(
        dev: &mut FlashDevice,
        alloc: &mut SegmentAllocator,
        widths: &[usize],
        keys: &[u64],
        columns: &[Vec<Id>],
    ) -> Result<BTree> {
        let page_size = dev.page_size();
        let leaf_cap = Self::leaf_capacity(page_size, widths);
        assert!(leaf_cap >= 2, "offset columns too wide for a page");
        if columns.len() != widths.len() || columns.iter().any(|c| c.len() != keys.len() + 1) {
            return Err(StorageError::Corrupt(format!(
                "bulk_build takes {} columns of {} cells",
                widths.len(),
                keys.len() + 1
            )));
        }
        for w in keys.windows(2) {
            if w[0] >= w[1] {
                return Err(StorageError::Corrupt(format!(
                    "bulk_build requires strictly increasing keys ({} then {})",
                    w[0], w[1]
                )));
            }
        }
        let n = keys.len() as u64;
        let pages = Self::pages_needed(n, page_size, widths);
        let segment = alloc.alloc(pages)?;
        let mut tree = BTree {
            segment,
            height: 1,
            root_page: 0,
            widths: widths.to_vec(),
            entries: n,
            page_size,
        };

        // Write leaves; remember (max_key, page) per leaf. An empty tree is
        // one empty leaf holding each column's single cell.
        let n_leaves = n.div_ceil(leaf_cap as u64).max(1);
        let mut level_index: Vec<(u64, u32)> = Vec::with_capacity(n_leaves as usize);
        let mut image = vec![0u8; page_size];
        for page_no in 0..n_leaves {
            let first = (page_no as usize) * leaf_cap;
            let chunk = &keys[first..(first + leaf_cap).min(keys.len())];
            image.fill(0);
            image[0] = KIND_LEAF;
            image[1..3].copy_from_slice(&(chunk.len() as u16).to_le_bytes());
            let next = if page_no + 1 < n_leaves {
                (page_no + 1) as u32
            } else {
                NO_LEAF
            };
            image[4..8].copy_from_slice(&next.to_le_bytes());
            for (i, key) in chunk.iter().enumerate() {
                let at = HEADER + i * KEY;
                image[at..at + KEY].copy_from_slice(&key.to_le_bytes());
            }
            for (c, column) in columns.iter().enumerate() {
                let (at, w) = (tree.column_at(chunk.len(), c), widths[c]);
                let cells = &column[first..=first + chunk.len()];
                for (cell, id) in image[at..].chunks_exact_mut(w).zip(cells) {
                    put_id_cell(cell, *id)?;
                }
            }
            let used = tree.column_at(chunk.len(), widths.len());
            dev.write(segment.lpn(page_no)?, &image[..used])?;
            level_index.push((chunk.last().copied().unwrap_or(0), page_no as u32));
        }

        // Build internal levels bottom-up.
        let mut page_no = n_leaves;
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
            tree.height += 1;
        }
        debug_assert_eq!(page_no, pages);
        tree.root_page = page_no - 1;
        Ok(tree)
    }

    /// Byte offset of column `c` in a leaf of `n` entries (of its end, for
    /// `c` = the column count).
    fn column_at(&self, n: usize, c: usize) -> usize {
        HEADER + n * KEY + self.widths[..c].iter().sum::<usize>() * (n + 1)
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

    /// Cell width of each offset column.
    pub fn widths(&self) -> &[usize] {
        &self.widths
    }

    /// Bytes occupied on flash (size model input).
    pub fn bytes(&self) -> u64 {
        self.segment.pages() * self.page_size as u64
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

/// The entries `first..first + len` of one leaf, as a range scan hands
/// them over: their cells in the offset columns the scan decodes.
#[derive(Debug)]
pub struct LeafRun<'a> {
    tree: &'a BTree,
    leaf: &'a [u8],
    /// Entries in the leaf.
    n: usize,
    first: usize,
    len: usize,
}

impl LeafRun<'_> {
    /// Entries in the run.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the run holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `len + 1` cells of `column` that bound the run's entries: entry
    /// `j` of the run owns cells `j` and `j + 1`. `column` must be one the
    /// scan decodes.
    pub fn cells(&self, column: usize) -> impl Iterator<Item = Id> + '_ {
        let w = self.tree.widths[column];
        let at = self.tree.column_at(self.n, column) + self.first * w;
        self.leaf[at..at + (self.len + 1) * w]
            .chunks_exact(w)
            .map(get_id_cell)
    }
}

/// Cursor over a [`BTree`]: seek + forward scan, one RAM buffer per level.
#[derive(Debug)]
pub struct BTreeCursor {
    tree: BTree,
    /// One buffer per level; index 0 = leaf level.
    bufs: Vec<RamBuffer>,
    /// Page held whole per level.
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
        u64::from_le_bytes(bytes_at(&self.bufs[0], HEADER + i * KEY))
    }

    /// First entry index in the buffered leaf whose key is ≥ `target`, or,
    /// with `past`, > `target`.
    fn leaf_bound(&self, target: u64, past: bool) -> usize {
        let mut lo = 0usize;
        let mut hi = self.node_count(0);
        while lo < hi {
            let mid = (lo + hi) / 2;
            let key = self.leaf_key(mid);
            if key < target || (past && key == target) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Entries `entries` of the buffered leaf, of `n` entries.
    fn run(&self, n: usize, entries: Range<usize>) -> LeafRun<'_> {
        LeafRun {
            tree: &self.tree,
            leaf: &self.bufs[0],
            n,
            first: entries.start,
            len: entries.len(),
        }
    }

    fn check_columns(&self, columns: &[usize]) -> Result<()> {
        match columns.iter().find(|c| **c >= self.tree.widths.len()) {
            Some(c) => Err(StorageError::Corrupt(format!(
                "B+-tree has {} offset columns, not column {c}",
                self.tree.widths.len()
            ))),
            None => Ok(()),
        }
    }

    fn internal_entry(&self, level: usize, i: usize) -> (u64, u32) {
        let at = HEADER + i * INTERNAL_ENTRY;
        let key = u64::from_le_bytes(bytes_at(&self.bufs[level], at));
        let child = u32::from_le_bytes(bytes_at(&self.bufs[level], at + 8));
        (key, child)
    }

    /// Descend the internal levels towards `target`: the page of the leaf
    /// holding the first key ≥ `target` (the last leaf if there is none).
    fn descend(&mut self, dev: &mut FlashDevice, target: u64) -> Result<u64> {
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
        Ok(page)
    }

    /// Position at the first entry with `key ≥ target`.
    pub fn seek(&mut self, dev: &mut FlashDevice, target: u64) -> Result<()> {
        let page = self.descend(dev, target)?;
        self.load(dev, 0, page)?;
        debug_assert_eq!(self.node_kind(0), KIND_LEAF);
        self.leaf_page = Some(page);
        self.leaf_pos = self.leaf_bound(target, false);
        Ok(())
    }

    /// Next entry in key order: its key, with `bounds[c]` set to the two
    /// cells the entry owns in column `c`, for every column. Reads whole
    /// leaves and crosses them via the next-leaf chain.
    pub fn next_into(
        &mut self,
        dev: &mut FlashDevice,
        bounds: &mut [(Id, Id)],
    ) -> Result<Option<u64>> {
        let Some(mut page) = self.leaf_page else {
            return Ok(None);
        };
        loop {
            self.load(dev, 0, page)?;
            let n = self.node_count(0);
            if self.leaf_pos < n {
                let at = self.leaf_pos;
                let run = self.run(n, at..at + 1);
                for (c, slot) in bounds.iter_mut().enumerate() {
                    let mut cells = run.cells(c);
                    if let (Some(start), Some(end)) = (cells.next(), cells.next()) {
                        *slot = (start, end);
                    }
                }
                self.leaf_pos += 1;
                return Ok(Some(self.leaf_key(at)));
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

    /// Single-traversal range scan: hand every entry with `lo ≤ key ≤ hi`
    /// to `visit`, in ascending key order, one [`LeafRun`] per leaf, with
    /// the cells of `columns` decodable. An inverted range (`hi < lo`)
    /// visits nothing and reads nothing.
    ///
    /// The leaf holding `lo` is read whole, as a point lookup reads it. If
    /// the range ends in it (or it is the last leaf), that is all. Else a
    /// second descent finds the leaf holding `hi`, which is read whole too.
    /// Every leaf between the two is full and all its keys fall in the
    /// range, so of it only the cells of `columns` are read: one page load
    /// plus the spans [`page_spans`] plans for them.
    ///
    /// Against a walk of whole leaves down the next-leaf chain this reads
    /// the same leaves, never the leaf after the range's last key, and at
    /// most the internal nodes of `hi`'s descent that `lo`'s did not already
    /// buffer: none in a tree of two levels, at most one in a tree of three.
    pub fn scan_range(
        &mut self,
        dev: &mut FlashDevice,
        lo: u64,
        hi: u64,
        columns: &[usize],
        mut visit: impl FnMut(&LeafRun<'_>) -> Result<()>,
    ) -> Result<()> {
        self.check_columns(columns)?;
        if hi < lo {
            return Ok(());
        }
        self.seek(dev, lo)?;
        let Some(first) = self.leaf_page else {
            return Ok(());
        };
        let n = self.node_count(0);
        let end = self.leaf_bound(hi, true);
        if self.leaf_pos < end {
            visit(&self.run(n, self.leaf_pos..end))?;
        }
        self.leaf_pos = end;
        // Keys are unique: a leaf whose last key is ≥ hi ends the range.
        if end < n || n == 0 || self.leaf_key(n - 1) == hi || self.leaf_next().is_none() {
            return Ok(());
        }
        let last = self.descend(dev, hi)?;
        if last > first + 1 {
            let full = BTree::leaf_capacity(self.tree.page_size, &self.tree.widths);
            let mut wanted: Vec<usize> = columns.to_vec();
            wanted.sort_unstable();
            wanted.dedup();
            let spans = page_spans(
                dev.timing(),
                wanted.iter().map(|c| {
                    let at = self.tree.column_at(full, *c);
                    at..at + (full + 1) * self.tree.widths[*c]
                }),
            );
            // The leaf buffer holds a partial image from here on.
            self.pages[0] = None;
            for page in first + 1..last {
                let lpn = self.tree.segment.lpn(page)?;
                for span in &spans {
                    dev.read(lpn, span.start, &mut self.bufs[0][span.clone()])?;
                }
                visit(&self.run(full, 0..full))?;
            }
        }
        self.load(dev, 0, last)?;
        self.leaf_page = Some(last);
        self.leaf_pos = self.leaf_bound(hi, true);
        visit(&self.run(self.node_count(0), 0..self.leaf_pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghostdb_flash::{FlashGeometry, FlashTiming};

    impl BTreeCursor {
        /// Exact-match lookup: the cells `key` owns in column 0, if present.
        fn lookup(&mut self, dev: &mut FlashDevice, key: u64) -> Result<Option<(Id, Id)>> {
            self.seek(dev, key)?;
            let mut bounds = vec![(0, 0); self.tree.widths.len()];
            match self.next_into(dev, &mut bounds)? {
                Some(k) if k == key => Ok(Some(bounds[0])),
                _ => Ok(None),
            }
        }
    }

    fn setup() -> (FlashDevice, SegmentAllocator, RamArena) {
        let dev = FlashDevice::new(
            FlashGeometry::for_capacity(16 * 1024 * 1024),
            FlashTiming::default(),
        );
        let alloc = SegmentAllocator::new(dev.logical_pages());
        let ram = RamArena::paper_default();
        (dev, alloc, ram)
    }

    /// Keys `i * stride` for `i` in `0..n`, with columns of `widths`
    /// whose column `c` holds cells `c + i`, cut to the cell width (entry
    /// `i` owns cells `i` and `i + 1`).
    fn build_with(
        dev: &mut FlashDevice,
        alloc: &mut SegmentAllocator,
        n: u64,
        stride: u64,
        widths: &[usize],
    ) -> BTree {
        let keys: Vec<u64> = (0..n).map(|i| i * stride).collect();
        let columns: Vec<Vec<Id>> = (0..widths.len())
            .map(|c| {
                let mask = (1u64 << (8 * widths[c])) - 1;
                (0..=n).map(|i| ((c as u64 + i) & mask) as Id).collect()
            })
            .collect();
        BTree::bulk_build(dev, alloc, widths, &keys, &columns).unwrap()
    }

    fn build(dev: &mut FlashDevice, alloc: &mut SegmentAllocator, n: u64, stride: u64) -> BTree {
        build_with(dev, alloc, n, stride, &[4])
    }

    #[test]
    fn lookup_hits_and_misses() {
        let (mut dev, mut alloc, ram) = setup();
        let tree = build(&mut dev, &mut alloc, 10_000, 3);
        assert!(tree.height() >= 2);
        let mut cur = tree.cursor(&ram).unwrap();
        for probe in [0u64, 3, 2_997, 29_997] {
            let i = (probe / 3) as Id;
            assert_eq!(cur.lookup(&mut dev, probe).unwrap(), Some((i, i + 1)));
        }
        assert!(cur.lookup(&mut dev, 1).unwrap().is_none());
        assert!(cur.lookup(&mut dev, 30_000).unwrap().is_none());
    }

    #[test]
    fn leaves_are_column_major() {
        // 2 040 bytes after the header: 8-byte keys plus one 1-byte and
        // one 3-byte cell per entry, and one trailing cell per column.
        assert_eq!(BTree::leaf_capacity(2048, &[1, 3]), (2048 - 8 - 4) / 12);
        assert_eq!(BTree::leaf_capacity(2048, &[4]), (2048 - 8 - 4) / 12);
        let (mut dev, mut alloc, _ram) = setup();
        let tree = build_with(&mut dev, &mut alloc, 3, 10, &[1, 2]);
        let mut image = vec![0u8; dev.page_size()];
        dev.read(tree.segment.lpn(0).unwrap(), 0, &mut image)
            .unwrap();
        assert_eq!(&image[..4], &[KIND_LEAF, 3, 0, 0]);
        assert_eq!(image[8..32], [0u64, 10, 20].map(u64::to_le_bytes).concat());
        // Column 0: cells 0..=3, one byte each; column 1: cells 1..=4, two.
        assert_eq!(&image[32..36], &[0, 1, 2, 3]);
        assert_eq!(&image[36..44], &[1, 0, 2, 0, 3, 0, 4, 0]);
    }

    #[test]
    fn a_cell_beyond_its_width_is_a_typed_error() {
        let (mut dev, mut alloc, _ram) = setup();
        let columns = vec![vec![0, 255, 256]];
        assert_eq!(
            BTree::bulk_build(&mut dev, &mut alloc, &[1], &[1, 2], &columns).unwrap_err(),
            StorageError::IdTooWide { id: 256, width: 1 }
        );
        // One cell too few.
        assert!(BTree::bulk_build(&mut dev, &mut alloc, &[1], &[1, 2], &[vec![0, 1]]).is_err());
    }

    #[test]
    fn range_scan_in_order() {
        let (mut dev, mut alloc, ram) = setup();
        let tree = build(&mut dev, &mut alloc, 5_000, 2);
        let mut cur = tree.cursor(&ram).unwrap();
        cur.seek(&mut dev, 1001).unwrap(); // between 1000 and 1002
        let mut bounds = vec![(0, 0)];
        let mut expect = 1002u64;
        let mut count = 0;
        while let Some(k) = cur.next_into(&mut dev, &mut bounds).unwrap() {
            assert_eq!(k, expect);
            assert_eq!(bounds[0].0 as u64, k / 2);
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
        let mut bounds = vec![(0, 0)];
        let mut n = 0u64;
        while let Some(k) = cur.next_into(&mut dev, &mut bounds).unwrap() {
            assert_eq!(k, n);
            n += 1;
        }
        assert_eq!(n, 2_000);
    }

    #[test]
    fn empty_tree() {
        let (mut dev, mut alloc, ram) = setup();
        let tree = BTree::bulk_build(&mut dev, &mut alloc, &[4], &[], &[vec![0]]).unwrap();
        assert!(tree.is_empty());
        let mut cur = tree.cursor(&ram).unwrap();
        assert!(cur.lookup(&mut dev, 5).unwrap().is_none());
        cur.seek(&mut dev, 0).unwrap();
        let mut bounds = vec![(0, 0)];
        assert!(cur.next_into(&mut dev, &mut bounds).unwrap().is_none());
        let mut runs = 0;
        cur.scan_range(&mut dev, 0, u64::MAX, &[0], |_| {
            runs += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(runs, 0);
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
        let columns = vec![vec![0, 0, 0]];
        assert!(BTree::bulk_build(&mut dev, &mut alloc, &[4], &[5, 3], &columns).is_err());
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

    /// Reference: every column's cells of the keys in [lo, hi] via seek +
    /// next_into, a walk of whole leaves, for differential checks below.
    fn range_by_cursor(
        dev: &mut FlashDevice,
        tree: &BTree,
        ram: &RamArena,
        lo: u64,
        hi: u64,
    ) -> Vec<Vec<(Id, Id)>> {
        let mut cur = tree.cursor(ram).unwrap();
        let mut bounds = vec![(0, 0); tree.widths().len()];
        let mut out = Vec::new();
        cur.seek(dev, lo).unwrap();
        while let Some(k) = cur.next_into(dev, &mut bounds).unwrap() {
            if k > hi {
                break;
            }
            out.push(bounds.clone());
        }
        out
    }

    /// `scan_range` over `columns`: each entry's cells in those columns.
    fn range_by_scan(
        dev: &mut FlashDevice,
        cur: &mut BTreeCursor,
        lo: u64,
        hi: u64,
        columns: &[usize],
    ) -> Vec<Vec<(Id, Id)>> {
        let mut out = Vec::new();
        cur.scan_range(dev, lo, hi, columns, |run| {
            let cells: Vec<Vec<Id>> = columns.iter().map(|c| run.cells(*c).collect()).collect();
            for j in 0..run.len() {
                out.push(cells.iter().map(|c| (c[j], c[j + 1])).collect());
            }
            Ok(())
        })
        .unwrap();
        out
    }

    #[test]
    fn scan_range_matches_seek_next_loop() {
        let (mut dev, mut alloc, ram) = setup();
        let tree = build_with(&mut dev, &mut alloc, 20_000, 3, &[1, 3, 2]);
        let cap = BTree::leaf_capacity(dev.page_size(), tree.widths()) as u64;
        let leaf_last = 3 * (cap - 1);
        for (lo, hi) in [
            (0u64, 59_997u64),              // everything
            (0, 0),                         // single key at the left edge
            (3_000, 3_000),                 // single mid key
            (3_001, 3_002),                 // empty: between keys
            (70_000, 80_000),               // empty: past the last key
            (2_997, 30_003),                // many leaves
            (leaf_last, leaf_last),         // a leaf's last key
            (leaf_last, leaf_last + 3),     // two neighbouring leaves
            (leaf_last + 1, leaf_last + 2), // empty, between two leaves
            (10, 3),                        // inverted
        ] {
            let want = range_by_cursor(&mut dev, &tree, &ram, lo, hi);
            let mut cur = tree.cursor(&ram).unwrap();
            assert_eq!(
                range_by_scan(&mut dev, &mut cur, lo, hi, &[0, 1, 2]),
                want,
                "range [{lo}, {hi}]"
            );
            let one: Vec<Vec<(Id, Id)>> = want.iter().map(|e| vec![e[2]]).collect();
            let mut cur = tree.cursor(&ram).unwrap();
            assert_eq!(range_by_scan(&mut dev, &mut cur, lo, hi, &[2]), one);
        }
    }

    #[test]
    fn middle_leaves_read_only_the_decoded_columns() {
        let (mut dev, mut alloc, ram) = setup();
        let widths = [2, 3, 1];
        let tree = build_with(&mut dev, &mut alloc, 20_000, 1, &widths);
        assert_eq!(tree.height(), 2);
        let page = dev.page_size();
        let cap = BTree::leaf_capacity(page, &widths) as u64;
        // From a leaf's second key to the one before another leaf's last.
        let (lo, hi) = (cap + 1, 12 * cap - 2);
        let middle = 9u64;
        for columns in [vec![0usize], vec![1], vec![2], vec![0, 1, 2], vec![2, 1]] {
            let mut cur = tree.cursor(&ram).unwrap();
            let snap = dev.snapshot();
            let got = range_by_scan(&mut dev, &mut cur, lo, hi, &columns);
            let io = dev.stats_since(&snap);
            assert_eq!(got.len() as u64, hi - lo + 1);
            // Root, both end leaves whole, and each middle leaf once.
            assert_eq!(io.pages_read, 3 + middle, "{columns:?}");
            let cells: u64 = (columns.iter()).map(|c| widths[*c] as u64).sum::<u64>();
            assert_eq!(
                io.bytes_to_ram,
                3 * page as u64 + middle * cells * (cap + 1),
                "{columns:?}"
            );
        }
    }

    #[test]
    fn a_range_ending_on_a_leaf_last_key_reads_one_leaf() {
        let (mut dev, mut alloc, ram) = setup();
        let tree = build(&mut dev, &mut alloc, 20_000, 1);
        let cap = BTree::leaf_capacity(dev.page_size(), tree.widths()) as u64;
        let mut cur = tree.cursor(&ram).unwrap();
        let snap = dev.snapshot();
        let got = range_by_scan(&mut dev, &mut cur, cap, 2 * cap - 1, &[0]);
        assert_eq!(got.len() as u64, cap);
        assert_eq!(dev.stats_since(&snap).pages_read, tree.height() as u64);
    }

    #[test]
    fn ascending_rescan_reuses_cached_leaf() {
        let (mut dev, mut alloc, ram) = setup();
        let tree = build(&mut dev, &mut alloc, 50_000, 1);
        let mut cur = tree.cursor(&ram).unwrap();
        cur.scan_range(&mut dev, 1_000, 1_003, &[0], |_| Ok(()))
            .unwrap();
        // A second scan inside the same leaf must not touch flash at all:
        // every page of its descent is still buffered.
        let snap = dev.snapshot();
        let mut n = 0usize;
        cur.scan_range(&mut dev, 1_005, 1_010, &[0], |run| {
            n += run.len();
            Ok(())
        })
        .unwrap();
        assert_eq!(n, 6);
        assert_eq!(dev.stats_since(&snap).pages_read, 0);
    }

    #[test]
    fn an_unknown_column_is_an_error() {
        let (mut dev, mut alloc, ram) = setup();
        let tree = build(&mut dev, &mut alloc, 100, 1);
        let mut cur = tree.cursor(&ram).unwrap();
        assert!(cur.scan_range(&mut dev, 0, 10, &[1], |_| Ok(())).is_err());
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

//! Sorted ID lists on flash — the currency of every GhostDB operator.
//!
//! Climbing-index entries yield sorted sublists of IDs; `Merge` consumes and
//! produces them; Bloom filters are built from them. On flash they are
//! packed little-endian `u32` runs. A run may start at any byte offset
//! inside a shared segment (climbing-index payload areas pack thousands of
//! runs back to back); readers therefore handle arbitrary offsets and charge
//! exactly the bytes they pull through the data register.

use crate::error::StorageError;
use crate::{Id, Result, ID_BYTES};
use ghostdb_flash::{FlashDevice, Segment, SegmentAllocator};
use ghostdb_token::{RamArena, RamBuffer};

/// A sorted run of IDs somewhere on flash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdList {
    /// Segment holding the run (possibly shared with other runs).
    pub segment: Segment,
    /// Byte offset of the first ID within the segment.
    pub byte_offset: u64,
    /// Number of IDs.
    pub count: u64,
}

impl IdList {
    /// An empty list (reads nothing).
    pub fn empty() -> Self {
        IdList {
            segment: SegmentAllocator::new(1).alloc(0).expect("zero alloc"),
            byte_offset: 0,
            count: 0,
        }
    }

    /// Bytes occupied on flash.
    pub fn bytes(&self) -> u64 {
        self.count * ID_BYTES as u64
    }
}

/// Streaming writer producing a fresh sorted ID list in its own segment.
///
/// Holds exactly **one RAM buffer** (the output buffer of §3.4's operator
/// budgets) and flushes it page by page.
#[derive(Debug)]
pub struct IdListWriter {
    segment: Segment,
    buf: RamBuffer,
    in_buf: usize,
    next_page: u64,
    count: u64,
    last: Option<Id>,
    page_size: usize,
}

impl IdListWriter {
    /// Create a writer for up to `max_ids` IDs.
    pub fn create(
        alloc: &mut SegmentAllocator,
        ram: &RamArena,
        max_ids: u64,
        page_size: usize,
    ) -> Result<Self> {
        assert_eq!(
            ram.buf_size(),
            page_size,
            "RAM buffer must equal the flash I/O unit"
        );
        let segment = alloc.alloc_bytes((max_ids * ID_BYTES as u64).max(1), page_size)?;
        Ok(IdListWriter {
            segment,
            buf: ram.alloc()?,
            in_buf: 0,
            next_page: 0,
            count: 0,
            last: None,
            page_size,
        })
    }

    /// Append an ID. IDs must arrive in non-decreasing order; duplicates are
    /// collapsed (all GhostDB lists are sets of tuple IDs).
    pub fn push(&mut self, dev: &mut FlashDevice, id: Id) -> Result<()> {
        if let Some(last) = self.last {
            if id == last {
                return Ok(());
            }
            if id < last {
                return Err(StorageError::Corrupt(format!(
                    "unsorted ID list: {id} after {last}"
                )));
            }
        }
        self.last = Some(id);
        if self.in_buf + ID_BYTES > self.page_size {
            self.flush(dev)?;
        }
        self.buf[self.in_buf..self.in_buf + ID_BYTES].copy_from_slice(&id.to_le_bytes());
        self.in_buf += ID_BYTES;
        self.count += 1;
        Ok(())
    }

    fn flush(&mut self, dev: &mut FlashDevice) -> Result<()> {
        if self.in_buf == 0 {
            return Ok(());
        }
        let lpn = self.segment.lpn(self.next_page)?;
        dev.write(lpn, &self.buf[..self.in_buf])?;
        self.next_page += 1;
        self.in_buf = 0;
        Ok(())
    }

    /// Flush and return the finished list.
    pub fn finish(mut self, dev: &mut FlashDevice) -> Result<IdList> {
        self.flush(dev)?;
        Ok(IdList {
            segment: self.segment,
            byte_offset: 0,
            count: self.count,
        })
    }

    /// The segment backing this writer (for freeing temporaries).
    pub fn segment(&self) -> Segment {
        self.segment
    }
}

/// Streaming reader over an [`IdList`], holding one RAM buffer.
#[derive(Debug)]
pub struct IdListReader {
    list: IdList,
    buf: RamBuffer,
    /// Page of the segment currently in the buffer, if any.
    buffered_page: Option<u64>,
    /// Next element index to deliver.
    pos: u64,
    page_size: usize,
    /// One-element lookahead for `peek`.
    lookahead: Option<Id>,
}

impl IdListReader {
    /// Open a reader (acquires one RAM buffer).
    pub fn open(list: IdList, ram: &RamArena, page_size: usize) -> Result<Self> {
        assert_eq!(ram.buf_size(), page_size);
        Ok(IdListReader {
            list,
            buf: ram.alloc()?,
            buffered_page: None,
            pos: 0,
            page_size,
            lookahead: None,
        })
    }

    /// Total IDs in the underlying list.
    pub fn count(&self) -> u64 {
        self.list.count
    }

    /// IDs not yet delivered (including any lookahead).
    pub fn remaining(&self) -> u64 {
        self.list.count - self.pos + self.lookahead.is_some() as u64
    }

    fn load_id(&mut self, dev: &mut FlashDevice, idx: u64) -> Result<Id> {
        let byte = self.list.byte_offset + idx * ID_BYTES as u64;
        let page = byte / self.page_size as u64;
        let off = (byte % self.page_size as u64) as usize;
        if self.buffered_page != Some(page) {
            // Pull the relevant part of the page: from this ID to the end of
            // the page or the end of the run, whichever comes first.
            let run_end = self.list.byte_offset + self.list.bytes();
            let page_end = (page + 1) * self.page_size as u64;
            let want = (run_end.min(page_end) - byte) as usize;
            let lpn = self.list.segment.lpn(page)?;
            // Read into the buffer aligned at `off` so in-page offsets match.
            dev.read(lpn, off, &mut self.buf[off..off + want])?;
            self.buffered_page = Some(page);
        }
        Ok(Id::from_le_bytes(
            self.buf[off..off + ID_BYTES].try_into().expect("4 bytes"),
        ))
    }

    /// Next ID, or `None` at the end.
    pub fn next_id(&mut self, dev: &mut FlashDevice) -> Result<Option<Id>> {
        if let Some(id) = self.lookahead.take() {
            return Ok(Some(id));
        }
        if self.pos >= self.list.count {
            return Ok(None);
        }
        let id = self.load_id(dev, self.pos)?;
        self.pos += 1;
        Ok(Some(id))
    }

    /// Peek at the next ID without consuming it.
    pub fn peek(&mut self, dev: &mut FlashDevice) -> Result<Option<Id>> {
        if self.lookahead.is_none() {
            self.lookahead = self.next_id(dev)?;
        }
        Ok(self.lookahead)
    }

    /// Drain the whole list into a vector (test/debug helper; costs the same
    /// I/O as streaming).
    pub fn drain(mut self, dev: &mut FlashDevice) -> Result<Vec<Id>> {
        let mut out = Vec::with_capacity(self.remaining() as usize);
        while let Some(id) = self.next_id(dev)? {
            out.push(id);
        }
        Ok(out)
    }
}

/// First index in `hay[from..]` whose value is ≥ `needle`, found by
/// galloping (exponential probe then binary search). Cost is
/// `O(log distance)` instead of `O(distance)`, which is what makes skewed
/// intersections cheap: the smaller list drives, the bigger one is skipped
/// over in leaps.
#[inline]
fn gallop_to(hay: &[Id], from: usize, needle: Id) -> usize {
    if from >= hay.len() || hay[from] >= needle {
        return from;
    }
    let mut step = 1usize;
    let mut lo = from;
    while lo + step < hay.len() && hay[lo + step] < needle {
        lo += step;
        step <<= 1;
    }
    let hi = (lo + step + 1).min(hay.len());
    lo + 1 + hay[lo + 1..hi].partition_point(|v| *v < needle)
}

/// Intersection of two sorted, duplicate-free ID runs by galloping: the
/// shorter run drives, the longer is leapt over exponentially. Host-side
/// only — flash-resident runs go through the streaming `Merge` machinery,
/// which charges I/O.
pub fn intersect_sorted(a: &[Id], b: &[Id]) -> Vec<Id> {
    let (drive, other) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(drive.len());
    let mut at = 0usize;
    for &x in drive {
        at = gallop_to(other, at, x);
        if at >= other.len() {
            break;
        }
        if other[at] == x {
            out.push(x);
            at += 1;
        }
    }
    out
}

/// Union of two sorted ID runs, duplicates collapsed. Linear two-pointer
/// merge with a bulk tail copy.
pub fn union_sorted(a: &[Id], b: &[Id]) -> Vec<Id> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        let v = x.min(y);
        if x == v {
            i += 1;
        }
        if y == v {
            j += 1;
        }
        if out.last() != Some(&v) {
            out.push(v);
        }
    }
    for &v in &a[i..] {
        if out.last() != Some(&v) {
            out.push(v);
        }
    }
    for &v in &b[j..] {
        if out.last() != Some(&v) {
            out.push(v);
        }
    }
    out
}

/// Write a host-side slice of sorted IDs as a fresh list (bulk-load paths
/// and tests). Charges normal sequential write I/O.
pub fn write_id_list(
    dev: &mut FlashDevice,
    alloc: &mut SegmentAllocator,
    ram: &RamArena,
    ids: &[Id],
) -> Result<IdList> {
    let mut w = IdListWriter::create(alloc, ram, ids.len() as u64, dev.page_size())?;
    for id in ids {
        w.push(dev, *id)?;
    }
    w.finish(dev)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghostdb_flash::{FlashGeometry, FlashTiming};

    fn setup() -> (FlashDevice, SegmentAllocator, RamArena) {
        let dev = FlashDevice::new(
            FlashGeometry::for_capacity(4 * 1024 * 1024),
            FlashTiming::default(),
        );
        let alloc = SegmentAllocator::new(dev.logical_pages());
        let ram = RamArena::paper_default();
        (dev, alloc, ram)
    }

    #[test]
    fn roundtrip_multi_page() {
        let (mut dev, mut alloc, ram) = setup();
        let ids: Vec<Id> = (0..3000).map(|i| i * 3).collect();
        let list = write_id_list(&mut dev, &mut alloc, &ram, &ids).unwrap();
        assert_eq!(list.count, 3000);
        let r = IdListReader::open(list, &ram, dev.page_size()).unwrap();
        assert_eq!(r.drain(&mut dev).unwrap(), ids);
    }

    #[test]
    fn duplicates_collapse_and_unsorted_rejected() {
        let (mut dev, mut alloc, ram) = setup();
        let mut w = IdListWriter::create(&mut alloc, &ram, 10, dev.page_size()).unwrap();
        w.push(&mut dev, 5).unwrap();
        w.push(&mut dev, 5).unwrap();
        w.push(&mut dev, 6).unwrap();
        assert!(w.push(&mut dev, 4).is_err());
        let list = w.finish(&mut dev).unwrap();
        assert_eq!(list.count, 2);
    }

    #[test]
    fn peek_does_not_consume() {
        let (mut dev, mut alloc, ram) = setup();
        let list = write_id_list(&mut dev, &mut alloc, &ram, &[1, 2, 3]).unwrap();
        let mut r = IdListReader::open(list, &ram, dev.page_size()).unwrap();
        assert_eq!(r.peek(&mut dev).unwrap(), Some(1));
        assert_eq!(r.peek(&mut dev).unwrap(), Some(1));
        assert_eq!(r.next_id(&mut dev).unwrap(), Some(1));
        assert_eq!(r.next_id(&mut dev).unwrap(), Some(2));
        assert_eq!(r.remaining(), 1);
    }

    #[test]
    fn unaligned_run_reads_correctly() {
        let (mut dev, mut alloc, ram) = setup();
        // Lay two runs back to back in one shared segment, second one
        // starting mid-page.
        let page = dev.page_size();
        let seg = alloc.alloc(4).unwrap();
        let ids_a: Vec<Id> = (100..600).collect(); // 2000 bytes
        let ids_b: Vec<Id> = (7000..7600).collect(); // 2400 bytes
        let mut raw: Vec<u8> = Vec::new();
        for id in ids_a.iter().chain(&ids_b) {
            raw.extend_from_slice(&id.to_le_bytes());
        }
        for (i, chunk) in raw.chunks(page).enumerate() {
            dev.write(seg.lpn(i as u64).unwrap(), chunk).unwrap();
        }
        let run_b = IdList {
            segment: seg,
            byte_offset: ids_a.len() as u64 * 4,
            count: ids_b.len() as u64,
        };
        let r = IdListReader::open(run_b, &ram, page).unwrap();
        assert_eq!(r.drain(&mut dev).unwrap(), ids_b);
    }

    #[test]
    fn reader_charges_exact_bytes() {
        let (mut dev, mut alloc, ram) = setup();
        let ids: Vec<Id> = (0..1000).collect(); // 4000 bytes: 1 full page + 1952
        let list = write_id_list(&mut dev, &mut alloc, &ram, &ids).unwrap();
        let snap = dev.snapshot();
        let r = IdListReader::open(list, &ram, dev.page_size()).unwrap();
        r.drain(&mut dev).unwrap();
        let d = dev.stats_since(&snap);
        assert_eq!(d.pages_read, 2);
        assert_eq!(d.bytes_to_ram, 4000);
    }

    #[test]
    fn empty_list_reads_nothing() {
        let (mut dev, _alloc, ram) = setup();
        let r = IdListReader::open(IdList::empty(), &ram, dev.page_size()).unwrap();
        assert_eq!(r.drain(&mut dev).unwrap(), Vec::<Id>::new());
    }

    /// Reference two-pointer set ops for the galloping equivalence checks.
    fn naive_intersect(a: &[Id], b: &[Id]) -> Vec<Id> {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out
    }

    #[test]
    fn galloping_intersect_matches_two_pointer() {
        let cases: Vec<(Vec<Id>, Vec<Id>)> = vec![
            (vec![], vec![1, 2, 3]),
            (vec![5], vec![1, 2, 3, 4, 5, 6]),
            (vec![1, 2, 3], vec![4, 5, 6]),
            ((0..1000).collect(), (0..1000).map(|i| i * 7).collect()),
            // Skewed: tiny driver, huge other — the galloping sweet spot.
            (
                vec![3, 999, 50_000, 123_456],
                (0..200_000).map(|i| i * 2).collect(),
            ),
            (
                (0..5000).map(|i| i * 3).collect(),
                (0..5000).map(|i| i * 5).collect(),
            ),
        ];
        for (a, b) in cases {
            assert_eq!(intersect_sorted(&a, &b), naive_intersect(&a, &b));
            assert_eq!(intersect_sorted(&b, &a), naive_intersect(&a, &b));
        }
    }

    #[test]
    fn union_sorted_collapses_duplicates() {
        assert_eq!(union_sorted(&[], &[]), Vec::<Id>::new());
        assert_eq!(union_sorted(&[1, 2, 2, 3], &[]), vec![1, 2, 3]);
        assert_eq!(
            union_sorted(&[1, 3, 5], &[2, 3, 4, 6]),
            vec![1, 2, 3, 4, 5, 6]
        );
        let a: Vec<Id> = (0..1000).map(|i| i * 2).collect();
        let b: Vec<Id> = (0..1000).map(|i| i * 3).collect();
        let mut expect: Vec<Id> = a.iter().chain(&b).copied().collect();
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(union_sorted(&a, &b), expect);
    }

    #[test]
    fn writer_respects_ram_budget() {
        let (dev, mut alloc, _ram) = setup();
        let tiny_ram = RamArena::new(dev.page_size(), 1);
        let w = IdListWriter::create(&mut alloc, &tiny_ram, 10, dev.page_size()).unwrap();
        // Arena exhausted: a reader cannot open concurrently.
        let list = IdList::empty();
        assert!(IdListReader::open(list, &tiny_ram, dev.page_size()).is_err());
        drop(w);
        assert!(IdListReader::open(list, &tiny_ram, dev.page_size()).is_ok());
        let _ = dev;
    }
}

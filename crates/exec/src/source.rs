//! Sorted-ID sources and the k-way union/intersection machinery beneath the
//! `Merge` operator.
//!
//! A source is a sorted ID stream coming from flash (a climbing-index
//! sublist or a materialised temp list), from the channel (a `Vis`
//! shipment, §3.4: streamed through the dedicated channel buffer at no RAM
//! cost), or the dense range `0..n` (no selection on the table).

use crate::Result;
use ghostdb_flash::FlashDevice;
use ghostdb_storage::{Id, IdList, IdListReader};
use ghostdb_token::RamArena;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Shared-ownership sorted id list. Every shared id/row payload in the
/// execution data plane routes through this alias so the pointer type is a
/// one-line swap; `Arc` keeps the whole operator tree `Send + Sync`, so a
/// `Database` (and the server that owns it) can move between threads.
pub type SharedIds = Arc<Vec<Id>>;

/// A sorted stream of tuple IDs.
#[derive(Debug, Clone)]
pub enum IdSource {
    /// A sorted run on flash (reading costs I/O and one RAM buffer).
    Flash(IdList),
    /// A host-resident sorted list (a `Vis` shipment already paid for on
    /// the channel; zero flash and RAM cost to re-stream).
    Host(SharedIds),
    /// The dense range `start..end` (no selection).
    Range {
        /// First id.
        start: Id,
        /// One past the last id.
        end: Id,
    },
}

impl IdSource {
    /// Number of IDs in the source.
    pub fn count(&self) -> u64 {
        match self {
            IdSource::Flash(l) => l.count,
            IdSource::Host(v) => v.len() as u64,
            IdSource::Range { start, end } => (*end - *start) as u64,
        }
    }

    /// RAM buffers needed to open a reader.
    pub fn buffers_needed(&self) -> usize {
        match self {
            IdSource::Flash(_) => 1,
            _ => 0,
        }
    }
}

/// An open reader over an [`IdSource`].
#[derive(Debug)]
pub enum SourceReader {
    /// Flash-backed reader.
    Flash(IdListReader),
    /// Host list cursor.
    Host {
        /// The list.
        ids: SharedIds,
        /// Cursor.
        pos: usize,
    },
    /// Range cursor.
    Range {
        /// Next id.
        next: Id,
        /// One past the last id.
        end: Id,
    },
}

impl SourceReader {
    /// Open a reader (Flash sources take one RAM buffer).
    pub fn open(source: &IdSource, ram: &RamArena, page_size: usize) -> Result<Self> {
        Ok(match source {
            IdSource::Flash(list) => {
                SourceReader::Flash(IdListReader::open(*list, ram, page_size)?)
            }
            IdSource::Host(ids) => SourceReader::Host {
                ids: ids.clone(),
                pos: 0,
            },
            IdSource::Range { start, end } => SourceReader::Range {
                next: *start,
                end: *end,
            },
        })
    }

    /// Peek the next ID without consuming.
    pub fn peek(&mut self, dev: &mut FlashDevice) -> Result<Option<Id>> {
        Ok(match self {
            SourceReader::Flash(r) => r.peek(dev)?,
            SourceReader::Host { ids, pos } => ids.get(*pos).copied(),
            SourceReader::Range { next, end } => (*next < *end).then_some(*next),
        })
    }

    /// Consume and return the next ID.
    pub fn next(&mut self, dev: &mut FlashDevice) -> Result<Option<Id>> {
        Ok(match self {
            SourceReader::Flash(r) => r.next_id(dev)?,
            SourceReader::Host { ids, pos } => {
                let v = ids.get(*pos).copied();
                if v.is_some() {
                    *pos += 1;
                }
                v
            }
            SourceReader::Range { next, end } => {
                if *next < *end {
                    let v = *next;
                    *next += 1;
                    Some(v)
                } else {
                    None
                }
            }
        })
    }
}

/// Ascending, duplicate-free union over a set of sorted readers.
///
/// A binary min-heap of `(head, reader)` pairs makes each delivered ID cost
/// `O(log k)` reader touches instead of the `O(k)` full scan of the naive
/// union — the dominant host-side cost of wide merges (one heap entry per
/// reader, readers with equal heads drained together so duplicates still
/// collapse). I/O behaviour is identical: every reader is consumed strictly
/// forward, so the same pages are read exactly once either way.
#[derive(Debug)]
pub struct UnionStream {
    readers: Vec<SourceReader>,
    /// Min-heap over `(Reverse(head), reader index)`; one entry per
    /// non-exhausted reader. Primed lazily because priming needs the device.
    heap: BinaryHeap<(Reverse<Id>, usize)>,
    primed: bool,
}

impl UnionStream {
    /// Union over open readers.
    pub fn new(readers: Vec<SourceReader>) -> Self {
        UnionStream {
            heap: BinaryHeap::with_capacity(readers.len()),
            readers,
            primed: false,
        }
    }

    /// Open readers for all sources of a group.
    pub fn open(sources: &[IdSource], ram: &RamArena, page_size: usize) -> Result<Self> {
        let readers = sources
            .iter()
            .map(|s| SourceReader::open(s, ram, page_size))
            .collect::<Result<Vec<_>>>()?;
        Ok(UnionStream::new(readers))
    }

    fn prime(&mut self, dev: &mut FlashDevice) -> Result<()> {
        if self.primed {
            return Ok(());
        }
        for (i, r) in self.readers.iter_mut().enumerate() {
            if let Some(v) = r.peek(dev)? {
                self.heap.push((Reverse(v), i));
            }
        }
        self.primed = true;
        Ok(())
    }

    /// Consume reader `i` past every value equal to `m`, then re-enter it
    /// into the heap with its new head (if any).
    fn advance_past(&mut self, dev: &mut FlashDevice, i: usize, m: Id) -> Result<()> {
        let r = &mut self.readers[i];
        while let Some(v) = r.peek(dev)? {
            if v == m {
                r.next(dev)?;
            } else {
                self.heap.push((Reverse(v), i));
                break;
            }
        }
        Ok(())
    }

    /// Next ID of the union.
    pub fn next(&mut self, dev: &mut FlashDevice) -> Result<Option<Id>> {
        self.prime(dev)?;
        let Some((Reverse(m), i)) = self.heap.pop() else {
            return Ok(None);
        };
        self.advance_past(dev, i, m)?;
        // Drain every other reader whose head ties with the minimum.
        while let Some(&(Reverse(v), j)) = self.heap.peek() {
            if v != m {
                break;
            }
            self.heap.pop();
            self.advance_past(dev, j, m)?;
        }
        Ok(Some(m))
    }

    /// Peekable wrapper used by the intersection driver.
    pub fn peek(&mut self, dev: &mut FlashDevice) -> Result<Option<Id>> {
        self.prime(dev)?;
        Ok(self.heap.peek().map(|&(Reverse(v), _)| v))
    }

    /// Advance the union until its head is ≥ `target`; returns the head.
    /// Readers below the target skip straight there without heap churn.
    pub fn seek_at_least(&mut self, dev: &mut FlashDevice, target: Id) -> Result<Option<Id>> {
        self.prime(dev)?;
        while let Some(&(Reverse(v), i)) = self.heap.peek() {
            if v >= target {
                return Ok(Some(v));
            }
            self.heap.pop();
            let r = &mut self.readers[i];
            while let Some(v) = r.peek(dev)? {
                if v < target {
                    r.next(dev)?;
                } else {
                    break;
                }
            }
            if let Some(v) = r.peek(dev)? {
                self.heap.push((Reverse(v), i));
            }
        }
        Ok(None)
    }
}

/// Intersection across groups of unions: yields IDs present in *every*
/// group (the `∩i{∪j{...}}` of the paper's `Merge`).
#[derive(Debug)]
pub struct IntersectStream {
    groups: Vec<UnionStream>,
}

impl IntersectStream {
    /// Intersection over open unions.
    pub fn new(groups: Vec<UnionStream>) -> Self {
        IntersectStream { groups }
    }

    /// Next ID of the intersection.
    pub fn next(&mut self, dev: &mut FlashDevice) -> Result<Option<Id>> {
        if self.groups.is_empty() {
            return Ok(None);
        }
        let Some(mut candidate) = self.groups[0].peek(dev)? else {
            return Ok(None);
        };
        loop {
            let mut all_match = true;
            for g in self.groups.iter_mut() {
                match g.seek_at_least(dev, candidate)? {
                    None => return Ok(None),
                    Some(v) if v == candidate => {}
                    Some(v) => {
                        candidate = v;
                        all_match = false;
                        break;
                    }
                }
            }
            if all_match {
                for g in self.groups.iter_mut() {
                    g.next(dev)?;
                }
                return Ok(Some(candidate));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghostdb_flash::{FlashGeometry, FlashTiming, SegmentAllocator};
    use ghostdb_storage::idlist::write_id_list;

    fn setup() -> (FlashDevice, SegmentAllocator, RamArena) {
        let dev = FlashDevice::new(
            FlashGeometry::for_capacity(4 * 1024 * 1024),
            FlashTiming::default(),
        );
        let alloc = SegmentAllocator::new(dev.logical_pages());
        (dev, alloc, RamArena::paper_default())
    }

    /// The scan-per-element union the heap version replaced, kept as the
    /// reference the equivalence tests below hold [`UnionStream`] to.
    #[derive(Debug)]
    struct NaiveUnionStream {
        readers: Vec<SourceReader>,
    }

    impl NaiveUnionStream {
        /// Open readers for all sources of a group.
        fn open(sources: &[IdSource], ram: &RamArena, page_size: usize) -> Result<Self> {
            let readers = sources
                .iter()
                .map(|s| SourceReader::open(s, ram, page_size))
                .collect::<Result<Vec<_>>>()?;
            Ok(NaiveUnionStream { readers })
        }

        /// Next ID of the union: scan all readers for the minimum, then consume
        /// it from every reader holding it.
        fn next(&mut self, dev: &mut FlashDevice) -> Result<Option<Id>> {
            let mut min: Option<Id> = None;
            for r in self.readers.iter_mut() {
                if let Some(v) = r.peek(dev)? {
                    min = Some(match min {
                        Some(m) => m.min(v),
                        None => v,
                    });
                }
            }
            let Some(m) = min else { return Ok(None) };
            for r in self.readers.iter_mut() {
                while let Some(v) = r.peek(dev)? {
                    if v == m {
                        r.next(dev)?;
                    } else {
                        break;
                    }
                }
            }
            Ok(Some(m))
        }
    }

    fn drain_union(mut u: UnionStream, dev: &mut FlashDevice) -> Vec<Id> {
        let mut out = Vec::new();
        while let Some(v) = u.next(dev).unwrap() {
            out.push(v);
        }
        out
    }

    #[test]
    fn union_of_mixed_sources() {
        let (mut dev, mut alloc, ram) = setup();
        let flash = write_id_list(&mut dev, &mut alloc, &ram, &[2, 4, 6, 8]).unwrap();
        let sources = vec![
            IdSource::Flash(flash),
            IdSource::Host(Arc::new(vec![1, 4, 9])),
            IdSource::Range { start: 6, end: 9 },
        ];
        let u = UnionStream::open(&sources, &ram, dev.page_size()).unwrap();
        assert_eq!(drain_union(u, &mut dev), vec![1, 2, 4, 6, 7, 8, 9]);
    }

    #[test]
    fn intersection_across_groups() {
        let (mut dev, mut alloc, ram) = setup();
        let a = write_id_list(&mut dev, &mut alloc, &ram, &[1, 3, 5, 7, 9]).unwrap();
        let b = write_id_list(&mut dev, &mut alloc, &ram, &[3, 4, 5, 9]).unwrap();
        let g1 = UnionStream::open(&[IdSource::Flash(a)], &ram, dev.page_size()).unwrap();
        let g2 = UnionStream::open(&[IdSource::Flash(b)], &ram, dev.page_size()).unwrap();
        let g3 = UnionStream::open(
            &[IdSource::Host(Arc::new(vec![2, 3, 9, 11]))],
            &ram,
            dev.page_size(),
        )
        .unwrap();
        let mut i = IntersectStream::new(vec![g1, g2, g3]);
        let mut out = Vec::new();
        while let Some(v) = i.next(&mut dev).unwrap() {
            out.push(v);
        }
        assert_eq!(out, vec![3, 9]);
    }

    #[test]
    fn union_within_groups_intersect_across() {
        let (mut dev, _alloc, ram) = setup();
        // (∪ {1,2} {5,6}) ∩ (∪ {2,5} {6})  = {2,5,6}
        let g1 = UnionStream::open(
            &[
                IdSource::Host(Arc::new(vec![1, 2])),
                IdSource::Host(Arc::new(vec![5, 6])),
            ],
            &ram,
            dev.page_size(),
        )
        .unwrap();
        let g2 = UnionStream::open(
            &[
                IdSource::Host(Arc::new(vec![2, 5])),
                IdSource::Host(Arc::new(vec![6])),
            ],
            &ram,
            dev.page_size(),
        )
        .unwrap();
        let mut i = IntersectStream::new(vec![g1, g2]);
        let mut out = Vec::new();
        while let Some(v) = i.next(&mut dev).unwrap() {
            out.push(v);
        }
        assert_eq!(out, vec![2, 5, 6]);
    }

    #[test]
    fn empty_group_yields_empty_intersection() {
        let (mut dev, _alloc, ram) = setup();
        let g1 =
            UnionStream::open(&[IdSource::Host(Arc::new(vec![]))], &ram, dev.page_size()).unwrap();
        let g2 = UnionStream::open(
            &[IdSource::Host(Arc::new(vec![1, 2]))],
            &ram,
            dev.page_size(),
        )
        .unwrap();
        let mut i = IntersectStream::new(vec![g1, g2]);
        assert_eq!(i.next(&mut dev).unwrap(), None);
    }

    #[test]
    fn heap_union_matches_naive_union_and_io() {
        // The heap-based union must deliver the byte-identical stream the
        // naive scan-based union delivers, at the same simulated I/O cost.
        let (mut dev, mut alloc, ram) = setup();
        let lists: Vec<Vec<Id>> = (0..6)
            .map(|k| (0..400u32).map(|i| i * (k + 2) + k).collect())
            .collect();
        let mut sources: Vec<IdSource> = lists
            .iter()
            .map(|ids| IdSource::Flash(write_id_list(&mut dev, &mut alloc, &ram, ids).unwrap()))
            .collect();
        sources.push(IdSource::Host(Arc::new(vec![3, 5, 1000, 4000])));
        sources.push(IdSource::Range {
            start: 90,
            end: 120,
        });

        let snap = dev.snapshot();
        let mut naive = NaiveUnionStream::open(&sources, &ram, dev.page_size()).unwrap();
        let mut expect = Vec::new();
        while let Some(v) = naive.next(&mut dev).unwrap() {
            expect.push(v);
        }
        let naive_io = dev.stats_since(&snap);
        drop(naive);

        let snap = dev.snapshot();
        let heap = UnionStream::open(&sources, &ram, dev.page_size()).unwrap();
        let got = drain_union(heap, &mut dev);
        let heap_io = dev.stats_since(&snap);

        assert_eq!(got, expect);
        assert_eq!(heap_io.pages_read, naive_io.pages_read);
        assert_eq!(heap_io.bytes_to_ram, naive_io.bytes_to_ram);
    }

    #[test]
    fn heap_union_seek_skips_equivalently() {
        let (mut dev, mut alloc, ram) = setup();
        let a = write_id_list(&mut dev, &mut alloc, &ram, &[1, 4, 9, 16, 25, 36]).unwrap();
        let sources = [
            IdSource::Flash(a),
            IdSource::Host(Arc::new(vec![2, 9, 30, 36, 50])),
        ];
        let mut u = UnionStream::open(&sources, &ram, dev.page_size()).unwrap();
        assert_eq!(u.seek_at_least(&mut dev, 10).unwrap(), Some(16));
        assert_eq!(u.next(&mut dev).unwrap(), Some(16));
        assert_eq!(u.seek_at_least(&mut dev, 37).unwrap(), Some(50));
        assert_eq!(u.seek_at_least(&mut dev, 51).unwrap(), None);
    }

    #[test]
    fn duplicates_across_sources_collapse() {
        let (mut dev, _alloc, ram) = setup();
        let u = UnionStream::open(
            &[
                IdSource::Host(Arc::new(vec![1, 2, 3])),
                IdSource::Host(Arc::new(vec![1, 2, 3])),
            ],
            &ram,
            dev.page_size(),
        )
        .unwrap();
        assert_eq!(drain_union(u, &mut dev), vec![1, 2, 3]);
    }
}

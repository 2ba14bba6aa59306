//! The `Merge` operator (paper §3.3–§3.4).
//!
//! `Merge(∩i{∪j{idT}↓})` evaluates a conjunctive expression over sorted ID
//! (sub)lists by a single synchronized scan — **provided the RAM can hold
//! one buffer per open sublist plus one output buffer**. When climbing-index
//! lookups deliver more sublists than buffers (range predicates, `∈`-probes
//! from visible selections), a **reduction phase** first materialises some
//! sublists of a group into temporaries until the remainder fits — the
//! paper's "alternative 1". It runs in two steps:
//!
//! 1. **Pack**: external-sort run formation over sublists that sit next
//!    to each other on flash. A climbing-index level stores its sublists
//!    back to back in key order, so a range of W keys yields W sublists
//!    that often share pages (one 4-byte id each on a unique-valued hidden
//!    attribute). The pack step orders a group's flash sublists by
//!    position, cuts them into consecutive chunks whose ids fit in a
//!    [`ghostdb_token::RamRegion`], loads each chunk page by page (one read
//!    per [`page_spans`] span instead of one page load per sublist), sorts
//!    the ids in the region and writes them as one temp (the writer drops
//!    duplicates). Groups with the most flash sublists pack first.
//! 2. **Union**: whatever still exceeds the budget — sublists too large or
//!    too scattered to pack — goes through the k-way union, smallest
//!    sublists first (their linear cost makes them the best candidates).
//!
//! Both steps bill every byte to `Merge` through the flash device, and
//! both are token-internal: neither changes rows, host requests or channel
//! traffic.

use crate::ctx::ExecCtx;
use crate::error::ExecError;
use crate::report::OpKind;
use crate::source::{IdSource, IntersectStream, SourceReader, UnionStream};
use crate::Result;
use ghostdb_flash::Segment;
use ghostdb_storage::idlist::{intersect_sorted, union_sorted};
use ghostdb_storage::table::page_spans;
use ghostdb_storage::{Id, IdList, IdListWriter, ID_BYTES};
use ghostdb_token::TokenError;
use std::ops::Range;

/// An opened, RAM-fitting merge: an intersection of per-group unions, plus
/// the temp segments produced by reduction (freed when the query ends).
pub struct MergeStream {
    intersect: IntersectStream,
}

impl MergeStream {
    /// Pull the next ID, attributing its I/O to `Merge`.
    pub fn next(&mut self, ctx: &mut ExecCtx<'_>) -> Result<Option<Id>> {
        ctx.tracked(OpKind::Merge, |dev| self.intersect.next(dev))
    }
}

/// Total RAM buffers the final merge pass would need for these groups.
fn flash_sources(groups: &[Vec<IdSource>]) -> usize {
    groups
        .iter()
        .flat_map(|g| g.iter())
        .map(|s| s.buffers_needed())
        .sum()
}

/// Flash sublists of one group.
fn group_flash(g: &[IdSource]) -> usize {
    g.iter().map(|s| s.buffers_needed()).sum()
}

/// The group the union step reduces next: the one with the most flash
/// sublists, among those with ≥ 2 (unioning a single sublist with nothing
/// just copies it); `None` when no group qualifies.
fn pick_spill_group(groups: &[Vec<IdSource>]) -> Option<usize> {
    (0..groups.len())
        .filter(|i| group_flash(&groups[*i]) >= 2)
        .max_by_key(|i| group_flash(&groups[*i]))
}

/// Reduction phase: pack, then union the smallest flash sublists of
/// oversized groups into single temp lists, until one buffer per remaining
/// sublist fits in `available - reserve` buffers. Reduction I/O (reads
/// *and* temp writes) is Merge cost, matching the paper's accounting of its
/// multi-pass nature.
fn reduce(ctx: &mut ExecCtx<'_>, groups: &mut [Vec<IdSource>], reserve: usize) -> Result<()> {
    pack(ctx, groups, reserve)?;
    loop {
        let avail = ctx.ram().available().saturating_sub(reserve);
        if flash_sources(groups) <= avail {
            return Ok(());
        }
        // At least two readers + one writer are needed to make progress.
        if avail < 2 || ctx.ram().available() < 3 {
            return Err(ExecError::Token(TokenError::OutOfRam {
                requested: 3,
                available: ctx.ram().available(),
                capacity: ctx.ram().capacity(),
            }));
        }
        let Some(gi) = pick_spill_group(groups) else {
            // Every oversized group holds a single (irreducible) sublist:
            // reduction cannot shrink the buffer need any further.
            return Err(ExecError::Token(TokenError::OutOfRam {
                requested: flash_sources(groups) + reserve,
                available: ctx.ram().available(),
                capacity: ctx.ram().capacity(),
            }));
        };
        // Partition: flash sublists (candidates) vs free sources.
        let group = std::mem::take(&mut groups[gi]);
        let (mut flash, other): (Vec<IdSource>, Vec<IdSource>) =
            group.into_iter().partition(|s| s.buffers_needed() > 0);
        // Smallest-first; merge as many as the arena allows at once
        // (readers k + 1 writer ≤ available).
        flash.sort_by_key(|s| s.count());
        let k = flash.len().min(ctx.ram().available() - 1);
        let batch: Vec<IdSource> = flash.drain(..k).collect();
        let merged = ctx.track(OpKind::Merge, |ctx| union_to_temp(ctx, &batch))?;
        let mut rebuilt = other;
        rebuilt.push(IdSource::Flash(merged));
        rebuilt.extend(flash);
        groups[gi] = rebuilt;
    }
}

/// The pack step of the reduction phase: while the groups exceed the
/// budget, pack the group with the most flash sublists next. It runs only
/// where the union step could make progress too, so the union step's
/// `OutOfRam` errors fire exactly as they would without it.
fn pack(ctx: &mut ExecCtx<'_>, groups: &mut [Vec<IdSource>], reserve: usize) -> Result<()> {
    let mut order: Vec<usize> = (0..groups.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(group_flash(&groups[i])));
    for gi in order {
        let avail = ctx.ram().available().saturating_sub(reserve);
        let fits = flash_sources(groups) <= avail;
        if fits || group_flash(&groups[gi]) < 2 || avail < 2 || ctx.ram().available() < 3 {
            return Ok(());
        }
        let group = std::mem::take(&mut groups[gi]);
        groups[gi] = pack_group(ctx, group)?;
    }
    Ok(())
}

/// Pack one group's flash sublists in position order: consecutive chunks
/// that fit in the free RAM (less one buffer, which stages each page and
/// then writes the temp) become one sorted temp each. A sublist that fits
/// no chunk with a neighbour stays a source of its own.
fn pack_group(ctx: &mut ExecCtx<'_>, group: Vec<IdSource>) -> Result<Vec<IdSource>> {
    let (flash, mut rebuilt): (Vec<IdSource>, Vec<IdSource>) =
        group.into_iter().partition(|s| s.buffers_needed() > 0);
    let mut lists: Vec<IdList> = flash
        .into_iter()
        .map(|s| match s {
            IdSource::Flash(l) => l,
            _ => unreachable!("partitioned on buffers_needed"),
        })
        .collect();
    lists.sort_by_key(|l| (l.segment.start(), l.byte_offset));
    let region_ids = ((ctx.ram().available() - 1) * ctx.page_size() / ID_BYTES) as u64;
    let mut rest = &lists[..];
    while let Some(first) = rest.first() {
        let mut n = 0;
        let mut ids = 0u64;
        while n < rest.len() && ids + rest[n].count <= region_ids {
            ids += rest[n].count;
            n += 1;
        }
        if n < 2 {
            rebuilt.push(IdSource::Flash(*first));
            rest = &rest[1..];
            continue;
        }
        let (chunk, tail) = rest.split_at(n);
        let packed = ctx.track(OpKind::Merge, |ctx| pack_chunk(ctx, chunk, ids))?;
        rebuilt.push(IdSource::Flash(packed));
        rest = tail;
    }
    Ok(rebuilt)
}

/// The in-page byte pieces of `lists` (sorted by position), as
/// `(segment, page, in-page bytes)` in read order.
fn pieces(
    lists: &[IdList],
    page_size: usize,
) -> impl Iterator<Item = (Segment, u64, Range<usize>)> + '_ {
    let ps = page_size as u64;
    lists.iter().filter(|l| l.count > 0).flat_map(move |l| {
        let (start, end) = (l.byte_offset, l.byte_offset + l.bytes());
        (start / ps..end.div_ceil(ps)).map(move |p| {
            let lo = start.max(p * ps) - p * ps;
            let hi = end.min((p + 1) * ps) - p * ps;
            (l.segment, p, lo as usize..hi as usize)
        })
    })
}

/// Load the `ids` ids of `chunk` into one RAM region, page by page, then
/// sort them there and write them as a fresh temp list.
fn pack_chunk(ctx: &mut ExecCtx<'_>, chunk: &[IdList], ids: u64) -> Result<IdList> {
    let page_size = ctx.page_size();
    let ram = ctx.ram();
    let bytes = ids as usize * ID_BYTES;
    let mut region = ram.alloc_region(bytes.div_ceil(page_size))?;
    let mut fill = 0usize;
    {
        let mut stage = ram.alloc()?;
        let mut page_pieces: Vec<Range<usize>> = Vec::new();
        let mut all = pieces(chunk, page_size).peekable();
        while let Some((seg, page, first)) = all.next() {
            page_pieces.clear();
            page_pieces.push(first);
            while let Some((_, _, r)) = all.next_if(|(s, p, _)| *s == seg && *p == page) {
                page_pieces.push(r);
            }
            let lpn = seg.lpn(page)?;
            ctx.lane.with_flash(|dev| {
                for span in page_spans(dev.timing(), page_pieces.iter().cloned()) {
                    dev.read(lpn, span.start, &mut stage[span])?;
                }
                Ok::<(), ExecError>(())
            })?;
            for r in &page_pieces {
                region[fill..fill + r.len()].copy_from_slice(&stage[r.clone()]);
                fill += r.len();
            }
        }
    }
    let (cells, _) = region[..fill].as_chunks_mut::<ID_BYTES>();
    cells.sort_unstable_by_key(|c| Id::from_le_bytes(*c));
    let mut writer = IdListWriter::create(ctx.lane.alloc(), &ram, ids, page_size)?;
    ctx.add_temp(writer.segment());
    ctx.lane.with_flash(|dev| {
        // The writer collapses the duplicates the sort brought together.
        for c in cells.iter() {
            writer.push(dev, Id::from_le_bytes(*c))?;
        }
        Ok(writer.finish(dev)?)
    })
}

/// Union a batch of sources into a fresh temp list.
fn union_to_temp(ctx: &mut ExecCtx<'_>, batch: &[IdSource]) -> Result<IdList> {
    let max_ids: u64 = batch.iter().map(|s| s.count()).sum();
    let page_size = ctx.page_size();
    let ram = ctx.ram();
    let mut writer = IdListWriter::create(ctx.lane.alloc(), &ram, max_ids, page_size)?;
    ctx.add_temp(writer.segment());
    let readers = batch
        .iter()
        .map(|s| SourceReader::open(s, &ram, page_size))
        .collect::<Result<Vec<_>>>()?;
    let mut union = UnionStream::new(readers);
    ctx.lane.with_flash(|dev| {
        while let Some(id) = union.next(dev)? {
            writer.push(dev, id)?;
        }
        Ok(writer.finish(dev)?)
    })
}

/// Open a merge over CNF groups, reserving `reserve` RAM buffers for the
/// downstream consumer (pipelining budget, §3.4). Runs the reduction phase
/// if needed.
pub fn open_merge(
    ctx: &mut ExecCtx<'_>,
    mut groups: Vec<Vec<IdSource>>,
    reserve: usize,
) -> Result<MergeStream> {
    reduce(ctx, &mut groups, reserve)?;
    let ram = ctx.ram();
    let page_size = ctx.page_size();
    let unions = groups
        .iter()
        .map(|g| UnionStream::open(g, &ram, page_size))
        .collect::<Result<Vec<_>>>()?;
    Ok(MergeStream {
        intersect: IntersectStream::new(unions),
    })
}

/// Merge to a materialised sorted ID list on flash. Read side is Merge,
/// output writes are Store.
pub fn merge_to_list(ctx: &mut ExecCtx<'_>, groups: Vec<Vec<IdSource>>) -> Result<IdList> {
    let max_ids: u64 = groups
        .iter()
        .map(|g| g.iter().map(|s| s.count()).sum::<u64>())
        .min()
        .unwrap_or(0);
    // One output buffer reserved for the writer.
    let mut stream = open_merge(ctx, groups, 1)?;
    let page_size = ctx.page_size();
    let ram = ctx.ram();
    let mut writer = IdListWriter::create(ctx.lane.alloc(), &ram, max_ids, page_size)?;
    ctx.add_temp(writer.segment());
    loop {
        let id = stream.next(ctx)?;
        let Some(id) = id else { break };
        ctx.tracked(OpKind::Store, |dev| writer.push(dev, id))?;
    }
    ctx.tracked(OpKind::Store, |dev| Ok(writer.finish(dev)?))
}

/// Merge straight into a host vector (used when the next consumer is a
/// channel-style probe list; the result is small by construction).
///
/// When every source is a host-resident list the merge costs no flash I/O
/// under either evaluation, so it short-circuits to galloping sorted-set
/// operations instead of spinning up the streaming machinery — same ids,
/// same (zero) simulated cost, far fewer host cycles. `Range` sources stay
/// on the streaming path: it walks them in O(1) memory, while the set
/// operations would materialise them.
pub fn merge_to_vec(ctx: &mut ExecCtx<'_>, groups: Vec<Vec<IdSource>>) -> Result<Vec<Id>> {
    if groups
        .iter()
        .all(|g| g.iter().all(|s| matches!(s, IdSource::Host(_))))
    {
        return Ok(merge_host_groups(&groups));
    }
    merge_to_vec_streaming(ctx, groups)
}

/// The streaming evaluation of [`merge_to_vec`] (always correct, charges
/// I/O for flash sources); the equivalence tests below pit the host fast
/// path against it.
fn merge_to_vec_streaming(ctx: &mut ExecCtx<'_>, groups: Vec<Vec<IdSource>>) -> Result<Vec<Id>> {
    let mut stream = open_merge(ctx, groups, 0)?;
    let mut out = Vec::new();
    while let Some(id) = stream.next(ctx)? {
        out.push(id);
    }
    Ok(out)
}

/// `∩i{∪j{...}}` over host-resident sources: per-group sorted unions, then
/// galloping intersection across groups, smallest group first so the driver
/// side of every intersection stays minimal.
fn merge_host_groups(groups: &[Vec<IdSource>]) -> Vec<Id> {
    let mut unions: Vec<Vec<Id>> = groups.iter().map(|g| union_host_group(g)).collect();
    unions.sort_by_key(|u| u.len());
    let mut iter = unions.into_iter();
    let Some(mut acc) = iter.next() else {
        return Vec::new();
    };
    for u in iter {
        if acc.is_empty() {
            return acc;
        }
        acc = intersect_sorted(&acc, &u);
    }
    acc
}

/// Sorted, duplicate-free union of one host-only group.
fn union_host_group(g: &[IdSource]) -> Vec<Id> {
    let host = |s: &IdSource| -> crate::source::SharedIds {
        match s {
            IdSource::Host(v) => v.clone(),
            _ => unreachable!("host fast path"),
        }
    };
    match g.len() {
        0 => Vec::new(),
        // union_sorted against the empty list collapses duplicates
        // inside the single source, matching the stream.
        1 => union_sorted(&host(&g[0]), &[]),
        2 => union_sorted(&host(&g[0]), &host(&g[1])),
        // Wider groups: one concat + sort + dedup instead of repeated
        // pairwise unions re-copying the accumulator per source.
        _ => {
            let mut all: Vec<Id> = Vec::with_capacity(g.iter().map(|s| s.count() as usize).sum());
            for s in g {
                all.extend_from_slice(&host(s));
            }
            all.sort_unstable();
            all.dedup();
            all
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit;
    use ghostdb_storage::IdListReader;
    use std::collections::BTreeSet;
    use std::sync::Arc;

    #[test]
    fn host_fast_path_matches_streaming_merge() {
        let mut db = testkit::tiny_db();
        let groups = |dup: bool| -> Vec<Vec<IdSource>> {
            vec![
                // Three sources: exercises the concat+sort wide-group arm.
                vec![
                    IdSource::Host(Arc::new((0..200).map(|i| i * 3).collect())),
                    IdSource::Host(Arc::new(if dup {
                        vec![1, 1, 5, 9, 9]
                    } else {
                        vec![1, 5, 9]
                    })),
                    IdSource::Host(Arc::new(vec![4, 300])),
                ],
                vec![IdSource::Host(Arc::new((0..300).collect()))],
                vec![IdSource::Host(Arc::new((0..150).map(|i| i * 2).collect()))],
            ]
        };
        for dup in [false, true] {
            let mut ctx = crate::ExecCtx::new(&mut db);
            let fast = merge_to_vec(&mut ctx, groups(dup)).unwrap();
            let streamed = merge_to_vec_streaming(&mut ctx, groups(dup)).unwrap();
            assert_eq!(fast, streamed);
            assert!(!fast.is_empty());
        }
    }

    #[test]
    fn host_fast_path_unions_then_intersects_wide_groups() {
        let groups = || -> Vec<Vec<IdSource>> {
            vec![
                vec![
                    IdSource::Host(Arc::new((0..20_000).map(|i| i * 2).collect())),
                    IdSource::Host(Arc::new((0..5_000).map(|i| i * 7).collect())),
                ],
                vec![IdSource::Host(Arc::new((0..30_000).collect()))],
                vec![IdSource::Host(Arc::new(
                    (0..15_000).map(|i| i * 3).collect(),
                ))],
            ]
        };
        let serial = merge_host_groups(&groups());
        assert!(!serial.is_empty());
        let expect: Vec<Id> = (0..30_000)
            .filter(|i| (i % 2 == 0 || i % 7 == 0) && i % 3 == 0)
            .collect();
        assert_eq!(serial, expect);
    }

    #[test]
    fn spill_group_is_the_widest_reducible_group() {
        // Host-only groups have no flash sublists: nothing to spill.
        let groups = vec![vec![IdSource::Host(Arc::new(vec![1, 2, 3]))]];
        assert_eq!(pick_spill_group(&groups), None);
        let list = |count| {
            IdSource::Flash(IdList {
                count,
                ..IdList::empty()
            })
        };
        let groups = vec![
            vec![list(2000), list(2000), list(2000)],
            vec![list(3), list(3)],
            vec![list(1)],
        ];
        assert_eq!(pick_spill_group(&groups), Some(0));
        assert_eq!(pick_spill_group(&groups[1..]), Some(0));
        assert_eq!(pick_spill_group(&groups[2..]), None);
    }

    /// Deterministic SplitMix64 stream for the seeded layouts below.
    struct SplitMix(u64);

    impl SplitMix {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }
    }

    /// Write `lists` (each sorted) into one fresh segment, `gaps[i]` junk
    /// bytes before list `i`, and return their `IdList`s.
    fn lay_out(ctx: &mut crate::ExecCtx<'_>, lists: &[Vec<Id>], gaps: &[usize]) -> Vec<IdList> {
        let page_size = ctx.page_size();
        let mut bytes: Vec<u8> = Vec::new();
        let mut out = Vec::new();
        for (ids, gap) in lists.iter().zip(gaps) {
            bytes.extend(std::iter::repeat_n(0xA5, *gap));
            out.push((bytes.len() as u64, ids.len() as u64));
            for id in ids {
                bytes.extend_from_slice(&id.to_le_bytes());
            }
        }
        let seg = ctx
            .lane
            .alloc()
            .alloc_bytes(bytes.len().max(1) as u64, page_size)
            .unwrap();
        ctx.add_temp(seg);
        ctx.lane.with_flash(|dev| {
            for (p, page) in bytes.chunks(page_size).enumerate() {
                dev.write(seg.lpn(p as u64).unwrap(), page).unwrap();
            }
        });
        out.into_iter()
            .map(|(byte_offset, count)| IdList {
                segment: seg,
                byte_offset,
                count,
            })
            .collect()
    }

    /// Pages one reader per sublist loads: every page each sublist touches.
    fn reader_pages(lists: &[IdList], page_size: usize) -> u64 {
        lists
            .iter()
            .filter(|l| l.count > 0)
            .map(|l| {
                let ps = page_size as u64;
                (l.byte_offset + l.bytes() - 1) / ps - l.byte_offset / ps + 1
            })
            .sum()
    }

    #[test]
    fn contiguous_one_id_sublists_pack_page_by_page() {
        // 1000 one-id sublists back to back span two pages: packing them
        // costs two page reads, where one reader per sublist costs 1000.
        let mut db = testkit::tiny_db();
        let mut ctx = crate::ExecCtx::new(&mut db);
        let ids: Vec<Vec<Id>> = (0..1000).map(|i| vec![(i * 7919) % 1000]).collect();
        let lists = lay_out(&mut ctx, &ids, &[0; 1000]);
        assert_eq!(reader_pages(&lists, ctx.page_size()), 1000);
        let mut groups = vec![lists.into_iter().map(IdSource::Flash).collect::<Vec<_>>()];
        let snap = ctx.lane.io();
        reduce(&mut ctx, &mut groups, 0).unwrap();
        let io = ctx.lane.io() - snap;
        assert_eq!(io.pages_read, 2);
        assert!(flash_sources(&groups) <= ctx.ram().available());
        let got = merge_to_vec_streaming(&mut ctx, groups).unwrap();
        assert_eq!(got, (0..1000).collect::<Vec<Id>>());
        ctx.free_temps().unwrap();
    }

    #[test]
    fn pack_step_property() {
        let mut rng = SplitMix(0x0060_57DB);
        let mut packed_cases = 0;
        for case in 0..60u64 {
            let mut db = testkit::tiny_db();
            let mut ctx = crate::ExecCtx::new(&mut db);
            let ram = ctx.ram();
            let page_size = ctx.page_size();
            let free_before = ctx.lane.alloc().free_pages();
            // Arena pressure: most cases run with only 3-4 free buffers.
            let free = if case % 3 == 0 {
                ram.capacity()
            } else {
                3 + rng.below(2) as usize
            };
            let held = ram.alloc_region(ram.capacity() - free).unwrap();
            let region_ids = ((free - 1) * page_size / ID_BYTES) as u64;
            let mut groups: Vec<Vec<IdSource>> = Vec::new();
            let mut all_lists: Vec<IdList> = Vec::new();
            // One or two segments, each holding a group's worth of
            // sublists: one-id, short, page-straddling or larger than the
            // region, packed back to back or with gaps.
            for _ in 0..1 + rng.below(2) {
                let n = 2 + rng.below(120) as usize;
                let mut lists = Vec::new();
                let mut gaps = Vec::new();
                for _ in 0..n {
                    let len = match rng.below(10) {
                        0..=5 => 1,
                        6 | 7 => 1 + rng.below(40),
                        8 => 300 + rng.below(700),
                        _ if rng.below(4) == 0 => region_ids + 1 + rng.below(200),
                        _ => 1 + rng.below(5),
                    };
                    let mut ids: Vec<Id> = (0..len).map(|_| rng.below(2000) as Id).collect();
                    ids.sort_unstable();
                    ids.dedup();
                    lists.push(ids);
                    // Ids never straddle a page: gaps are whole ids.
                    gaps.push(match rng.below(4) {
                        0 => rng.below(150) as usize * ID_BYTES,
                        1 => rng.below(page_size as u64) as usize * ID_BYTES,
                        _ => 0,
                    });
                }
                let laid = lay_out(&mut ctx, &lists, &gaps);
                all_lists.extend(&laid);
                // Segments interleave inside one group half of the time.
                match groups.last_mut() {
                    Some(g) if rng.below(2) == 0 => g.extend(laid.into_iter().map(IdSource::Flash)),
                    _ => groups.push(laid.into_iter().map(IdSource::Flash).collect()),
                }
            }
            let expected: BTreeSet<Id> = groups
                .iter()
                .map(|g| {
                    let mut u = BTreeSet::new();
                    for s in g {
                        let IdSource::Flash(l) = s else {
                            unreachable!()
                        };
                        let ids = ctx.lane.with_flash(|dev| {
                            IdListReader::open(*l, &ram, page_size)
                                .unwrap()
                                .drain(dev)
                                .unwrap()
                        });
                        u.extend(ids);
                    }
                    u
                })
                .reduce(|a, b| a.intersection(&b).copied().collect())
                .unwrap();
            let snap = ctx.lane.io();
            let mut packed = groups.clone();
            let avail = ram.available();
            pack(&mut ctx, &mut packed, 0).unwrap();
            let io = ctx.lane.io() - snap;
            packed_cases += (flash_sources(&packed) < flash_sources(&groups)) as u32;
            assert!(
                io.pages_read <= reader_pages(&all_lists, page_size),
                "case {case}: pack read {} pages",
                io.pages_read
            );
            assert_eq!(ram.available(), avail, "case {case}: pack leaked RAM");
            let got = merge_to_vec_streaming(&mut ctx, packed).unwrap();
            assert_eq!(got, expected.into_iter().collect::<Vec<_>>(), "case {case}");
            assert!(ram.peak() <= ram.capacity(), "case {case}");
            drop(held);
            ctx.free_temps().unwrap();
            assert_eq!(ctx.lane.alloc().free_pages(), free_before, "case {case}");
        }
        assert!(packed_cases >= 30, "only {packed_cases} cases packed");
    }

    #[test]
    fn reduction_out_of_ram_errors_are_unchanged() {
        let mut db = testkit::tiny_db();
        let mut ctx = crate::ExecCtx::new(&mut db);
        let ram = ctx.ram();
        let ids: Vec<Vec<Id>> = (0..40).map(|i| vec![i]).collect();
        let lists = lay_out(&mut ctx, &ids, &[0; 40]);
        let wide = || {
            vec![lists
                .iter()
                .copied()
                .map(IdSource::Flash)
                .collect::<Vec<_>>()]
        };
        // Fewer than two buffers left after the reserve: no progress.
        let held = ram.alloc_region(ram.capacity() - 4).unwrap();
        let snap = ctx.lane.io();
        let err = reduce(&mut ctx, &mut wide(), 3).unwrap_err();
        assert_eq!(
            err,
            ExecError::Token(TokenError::OutOfRam {
                requested: 3,
                available: 4,
                capacity: ram.capacity(),
            })
        );
        assert_eq!(ctx.lane.io() - snap, Default::default());
        drop(held);
        // One irreducible sublist per group, more groups than buffers.
        let mut singles: Vec<Vec<IdSource>> =
            lists.iter().map(|l| vec![IdSource::Flash(*l)]).collect();
        let err = reduce(&mut ctx, &mut singles, 1).unwrap_err();
        assert_eq!(
            err,
            ExecError::Token(TokenError::OutOfRam {
                requested: 41,
                available: ram.capacity(),
                capacity: ram.capacity(),
            })
        );
        ctx.free_temps().unwrap();
    }

    #[test]
    fn range_sources_stay_on_the_streaming_path() {
        // Ranges must not be materialised by the fast path; the result is
        // still identical between entry point and streaming evaluation.
        let mut db = testkit::tiny_db();
        let groups = || -> Vec<Vec<IdSource>> {
            vec![
                vec![IdSource::Host(Arc::new((0..100).map(|i| i * 2).collect()))],
                vec![IdSource::Range {
                    start: 50,
                    end: 180,
                }],
            ]
        };
        let mut ctx = crate::ExecCtx::new(&mut db);
        let a = merge_to_vec(&mut ctx, groups()).unwrap();
        let b = merge_to_vec_streaming(&mut ctx, groups()).unwrap();
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn empty_groups_and_empty_group_edge_cases() {
        let mut db = testkit::tiny_db();
        let mut ctx = crate::ExecCtx::new(&mut db);
        assert_eq!(merge_to_vec(&mut ctx, vec![]).unwrap(), Vec::<Id>::new());
        let groups = vec![
            vec![IdSource::Host(Arc::new(vec![1, 2, 3]))],
            vec![IdSource::Host(Arc::new(Vec::new()))],
        ];
        assert_eq!(merge_to_vec(&mut ctx, groups).unwrap(), Vec::<Id>::new());
    }
}

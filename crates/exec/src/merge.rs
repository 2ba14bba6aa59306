//! The `Merge` operator (paper §3.3–§3.4).
//!
//! `Merge(∩i{∪j{idT}↓})` evaluates a conjunctive expression over sorted ID
//! (sub)lists by a single synchronized scan — **provided the RAM can hold
//! one buffer per open sublist plus one output buffer**. When climbing-index
//! lookups deliver more sublists than buffers (range predicates, `∈`-probes
//! from visible selections), a **reduction** takes one of two ways:
//!
//! 1. **Pack** (the paper's "alternative 1", as external-sort run
//!    formation): a climbing-index level stores its sublists back to back
//!    in key order, so a range of W keys yields W sublists that often share
//!    pages. The pack step orders a group's flash sublists by position,
//!    cuts them into consecutive chunks whose ids fit in a
//!    [`ghostdb_token::RamRegion`], loads each chunk page by page (one read
//!    per [`page_spans`] span instead of one page load per sublist), sorts
//!    the ids in the region and writes them as one temp (the writer drops
//!    duplicates). Groups with the most flash sublists pack first, until
//!    the rest fits the synchronized scan. Where pack alone cannot reduce
//!    enough (it leaves more chunks than buffers), the **union step**
//!    finishes: it k-way unions the smallest flash sublists of the widest
//!    group into one temp at a time, as many passes as it takes.
//! 2. **Bitmap windows**: the ids of a level lie in the public domain
//!    `0..|T|`, so the token evaluates the whole CNF by address, `W` ids at
//!    a time. The first group sets bits in an accumulator bitmap; every
//!    later group sets bits in a second bitmap that is then ANDed into the
//!    accumulator. Flash sublists are read page-span exact in position
//!    order through one stage buffer, host lists and ranges set their bits
//!    from RAM, and duplicates collapse by construction. The stream emits
//!    each window's set bits in order, then builds the next window. It
//!    writes no temp, but every window re-reads every flash sublist.
//!
//! Where pack alone reduces enough, the reduction prices both ways from the
//! sublist descriptors, the RAM budget and the public domain size before
//! any I/O, and takes the cheaper one: pack costs one read of its chunks,
//! the temp programs and the temp re-reads; bitmap costs one read of every
//! flash sublist per window. Where it does not, pack and the union step
//! run, since their passes grow with the log of the sublist count while
//! the windows grow with `|T|`; bitmap is the way out only where more
//! groups hold flash sublists than there are buffers, which no union can
//! fix. Every path bills every byte to `Merge` through the flash device,
//! and all are token-internal: none changes rows, host requests or channel
//! traffic.

use crate::ctx::ExecCtx;
use crate::error::ExecError;
use crate::report::OpKind;
use crate::source::{IdSource, IntersectStream, SourceReader, UnionStream};
use crate::Result;
use ghostdb_flash::{FlashDevice, FlashTiming, Segment};
use ghostdb_storage::idlist::slots_per_page;
use ghostdb_storage::idlist::{intersect_sorted, union_sorted};
use ghostdb_storage::row::{get_id_cell, id_width};
use ghostdb_storage::table::page_spans;
use ghostdb_storage::{Id, IdList, IdListWriter};
use ghostdb_token::{RamArena, RamBuffer, RamRegion, TokenError};
use std::cmp::Reverse;
use std::ops::Range;

/// An opened merge: a synchronized scan over sources that fit the RAM, or
/// bitmap windows over the level's id domain.
pub struct MergeStream {
    eval: Evaluation,
}

enum Evaluation {
    Scan(IntersectStream),
    Windows(Windows),
}

impl MergeStream {
    /// Pull the next ID, attributing its I/O to `Merge`.
    pub fn next(&mut self, ctx: &mut ExecCtx<'_>) -> Result<Option<Id>> {
        ctx.tracked(OpKind::Merge, |dev| match &mut self.eval {
            Evaluation::Scan(s) => s.next(dev),
            Evaluation::Windows(w) => w.next(dev),
        })
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

/// The flash sublists of one group, in position order.
fn flash_lists(g: &[IdSource]) -> Vec<IdList> {
    let mut lists: Vec<IdList> = g
        .iter()
        .filter_map(|s| match s {
            IdSource::Flash(l) => Some(*l),
            _ => None,
        })
        .collect();
    lists.sort_by_key(|l| (l.segment.start(), l.start));
    lists
}

/// How a merge is evaluated.
enum Reduction {
    /// Pack as planned (nothing, when the sources fit), the union step for
    /// what pack leaves, then the synchronized scan.
    Scan(PackPlan),
    /// Bitmap windows of this many buffers per bitmap.
    Windows(usize),
}

/// Choose the reduction for `groups` when they do not fit in the
/// `available - reserve` free buffers. Where pack alone reduces enough, the
/// cheaper of pack and bitmap windows over the id domain `0..domain`,
/// bitmap on a tie. Where it does not, pack and then the union step, which
/// finishes whenever every group can shrink to one flash source; bitmap
/// windows where even that cannot fit.
fn reduce(
    ctx: &ExecCtx<'_>,
    groups: &[Vec<IdSource>],
    reserve: usize,
    domain: u64,
) -> Result<Reduction> {
    let ram = ctx.ram();
    let budget = ram.available().saturating_sub(reserve);
    if flash_sources(groups) <= budget {
        return Ok(Reduction::Scan(PackPlan {
            packs: Vec::new(),
            fits: true,
        }));
    }
    // Two readers and a writer, or a bitmap and a stage buffer, are the
    // least that can make progress.
    if budget < 2 || ram.available() < 3 {
        return Err(ExecError::Token(TokenError::OutOfRam {
            requested: 3,
            available: ram.available(),
            capacity: ram.capacity(),
        }));
    }
    let (timing, page_size) = (ctx.lane.timing(), ctx.page_size());
    let plan = plan_pack(groups, ram.available(), reserve, page_size);
    let windows = window_buffers(groups.len(), budget);
    if !plan.fits {
        let spillable = groups.iter().filter(|g| group_flash(g) > 0).count() <= budget;
        return match (spillable, windows) {
            (true, _) => Ok(Reduction::Scan(plan)),
            (false, Some(buffers)) => Ok(Reduction::Windows(buffers)),
            (false, None) => Err(ExecError::Token(TokenError::OutOfRam {
                requested: flash_sources(groups) + reserve,
                available: ram.available(),
                capacity: ram.capacity(),
            })),
        };
    }
    let Some(buffers) = windows else {
        return Ok(Reduction::Scan(plan));
    };
    let pack = pack_ns(groups, &plan, timing, page_size);
    let width = window_width(buffers, page_size);
    let bitmap = windows_ns(groups, domain.div_ceil(width), timing, page_size);
    Ok(if pack < bitmap {
        Reduction::Scan(plan)
    } else {
        Reduction::Windows(buffers)
    })
}

/// Simulated ns of reading `list` through one reader, as the synchronized
/// scan does: one load per page it touches, and every byte.
fn reader_ns(list: &IdList, timing: &FlashTiming, page_size: usize) -> u128 {
    if list.count == 0 {
        return 0;
    }
    let pages = list.pages(page_size);
    (pages.end - pages.start) as u128 * timing.read_cost_ns(0)
        + list.bytes() as u128 * timing.transfer_ns_per_byte as u128
}

/// Simulated ns of [`load_pieces`] over `lists` (in position order).
fn span_read_ns(lists: &[IdList], timing: &FlashTiming, page_size: usize) -> u128 {
    pages(lists, page_size)
        .flat_map(|(.., pieces)| page_spans(timing, pieces))
        .map(|span| timing.read_cost_ns(span.len()))
        .sum()
}

/// The pack step's plan: for each group it packs (widest first), the
/// group's flash sublists in position order and the lengths of the
/// consecutive chunks they are cut into (a chunk of one sublist stays a
/// source of its own). `fits` when the packed groups fit the budget.
struct PackPlan {
    packs: Vec<(usize, Vec<IdList>, Vec<usize>)>,
    fits: bool,
}

/// Plan the pack step: while the groups exceed `available - reserve`
/// buffers, cut the group with the most flash sublists into chunks whose
/// ids, at their width, fit the free RAM less one buffer (which stages each
/// page and then writes the temp).
fn plan_pack(
    groups: &[Vec<IdSource>],
    available: usize,
    reserve: usize,
    page_size: usize,
) -> PackPlan {
    let budget = available.saturating_sub(reserve);
    let region_bytes = ((available - 1) * page_size) as u64;
    let mut need = flash_sources(groups);
    let mut order: Vec<usize> = (0..groups.len()).collect();
    order.sort_by_key(|&i| Reverse(group_flash(&groups[i])));
    let mut packs = Vec::new();
    for gi in order {
        if need <= budget || group_flash(&groups[gi]) < 2 {
            break;
        }
        let lists = flash_lists(&groups[gi]);
        let mut chunks = Vec::new();
        let mut rest = &lists[..];
        while !rest.is_empty() {
            let mut n = 0;
            let mut bytes = 0u64;
            while n < rest.len() && bytes + rest[n].bytes() <= region_bytes {
                bytes += rest[n].bytes();
                n += 1;
            }
            let n = n.max(1);
            chunks.push(n);
            rest = &rest[n..];
        }
        need -= lists.len() - chunks.len();
        packs.push((gi, lists, chunks));
    }
    PackPlan {
        packs,
        fits: need <= budget,
    }
}

/// Simulated `Merge` ns of the pack path: reading every chunk, writing and
/// re-reading its temp, and reading every other flash sublist in the
/// synchronized scan. Exact when the chunks hold no duplicate ids and the
/// scan runs to the end.
fn pack_ns(
    groups: &[Vec<IdSource>],
    plan: &PackPlan,
    timing: &FlashTiming,
    page_size: usize,
) -> u128 {
    let mut ns = 0;
    for (gi, g) in groups.iter().enumerate() {
        let Some((_, lists, chunks)) = plan.packs.iter().find(|(p, _, _)| *p == gi) else {
            ns += flash_lists(g)
                .iter()
                .map(|l| reader_ns(l, timing, page_size))
                .sum::<u128>();
            continue;
        };
        let mut rest = &lists[..];
        for &n in chunks {
            let (chunk, tail) = rest.split_at(n);
            rest = tail;
            if n == 1 {
                ns += reader_ns(&chunk[0], timing, page_size);
                continue;
            }
            let ids = chunk.iter().map(|l| l.count).sum::<u64>();
            let width = chunk_width(chunk);
            let bytes = ids * width as u64;
            let pages = ids.div_ceil(slots_per_page(width, page_size)) as u128;
            ns += span_read_ns(chunk, timing, page_size)
                + pages * (timing.write_cost_ns(page_size) + timing.read_cost_ns(0))
                + bytes as u128 * timing.transfer_ns_per_byte as u128;
        }
    }
    ns
}

/// Run a pack plan: each planned chunk of two or more sublists becomes one
/// sorted temp.
fn pack(ctx: &mut ExecCtx<'_>, groups: &mut [Vec<IdSource>], plan: PackPlan) -> Result<()> {
    for (gi, lists, chunks) in plan.packs {
        let mut rebuilt: Vec<IdSource> = std::mem::take(&mut groups[gi])
            .into_iter()
            .filter(|s| s.buffers_needed() == 0)
            .collect();
        let mut rest = &lists[..];
        for n in chunks {
            let (chunk, tail) = rest.split_at(n);
            rest = tail;
            let list = match chunk {
                [one] => *one,
                _ => ctx.track(OpKind::Merge, |ctx| pack_chunk(ctx, chunk))?,
            };
            rebuilt.push(IdSource::Flash(list));
        }
        groups[gi] = rebuilt;
    }
    Ok(())
}

/// The group the union step reduces next: the one with the most flash
/// sublists, among those with ≥ 2 (unioning a single sublist with nothing
/// just copies it); `None` when no group qualifies.
fn pick_spill_group(groups: &[Vec<IdSource>]) -> Option<usize> {
    (0..groups.len())
        .filter(|i| group_flash(&groups[*i]) >= 2)
        .max_by_key(|i| group_flash(&groups[*i]))
}

/// The union step, for what pack leaves: union the smallest flash sublists
/// of the widest group into single temp lists, until one buffer per
/// remaining sublist fits in `available - reserve` buffers. Its reads and
/// temp writes are Merge cost, matching the paper's accounting of its
/// multi-pass nature.
fn union_step(ctx: &mut ExecCtx<'_>, groups: &mut [Vec<IdSource>], reserve: usize) -> Result<()> {
    while flash_sources(groups) > ctx.ram().available().saturating_sub(reserve) {
        let Some(gi) = pick_spill_group(groups) else {
            // Every oversized group holds a single (irreducible) sublist.
            return Err(ExecError::Token(TokenError::OutOfRam {
                requested: flash_sources(groups) + reserve,
                available: ctx.ram().available(),
                capacity: ctx.ram().capacity(),
            }));
        };
        let group = std::mem::take(&mut groups[gi]);
        let (mut flash, other): (Vec<IdSource>, Vec<IdSource>) =
            group.into_iter().partition(|s| s.buffers_needed() > 0);
        // Smallest first; as many as the arena allows at once (k readers
        // and one writer).
        flash.sort_by_key(|s| s.count());
        let k = flash.len().min(ctx.ram().available() - 1);
        let batch: Vec<IdSource> = flash.drain(..k).collect();
        let merged = ctx.track(OpKind::Merge, |ctx| union_to_temp(ctx, &batch))?;
        let mut rebuilt = other;
        rebuilt.push(IdSource::Flash(merged));
        rebuilt.extend(flash);
        groups[gi] = rebuilt;
    }
    Ok(())
}

/// Union a batch of flash sublists into a fresh temp list of their width.
fn union_to_temp(ctx: &mut ExecCtx<'_>, batch: &[IdSource]) -> Result<IdList> {
    let max_ids: u64 = batch.iter().map(|s| s.count()).sum();
    let width = (batch.iter())
        .filter_map(|s| match s {
            IdSource::Flash(l) => Some(l.width),
            _ => None,
        })
        .max()
        .unwrap_or(1);
    let page_size = ctx.page_size();
    let ram = ctx.ram();
    let mut writer = IdListWriter::create(ctx.lane.alloc(), &ram, max_ids, width, page_size)?;
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

/// The in-page byte pieces of `lists` (sorted by position), as
/// `(segment, page, id width, in-page bytes)` in read order.
fn pieces(
    lists: &[IdList],
    page_size: usize,
) -> impl Iterator<Item = (Segment, u64, usize, Range<usize>)> + '_ {
    lists.iter().flat_map(move |l| {
        (l.pages(page_size)).map(move |p| (l.segment, p, l.width, l.bytes_on(p, page_size)))
    })
}

/// The pages `lists` (sorted by position) touch, in read order, each with
/// the width of its ids (one segment holds one width) and its in-page
/// pieces.
fn pages(
    lists: &[IdList],
    page_size: usize,
) -> impl Iterator<Item = (Segment, u64, usize, Vec<Range<usize>>)> + '_ {
    let mut all = pieces(lists, page_size).peekable();
    std::iter::from_fn(move || {
        let (seg, page, width, first) = all.next()?;
        let mut page_pieces = vec![first];
        while let Some((.., r)) = all.next_if(|(s, p, ..)| *s == seg && *p == page) {
            page_pieces.push(r);
        }
        Some((seg, page, width, page_pieces))
    })
}

/// Read `lists` (sorted by position) page by page through `stage`, one
/// read per [`page_spans`] span, and hand each piece's bytes and id width
/// to `f` in position order.
fn load_pieces(
    dev: &mut FlashDevice,
    lists: &[IdList],
    stage: &mut [u8],
    page_size: usize,
    mut f: impl FnMut(&[u8], usize) -> Result<()>,
) -> Result<()> {
    for (seg, page, width, page_pieces) in pages(lists, page_size) {
        let lpn = seg.lpn(page)?;
        for span in page_spans(dev.timing(), page_pieces.iter().cloned()) {
            dev.read(lpn, span.start, &mut stage[span])?;
        }
        for r in page_pieces {
            f(&stage[r], width)?;
        }
    }
    Ok(())
}

/// Load the ids of `chunk`, sublists of one width, into one RAM region,
/// page by page, then sort them there and write them as a fresh temp list
/// of that width.
fn pack_chunk(ctx: &mut ExecCtx<'_>, chunk: &[IdList]) -> Result<IdList> {
    let width = chunk_width(chunk);
    if chunk.iter().any(|l| l.count > 0 && l.width != width) {
        return Err(ExecError::Query(
            "Merge: pack chunk of mixed id widths".into(),
        ));
    }
    let ids: u64 = chunk.iter().map(|l| l.count).sum();
    let page_size = ctx.page_size();
    let ram = ctx.ram();
    let mut region = ram.alloc_region((ids as usize * width).div_ceil(page_size))?;
    let mut fill = 0usize;
    {
        let mut stage = ram.alloc()?;
        ctx.lane.with_flash(|dev| {
            load_pieces(dev, chunk, &mut stage, page_size, |bytes, _| {
                region[fill..fill + bytes.len()].copy_from_slice(bytes);
                fill += bytes.len();
                Ok(())
            })
        })?;
    }
    let cells = &mut region[..fill];
    match width {
        1 => sort_cells::<1>(cells),
        2 => sort_cells::<2>(cells),
        3 => sort_cells::<3>(cells),
        _ => sort_cells::<4>(cells),
    }
    let mut writer = IdListWriter::create(ctx.lane.alloc(), &ram, ids, width, page_size)?;
    ctx.add_temp(writer.segment());
    ctx.lane.with_flash(|dev| {
        // The writer collapses the duplicates the sort brought together.
        for c in cells.chunks_exact(width) {
            writer.push(dev, get_id_cell(c))?;
        }
        Ok(writer.finish(dev)?)
    })
}

/// The id width of a pack chunk's cells: its non-empty sublists' (an
/// empty one holds no cell, whatever its width).
fn chunk_width(chunk: &[IdList]) -> usize {
    chunk.iter().find(|l| l.count > 0).map_or(1, |l| l.width)
}

/// Sort the `W`-byte little-endian id cells of `bytes` in place.
fn sort_cells<const W: usize>(bytes: &mut [u8]) {
    let (cells, _) = bytes.as_chunks_mut::<W>();
    cells.sort_unstable_by_key(|c| get_id_cell(c));
}

/// Buffers per bitmap for `groups` groups in `budget` free buffers, one of
/// which stages flash pages: two bitmaps (accumulator and scratch) for two
/// groups or more, one for a single group. `None` when they do not fit.
fn window_buffers(groups: usize, budget: usize) -> Option<usize> {
    let bitmaps = if groups > 1 { 2 } else { 1 };
    let buffers = budget.checked_sub(1)? / bitmaps;
    (buffers > 0).then_some(buffers)
}

/// Ids one window covers: one bit each in a bitmap of `buffers` pages.
fn window_width(buffers: usize, page_size: usize) -> u64 {
    (buffers * page_size * 8) as u64
}

/// Simulated `Merge` ns of `windows` bitmap windows: every window reads
/// every group's flash sublists page-span exact.
fn windows_ns(
    groups: &[Vec<IdSource>],
    windows: u64,
    timing: &FlashTiming,
    page_size: usize,
) -> u128 {
    let once: u128 = groups
        .iter()
        .map(|g| span_read_ns(&flash_lists(g), timing, page_size))
        .sum();
    windows as u128 * once
}

/// One group as the windows read it: its flash sublists in position order
/// and its RAM-resident sources.
struct WindowGroup {
    flash: Vec<IdList>,
    other: Vec<IdSource>,
}

/// Bitmap-window evaluation of `∩i{∪j}` over the id domain `0..domain`.
struct Windows {
    groups: Vec<WindowGroup>,
    domain: u64,
    width: u64,
    acc: RamRegion,
    /// The second bitmap later groups set before the AND (two groups or
    /// more).
    scratch: Option<RamRegion>,
    stage: RamBuffer,
    page_size: usize,
    /// First id of the current window.
    start: u64,
    /// Whether the current window's bitmap is built.
    built: bool,
    /// Next bit of the current window to look at.
    bit: u64,
}

/// An id outside the merge's domain: the bitmap has no bit for it.
fn outside(id: u64, domain: u64) -> ExecError {
    ExecError::Query(format!("id {id} outside the merge domain 0..{domain}"))
}

impl Windows {
    fn open(
        ram: &RamArena,
        groups: Vec<Vec<IdSource>>,
        buffers: usize,
        domain: u64,
        page_size: usize,
    ) -> Result<Self> {
        for s in groups.iter().flatten() {
            let last = match s {
                IdSource::Host(ids) => ids.last().map(|&id| id as u64),
                IdSource::Range { start, end } if start < end => Some(*end as u64 - 1),
                _ => None,
            };
            if let Some(id) = last.filter(|&id| id >= domain) {
                return Err(outside(id, domain));
            }
        }
        let scratch = if groups.len() > 1 {
            Some(ram.alloc_region(buffers)?)
        } else {
            None
        };
        Ok(Windows {
            groups: groups
                .into_iter()
                .map(|g| WindowGroup {
                    flash: flash_lists(&g),
                    other: g.into_iter().filter(|s| s.buffers_needed() == 0).collect(),
                })
                .collect(),
            domain,
            width: window_width(buffers, page_size),
            acc: ram.alloc_region(buffers)?,
            scratch,
            stage: ram.alloc()?,
            page_size,
            start: 0,
            built: false,
            bit: 0,
        })
    }

    /// Next id: the next set bit of the current window, building windows
    /// until one has a bit left or the domain ends.
    fn next(&mut self, dev: &mut FlashDevice) -> Result<Option<Id>> {
        while self.start < self.domain {
            let len = self.width.min(self.domain - self.start);
            if !self.built {
                self.build(dev, len)?;
                self.built = true;
                self.bit = 0;
            }
            if let Some(b) = next_set_bit(&self.acc, self.bit, len) {
                self.bit = b + 1;
                return Ok(Some((self.start + b) as Id));
            }
            self.start += self.width;
            self.built = false;
        }
        Ok(None)
    }

    /// Build the accumulator of the window of `len` ids at `self.start`.
    fn build(&mut self, dev: &mut FlashDevice, len: u64) -> Result<()> {
        let used = len.div_ceil(8) as usize;
        let window = self.start..self.start + len;
        for (i, g) in self.groups.iter().enumerate() {
            let bits = match &mut self.scratch {
                Some(scratch) if i > 0 => &mut scratch[..used],
                _ => &mut self.acc[..used],
            };
            bits.fill(0);
            for s in &g.other {
                match s {
                    IdSource::Host(ids) => {
                        let from = ids.partition_point(|&id| (id as u64) < window.start);
                        let to = ids.partition_point(|&id| (id as u64) < window.end);
                        for &id in &ids[from..to] {
                            set_bit(bits, id as u64 - window.start);
                        }
                    }
                    IdSource::Range { start, end } => {
                        let lo = (*start as u64).max(window.start);
                        let hi = (*end as u64).min(window.end);
                        for id in lo..hi {
                            set_bit(bits, id - window.start);
                        }
                    }
                    IdSource::Flash(_) => unreachable!("flash sources are read below"),
                }
            }
            let domain = self.domain;
            load_pieces(
                dev,
                &g.flash,
                &mut self.stage,
                self.page_size,
                |bytes, width| {
                    for c in bytes.chunks_exact(width) {
                        let id = get_id_cell(c) as u64;
                        if id >= domain {
                            return Err(outside(id, domain));
                        }
                        if window.contains(&id) {
                            set_bit(bits, id - window.start);
                        }
                    }
                    Ok(())
                },
            )?;
            if let (Some(scratch), true) = (&self.scratch, i > 0) {
                for (a, s) in self.acc[..used].iter_mut().zip(&scratch[..used]) {
                    *a &= s;
                }
            }
        }
        Ok(())
    }
}

fn set_bit(bits: &mut [u8], i: u64) {
    bits[(i / 8) as usize] |= 1 << (i % 8);
}

/// The first set bit of `bits` at or after `from` and below `len`.
fn next_set_bit(bits: &[u8], from: u64, len: u64) -> Option<u64> {
    let mut i = from;
    while i < len {
        let rest = bits[(i / 8) as usize] >> (i % 8);
        if rest != 0 {
            let b = i + rest.trailing_zeros() as u64;
            return (b < len).then_some(b);
        }
        i = (i / 8 + 1) * 8;
    }
    None
}

/// Open a merge over CNF groups whose ids lie in `0..domain` (the level's
/// public row count), reserving `reserve` RAM buffers for the downstream
/// consumer (pipelining budget, §3.4). Runs the reduction if needed.
pub fn open_merge(
    ctx: &mut ExecCtx<'_>,
    groups: Vec<Vec<IdSource>>,
    reserve: usize,
    domain: u64,
) -> Result<MergeStream> {
    let reduction = reduce(ctx, &groups, reserve, domain)?;
    open_reduced(ctx, groups, reduction, reserve, domain)
}

/// Open the merge `reduction` chose.
fn open_reduced(
    ctx: &mut ExecCtx<'_>,
    mut groups: Vec<Vec<IdSource>>,
    reduction: Reduction,
    reserve: usize,
    domain: u64,
) -> Result<MergeStream> {
    let ram = ctx.ram();
    let page_size = ctx.page_size();
    let eval = match reduction {
        Reduction::Windows(buffers) => {
            Evaluation::Windows(Windows::open(&ram, groups, buffers, domain, page_size)?)
        }
        Reduction::Scan(plan) => {
            pack(ctx, &mut groups, plan)?;
            union_step(ctx, &mut groups, reserve)?;
            let unions = groups
                .iter()
                .map(|g| UnionStream::open(g, &ram, page_size))
                .collect::<Result<Vec<_>>>()?;
            Evaluation::Scan(IntersectStream::new(unions))
        }
    };
    Ok(MergeStream { eval })
}

/// Merge to a materialised sorted ID list on flash, its ids
/// [`id_width`]`(domain)` bytes. Read side is Merge, output writes are
/// Store.
pub fn merge_to_list(
    ctx: &mut ExecCtx<'_>,
    groups: Vec<Vec<IdSource>>,
    domain: u64,
) -> Result<IdList> {
    let max_ids: u64 = groups
        .iter()
        .map(|g| g.iter().map(|s| s.count()).sum::<u64>())
        .min()
        .unwrap_or(0);
    // One output buffer reserved for the writer.
    let mut stream = open_merge(ctx, groups, 1, domain)?;
    let page_size = ctx.page_size();
    let ram = ctx.ram();
    let width = id_width(domain);
    let mut writer = IdListWriter::create(ctx.lane.alloc(), &ram, max_ids, width, page_size)?;
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
pub fn merge_to_vec(
    ctx: &mut ExecCtx<'_>,
    groups: Vec<Vec<IdSource>>,
    domain: u64,
) -> Result<Vec<Id>> {
    if groups
        .iter()
        .all(|g| g.iter().all(|s| matches!(s, IdSource::Host(_))))
    {
        return Ok(merge_host_groups(&groups));
    }
    merge_to_vec_streaming(ctx, groups, domain)
}

/// The streaming evaluation of [`merge_to_vec`] (always correct, charges
/// I/O for flash sources); the equivalence tests below pit the host fast
/// path against it.
fn merge_to_vec_streaming(
    ctx: &mut ExecCtx<'_>,
    groups: Vec<Vec<IdSource>>,
    domain: u64,
) -> Result<Vec<Id>> {
    let stream = open_merge(ctx, groups, 0, domain)?;
    drain(ctx, stream)
}

/// Every id of `stream`.
fn drain(ctx: &mut ExecCtx<'_>, mut stream: MergeStream) -> Result<Vec<Id>> {
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
            let fast = merge_to_vec(&mut ctx, groups(dup), 600).unwrap();
            let streamed = merge_to_vec_streaming(&mut ctx, groups(dup), 600).unwrap();
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

    /// `lists` laid out back to back in 4-byte slots, `gaps[i]` slots
    /// before list `i`.
    fn lay_out(ctx: &mut crate::ExecCtx<'_>, lists: &[Vec<Id>], gaps: &[u64]) -> Vec<IdList> {
        testkit::lay_out(ctx, lists, gaps, 4).unwrap()
    }

    /// Pages one reader per sublist loads: every page each sublist touches.
    fn reader_pages(lists: &[IdList], page_size: usize) -> u64 {
        lists
            .iter()
            .filter(|l| l.count > 0)
            .map(|l| l.pages(page_size).count() as u64)
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
        let plan = plan_pack(&groups, ctx.ram().available(), 0, ctx.page_size());
        assert!(plan.fits);
        pack(&mut ctx, &mut groups, plan).unwrap();
        let io = ctx.lane.io() - snap;
        assert_eq!(io.pages_read, 2);
        assert!(flash_sources(&groups) <= ctx.ram().available());
        let got = merge_to_vec_streaming(&mut ctx, groups, 1000).unwrap();
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
            let region_ids = ((free - 1) * page_size / 4) as u64;
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
                    // Gaps are whole id slots.
                    gaps.push(match rng.below(4) {
                        0 => rng.below(150),
                        1 => rng.below(page_size as u64),
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
            let plan = plan_pack(&packed, avail, 0, page_size);
            pack(&mut ctx, &mut packed, plan).unwrap();
            let io = ctx.lane.io() - snap;
            packed_cases += (flash_sources(&packed) < flash_sources(&groups)) as u32;
            assert!(
                io.pages_read <= reader_pages(&all_lists, page_size),
                "case {case}: pack read {} pages",
                io.pages_read
            );
            assert_eq!(ram.available(), avail, "case {case}: pack leaked RAM");
            let got = merge_to_vec_streaming(&mut ctx, packed, 2000).unwrap();
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
        let err = reduce(&ctx, &wide(), 3, 40).err().unwrap();
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
        // One irreducible sublist per group, more groups than buffers:
        // pack cannot reduce them, the bitmap windows merge them.
        let singles: Vec<Vec<IdSource>> = lists.iter().map(|l| vec![IdSource::Flash(*l)]).collect();
        let oracle: BTreeSet<Id> = ids
            .iter()
            .map(|g| g.iter().copied().collect::<BTreeSet<Id>>())
            .reduce(|a, b| a.intersection(&b).copied().collect())
            .unwrap();
        let got = merge_to_vec_streaming(&mut ctx, singles, 40).unwrap();
        assert_eq!(got, oracle.into_iter().collect::<Vec<_>>());
        assert!(ram.peak() <= ram.capacity());
        ctx.free_temps().unwrap();
    }

    #[test]
    fn what_pack_cannot_reduce_the_union_step_finishes() {
        // Ten sublists of 2000 ids in one group, four free buffers: every
        // sublist outgrows the three-page pack region, so pack leaves ten
        // sources for four buffers and the union step spills them.
        let domain = 100_000u64;
        let mut db = testkit::tiny_db();
        let mut ctx = crate::ExecCtx::new(&mut db);
        let ram = ctx.ram();
        let ids: Vec<Vec<Id>> = (0..10u32)
            .map(|k| (0..2000).map(|i| i * 43 + k * 5).collect())
            .collect();
        let lists = lay_out(&mut ctx, &ids, &[0; 10]);
        let group = vec![lists
            .iter()
            .copied()
            .map(IdSource::Flash)
            .collect::<Vec<_>>()];
        let held = ram.alloc_region(ram.capacity() - 4).unwrap();
        let plan = plan_pack(&group, ram.available(), 0, ctx.page_size());
        assert!(!plan.fits);
        assert!(matches!(
            reduce(&ctx, &group, 0, domain),
            Ok(Reduction::Scan(_))
        ));
        let snap = ctx.lane.io();
        let got = merge_to_vec_streaming(&mut ctx, group, domain).unwrap();
        let oracle: BTreeSet<Id> = ids.iter().flatten().copied().collect();
        assert_eq!(got, oracle.into_iter().collect::<Vec<_>>());
        assert!(
            (ctx.lane.io() - snap).pages_written > 0,
            "the union step spills"
        );
        assert!(ram.peak() <= ram.capacity());
        drop(held);
        ctx.free_temps().unwrap();
    }

    #[test]
    fn reduce_prices_exactly_what_each_path_bills() {
        // Two groups over 0..100_000: 1500 one-id sublists back to back and
        // a few longer ones beside a host list, both ending at the last id,
        // so the scan reads every sublist to the end and no chunk holds a
        // duplicate: each path's bill is exactly its price.
        let domain = 100_000u64;
        let mut db = testkit::tiny_db();
        let mut ctx = crate::ExecCtx::new(&mut db);
        let ram = ctx.ram();
        let (timing, page_size) = (*ctx.lane.timing(), ctx.page_size());
        let last = domain as Id - 1;
        let mut ids: Vec<Vec<Id>> = (0..1499).map(|i| vec![i * 61 + 7]).collect();
        ids.push(vec![last]);
        ids.extend((0..6u32).map(|k| (0..900).map(|i| i * 97 + k * 13).collect::<Vec<Id>>()));
        ids.last_mut().unwrap().push(last);
        let gaps: Vec<u64> = (0..ids.len() as u64).map(|i| i % 7).collect();
        let lists = lay_out(&mut ctx, &ids, &gaps);
        let groups = vec![
            lists[..1500]
                .iter()
                .copied()
                .map(IdSource::Flash)
                .collect::<Vec<_>>(),
            lists[1500..]
                .iter()
                .copied()
                .map(IdSource::Flash)
                .chain([IdSource::Host(Arc::new(vec![5, 68, 90_000]))])
                .collect(),
        ];
        let oracle: Vec<Id> = {
            let a: BTreeSet<Id> = ids[..1500].iter().flatten().copied().collect();
            let b: BTreeSet<Id> = ids[1500..]
                .iter()
                .flatten()
                .copied()
                .chain([5, 68, 90_000])
                .collect();
            a.intersection(&b).copied().collect()
        };
        // Six free buffers: pack fits, and bitmap windows take two
        // bitmaps of two buffers, 32 768 ids each, so four windows.
        let held = ram.alloc_region(ram.capacity() - 6).unwrap();
        let plan = plan_pack(&groups, ram.available(), 0, page_size);
        assert!(plan.fits);
        let pack_price = pack_ns(&groups, &plan, &timing, page_size);
        let buffers = window_buffers(groups.len(), ram.available()).unwrap();
        assert_eq!(domain.div_ceil(window_width(buffers, page_size)), 4);
        let windows_price = windows_ns(&groups, 4, &timing, page_size);
        let mut wrote = Vec::new();
        for (reduction, priced) in [
            (Reduction::Scan(plan), pack_price),
            (Reduction::Windows(buffers), windows_price),
        ] {
            let (before, snap) = (ctx.cost.op(OpKind::Merge).as_ns(), ctx.lane.io());
            let stream = open_reduced(&mut ctx, groups.clone(), reduction, 0, domain).unwrap();
            assert_eq!(drain(&mut ctx, stream).unwrap(), oracle);
            assert_eq!(ctx.cost.op(OpKind::Merge).as_ns() - before, priced);
            wrote.push((ctx.lane.io() - snap).pages_written);
            assert!(ram.peak() <= ram.capacity());
        }
        assert!(wrote[0] > 0, "pack writes temps");
        assert_eq!(wrote[1], 0, "bitmap windows write nothing");
        drop(held);
        ctx.free_temps().unwrap();
    }

    #[test]
    fn an_id_outside_the_domain_is_an_error_on_the_bitmap_path() {
        // 40 one-id groups take the bitmap path; the last id has no bit.
        let mut db = testkit::tiny_db();
        let mut ctx = crate::ExecCtx::new(&mut db);
        let ids: Vec<Vec<Id>> = (0..40).map(|i| vec![i]).collect();
        let lists = lay_out(&mut ctx, &ids, &[0; 40]);
        let singles = lists.iter().map(|l| vec![IdSource::Flash(*l)]).collect();
        let err = merge_to_vec_streaming(&mut ctx, singles, 39).unwrap_err();
        assert_eq!(err, outside(39, 39));
        assert_eq!(ctx.ram().in_use(), 0);
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
        let a = merge_to_vec(&mut ctx, groups(), 600).unwrap();
        let b = merge_to_vec_streaming(&mut ctx, groups(), 600).unwrap();
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn empty_groups_and_empty_group_edge_cases() {
        let mut db = testkit::tiny_db();
        let mut ctx = crate::ExecCtx::new(&mut db);
        assert_eq!(
            merge_to_vec(&mut ctx, vec![], 600).unwrap(),
            Vec::<Id>::new()
        );
        let groups = vec![
            vec![IdSource::Host(Arc::new(vec![1, 2, 3]))],
            vec![IdSource::Host(Arc::new(Vec::new()))],
        ];
        assert_eq!(
            merge_to_vec(&mut ctx, groups, 600).unwrap(),
            Vec::<Id>::new()
        );
    }
}

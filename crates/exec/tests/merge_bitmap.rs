//! Merge reduction by bitmap windows. When a merge's flash sublists
//! outnumber the free RAM buffers, `open_merge` prices pack against bitmap
//! windows over the level's id domain and takes the cheaper one. Where pack
//! alone cannot reduce enough, the union step spills what it leaves, and
//! bitmap windows take the groups that not even the union step can fit.
//!
//! Random layouts — one-id, short, page-straddling and larger-than-region
//! sublists, back to back or with gaps, in one or two segments — mixed
//! with host lists and ranges in one to five groups, over domains that
//! need 1 to 4 windows (the ids spread over the whole domain, so window
//! edges fall inside sublists), with reserves 0, 1 and 4 and 3–4 free
//! buffers beyond the reserve. Whichever way the reduction goes:
//!
//! * the ids equal a `BTreeSet` oracle;
//! * the arena's peak never passes its capacity;
//! * every RAM buffer and allocator page comes back.
//!
//! Deepen with `PROPTEST_CASES=1024 cargo test --release …` (the CI
//! `proptest-deep` leg).

use ghostdb_exec::merge::open_merge;
use ghostdb_exec::source::IdSource;
use ghostdb_exec::{testkit, ExecCtx};
use ghostdb_storage::{Id, IdList, ID_BYTES};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

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

    /// `len` sorted, distinct ids below `domain`.
    fn ids(&mut self, len: u64, domain: u64) -> Vec<Id> {
        let mut ids: Vec<Id> = (0..len).map(|_| self.below(domain) as Id).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

/// Write `lists` (each sorted) into one fresh segment, `gaps[i]` junk
/// bytes before list `i`, and return their `IdList`s.
fn lay_out(ctx: &mut ExecCtx<'_>, lists: &[Vec<Id>], gaps: &[usize]) -> Vec<IdList> {
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

/// What one case observed.
struct Case {
    /// The merge needed a reduction (more flash sublists than buffers).
    reduced: bool,
    /// Pages the merge programmed: temps on the pack and union paths,
    /// none on the bitmap path.
    pages_written: u64,
}

/// Build one seeded layout, merge it and check it; panics on a violation.
fn run_case(seed: u64, reserve: usize, free: usize, windows: u64) -> Case {
    let mut rng = SplitMix(seed);
    let mut db = testkit::tiny_db();
    let mut ctx = ExecCtx::new(&mut db);
    let ram = ctx.ram();
    let page_size = ctx.page_size();
    let pages_before = ctx.lane.alloc().free_pages();
    let held = ram.alloc_region(ram.capacity() - reserve - free).unwrap();
    // The pack region's ids, and the window width the bitmap path gets:
    // the free buffers less one stage buffer, halved for two bitmaps.
    let region_ids = ((reserve + free - 1) * page_size / ID_BYTES) as u64;
    // One to five groups (more than the free buffers, some of the time);
    // every sublist of the one or two segments joins a random group, so
    // segments interleave inside groups.
    let group_count = 1 + rng.below(5) as usize;
    let bitmaps = if group_count > 1 { 2 } else { 1 };
    let width = ((free - 1) / bitmaps * page_size * 8) as u64;
    let domain = (windows - 1) * width + 1 + rng.below(width);
    let mut groups: Vec<Vec<IdSource>> = vec![Vec::new(); group_count];
    let mut sets: Vec<BTreeSet<Id>> = vec![BTreeSet::new(); group_count];
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
            lists.push(rng.ids(len, domain));
            // Ids never straddle a page: gaps are whole ids.
            gaps.push(match rng.below(4) {
                0 => rng.below(150) as usize * ID_BYTES,
                1 => rng.below(page_size as u64) as usize * ID_BYTES,
                _ => 0,
            });
        }
        for (list, ids) in lay_out(&mut ctx, &lists, &gaps).into_iter().zip(&lists) {
            let gi = rng.below(group_count as u64) as usize;
            groups[gi].push(IdSource::Flash(list));
            sets[gi].extend(ids);
        }
    }
    // Host lists and ranges ride along in random groups.
    for _ in 0..rng.below(4) {
        let gi = rng.below(groups.len() as u64) as usize;
        if rng.below(2) == 0 {
            let len = 1 + rng.below(3000);
            let ids = rng.ids(len, domain);
            sets[gi].extend(&ids);
            groups[gi].push(IdSource::Host(Arc::new(ids)));
        } else {
            let start = rng.below(domain);
            let end = start + rng.below(domain - start + 1);
            sets[gi].extend(start as Id..end as Id);
            groups[gi].push(IdSource::Range {
                start: start as Id,
                end: end as Id,
            });
        }
    }
    let expected: Vec<Id> = sets
        .into_iter()
        .reduce(|a, b| a.intersection(&b).copied().collect())
        .unwrap()
        .into_iter()
        .collect();
    let flash: usize = groups.iter().flatten().map(|s| s.buffers_needed()).sum();

    let available = ram.available();
    let snap = ctx.lane.io();
    let mut stream = open_merge(&mut ctx, groups, reserve, domain).unwrap();
    let mut got = Vec::new();
    while let Some(id) = stream.next(&mut ctx).unwrap() {
        got.push(id);
    }
    drop(stream);
    let io = ctx.lane.io() - snap;
    assert_eq!(got, expected, "seed {seed:#x}");
    assert!(ram.peak() <= ram.capacity(), "seed {seed:#x}");
    assert_eq!(ram.available(), available, "seed {seed:#x}: merge kept RAM");
    drop(held);
    ctx.free_temps().unwrap();
    assert_eq!(
        ctx.lane.alloc().free_pages(),
        pages_before,
        "seed {seed:#x}: flash pages leaked"
    );
    Case {
        reduced: flash > free,
        pages_written: io.pages_written,
    }
}

/// Reserve of case `pick`: 0, 1 or 4 buffers.
const RESERVES: [usize; 3] = [0, 1, 4];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every reduction returns the oracle's ids inside the arena and gives
    /// back every buffer and page.
    #[test]
    fn reduced_merges_match_the_oracle(
        seed in any::<u64>(),
        pick in 0usize..3,
        free in 3usize..5,
        windows in 1u64..5,
    ) {
        run_case(seed, RESERVES[pick], free, windows);
    }
}

/// Over a fixed sweep of layouts, some reductions take the bitmap path
/// (they write no page) and some spill temps (pack, with the union step
/// where pack cannot reduce enough): the suite covers both.
#[test]
fn the_sweep_covers_both_paths() {
    let (mut bitmap, mut spilled, mut reduced) = (0, 0, 0);
    for case in 0..96u64 {
        let c = run_case(
            0xB17_0000 + case,
            RESERVES[case as usize % 3],
            3 + case as usize % 2,
            1 + case / 2 % 4,
        );
        if c.reduced {
            reduced += 1;
            if c.pages_written == 0 {
                bitmap += 1;
            } else {
                spilled += 1;
            }
        }
    }
    assert!(reduced >= 80, "only {reduced} of 96 cases reduced");
    assert!(
        bitmap >= 20,
        "only {bitmap} reductions took the bitmap path"
    );
    assert!(spilled >= 20, "only {spilled} reductions wrote temps");
}

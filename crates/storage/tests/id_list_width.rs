//! Narrow id lists: an `IdList` stores each id in its width (1–4 bytes)
//! and addresses ids by slot, `page_size / width` slots to a page, so no
//! id straddles a page.
//!
//! * `IdListWriter` → `IdListReader` round trips at every width, with
//!   lists long enough to cross pages (682 slots a page at width 3, whose
//!   pages leave 2 bytes unused);
//! * runs laid back to back in one shared segment, each starting at any
//!   slot, read back exactly, charging one page load per page they touch
//!   and exactly their `count × width` bytes;
//! * an id of 2^(8w) or more pushed into a `w`-byte list is
//!   [`StorageError::IdTooWide`], never a silent truncation, and the list
//!   keeps the ids before it.
//!
//! Deepen with `PROPTEST_CASES=1024 cargo test --release …` (the CI
//! `proptest-deep` leg).

use ghostdb_flash::{FlashDevice, FlashGeometry, FlashTiming, SegmentAllocator};
use ghostdb_storage::idlist::{id_pages, slots_per_page, write_id_list};
use ghostdb_storage::row::put_id_cell;
use ghostdb_storage::{Id, IdList, IdListReader, IdListWriter, StorageError};
use ghostdb_token::RamArena;
use proptest::prelude::*;

fn setup() -> (FlashDevice, SegmentAllocator, RamArena) {
    let dev = FlashDevice::new(
        FlashGeometry::for_capacity(8 * 1024 * 1024),
        FlashTiming::default(),
    );
    let alloc = SegmentAllocator::new(dev.logical_pages());
    (dev, alloc, RamArena::paper_default())
}

/// The largest id a `width`-byte slot holds.
fn max_id(width: usize) -> u64 {
    (1u64 << (8 * width)) - 1
}

/// `len` ascending, distinct ids below 2^(8·width), spread by `seed`.
fn ids(len: usize, width: usize, seed: u64) -> Vec<Id> {
    let bound = max_id(width) + 1;
    let mut ids: Vec<Id> = (0..len as u64)
        .map(|i| ((i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed) % bound) as Id)
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// Read `list` whole; the ids, pages loaded and bytes transferred.
fn read(dev: &mut FlashDevice, ram: &RamArena, list: IdList) -> (Vec<Id>, u64, u64) {
    let snap = dev.snapshot();
    let reader = IdListReader::open(list, ram, dev.page_size()).unwrap();
    let got = reader.drain(dev).unwrap();
    let d = dev.stats_since(&snap);
    (got, d.pages_read, d.bytes_to_ram)
}

#[test]
fn slots_per_page_at_every_width() {
    let page = 2048;
    let slots: Vec<u64> = (1..=4).map(|w| slots_per_page(w, page)).collect();
    assert_eq!(slots, vec![2048, 1024, 682, 512]);
    assert_eq!(id_pages(682, 3, page), 1);
    assert_eq!(id_pages(683, 3, page), 2);
    assert_eq!(id_pages(0, 3, page), 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn written_lists_round_trip_at_every_width(
        width in 1usize..=4,
        len in 0usize..3000,
        seed in any::<u64>(),
    ) {
        let (mut dev, mut alloc, ram) = setup();
        let ids = ids(len, width, seed);
        let list = write_id_list(&mut dev, &mut alloc, &ram, width, &ids).unwrap();
        prop_assert_eq!((list.width, list.count), (width, ids.len() as u64));
        let (got, pages, bytes) = read(&mut dev, &ram, list);
        prop_assert_eq!(&got, &ids);
        prop_assert_eq!(pages, list.pages(dev.page_size()).count() as u64);
        prop_assert_eq!(bytes, ids.len() as u64 * width as u64);
    }

    #[test]
    fn runs_starting_at_any_slot_read_back_exactly(
        width in 1usize..=4,
        runs in proptest::collection::vec((0u64..1500, 0usize..1500), 1..6),
        seed in any::<u64>(),
    ) {
        let (mut dev, mut alloc, ram) = setup();
        let page_size = dev.page_size();
        let spp = slots_per_page(width, page_size);
        // Lay the runs back to back, `gap` unused slots before each.
        let mut laid = Vec::new();
        let mut slot = 0u64;
        for (i, (gap, len)) in runs.iter().enumerate() {
            let run = ids(*len, width, seed ^ i as u64);
            laid.push((slot + gap, run.clone()));
            slot += gap + run.len() as u64;
        }
        let pages = id_pages(slot, width, page_size);
        let mut image = vec![0xA5u8; pages as usize * page_size];
        for (start, run) in &laid {
            for (i, id) in run.iter().enumerate() {
                let s = start + i as u64;
                let at = (s / spp) as usize * page_size + (s % spp) as usize * width;
                put_id_cell(&mut image[at..at + width], *id).unwrap();
            }
        }
        let segment = alloc.alloc(pages).unwrap();
        for (p, chunk) in image.chunks(page_size).enumerate() {
            dev.write(segment.lpn(p as u64).unwrap(), chunk).unwrap();
        }
        for (start, run) in laid {
            let list = IdList { segment, start, count: run.len() as u64, width };
            let touched = list.pages(page_size);
            if !run.is_empty() {
                prop_assert_eq!(touched.start, start / spp);
                let first = list.bytes_on(touched.start, page_size).start;
                prop_assert_eq!(first, (start % spp) as usize * width);
            }
            let (got, pages_read, bytes) = read(&mut dev, &ram, list);
            prop_assert_eq!(got, run.clone());
            prop_assert_eq!(pages_read, touched.count() as u64);
            prop_assert_eq!(bytes, run.len() as u64 * width as u64);
        }
    }

    #[test]
    fn an_id_beyond_the_width_is_refused_not_truncated(
        width in 1usize..=3,
        kept in 0usize..1200,
        over in 0u64..1_000_000,
    ) {
        let (mut dev, mut alloc, ram) = setup();
        let mut w = IdListWriter::create(&mut alloc, &ram, kept as u64 + 1, width, dev.page_size())
            .unwrap();
        let below: Vec<Id> = ids(kept, width, 7);
        for id in &below {
            w.push(&mut dev, *id).unwrap();
        }
        let id = (max_id(width) + 1 + over).min(u32::MAX as u64) as Id;
        prop_assert_eq!(w.push(&mut dev, id), Err(StorageError::IdTooWide { id, width }));
        let list = w.finish(&mut dev).unwrap();
        let (got, _, _) = read(&mut dev, &ram, list);
        prop_assert_eq!(got, below);
    }
}

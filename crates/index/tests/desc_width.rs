//! Climbing-index offset cells: each level's offset column takes cells of
//! `id_width(|T| + 1)` bytes, since offsets range over `0..=|T|` for a
//! level table of `|T|` rows, and a count is the next offset minus this
//! one, so no count is stored.
//!
//! * the cell bytes per entry at each byte boundary: |T| of 255, 256,
//!   65 535, 65 536 and 2^24 − 1;
//! * round trips through a leaf at those |T|, beside other levels that
//!   must keep their own columns, including trailing empty sublists, whose
//!   offset is |T| itself, and a sublist holding every row;
//! * an offset its cell cannot hold is [`StorageError::IdTooWide`], never a
//!   silent truncation.
//!
//! Deepen with `PROPTEST_CASES=1024 cargo test --release …` (the CI
//! `proptest-deep` leg).

use ghostdb_flash::{FlashDevice, FlashGeometry, FlashTiming, SegmentAllocator};
use ghostdb_index::climbing::DescLayout;
use ghostdb_storage::btree::BTree;
use ghostdb_storage::{Id, StorageError};
use ghostdb_token::RamArena;
use proptest::prelude::*;

/// The level sizes the round trips draw from: each side of the one-,
/// two- and three-byte boundaries.
const ROWS: [u64; 5] = [255, 256, 65_535, 65_536, (1 << 24) - 1];

#[test]
fn cell_sizes_at_the_byte_boundaries() {
    for (rows, cell) in [
        (1, 1),
        (255, 1),
        (256, 2),
        (65_535, 2),
        (65_536, 3),
        ((1 << 24) - 1, 3),
        (1 << 24, 4),
    ] {
        assert_eq!(DescLayout::new(&[rows]).size(), cell, "|T| = {rows}");
        assert_eq!(DescLayout::new(&[rows]).widths(), [cell]);
    }
    // A `T12.h2` leaf entry at ×0.05 (T12, T1, T0 of 500, 5 000 and
    // 500 000 rows): 8 + 7 bytes, where offset-and-count descriptors took
    // 8 + 14.
    assert_eq!(DescLayout::new(&[500, 5_000, 500_000]).size(), 7);
    assert_eq!(DescLayout::new(&[500, 5_000, 500_000]).widths(), [2, 2, 3]);
}

fn device() -> (FlashDevice, SegmentAllocator) {
    let dev = FlashDevice::new(
        FlashGeometry::for_capacity(8 * 1024 * 1024),
        FlashTiming::default(),
    );
    let alloc = SegmentAllocator::new(dev.logical_pages());
    (dev, alloc)
}

/// `entries + 1` ascending offsets over a level of `rows` rows, drawn from
/// `seed`: `edge` picks trailing empty sublists (the last offsets at |T|),
/// one sublist of the whole level (0 then |T|), or any ascending run.
fn offsets(rows: u64, entries: usize, edge: u8, seed: u64) -> Vec<Id> {
    let mut out: Vec<u64> = match edge % 3 {
        0 => (0..=entries as u64)
            .map(|i| (rows * 2 * i / entries as u64).min(rows))
            .collect(),
        1 => std::iter::once(0)
            .chain(std::iter::repeat_n(rows, entries))
            .collect(),
        _ => (0..=entries as u64)
            .map(|i| (seed.rotate_left(i as u32 * 7) ^ i) % (rows + 1))
            .collect(),
    };
    out.sort_unstable();
    out.into_iter().map(|o| o as Id).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn offsets_round_trip_beside_other_levels(
        picks in proptest::collection::vec((0usize..5, any::<u8>(), any::<u64>()), 1..5),
        entries in 1usize..600,
    ) {
        let rows: Vec<u64> = picks.iter().map(|(i, ..)| ROWS[*i]).collect();
        let desc = DescLayout::new(&rows);
        let widths = desc.widths();
        let columns: Vec<Vec<Id>> = (picks.iter().zip(&rows))
            .map(|((_, edge, seed), r)| offsets(*r, entries, *edge, *seed))
            .collect();
        let keys: Vec<u64> = (0..entries as u64).map(|k| 3 * k).collect();
        let (mut dev, mut alloc) = device();
        let tree = BTree::bulk_build(&mut dev, &mut alloc, widths, &keys, &columns).unwrap();
        let ram = RamArena::paper_default();
        let all: Vec<usize> = (0..rows.len()).collect();
        // Each run's cells per level; a run's first cell is the previous
        // run's last.
        let mut runs: Vec<Vec<Vec<Id>>> = Vec::new();
        let mut cursor = tree.cursor(&ram).unwrap();
        cursor.scan_range(&mut dev, 0, u64::MAX, &all, |run| {
            runs.push(all.iter().map(|l| run.cells(*l).collect()).collect());
            Ok(())
        }).unwrap();
        for (level, column) in columns.iter().enumerate() {
            let mut got = vec![runs[0][level][0]];
            for run in &runs {
                prop_assert_eq!(got.last(), run[level].first(), "level {}", level);
                got.extend(&run[level][1..]);
            }
            prop_assert_eq!(&got, column, "level {} of {:?} rows", level, rows);
        }
    }

    #[test]
    fn an_offset_beyond_its_cell_is_a_typed_error(
        at in 0usize..5,
        over in 0u64..1_000_000,
        cell in 0usize..3,
    ) {
        // The level at index 1 has cells of `width` bytes; the levels
        // around it are 255 rows (one-byte cells).
        let rows = ROWS[at];
        let desc = DescLayout::new(&[255, rows, 255]);
        let widths = desc.widths();
        let width = widths[1];
        let value = ((1u64 << (8 * width)) + over).min(Id::MAX as u64) as Id;
        let mut columns = vec![vec![0, 1, 2]; 3];
        columns[1][cell] = value;
        let (mut dev, mut alloc) = device();
        let got = BTree::bulk_build(&mut dev, &mut alloc, widths, &[1, 2], &columns);
        prop_assert_eq!(got.unwrap_err(), StorageError::IdTooWide { id: value, width });
    }
}

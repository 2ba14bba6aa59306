//! Climbing-index leaf descriptors: each level's `(offset, count)` takes
//! two cells of `id_width(|T| + 1)` bytes, since both range over
//! `0..=|T|` for a level table of `|T|` rows.
//!
//! * the payload size at each byte boundary: |T| of 255, 256, 65 535,
//!   65 536 and 2^24 − 1;
//! * round trips at those |T|, beside other levels that must keep their
//!   own descriptors, including trailing empty sublists, whose offset is
//!   |T| itself, and a sublist holding every row;
//! * a value its cell cannot hold is [`StorageError::IdTooWide`], never a
//!   silent truncation, and leaves the cell as it was.
//!
//! Deepen with `PROPTEST_CASES=1024 cargo test --release …` (the CI
//! `proptest-deep` leg).

use ghostdb_index::climbing::DescLayout;
use ghostdb_storage::{Id, StorageError};
use proptest::prelude::*;

/// The level sizes the round trips draw from: each side of the one-,
/// two- and three-byte boundaries.
const ROWS: [u64; 5] = [255, 256, 65_535, 65_536, (1 << 24) - 1];

#[test]
fn payload_sizes_at_the_byte_boundaries() {
    for (rows, cell) in [
        (1, 1),
        (255, 1),
        (256, 2),
        (65_535, 2),
        (65_536, 3),
        ((1 << 24) - 1, 3),
        (1 << 24, 4),
    ] {
        assert_eq!(DescLayout::new(&[rows]).size(), 2 * cell, "|T| = {rows}");
    }
    // A `T12.h2` leaf entry at ×0.05 (T12, T1, T0 of 500, 5 000 and
    // 500 000 rows): 8 + 14 bytes, where fixed descriptors took 8 + 36.
    assert_eq!(DescLayout::new(&[500, 5_000, 500_000]).size(), 14);
}

/// The largest value a cell of `width` bytes holds.
fn cell_max(width: usize) -> u64 {
    (1u64 << (8 * width)) - 1
}

/// A descriptor of a level of `rows` rows, drawn from `seed`: `edge`
/// picks a trailing empty sublist (offset |T|), the whole level (offset 0,
/// count |T|), an empty one anywhere, or any sublist that fits.
fn descriptor(rows: u64, edge: u8, seed: u64) -> (Id, Id) {
    let offset = seed % (rows + 1);
    let (offset, count) = match edge % 4 {
        0 => (rows, 0),
        1 => (0, rows),
        2 => (offset, 0),
        _ => (offset, (seed >> 32) % (rows - offset + 1)),
    };
    (offset as Id, count as Id)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn descriptors_round_trip_beside_other_levels(
        picks in proptest::collection::vec((0usize..5, any::<u8>(), any::<u64>()), 1..5),
        fill in any::<u8>(),
    ) {
        let rows: Vec<u64> = picks.iter().map(|(i, ..)| ROWS[*i]).collect();
        let layout = DescLayout::new(&rows);
        let mut payload = vec![fill; layout.size()];
        let descs: Vec<(Id, Id)> = (picks.iter().zip(&rows))
            .map(|((_, edge, seed), r)| descriptor(*r, *edge, *seed))
            .collect();
        for (level, (offset, count)) in descs.iter().enumerate() {
            layout.put(&mut payload, level, *offset, *count).unwrap();
        }
        for (level, desc) in descs.iter().enumerate() {
            prop_assert_eq!(layout.get(&payload, level), *desc, "level {} of {:?}", level, rows);
        }
    }

    #[test]
    fn a_value_beyond_its_cell_is_a_typed_error(
        at in 0usize..5,
        over in 0u64..1_000_000,
        offset_side in any::<bool>(),
        fill in any::<u8>(),
    ) {
        // The cell of the level at index 1 is `width` bytes; the other
        // levels around it are 255 rows (one-byte cells).
        let rows = ROWS[at];
        let layout = DescLayout::new(&[255, rows, 255]);
        let width = layout.size() / 2 - 2;
        let value = (cell_max(width) + 1 + over).min(Id::MAX as u64) as Id;
        let mut payload = vec![fill; layout.size()];
        let got = if offset_side {
            layout.put(&mut payload, 1, value, 0)
        } else {
            layout.put(&mut payload, 1, rows as Id, value)
        };
        prop_assert_eq!(got, Err(StorageError::IdTooWide { id: value, width }));
        if offset_side {
            prop_assert!(payload.iter().all(|b| *b == fill), "the payload changed");
        } else {
            // The offset is written; the count cell is untouched.
            prop_assert_eq!(layout.get(&payload, 1).0, rows as Id);
            let count_cell = 2 + width..2 + 2 * width;
            prop_assert!(payload[count_cell].iter().all(|b| *b == fill), "the count cell changed");
        }
    }
}

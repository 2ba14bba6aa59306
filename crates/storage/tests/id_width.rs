//! Narrow id cells: `id_width(|T|)` is the fewest bytes that hold every id
//! of `0..|T|`, and an id cell of that width round-trips every such id.
//!
//! * the width at each byte boundary: |T| of 1, 256, 257, 65 536, 65 537,
//!   2^24 and 2^24 + 1;
//! * for random |T|, the width is minimal: the largest id `|T| − 1` needs
//!   every byte of it;
//! * put/get round trips at every width, each field beside others that
//!   must keep their own ids;
//! * an id of 2^(8w) or more in a `w`-byte cell is
//!   [`StorageError::IdTooWide`], never a silent truncation, and leaves
//!   the row as it was.
//!
//! Deepen with `PROPTEST_CASES=1024 cargo test --release …` (the CI
//! `proptest-deep` leg).

use ghostdb_storage::row::{id_width, RowLayout};
use ghostdb_storage::{Id, StorageError, ID_BYTES};
use proptest::prelude::*;

#[test]
fn widths_at_the_byte_boundaries() {
    let cases = [
        (0, 1),
        (1, 1),
        (256, 1),
        (257, 2),
        (65_536, 2),
        (65_537, 3),
        (1 << 24, 3),
        ((1 << 24) + 1, 4),
        (1 << 32, 4),
    ];
    for (rows, width) in cases {
        assert_eq!(id_width(rows), width, "|T| = {rows}");
    }
}

/// The largest id a `width`-byte cell holds.
fn max_id(width: usize) -> u64 {
    (1u64 << (8 * width)) - 1
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_width_is_the_least_that_holds_every_id(bits in 0u32..32, low in any::<u64>()) {
        // |T| log-uniform over 1..2^32, so every width is drawn.
        let rows = (1u64 << bits) + low % (1u64 << bits);
        let w = id_width(rows);
        prop_assert!((1..=ID_BYTES).contains(&w));
        prop_assert!(rows - 1 <= max_id(w), "|T| = {rows}, width {w}");
        if w > 1 {
            prop_assert!(rows - 1 > max_id(w - 1), "|T| = {rows} fits {} bytes", w - 1);
        }
    }

    #[test]
    fn ids_round_trip_at_every_width(
        widths in proptest::collection::vec(1usize..=4, 1..6),
        seed in any::<u64>(),
        fill in any::<u8>(),
    ) {
        let layout = RowLayout::new(&widths);
        let mut row = vec![fill; layout.size()];
        // One id per field below its width's bound; the last field's is
        // the bound itself.
        let ids: Vec<Id> = widths
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let bound = max_id(*w);
                let mixed = seed.rotate_left(13 * i as u32) ^ (i as u64);
                (if i + 1 == widths.len() { bound } else { mixed % (bound + 1) }) as Id
            })
            .collect();
        for (i, id) in ids.iter().enumerate() {
            layout.put_id(&mut row, i, *id).unwrap();
        }
        for (i, id) in ids.iter().enumerate() {
            prop_assert_eq!(layout.get_id(&row, i), *id);
        }
    }

    #[test]
    fn an_id_beyond_its_cell_is_a_typed_error(
        width in 1usize..=3,
        over in 0u64..1_000_000,
        fill in any::<u8>(),
    ) {
        let layout = RowLayout::new(&[1, width, 1]);
        let id = (max_id(width) + 1 + over).min(u32::MAX as u64) as Id;
        let mut row = vec![fill; layout.size()];
        prop_assert_eq!(
            layout.put_id(&mut row, 1, id),
            Err(StorageError::IdTooWide { id, width })
        );
        prop_assert!(row.iter().all(|b| *b == fill), "the row changed");
    }
}

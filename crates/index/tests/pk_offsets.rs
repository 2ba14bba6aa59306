//! Primary-key climbing indexes as offset arrays, against the B+-tree
//! layout they replace and the reference engine's join.
//!
//! A chain schema `C0 ← C1 ← C2` over random foreign keys gives `C1` one
//! ancestor level and `C2` two. For every id and level:
//!
//! * the sublist a [`PkIndex`] probe returns is the one a climbing
//!   B+-tree keyed by the ids themselves builds for the same level
//!   (same slots of an ID area laid out alike, same ids);
//! * its ids are the rows of that level the `reference` engine joins with
//!   the id (the engine is root-anchored, so below the root only those
//!   some root row joins).
//!
//! The draws cover offset cells of one and two bytes (levels of 255 and
//! 256 rows; 65 535 and 65 536 in a fixed case), ids no row references
//! (empty sublists, trailing ones at offset |T_l|), probes of every id, of
//! a random subset, and of the id whose cell is a page's last.
//!
//! Deepen with `PROPTEST_CASES=1024 cargo test --release …` (the CI
//! `proptest-deep` leg).

use ghostdb_flash::{FlashDevice, FlashGeometry, FlashTiming, SegmentAllocator};
use ghostdb_index::{ClimbingSpec, FkData, IndexBuilder, LevelSpec};
use ghostdb_reference::{RefDb, RefQuery, RefTable};
use ghostdb_storage::idlist::slots_per_page;
use ghostdb_storage::row::id_width;
use ghostdb_storage::schema::{SchemaTree, TableDef};
use ghostdb_storage::{CmpOp, Id, IdList, IdListReader, Predicate, TableId, Value};
use ghostdb_token::RamArena;
use proptest::prelude::*;
use std::collections::HashMap;

/// `C0 ← C1 ← C2`: `C0.fk1` references `C1`, `C1.fk2` references `C2`.
fn chain() -> SchemaTree {
    SchemaTree::new(vec![
        TableDef::new("C0").with_fk("fk1", "C1"),
        TableDef::new("C1").with_fk("fk2", "C2"),
        TableDef::new("C2"),
    ])
    .expect("chain schema")
}

/// Foreign keys of `parent_rows` rows into `child_rows`, from `seed`;
/// `spread` of 0 keeps them in the lower half of the child, so the upper
/// ids (trailing ones included) join nothing.
fn fks(parent_rows: u64, child_rows: u64, spread: u8, seed: u64) -> Vec<Id> {
    let domain = if spread == 0 {
        child_rows.div_ceil(2)
    } else {
        child_rows
    };
    let mut x = seed | 1;
    (0..parent_rows)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % domain) as Id
        })
        .collect()
}

/// The ids of `list`, read from flash.
fn read(dev: &mut FlashDevice, ram: &RamArena, list: IdList) -> Vec<Id> {
    IdListReader::open(list, ram, dev.page_size())
        .unwrap()
        .drain(dev)
        .unwrap()
}

/// The rows of `level` the reference engine joins with id `k` of `t`.
fn joined(reference: &RefDb, t: TableId, k: Id, level: TableId) -> Vec<Id> {
    let q = RefQuery {
        predicates: vec![(
            t,
            Predicate::new("id", CmpOp::Eq, Value::Int(k.into()), None),
        )],
        projections: vec![(level, "id".into())],
    };
    let mut ids: Vec<Id> = (reference.run(&q).unwrap().into_iter())
        .map(|row| match row[0] {
            Value::Int(id) => id as Id,
            ref v => panic!("id {v:?}"),
        })
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// Build both layouts over `rows` (C0, C1, C2) and the foreign keys, and
/// check every id of C1 and C2 at every level, probing all of them, the
/// `subset` (indexes into the ids, any order) and each id whose cell is a
/// page's last; `oracle` ids per table are also checked against the
/// reference engine.
fn check(rows: [u64; 3], fk1: Vec<Id>, fk2: Vec<Id>, subset: &[usize], oracle: usize) {
    let schema = chain();
    let mut fk_data = FkData::default();
    fk_data.insert(0, 1, fk1.clone());
    fk_data.insert(1, 2, fk2.clone());
    let builder = IndexBuilder::new(schema.clone(), rows.to_vec(), fk_data);
    let mut dev = FlashDevice::new(
        FlashGeometry::for_capacity(64 * 1024 * 1024),
        FlashTiming::default(),
    );
    let mut alloc = SegmentAllocator::new(dev.logical_pages());
    let ram = RamArena::paper_default();
    let table = |n: u64, fk: Option<(&str, &Vec<Id>)>| RefTable {
        rows: n,
        fks: fk
            .map(|(c, ids)| HashMap::from([(c.to_string(), ids.clone())]))
            .unwrap_or_default(),
        columns: HashMap::new(),
    };
    let reference = RefDb {
        schema: schema.clone(),
        tables: vec![
            table(rows[0], Some(("fk1", &fk1))),
            table(rows[1], Some(("fk2", &fk2))),
            table(rows[2], None),
        ],
    };
    for t in [1, 2] {
        let levels = schema.ancestors(t);
        let pk = builder
            .build_pk(&mut dev, &mut alloc, t, levels.clone())
            .unwrap();
        assert_eq!(pk.levels, levels);
        let keys: Vec<u64> = (0..rows[t]).collect();
        let tree = builder
            .build_climbing(
                &mut dev,
                &mut alloc,
                ClimbingSpec {
                    table: t,
                    column: "id",
                    keys: &keys,
                    levels: LevelSpec::FullClimb,
                    exact: true,
                },
            )
            .unwrap();
        // The tree's level 0 is the table itself; its ancestors follow.
        assert_eq!(&tree.levels[1..], &levels[..]);
        let all: Vec<Id> = (0..rows[t] as Id).collect();
        let mut picked: Vec<Id> = subset.iter().map(|i| (*i as u64 % rows[t]) as Id).collect();
        picked.sort_unstable();
        picked.dedup();
        for (li, level) in levels.iter().enumerate() {
            let spp = slots_per_page(id_width(rows[*level] + 1), dev.page_size());
            let lasts: Vec<Id> = (1..)
                .map(|p| p * spp - 1)
                .take_while(|k| *k < rows[t])
                .map(|k| k as Id)
                .collect();
            let mut probe = tree.probe(&ram).unwrap();
            let want = (probe.lookup_range_multi(&mut dev, 0, rows[t] - 1, &[li + 1]))
                .unwrap()
                .pop()
                .unwrap();
            drop(probe);
            let got = pk.probe_run(&mut dev, &ram, &all, li).unwrap();
            assert_eq!(got.len(), want.len());
            for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    (g.start, g.count, g.width),
                    (w.start, w.count, w.width),
                    "table {t} level {level} id {k}"
                );
                assert_eq!(read(&mut dev, &ram, *g), read(&mut dev, &ram, *w));
            }
            // A trailing id no row references ends at the level's size.
            if let Some(last) = got.last() {
                assert!(last.start + last.count == rows[*level]);
            }
            for ids in [&picked, &lasts] {
                let some = pk.probe_run(&mut dev, &ram, ids, li).unwrap();
                for (k, l) in ids.iter().zip(some) {
                    assert_eq!(l, got[*k as usize], "table {t} level {level} id {k}");
                }
            }
            // The reference join is root-anchored: below the root it
            // holds only the level rows some root row joins.
            let anchored = |id: &Id| *level == 0 || fk1.contains(id);
            for &k in picked.iter().take(oracle).chain(lasts.first()) {
                let mut ids = read(&mut dev, &ram, got[k as usize]);
                ids.retain(anchored);
                assert_eq!(
                    ids,
                    joined(&reference, t, k, *level),
                    "table {t} level {level} id {k} against the reference join"
                );
            }
        }
    }
}

/// Row counts the draws pick from: each side of the one-byte cell
/// boundary, and sizes spanning several offset-array pages.
const SIZES: [u64; 6] = [1, 7, 255, 256, 1_500, 2_300];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn offset_arrays_match_the_tree_and_the_reference_join(
        sizes in (0usize..6, 0usize..6, 0usize..6),
        spreads in (0u8..2, 0u8..2),
        seeds in (any::<u64>(), any::<u64>()),
        subset in proptest::collection::vec(any::<usize>(), 0..40),
    ) {
        let rows = [SIZES[sizes.0] * 3, SIZES[sizes.1], SIZES[sizes.2]];
        let fk1 = fks(rows[0], rows[1], spreads.0, seeds.0);
        let fk2 = fks(rows[1], rows[2], spreads.1, seeds.1);
        check(rows, fk1, fk2, &subset, 4);
    }
}

#[test]
fn offset_cells_at_the_two_byte_boundary() {
    // Levels of 65 535 and 65 536 rows: offsets up to |T_l| take two and
    // three bytes. Every C1 id joins at most one C0 row, and the upper
    // half of C2 joins nothing.
    for n in [65_535u64, 65_536] {
        let rows = [n, n, 3_000];
        let fk1: Vec<Id> = (0..n as Id).rev().collect();
        let fk2 = fks(n, 3_000, 0, n);
        check(rows, fk1, fk2, &[0, 1, 2_047, 2_048, 65_534], 2);
    }
}

#[test]
fn probes_must_ascend_and_stay_in_range() {
    let schema = chain();
    let mut fk_data = FkData::default();
    fk_data.insert(0, 1, vec![0, 1, 1, 3]);
    fk_data.insert(1, 2, vec![0, 0, 1, 1]);
    let builder = IndexBuilder::new(schema.clone(), vec![4, 4, 2], fk_data);
    let mut dev = FlashDevice::new(
        FlashGeometry::for_capacity(8 * 1024 * 1024),
        FlashTiming::default(),
    );
    let mut alloc = SegmentAllocator::new(dev.logical_pages());
    let ram = RamArena::paper_default();
    let pk = builder.build_pk(&mut dev, &mut alloc, 1, vec![0]).unwrap();
    let lists = pk.probe_run(&mut dev, &ram, &[0, 1, 2, 3], 0).unwrap();
    let counts: Vec<u64> = lists.iter().map(|l| l.count).collect();
    assert_eq!(counts, vec![1, 2, 0, 1]);
    assert!(pk.probe_run(&mut dev, &ram, &[2, 1], 0).is_err());
    assert!(pk.probe_run(&mut dev, &ram, &[1, 1], 0).is_err());
    assert!(pk.probe_run(&mut dev, &ram, &[4], 0).is_err());
    assert!(pk.probe_run(&mut dev, &ram, &[0], 1).is_err());
    assert!(pk.probe_run(&mut dev, &ram, &[], 0).unwrap().is_empty());
}

//! Column-major climbing-index leaves, against the whole-leaf walk they
//! replace and the reference engine's join.
//!
//! A chain schema `C0 ← C1 ← C2 ← C3` over random foreign keys gives an
//! index on `C{d-1}` `d` levels. Keys are drawn with duplicates. For ranges
//! inside one leaf, across two leaves and across many, bounded on
//! leaf-first and leaf-last keys, on the gaps beside them, and empty or
//! inverted:
//!
//! * `lookup_range_multi` returns, for every subset of the levels, one
//!   sublist per distinct key in the range, and for each level the
//!   sublists `naive_lookup_range` returns;
//! * their ids are the rows of that level the `reference` engine joins with
//!   the key (the engine is root-anchored, so below the root only those
//!   some root row joins);
//! * a lookup whose range the whole-leaf walk finds in one leaf bills
//!   exactly that walk's I/O, and no lookup bills more simulated time than
//!   the walk plus one internal-node read (the descent to `hi`).
//!
//! The draws cover offset cells of one and two bytes (levels of 255 and
//! 256 rows); fixed cases cover two and three bytes (65 535 and 65 536
//! rows, in a tree of three levels), an empty tree and a single leaf.
//!
//! Deepen with `PROPTEST_CASES=1024 cargo test --release …` (the CI
//! `proptest-deep` leg).

use ghostdb_flash::{FlashDevice, FlashGeometry, FlashStats, FlashTiming, SegmentAllocator};
use ghostdb_index::climbing::DescLayout;
use ghostdb_index::{ClimbingIndex, ClimbingSpec, FkData, IndexBuilder, LevelSpec};
use ghostdb_reference::{RefDb, RefQuery, RefTable};
use ghostdb_storage::btree::BTree;
use ghostdb_storage::schema::{Column, SchemaTree, TableDef};
use ghostdb_storage::{CmpOp, ColumnType, Id, IdList, IdListReader, Predicate, Value};
use ghostdb_token::RamArena;
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

/// `C0 ← C1 ← C2 ← C3`: `C{i}.fk` references `C{i+1}`; each table has a
/// hidden `h`.
fn chain() -> SchemaTree {
    let h = || Column::hidden("h", ColumnType::Int { width: 8 });
    SchemaTree::new(vec![
        TableDef::new("C0").with_column(h()).with_fk("fk", "C1"),
        TableDef::new("C1").with_column(h()).with_fk("fk", "C2"),
        TableDef::new("C2").with_column(h()).with_fk("fk", "C3"),
        TableDef::new("C3").with_column(h()),
    ])
    .expect("chain schema")
}

/// xorshift draws from `seed`, each below `n`.
fn draws(count: u64, n: u64, seed: u64) -> Vec<u64> {
    let mut x = seed | 1;
    (0..count)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n.max(1)
        })
        .collect()
}

/// One built instance: the index on `C{depth-1}`, its values, and the
/// reference engine over the same data.
struct Case {
    dev: FlashDevice,
    ram: RamArena,
    ci: ClimbingIndex,
    reference: RefDb,
    /// Distinct values of the indexed column, ascending.
    distinct: Vec<i64>,
    /// Entries per leaf.
    cap: usize,
    /// Per level, the rows some root row joins.
    anchored: Vec<BTreeSet<Id>>,
}

fn key(v: i64) -> u64 {
    Value::Int(v).order_key()
}

/// Build the index over `rows` (C0..C3), foreign keys from `seed`, and
/// indexed values `values` of `C{depth-1}`.
fn build(depth: usize, rows: [u64; 4], values: &[i64], seed: u64) -> Case {
    let schema = chain();
    let t = depth - 1;
    assert_eq!(values.len() as u64, rows[t]);
    let fks: Vec<Vec<Id>> = (0..3)
        .map(|p| {
            (draws(rows[p], rows[p + 1], seed ^ p as u64).into_iter())
                .map(|x| x as Id)
                .collect()
        })
        .collect();
    let mut fk_data = FkData::default();
    for (p, fk) in fks.iter().enumerate() {
        fk_data.insert(p, p + 1, fk.clone());
    }
    let keys: Vec<u64> = values.iter().map(|v| key(*v)).collect();
    let builder = IndexBuilder::new(schema.clone(), rows.to_vec(), fk_data);
    let mut dev = FlashDevice::new(
        FlashGeometry::for_capacity(64 * 1024 * 1024),
        FlashTiming::default(),
    );
    let mut alloc = SegmentAllocator::new(dev.logical_pages());
    let ci = builder
        .build_climbing(
            &mut dev,
            &mut alloc,
            ClimbingSpec {
                table: t,
                column: "h",
                keys: &keys,
                levels: LevelSpec::FullClimb,
                exact: true,
            },
        )
        .unwrap();
    assert_eq!(ci.levels.len(), depth);
    let tables = (0..4)
        .map(|i| RefTable {
            rows: rows[i],
            fks: fks
                .get(i)
                .map(|fk| HashMap::from([("fk".to_string(), fk.clone())]))
                .unwrap_or_default(),
            columns: if i == t {
                HashMap::from([(
                    "h".to_string(),
                    values.iter().map(|v| Value::Int(*v)).collect(),
                )])
            } else {
                HashMap::new()
            },
        })
        .collect();
    let reference = RefDb { schema, tables };
    let mut distinct = values.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    let level_rows: Vec<u64> = ci.levels.iter().map(|l| rows[*l]).collect();
    let cap = BTree::leaf_capacity(dev.page_size(), DescLayout::new(&level_rows).widths());
    // Rows of C_l some C0 row joins, C0 first; the index's levels run
    // innermost first.
    let mut reach: Vec<BTreeSet<Id>> = vec![(0..rows[0] as Id).collect()];
    for fk in &fks {
        let next = reach[reach.len() - 1]
            .iter()
            .map(|r| fk[*r as usize])
            .collect();
        reach.push(next);
    }
    let anchored = ci.levels.iter().map(|l| reach[*l].clone()).collect();
    Case {
        dev,
        ram: RamArena::paper_default(),
        ci,
        reference,
        distinct,
        cap,
        anchored,
    }
}

/// Levels of a B+-tree over `leaves` leaves: the pages a whole-leaf walk
/// reads when it stays in one leaf.
fn height(leaves: usize, page: usize) -> u64 {
    let (mut level, mut h) = (leaves, 1);
    while level > 1 {
        level = level.div_ceil(BTree::internal_capacity(page));
        h += 1;
    }
    h
}

/// The ids of `list`, read from flash.
fn read(dev: &mut FlashDevice, ram: &RamArena, list: IdList) -> Vec<Id> {
    IdListReader::open(list, ram, dev.page_size())
        .unwrap()
        .drain(dev)
        .unwrap()
}

/// The rows of table `level` the reference engine joins with `h = v` on
/// table `t`.
fn joined(reference: &RefDb, t: usize, v: i64, level: usize) -> Vec<Id> {
    let q = RefQuery {
        predicates: vec![(t, Predicate::new("h", CmpOp::Eq, Value::Int(v), None))],
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

/// Value bounds at leaf edges: for `pick` of a leaf, its first key, its
/// last key, or the value just before or after either (a gap, or the
/// neighbour leaf's edge).
fn edge(case: &Case, leaf: usize, pick: u8) -> i64 {
    let d = &case.distinct;
    if d.is_empty() {
        return pick as i64 % 3 - 1;
    }
    let leaves = d.len().div_ceil(case.cap);
    let leaf = leaf % leaves;
    let first = d[leaf * case.cap];
    let last = d[((leaf + 1) * case.cap).min(d.len()) - 1];
    match pick % 6 {
        0 => first,
        1 => last,
        2 => first - 1,
        3 => first + 1,
        4 => last - 1,
        _ => last + 1,
    }
}

/// The ranges every case checks: one leaf, two neighbouring leaves, many
/// leaves, an empty range between keys, an inverted one and one past the
/// last key.
fn fixed_ranges(case: &Case) -> Vec<(i64, i64)> {
    let d = &case.distinct;
    let (Some(&min), Some(&max)) = (d.first(), d.last()) else {
        return vec![(0, 0), (-5, 5), (3, 1)];
    };
    let leaves = d.len().div_ceil(case.cap);
    let mut out = vec![
        (edge(case, 0, 0), edge(case, 0, 1)),
        (edge(case, 0, 1), edge(case, 1, 0)),
        (edge(case, 0, 3), edge(case, leaves - 1, 4)),
        (min - 10, max + 10),
        (min, min),
        (max + 1, max + 5),
        (max, min - 1),
    ];
    if let Some(w) = d.windows(2).find(|w| w[1] - w[0] > 2) {
        out.push((w[0] + 1, w[1] - 1));
    }
    out
}

/// Check `lookup_range_multi` over value range `[lo, hi]` for every subset
/// of the levels, against the whole-leaf walk, and the range's first and
/// last keys against the reference join.
fn check_range(case: &mut Case, lo: i64, hi: i64) {
    let Case {
        dev,
        ram,
        ci,
        reference,
        distinct,
        cap,
        anchored,
    } = case;
    let (klo, khi) = (key(lo), key(hi));
    let depth = ci.levels.len();
    let in_range: Vec<i64> = (distinct.iter())
        .copied()
        .filter(|v| lo <= *v && *v <= hi)
        .collect();
    let timing = *dev.timing();
    let page = dev.page_size();
    let height = height(distinct.len().div_ceil(*cap).max(1), page);

    // The whole-leaf walk of each level: its sublists and I/O.
    let mut want: Vec<Vec<IdList>> = Vec::new();
    let mut walk_io: Option<FlashStats> = None;
    for level in 0..depth {
        let mut walk = ci.probe(ram).unwrap();
        let snap = dev.snapshot();
        want.push(walk.naive_lookup_range(dev, klo, khi, level).unwrap());
        walk_io = Some(dev.stats_since(&snap));
        assert_eq!(
            want[level].len(),
            in_range.len(),
            "[{lo}, {hi}] level {level}: one sublist per distinct key"
        );
    }
    let walk_io = walk_io.unwrap();
    let walk_ns = walk_io.elapsed(&timing, page).as_ns();
    let one_leaf = walk_io.pages_read <= height;

    for mask in 1..1usize << depth {
        let levels: Vec<usize> = (0..depth).filter(|l| mask >> l & 1 == 1).collect();
        let mut probe = ci.probe(ram).unwrap();
        let snap = dev.snapshot();
        let got = probe.lookup_range_multi(dev, klo, khi, &levels).unwrap();
        let io = dev.stats_since(&snap);
        for (slot, level) in levels.iter().enumerate() {
            assert_eq!(got[slot], want[*level], "[{lo}, {hi}] levels {levels:?}");
        }
        if hi < lo {
            assert_eq!(io, FlashStats::default(), "[{lo}, {hi}]: inverted");
        } else if one_leaf {
            assert_eq!(io, walk_io, "[{lo}, {hi}] levels {levels:?}: one leaf");
        } else {
            let ns = io.elapsed(&timing, page).as_ns();
            assert!(
                ns <= walk_ns + timing.read_cost_ns(page),
                "[{lo}, {hi}] levels {levels:?}: {ns} ns against the walk's {walk_ns}"
            );
        }
    }

    let t = ci.table;
    let ends = [0, in_range.len().saturating_sub(1)];
    for (entry, v) in ends.into_iter().filter_map(|e| Some((e, in_range.get(e)?))) {
        for (level, table) in ci.levels.iter().enumerate() {
            let mut ids = read(dev, ram, want[level][entry]);
            ids.retain(|id| anchored[level].contains(id));
            assert_eq!(
                ids,
                joined(reference, t, *v, *table),
                "value {v} level {level} against the reference join"
            );
        }
    }
}

fn check(case: &mut Case, extra: &[(usize, u8, usize, u8)]) {
    let mut ranges = fixed_ranges(case);
    for (l1, p1, l2, p2) in extra {
        ranges.push((edge(case, *l1, *p1), edge(case, *l2, *p2)));
    }
    for (lo, hi) in ranges {
        check_range(case, lo, hi);
    }
}

/// Indexed-table sizes: one leaf, a few and many.
const INDEXED: [u64; 5] = [1, 7, 200, 1_500, 3_000];
/// Level-table sizes beside the indexed one: small, and each side of the
/// one-byte cell boundary.
const LEVEL: [u64; 4] = [3, 40, 255, 256];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn columnar_lookups_match_the_walk_and_the_reference_join(
        depth in 1usize..=4,
        sizes in (0usize..5, 0usize..4, 0usize..4, 0usize..4),
        dup in 1u64..=3,
        seed in any::<u64>(),
        extra in proptest::collection::vec((0usize..64, any::<u8>(), 0usize..64, any::<u8>()), 0..6),
    ) {
        let t = depth - 1;
        let mut rows = [LEVEL[sizes.1], LEVEL[sizes.2], LEVEL[sizes.3], 5];
        rows[t] = INDEXED[sizes.0];
        let values: Vec<i64> = (draws(rows[t], rows[t].div_ceil(dup), seed).into_iter())
            .map(|v| 3 * v as i64)
            .collect();
        let mut case = build(depth, rows, &values, seed);
        check(&mut case, &extra);
    }
}

#[test]
fn an_empty_tree_and_a_single_leaf() {
    let mut empty = build(2, [0, 0, 4, 4], &[], 7);
    check(&mut empty, &[]);
    let mut one = build(3, [30, 20, 10, 4], &[5, 1, 5, 9, 1, 1, 7, 0, 2, 5], 9);
    assert!(one.distinct.len() <= one.cap);
    check(&mut one, &[(0, 2, 0, 5), (0, 4, 0, 3)]);
}

#[test]
fn level_tables_at_the_two_byte_boundary() {
    // Levels of 65 535 and 65 536 rows: offsets up to |T_l| take two and
    // three bytes, and 40 000 distinct keys make a tree of three levels,
    // so some ranges cross from one internal node's leaves to the next.
    for n in [65_535u64, 65_536] {
        let values: Vec<i64> = (0..n as i64).map(|r| (r * 7919) % 40_000).collect();
        let mut case = build(3, [3_000, n, n, 50], &values, n);
        let leaves = case.distinct.len().div_ceil(case.cap);
        assert!(leaves > BTree::internal_capacity(case.dev.page_size()));
        let per_node = BTree::internal_capacity(case.dev.page_size());
        check(
            &mut case,
            &[
                (per_node - 1, 1, per_node, 0),
                (per_node - 1, 3, per_node, 4),
                (per_node - 2, 0, per_node + 3, 1),
                (leaves - 1, 0, leaves - 1, 5),
            ],
        );
    }
}

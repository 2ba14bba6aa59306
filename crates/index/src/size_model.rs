//! Exact storage-size model for the Figure 7 comparison.
//!
//! Sizes are computed from the same layout formulas the builders use
//! (`BTree::pages_needed` over [`DescLayout`] offset columns,
//! `RowLayout::pages_for` for SKTs and primary-key offset arrays, ID areas
//! of [`id_width`]`(|T|)`-byte slots), so
//! the model is exact for this
//! implementation — a property the tests check by physically building
//! small instances and comparing.

use crate::climbing::{DescLayout, LevelSpec};
use crate::schemes::IndexScheme;
use ghostdb_storage::btree::BTree;
use ghostdb_storage::idlist::id_pages;
use ghostdb_storage::row::{id_width, RowLayout};
use ghostdb_storage::{SchemaTree, TableId};

/// Inputs of the size model.
#[derive(Debug, Clone)]
pub struct SizeModelInput<'a> {
    /// The schema.
    pub schema: &'a SchemaTree,
    /// Cardinality per table.
    pub rows: &'a [u64],
    /// Distinct values per indexed attribute of each table (Figure 7 keeps
    /// this uniform per table).
    pub distinct: &'a [u64],
    /// Indexed hidden attributes per table (the x-axis of Figure 7).
    pub attrs_per_table: usize,
    /// Flash page size.
    pub page_size: usize,
}

/// Raw database size: every visible and hidden column of every table plus
/// the replicated 4-byte id (the paper's constant `DBSize` line).
pub fn db_raw_bytes(schema: &SchemaTree, rows: &[u64]) -> u64 {
    schema
        .tables()
        .map(|t| rows[t] * schema.def(t).raw_tuple_bytes())
        .sum()
}

/// Bytes of the page-rounded ID area holding `count` ids of table `t`.
fn area_bytes(rows: &[u64], t: TableId, count: u64, page_size: usize) -> u64 {
    id_pages(count, id_width(rows[t]), page_size) * page_size as u64
}

/// Size of one SKT in bytes (page-rounded).
pub fn skt_bytes(schema: &SchemaTree, rows: &[u64], t: TableId, page_size: usize) -> u64 {
    let desc: Vec<u64> = schema.descendants(t).iter().map(|d| rows[*d]).collect();
    if desc.is_empty() {
        return 0;
    }
    RowLayout::id_cells(&desc).pages_for(rows[t], page_size) * page_size as u64
}

/// Size of one climbing index in bytes: B+-tree pages, whose leaves hold
/// a key and one offset cell per level for each entry, plus the packed ID
/// area of every level.
pub fn climbing_bytes(
    schema: &SchemaTree,
    rows: &[u64],
    t: TableId,
    distinct: u64,
    spec: LevelSpec,
    page_size: usize,
) -> u64 {
    let levels = spec.levels(schema, t);
    let level_rows: Vec<u64> = levels.iter().map(|l| rows[*l]).collect();
    let desc = DescLayout::new(&level_rows);
    let tree = BTree::pages_needed(distinct, page_size, desc.widths()) * page_size as u64;
    let areas: u64 = levels
        .iter()
        .map(|l| area_bytes(rows, *l, rows[*l], page_size))
        .sum();
    tree + areas
}

/// Size of table `t`'s primary-key index in bytes: per level of `levels`,
/// an offset array of `|T| + 1` cells of [`id_width`]`(|T_l| + 1)` bytes
/// plus the level's packed ID area.
pub fn pk_bytes(rows: &[u64], t: TableId, levels: &[TableId], page_size: usize) -> u64 {
    (levels.iter())
        .map(|l| {
            RowLayout::id_cells(&[rows[*l] + 1]).pages_for(rows[t] + 1, page_size)
                * page_size as u64
                + area_bytes(rows, *l, rows[*l], page_size)
        })
        .sum()
}

/// Index storage overhead of one scheme (excluding raw data), in bytes.
pub fn scheme_index_bytes(scheme: IndexScheme, input: &SizeModelInput<'_>) -> u64 {
    let schema = input.schema;
    let rows = input.rows;
    let page = input.page_size;
    let mut total = 0u64;

    for t in schema.tables() {
        // SKTs.
        if scheme.has_skt(schema, t) {
            total += skt_bytes(schema, rows, t, page);
        }
        // Selection indexes on hidden attributes.
        total += input.attrs_per_table as u64
            * climbing_bytes(
                schema,
                rows,
                t,
                input.distinct[t],
                scheme.attr_levels(),
                page,
            );
        // Primary-key indexes.
        total += pk_bytes(rows, t, &scheme.pk_levels(schema, t), page);
        // JoinIndex scheme: a binary join index per fk edge (child id →
        // sorted list of parent ids), Valduriez-style. Key columns need no
        // separate index: tables are stored sorted by id, so id lookup is
        // direct addressing, and the fk join index serves the edge in both
        // directions.
        if scheme.has_fk_join_indexes() {
            for child in schema.children(t) {
                let desc = DescLayout::new(&[rows[t]]);
                let tree = BTree::pages_needed(rows[*child], page, desc.widths()) * page as u64;
                let area = area_bytes(rows, t, rows[t], page);
                total += tree + area;
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{ClimbingSpec, FkData, IndexBuilder};
    use ghostdb_flash::{FlashDevice, FlashGeometry, FlashTiming, SegmentAllocator};
    use ghostdb_storage::schema::paper_synthetic_schema;

    fn small_instance() -> (ghostdb_storage::SchemaTree, Vec<u64>, FkData) {
        instance([2000, 500, 200, 100, 80])
    }

    #[test]
    fn model_matches_physically_built_structures() {
        let (schema, rows, fks) = small_instance();
        let mut dev = FlashDevice::new(
            FlashGeometry::for_capacity(64 * 1024 * 1024),
            FlashTiming::default(),
        );
        let mut alloc = SegmentAllocator::new(dev.logical_pages());
        let b = IndexBuilder::new(schema.clone(), rows.clone(), fks);
        let page = dev.page_size();

        // SKT of the root.
        let t0 = schema.root();
        let skt = b.build_skt(&mut dev, &mut alloc, t0).unwrap();
        assert_eq!(skt.bytes(page), skt_bytes(&schema, &rows, t0, page));
    }

    #[test]
    fn pk_model_matches_built_offset_arrays_byte_for_byte() {
        // FullIndex's and BasicIndex's primary-key levels on every node
        // table, with levels of 255/256 rows (offset cells grow from one
        // byte to two at 256 rows: offsets reach |T_l|) and arrays of
        // several pages.
        for card in [[5000, 255, 256, 1000, 1500], [4000, 256, 255, 2000, 256]] {
            let (schema, rows, fks) = instance(card);
            let mut dev = FlashDevice::new(
                FlashGeometry::for_capacity(64 * 1024 * 1024),
                FlashTiming::default(),
            );
            let mut alloc = SegmentAllocator::new(dev.logical_pages());
            let b = IndexBuilder::new(schema.clone(), rows.clone(), fks);
            let page = dev.page_size();
            for t in schema.tables().filter(|t| *t != schema.root()) {
                for scheme in [IndexScheme::Full, IndexScheme::Basic] {
                    let levels = scheme.pk_levels(&schema, t);
                    let pk = b.build_pk(&mut dev, &mut alloc, t, levels.clone()).unwrap();
                    assert_eq!(
                        pk.bytes(page),
                        pk_bytes(&rows, t, &levels, page),
                        "{card:?} table {t} {scheme:?}"
                    );
                }
            }
        }
    }

    /// A `paper_synthetic_schema` instance with `card` rows in T0, T1, T2,
    /// T11 and T12, each fk referencing `row % |child|`.
    fn instance(card: [u64; 5]) -> (ghostdb_storage::SchemaTree, Vec<u64>, FkData) {
        let schema = paper_synthetic_schema(5, 5);
        let t: Vec<TableId> = ["T0", "T1", "T2", "T11", "T12"]
            .iter()
            .map(|n| schema.table_id(n).unwrap())
            .collect();
        let mut rows = vec![0u64; schema.len()];
        for (ti, c) in t.iter().zip(card) {
            rows[*ti] = c;
        }
        let fk = |n: u64, m: u64| (0..n).map(|i| (i % m) as u32).collect::<Vec<_>>();
        let mut fks = FkData::default();
        fks.insert(t[0], t[1], fk(card[0], card[1]));
        fks.insert(t[0], t[2], fk(card[0], card[2]));
        fks.insert(t[1], t[3], fk(card[1], card[3]));
        fks.insert(t[1], t[4], fk(card[1], card[4]));
        (schema, rows, fks)
    }

    #[test]
    fn climbing_model_matches_multi_leaf_indexes_byte_for_byte() {
        // Every level spec on every table, each tree several leaves wide
        // (up to 3 000 distinct keys), with levels of exactly 255 and 256
        // rows, where an offset cell grows from one byte to two, and
        // unreferenced T11/T12 rows, whose sublists above their own level
        // are empty and trailing ones start at |T|.
        for card in [[5000, 256, 255, 1000, 1500], [4000, 255, 256, 2000, 256]] {
            let (schema, rows, fks) = instance(card);
            let mut dev = FlashDevice::new(
                FlashGeometry::for_capacity(64 * 1024 * 1024),
                FlashTiming::default(),
            );
            let mut alloc = SegmentAllocator::new(dev.logical_pages());
            let b = IndexBuilder::new(schema.clone(), rows.clone(), fks);
            let page = dev.page_size();
            for t in schema.tables() {
                let distinct = rows[t].min(3000);
                let keys: Vec<u64> = (0..rows[t]).map(|r| r % distinct).collect();
                for spec in [
                    LevelSpec::FullClimb,
                    LevelSpec::SelfAndRoot,
                    LevelSpec::SelfOnly,
                ] {
                    let ci = b
                        .build_climbing(
                            &mut dev,
                            &mut alloc,
                            ClimbingSpec {
                                table: t,
                                column: "h1",
                                keys: &keys,
                                levels: spec,
                                exact: true,
                            },
                        )
                        .unwrap();
                    let payload = ci.bytes(page)
                        - (ci.levels.iter())
                            .map(|l| area_bytes(&rows, *l, rows[*l], page))
                            .sum::<u64>();
                    assert!(
                        payload > page as u64,
                        "{card:?} table {t} {spec:?}: the tree must span several pages"
                    );
                    assert_eq!(
                        ci.bytes(page),
                        climbing_bytes(&schema, &rows, t, distinct, spec, page),
                        "{card:?} table {t} {spec:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn figure7_ordering_matches_paper() {
        // Paper: FullIndex ≳ BasicIndex > StarIndex > JoinIndex at any x ≥ 1,
        // with Full ≈ Basic ("the small difference between these two curves").
        // Ordering is an asymptotic property: use paper-shaped cardinalities
        // (model only, nothing is built).
        let schema = paper_synthetic_schema(5, 5);
        let mut rows = vec![0u64; schema.len()];
        for (name, c) in [
            ("T0", 1_000_000u64),
            ("T1", 100_000),
            ("T2", 100_000),
            ("T11", 10_000),
            ("T12", 10_000),
        ] {
            rows[schema.table_id(name).unwrap()] = c;
        }
        let distinct: Vec<u64> = rows.iter().map(|r| (r / 10).max(1)).collect();
        for x in 1..=5usize {
            let input = SizeModelInput {
                schema: &schema,
                rows: &rows,
                distinct: &distinct,
                attrs_per_table: x,
                page_size: 2048,
            };
            let full = scheme_index_bytes(IndexScheme::Full, &input);
            let basic = scheme_index_bytes(IndexScheme::Basic, &input);
            let star = scheme_index_bytes(IndexScheme::Star, &input);
            let join = scheme_index_bytes(IndexScheme::Join, &input);
            assert!(full >= basic, "x={x}: full {full} < basic {basic}");
            assert!(basic > star, "x={x}: basic {basic} <= star {star}");
            // StarIndex above JoinIndex, as in the paper, but only just:
            // with every id in `id_width(|T|)` bytes the root's SKT shrinks
            // from 16 to 10 bytes a row, and with column-major leaves of
            // `id_width(|T| + 1)`-byte offset cells JoinIndex's fk trees
            // shrink too, leaving StarIndex about 0.97 MB (2.8–10.6%)
            // above it.
            assert!(star > join, "x={x}: star {star} <= join {join}");
            // Full ≈ Basic: within 20% (paper: "small difference").
            assert!(
                (full as f64 - basic as f64) / full as f64 <= 0.2,
                "x={x}: full-basic gap too large"
            );
        }
    }

    #[test]
    fn index_growth_is_monotone_in_attrs() {
        let (schema, rows, _) = small_instance();
        let distinct: Vec<u64> = rows.iter().map(|r| (r / 4).max(1)).collect();
        let mut last = 0u64;
        for x in 0..=5usize {
            let input = SizeModelInput {
                schema: &schema,
                rows: &rows,
                distinct: &distinct,
                attrs_per_table: x,
                page_size: 2048,
            };
            let full = scheme_index_bytes(IndexScheme::Full, &input);
            assert!(full >= last);
            last = full;
        }
    }

    #[test]
    fn db_raw_counts_all_columns() {
        let (schema, rows, _) = small_instance();
        let raw = db_raw_bytes(&schema, &rows);
        // T0: 2000×(4 + 8 + 100); T1: 500×112; T2/T11/T12: ×104.
        let expect = 2000 * 112 + 500 * 112 + 200 * 104 + 100 * 104 + 80 * 104;
        assert_eq!(raw, expect);
    }
}

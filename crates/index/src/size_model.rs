//! Exact storage-size model for the Figure 7 comparison.
//!
//! Sizes are computed from the same layout formulas the builders use
//! (`BTree::pages_needed`, `RowLayout::pages_for`, ID areas of
//! [`id_width`]`(|T|)`-byte slots), so the model is exact for this
//! implementation — a property the tests check by physically building
//! small instances and comparing.

use crate::climbing::{LevelSpec, LEVEL_DESC_BYTES};
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

/// Size of one climbing index in bytes: B+-tree pages plus the packed ID
/// area of every level.
pub fn climbing_bytes(
    schema: &SchemaTree,
    rows: &[u64],
    t: TableId,
    distinct: u64,
    spec: LevelSpec,
    page_size: usize,
) -> u64 {
    let levels: Vec<TableId> = match spec {
        LevelSpec::FullClimb => {
            let mut v = vec![t];
            v.extend(schema.ancestors(t));
            v
        }
        LevelSpec::SelfAndRoot => {
            if t == schema.root() {
                vec![t]
            } else {
                vec![t, schema.root()]
            }
        }
        LevelSpec::SelfOnly => vec![t],
        LevelSpec::AncestorsOnly => schema.ancestors(t),
    };
    if levels.is_empty() {
        return 0;
    }
    let payload = levels.len() * LEVEL_DESC_BYTES;
    let tree = BTree::pages_needed(distinct, page_size, payload) * page_size as u64;
    let areas: u64 = levels
        .iter()
        .map(|l| area_bytes(rows, *l, rows[*l], page_size))
        .sum();
    tree + areas
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
        if let Some(spec) = scheme.pk_levels(schema, t) {
            let spec = match (scheme, spec) {
                // BasicIndex pk indexes reference the root only.
                (IndexScheme::Basic, _) if schema.parent(t) != Some(schema.root()) => {
                    LevelSpec::AncestorsOnly
                }
                (_, s) => s,
            };
            // pk index keys are the table's ids: distinct = rows.
            total += climbing_bytes(schema, rows, t, rows[t], spec, page);
        }
        // JoinIndex scheme: a binary join index per fk edge (child id →
        // sorted list of parent ids), Valduriez-style. Key columns need no
        // separate index: tables are stored sorted by id, so id lookup is
        // direct addressing, and the fk join index serves the edge in both
        // directions.
        if scheme.has_fk_join_indexes() {
            for child in schema.children(t) {
                let tree = BTree::pages_needed(rows[*child], page, LEVEL_DESC_BYTES) * page as u64;
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
        let schema = paper_synthetic_schema(5, 5);
        let ids: Vec<&str> = vec!["T0", "T1", "T2", "T11", "T12"];
        let card = [2000u64, 500, 200, 100, 80];
        let mut rows = vec![0u64; schema.len()];
        for (name, c) in ids.iter().zip(card) {
            rows[schema.table_id(name).unwrap()] = c;
        }
        let t0 = schema.table_id("T0").unwrap();
        let t1 = schema.table_id("T1").unwrap();
        let t2 = schema.table_id("T2").unwrap();
        let t11 = schema.table_id("T11").unwrap();
        let t12 = schema.table_id("T12").unwrap();
        let mut fks = FkData::default();
        fks.insert(t0, t1, (0..2000).map(|i| (i % 500) as u32).collect());
        fks.insert(t0, t2, (0..2000).map(|i| (i % 200) as u32).collect());
        fks.insert(t1, t11, (0..500).map(|i| (i % 100) as u32).collect());
        fks.insert(t1, t12, (0..500).map(|i| (i % 80) as u32).collect());
        (schema, rows, fks)
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

        // A full-climb attribute index on T12 with 40 distinct values.
        let t12 = schema.table_id("T12").unwrap();
        let keys: Vec<u64> = (0..rows[t12]).map(|r| r % 40).collect();
        let ci = b
            .build_climbing(
                &mut dev,
                &mut alloc,
                ClimbingSpec {
                    table: t12,
                    column: "h1",
                    keys: &keys,
                    levels: LevelSpec::FullClimb,
                    exact: true,
                },
            )
            .unwrap();
        assert_eq!(
            ci.bytes(page),
            climbing_bytes(&schema, &rows, t12, 40, LevelSpec::FullClimb, page)
        );
    }

    #[test]
    fn figure7_ordering_matches_paper() {
        // Paper: FullIndex ≳ BasicIndex > StarIndex > JoinIndex at any x ≥ 1,
        // with Full ≈ Basic ("the small difference between these two curves").
        // Narrow stored ids swap the last two at these cardinalities (see
        // below; at the paper's ×1, where every id takes 3 bytes, they keep
        // the paper's order: README "Figure 7 deviation").
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
            // Deviation: the paper has StarIndex above JoinIndex. With every
            // id in `id_width(|T|)` bytes the root's SKT shrinks from 16 to
            // 10 bytes a row here, and StarIndex ends about 1 MB (2.5–6%)
            // below JoinIndex, whose B+-tree descriptors stay 12 bytes.
            assert!(star < join, "x={x}: star {star} >= join {join}");
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

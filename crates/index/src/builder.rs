//! Bulk construction of SKTs and climbing indexes.
//!
//! Indexes are built when the database owner burns the key (§2.1), not
//! during queries, so construction may stage data host-side; every byte
//! still reaches flash through accounted sequential writes, and loaders
//! snapshot the device counters afterwards so query measurements start
//! clean.

use crate::climbing::{ClimbingIndex, LevelSpec, LEVEL_DESC_BYTES};
use crate::skt::SubtreeKeyTable;
use ghostdb_flash::{FlashDevice, SegmentAllocator};
use ghostdb_storage::btree::BTree;
use ghostdb_storage::idlist::{id_pages, slots_per_page};
use ghostdb_storage::row::{id_width, RowLayout};
use ghostdb_storage::{FlashTable, Id, Result, SchemaTree, StorageError, TableId};
use std::collections::HashMap;

/// Foreign-key data needed to build join structures: for every edge
/// `(parent, child)` of the schema tree, the child id referenced by each
/// parent row.
#[derive(Debug, Clone, Default)]
pub struct FkData {
    map: HashMap<(TableId, TableId), Vec<Id>>,
}

impl FkData {
    /// Register the fk column of `parent` referencing `child`.
    pub fn insert(&mut self, parent: TableId, child: TableId, ids: Vec<Id>) {
        self.map.insert((parent, child), ids);
    }

    /// The fk array of an edge.
    pub fn get(&self, parent: TableId, child: TableId) -> Option<&[Id]> {
        self.map.get(&(parent, child)).map(|v| v.as_slice())
    }
}

/// Description of one climbing index to build
/// ([`IndexBuilder::build_climbing`]).
///
/// `keys[r]` is the order-preserving key of the attribute value of row `r`
/// ([`ghostdb_storage::Value::order_key`]). `exact` states whether that
/// encoding is injective for this column's data (drives whether operators
/// must re-check predicates on exact values).
#[derive(Debug, Clone, Copy)]
pub struct ClimbingSpec<'a> {
    /// Indexed table.
    pub table: TableId,
    /// Indexed column name.
    pub column: &'a str,
    /// Order-preserving key of each row's value, one per row.
    pub keys: &'a [u64],
    /// Which target levels the index climbs to.
    pub levels: LevelSpec,
    /// Whether the key encoding is injective for this column's data.
    pub exact: bool,
}

/// Builder over a loaded schema instance.
#[derive(Debug)]
pub struct IndexBuilder {
    schema: SchemaTree,
    rows: Vec<u64>,
    fks: FkData,
}

impl IndexBuilder {
    /// New builder. `rows[t]` is the cardinality of table `t`.
    pub fn new(schema: SchemaTree, rows: Vec<u64>, fks: FkData) -> Self {
        assert_eq!(rows.len(), schema.len());
        IndexBuilder { schema, rows, fks }
    }

    /// The schema.
    pub fn schema(&self) -> &SchemaTree {
        &self.schema
    }

    /// Cardinality of a table.
    pub fn rows(&self, t: TableId) -> u64 {
        self.rows[t]
    }

    /// For each row of `from`, the id of the unique joining row of the
    /// descendant table `to` (fk composition along the tree path).
    /// `from == to` yields the identity.
    pub fn map_to_descendant(&self, from: TableId, to: TableId) -> Result<Vec<Id>> {
        if from == to {
            return Ok((0..self.rows[from] as Id).collect());
        }
        // Path from `to` up to `from`.
        let mut path = vec![to];
        let mut cur = to;
        while cur != from {
            cur = self.schema.parent(cur).ok_or_else(|| {
                StorageError::Schema(format!(
                    "{} is not a descendant of {}",
                    self.schema.def(to).name,
                    self.schema.def(from).name
                ))
            })?;
            path.push(cur);
        }
        path.reverse(); // from .. to
        let first = self
            .fks
            .get(path[0], path[1])
            .ok_or_else(|| StorageError::Schema("missing fk data".into()))?;
        let mut map: Vec<Id> = first.to_vec();
        for edge in path[1..].windows(2) {
            let next = self
                .fks
                .get(edge[0], edge[1])
                .ok_or_else(|| StorageError::Schema("missing fk data".into()))?;
            for m in map.iter_mut() {
                *m = next[*m as usize];
            }
        }
        Ok(map)
    }

    /// Build the SKT of a non-leaf table.
    pub fn build_skt(
        &self,
        dev: &mut FlashDevice,
        alloc: &mut SegmentAllocator,
        t: TableId,
    ) -> Result<SubtreeKeyTable> {
        let descendants = self.schema.descendants(t);
        if descendants.is_empty() {
            return Err(StorageError::Schema(format!(
                "SKT on leaf table {}",
                self.schema.def(t).name
            )));
        }
        let maps: Vec<Vec<Id>> = descendants
            .iter()
            .map(|d| self.map_to_descendant(t, *d))
            .collect::<Result<_>>()?;
        let widths: Vec<u64> = descendants.iter().map(|d| self.rows[*d]).collect();
        let layout = RowLayout::id_cells(&widths);
        let fill_layout = layout.clone();
        let mut bad = None;
        let flash = FlashTable::bulk_load_with(dev, alloc, layout, self.rows[t], |r, out| {
            for (c, m) in maps.iter().enumerate() {
                if let Err(e) = fill_layout.put_id(out, c, m[r as usize]) {
                    bad.get_or_insert(e);
                }
            }
        })?;
        if let Some(e) = bad {
            return Err(e);
        }
        SubtreeKeyTable::new(&self.schema, &self.rows, t, flash)
    }

    /// Resolve a [`LevelSpec`] into concrete target tables for table `t`.
    pub fn resolve_levels(&self, t: TableId, spec: LevelSpec) -> Result<Vec<TableId>> {
        let ancestors = self.schema.ancestors(t);
        let levels = match spec {
            LevelSpec::FullClimb => {
                let mut v = vec![t];
                v.extend(ancestors);
                v
            }
            LevelSpec::SelfAndRoot => {
                if t == self.schema.root() {
                    vec![t]
                } else {
                    vec![t, self.schema.root()]
                }
            }
            LevelSpec::SelfOnly => vec![t],
            LevelSpec::AncestorsOnly => ancestors,
        };
        if levels.is_empty() {
            return Err(StorageError::Schema(
                "climbing index with no levels (AncestorsOnly on the root?)".into(),
            ));
        }
        Ok(levels)
    }

    /// Build the climbing index described by `spec`.
    pub fn build_climbing(
        &self,
        dev: &mut FlashDevice,
        alloc: &mut SegmentAllocator,
        spec: ClimbingSpec<'_>,
    ) -> Result<ClimbingIndex> {
        let ClimbingSpec {
            table: t,
            column,
            keys,
            levels: level_spec,
            exact,
        } = spec;
        assert_eq!(keys.len() as u64, self.rows[t], "one key per row");
        let levels = self.resolve_levels(t, level_spec)?;
        // Distinct keys, sorted.
        let mut distinct: Vec<u64> = keys.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        let rank: HashMap<u64, u32> = distinct
            .iter()
            .enumerate()
            .map(|(i, k)| (*k, i as u32))
            .collect();

        let page_size = dev.page_size();
        let payload_size = levels.len() * LEVEL_DESC_BYTES;
        let mut payloads: Vec<Vec<u8>> = vec![vec![0u8; payload_size]; distinct.len()];
        let mut areas = Vec::with_capacity(levels.len());

        for (li, level_table) in levels.iter().enumerate() {
            // Key of each row of the level table: its own key if this is the
            // indexed table, else the key of the `t` row it joins with.
            let level_keys: Vec<u64> = if *level_table == t {
                keys.to_vec()
            } else {
                let map = self.map_to_descendant(*level_table, t)?;
                map.iter().map(|ti| keys[*ti as usize]).collect()
            };
            let n = level_keys.len();
            // Bucket ids per key rank; iterating rows in ascending id order
            // keeps every sublist sorted.
            let mut counts = vec![0u32; distinct.len()];
            for k in &level_keys {
                counts[rank[k] as usize] += 1;
            }
            // Sublists back to back, one `width`-byte slot per id: the
            // area's slots are contiguous, and each page takes the next
            // `page_size / width` of them.
            let width = id_width(self.rows[*level_table]);
            let mut offsets = vec![0u64; distinct.len()];
            let mut acc = 0u64;
            for (i, c) in counts.iter().enumerate() {
                offsets[i] = acc;
                acc += *c as u64;
            }
            let mut area = vec![0u8; n * width];
            let mut cursor = offsets.clone();
            match width {
                1 => lay_ids::<1>(&mut area, &level_keys, &rank, &mut cursor),
                2 => lay_ids::<2>(&mut area, &level_keys, &rank, &mut cursor),
                3 => lay_ids::<3>(&mut area, &level_keys, &rank, &mut cursor),
                _ => lay_ids::<4>(&mut area, &level_keys, &rank, &mut cursor),
            }
            // Write the packed area sequentially.
            let seg = alloc.alloc(id_pages(n as u64, width, page_size))?;
            let page_bytes = slots_per_page(width, page_size) as usize * width;
            for (p, chunk) in area.chunks(page_bytes).enumerate() {
                dev.write(seg.lpn(p as u64)?, chunk)?;
            }
            areas.push((seg, width));
            for (ki, payload) in payloads.iter_mut().enumerate() {
                let at = li * LEVEL_DESC_BYTES;
                payload[at..at + 8].copy_from_slice(&offsets[ki].to_le_bytes());
                payload[at + 8..at + 12].copy_from_slice(&counts[ki].to_le_bytes());
            }
        }

        let entries: Vec<(u64, Vec<u8>)> = distinct.into_iter().zip(payloads).collect();
        let tree = BTree::bulk_build(dev, alloc, payload_size, &entries)?;
        Ok(ClimbingIndex::new(
            t,
            column.to_string(),
            levels,
            exact,
            self.rows[t],
            tree,
            areas,
        ))
    }
}

/// Lay row `r` of a level table, keyed `keys[r]`, into the next slot of
/// its key's sublist in `area`, `W` bytes a slot; `cursor[rank]` is the
/// next free slot of each key. `W` is the level table's [`id_width`], so
/// every row id fits.
fn lay_ids<const W: usize>(
    area: &mut [u8],
    keys: &[u64],
    rank: &HashMap<u64, u32>,
    cursor: &mut [u64],
) {
    let (cells, _) = area.as_chunks_mut::<W>();
    for (r, k) in keys.iter().enumerate() {
        let slot = &mut cursor[rank[k] as usize];
        cells[*slot as usize].copy_from_slice(&(r as Id).to_le_bytes()[..W]);
        *slot += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghostdb_flash::{FlashGeometry, FlashTiming};
    use ghostdb_storage::schema::paper_synthetic_schema;
    use ghostdb_token::RamArena;

    fn setup() -> (FlashDevice, SegmentAllocator, RamArena) {
        let dev = FlashDevice::new(
            FlashGeometry::for_capacity(32 * 1024 * 1024),
            FlashTiming::default(),
        );
        let alloc = SegmentAllocator::new(dev.logical_pages());
        let ram = RamArena::paper_default();
        (dev, alloc, ram)
    }

    fn builder(schema: &SchemaTree) -> IndexBuilder {
        let t0 = schema.table_id("T0").unwrap();
        let t1 = schema.table_id("T1").unwrap();
        let t2 = schema.table_id("T2").unwrap();
        let t11 = schema.table_id("T11").unwrap();
        let t12 = schema.table_id("T12").unwrap();
        let mut rows = vec![0u64; schema.len()];
        rows[t0] = 100;
        rows[t1] = 50;
        rows[t2] = 20;
        rows[t11] = 10;
        rows[t12] = 8;
        let mut fks = FkData::default();
        fks.insert(t0, t1, (0..100).map(|i| (i % 50) as u32).collect());
        fks.insert(t0, t2, (0..100).map(|i| (i % 20) as u32).collect());
        fks.insert(t1, t11, (0..50).map(|i| (i % 10) as u32).collect());
        fks.insert(t1, t12, (0..50).map(|i| (i % 8) as u32).collect());
        IndexBuilder::new(schema.clone(), rows, fks)
    }

    use ghostdb_storage::SchemaTree;

    #[test]
    fn map_composition() {
        let schema = paper_synthetic_schema(1, 1);
        let b = builder(&schema);
        let t0 = schema.table_id("T0").unwrap();
        let t12 = schema.table_id("T12").unwrap();
        let map = b.map_to_descendant(t0, t12).unwrap();
        assert_eq!(map.len(), 100);
        // T0 row 77 → T1 row 27 → T12 row 27 % 8 = 3.
        assert_eq!(map[77], 3);
        // Identity for self.
        assert_eq!(
            b.map_to_descendant(t12, t12).unwrap(),
            (0..8).collect::<Vec<u32>>()
        );
        // Non-descendant errors.
        let t2 = schema.table_id("T2").unwrap();
        assert!(b.map_to_descendant(t2, t12).is_err());
    }

    #[test]
    fn skt_rows_follow_fk_composition() {
        let schema = paper_synthetic_schema(1, 1);
        let (mut dev, mut alloc, ram) = setup();
        let b = builder(&schema);
        let t0 = schema.table_id("T0").unwrap();
        let skt = b.build_skt(&mut dev, &mut alloc, t0).unwrap();
        assert_eq!(skt.rows(), 100);
        assert_eq!(skt.descendants.len(), 4); // T1, T11, T12, T2
        let mut reader = skt.flash.reader(&ram, dev.page_size()).unwrap();
        reader.load_rows(&mut dev, &[77]).unwrap();
        let row = reader.loaded_row(77).unwrap();
        let l = &skt.flash.layout;
        assert_eq!(l.get_id(row, 0), 27); // T1 = 77 % 50
        assert_eq!(l.get_id(row, 1), 7); // T11 = 27 % 10
        assert_eq!(l.get_id(row, 2), 3); // T12 = 27 % 8
        assert_eq!(l.get_id(row, 3), 17); // T2 = 77 % 20
    }

    #[test]
    fn skt_on_leaf_rejected() {
        let schema = paper_synthetic_schema(1, 1);
        let (mut dev, mut alloc, _ram) = setup();
        let b = builder(&schema);
        let t2 = schema.table_id("T2").unwrap();
        assert!(b.build_skt(&mut dev, &mut alloc, t2).is_err());
    }

    #[test]
    fn ancestors_only_on_root_rejected() {
        let schema = paper_synthetic_schema(1, 1);
        let b = builder(&schema);
        assert!(b
            .resolve_levels(schema.root(), LevelSpec::AncestorsOnly)
            .is_err());
    }

    #[test]
    fn root_attribute_index_is_plain_btree() {
        // §3.2: "For the special case of root table attributes, climbing
        // indexes and traditional B+-Trees are identical."
        let schema = paper_synthetic_schema(1, 1);
        let (mut dev, mut alloc, ram) = setup();
        let b = builder(&schema);
        let t0 = schema.root();
        let keys: Vec<u64> = (0..100).map(|r| (r / 10) as u64).collect();
        let ci = b
            .build_climbing(
                &mut dev,
                &mut alloc,
                ClimbingSpec {
                    table: t0,
                    column: "h1",
                    keys: &keys,
                    levels: LevelSpec::FullClimb,
                    exact: true,
                },
            )
            .unwrap();
        assert_eq!(ci.levels, vec![t0]);
        let mut probe = ci.probe(&ram).unwrap();
        let list = probe.lookup_eq_run(&mut dev, &[4], 0).unwrap().remove(0);
        assert_eq!(list.count, 10);
    }

    #[test]
    fn empty_sublists_for_unreferenced_rows() {
        let schema = paper_synthetic_schema(1, 1);
        let (mut dev, mut alloc, ram) = setup();
        let t0 = schema.table_id("T0").unwrap();
        let t1 = schema.table_id("T1").unwrap();
        let t2 = schema.table_id("T2").unwrap();
        let t11 = schema.table_id("T11").unwrap();
        let t12 = schema.table_id("T12").unwrap();
        let mut rows = vec![0u64; schema.len()];
        rows[t0] = 4;
        rows[t1] = 10; // rows 4..10 unreferenced by T0
        rows[t2] = 1;
        rows[t11] = 1;
        rows[t12] = 1;
        let mut fks = FkData::default();
        fks.insert(t0, t1, vec![0, 1, 2, 3]);
        fks.insert(t0, t2, vec![0, 0, 0, 0]);
        fks.insert(t1, t11, vec![0; 10]);
        fks.insert(t1, t12, vec![0; 10]);
        let b = IndexBuilder::new(schema.clone(), rows, fks);
        let keys: Vec<u64> = (0..10).map(|r| r as u64).collect();
        let ci = b
            .build_climbing(
                &mut dev,
                &mut alloc,
                ClimbingSpec {
                    table: t1,
                    column: "h1",
                    keys: &keys,
                    levels: LevelSpec::FullClimb,
                    exact: true,
                },
            )
            .unwrap();
        let mut probe = ci.probe(&ram).unwrap();
        // Key 7: T1 row 7 exists but no T0 row references it.
        let root_level = ci.level_of(t0).unwrap();
        let list = probe
            .lookup_eq_run(&mut dev, &[7], root_level)
            .unwrap()
            .remove(0);
        assert_eq!(list.count, 0);
    }
}

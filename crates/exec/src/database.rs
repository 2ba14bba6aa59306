//! The assembled GhostDB database instance and its load path.
//!
//! "Burning the key" (§2.1): the database owner vertically partitions each
//! table, downloads the hidden partition plus all index structures onto the
//! token, and hands the visible partition to the PC. [`Database::assemble`]
//! is that process; every hidden byte reaches flash through accounted
//! sequential writes, and query measurements snapshot the counters
//! afterwards so load cost never pollutes them.

use crate::error::ExecError;
use crate::Result;
use ghostdb_flash::SegmentAllocator;
use ghostdb_index::{
    ClimbingIndex, ClimbingSpec, FkData, IndexBuilder, LevelSpec, SubtreeKeyTable,
};
use ghostdb_storage::{
    ColumnType, HiddenColumn, HiddenImage, Id, SchemaTree, TableId, Value, Visibility,
};
use ghostdb_token::{SecureToken, TokenConfig};
use ghostdb_untrusted::{UntrustedHost, VisibleColumn, VisibleStore, VisibleTable};
use std::collections::HashMap;

/// One column's load specification.
pub struct ColumnLoad {
    /// Column name (must exist in the schema with matching visibility).
    pub name: String,
    /// Deterministic value generator (row id → value).
    pub gen: Box<dyn Fn(Id) -> Value>,
    /// Build a climbing index on this column (hidden columns only).
    pub index: bool,
    /// Whether order-keys are injective for this column's data. `None`
    /// lets the loader verify (hashes every distinct value: fine for small
    /// loads, pass a hint for big ones).
    pub exact: Option<bool>,
}

/// One table's load specification.
pub struct TableLoad {
    /// Table name.
    pub table: String,
    /// Cardinality.
    pub rows: u64,
    /// Foreign-key arrays, one per fk column: `(column, child ids)`.
    pub fks: Vec<(String, Vec<Id>)>,
    /// Non-key columns.
    pub columns: Vec<ColumnLoad>,
}

/// A loaded GhostDB database. Loaders (`ghostdb-datagen`, `ghostdb-core`)
/// populate this; the executor runs queries against it.
#[derive(Debug)]
pub struct Database {
    /// The tree-structured schema.
    pub schema: SchemaTree,
    /// Cardinality per table.
    pub rows: Vec<u64>,
    /// Hidden image per table (columnar, id-sorted).
    pub hidden: Vec<HiddenImage>,
    /// SKT per non-leaf table.
    pub skts: Vec<Option<SubtreeKeyTable>>,
    /// Climbing indexes, keyed by (table, column); the primary-key index of
    /// a table is keyed by `(table, "id")` with ancestor levels only.
    pub cis: HashMap<(TableId, String), ClimbingIndex>,
    /// The secure USB key.
    pub token: SecureToken,
    /// Logical-space allocator of the token's flash (temporaries draw from
    /// it during query execution).
    pub alloc: SegmentAllocator,
    /// The untrusted PC.
    pub untrusted: UntrustedHost,
}

impl Database {
    /// Assemble a database on a fresh token.
    pub fn assemble(
        schema: SchemaTree,
        config: &TokenConfig,
        loads: Vec<TableLoad>,
    ) -> Result<Database> {
        let mut token = SecureToken::new(config)?;
        let mut alloc = SegmentAllocator::new(token.flash.logical_pages());
        let mut store = VisibleStore::new(schema.len());
        let mut hidden: Vec<HiddenImage> =
            (0..schema.len()).map(|_| HiddenImage::default()).collect();
        // Every table's cardinality first: a foreign-key column's cells take
        // the width of its referenced table's row count.
        let mut rows = vec![0u64; schema.len()];
        for load in &loads {
            rows[schema.table_id(&load.table)?] = load.rows;
        }
        let mut fk_data = FkData::default();
        // (table, column, keys, exact) for climbing-index builds.
        let mut pending_cis: Vec<(TableId, String, Vec<u64>, bool)> = Vec::new();

        for load in &loads {
            let t = schema.table_id(&load.table)?;
            let def = schema.def(t).clone();
            let mut vis_table = VisibleTable {
                columns: Vec::new(),
                rows: load.rows,
            };
            let mut image = HiddenImage {
                columns: Vec::new(),
                rows: load.rows,
            };
            for col in &load.columns {
                let decl = def.column(&col.name).ok_or_else(|| {
                    ExecError::Query(format!("unknown column {}.{}", def.name, col.name))
                })?;
                match decl.visibility {
                    Visibility::Visible => {
                        vis_table.columns.push(VisibleColumn::from_gen(
                            &col.name,
                            decl.ty,
                            load.rows,
                            |r| (col.gen)(r),
                        )?);
                    }
                    Visibility::Hidden => {
                        image.columns.push(HiddenColumn::bulk_load_with(
                            &mut token.flash,
                            &mut alloc,
                            &col.name,
                            decl.ty,
                            load.rows,
                            |r| (col.gen)(r),
                        )?);
                        if col.index {
                            let mut keys = Vec::with_capacity(load.rows as usize);
                            for r in 0..load.rows {
                                keys.push(stored_key(&decl.ty, (col.gen)(r as Id)));
                            }
                            let exact = match col.exact {
                                Some(e) => e,
                                None => verify_exact(&decl.ty, load.rows, |r| (col.gen)(r)),
                            };
                            pending_cis.push((t, col.name.clone(), keys, exact));
                        }
                    }
                }
            }
            for (fk_col, ids) in &load.fks {
                if ids.len() as u64 != load.rows {
                    return Err(ExecError::Query(format!(
                        "fk array {}.{} has {} entries for {} rows",
                        def.name,
                        fk_col,
                        ids.len(),
                        load.rows
                    )));
                }
                let fk = def
                    .foreign_keys
                    .iter()
                    .find(|f| f.column == *fk_col)
                    .ok_or_else(|| {
                        ExecError::Query(format!("{}.{} is not a foreign key", def.name, fk_col))
                    })?;
                let child = schema.table_id(&fk.references)?;
                // The index builders below address the referenced table's
                // arrays by these ids.
                if let Some(row) = ids.iter().position(|id| u64::from(*id) >= rows[child]) {
                    return Err(ExecError::DanglingForeignKey {
                        table: def.name.clone(),
                        column: fk_col.to_string(),
                        row: row as u64,
                        value: i64::from(ids[row]),
                        references: schema.def(child).name.clone(),
                        rows: rows[child],
                    });
                }
                // Foreign keys are hidden columns: store them in the image
                // (they are raw data, counted in DBSize) and register for
                // index builds.
                image.columns.push(HiddenColumn::bulk_load_ids(
                    &mut token.flash,
                    &mut alloc,
                    fk_col,
                    rows[child],
                    ids,
                )?);
                fk_data.insert(t, child, ids.clone());
            }
            store.set_table(t, vis_table);
            hidden[t] = image;
        }

        // Index construction.
        let builder = IndexBuilder::new(schema.clone(), rows.clone(), fk_data);
        let mut skts: Vec<Option<SubtreeKeyTable>> = vec![None; schema.len()];
        let mut cis = HashMap::new();
        for t in schema.tables() {
            if !schema.children(t).is_empty() {
                skts[t] = Some(builder.build_skt(&mut token.flash, &mut alloc, t)?);
            }
            if t != schema.root() {
                // Primary-key climbing index: keys are the ids themselves.
                let keys: Vec<u64> = (0..rows[t]).collect();
                let ci = builder.build_climbing(
                    &mut token.flash,
                    &mut alloc,
                    ClimbingSpec {
                        table: t,
                        column: "id",
                        keys: &keys,
                        levels: LevelSpec::AncestorsOnly,
                        exact: true,
                    },
                )?;
                cis.insert((t, "id".to_string()), ci);
            }
        }
        for (t, name, keys, exact) in pending_cis {
            let ci = builder.build_climbing(
                &mut token.flash,
                &mut alloc,
                ClimbingSpec {
                    table: t,
                    column: &name,
                    keys: &keys,
                    levels: LevelSpec::FullClimb,
                    exact,
                },
            )?;
            cis.insert((t, name), ci);
        }

        Ok(Database {
            schema,
            rows,
            hidden,
            skts,
            cis,
            token,
            alloc,
            untrusted: UntrustedHost::new(store),
        })
    }

    /// Table name helper.
    pub fn table_name(&self, t: TableId) -> &str {
        &self.schema.def(t).name
    }

    /// The climbing index on `(t, column)`, if built.
    pub fn index(&self, t: TableId, column: &str) -> Option<&ClimbingIndex> {
        self.cis.get(&(t, column.to_string()))
    }

    /// Reset per-query token state: the channel's transcript and byte
    /// counters, and the RAM arena's high-water mark (so
    /// `ExecReport::peak_ram_buffers` is this query's own peak). Flash
    /// stats are monotone; the executor snapshots them instead. The
    /// host-observable trace is deliberately NOT reset here — its reset
    /// belongs to the session (the executor for solo runs, the serving
    /// session otherwise), so concurrent sessions cannot clobber each
    /// other's captured traces.
    pub fn begin_query(&mut self) {
        self.token.channel.reset();
        self.token.ram.reset_peak();
    }
}

impl std::fmt::Debug for ColumnLoad {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColumnLoad")
            .field("name", &self.name)
            .field("index", &self.index)
            .finish_non_exhaustive()
    }
}

/// The index key of a cell as its column stores it. A FLOAT(4) cell is
/// encoded as an f32, so it is keyed by that f32: hidden comparisons then
/// agree with the visible side, which compares the decoded value.
fn stored_key(ty: &ColumnType, v: Value) -> u64 {
    match (ty, v) {
        (ColumnType::Float { width: 4 }, Value::Float(x)) => {
            Value::Float(f64::from(x as f32)).order_key()
        }
        (_, v) => v.order_key(),
    }
}

/// Check key-encoding injectivity by hashing every distinct value.
fn verify_exact(ty: &ColumnType, rows: u64, gen: impl Fn(Id) -> Value) -> bool {
    use std::collections::HashSet;
    let mut values: HashSet<Vec<u8>> = HashSet::new();
    let mut keys: HashSet<u64> = HashSet::new();
    let mut buf = vec![0u8; ty.width()];
    for r in 0..rows {
        let v = gen(r as Id);
        if v.encode(ty, &mut buf).is_err() {
            return false;
        }
        values.insert(buf.clone());
        keys.insert(stored_key(ty, v));
    }
    values.len() == keys.len()
}

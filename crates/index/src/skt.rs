//! Subtree Key Tables (paper §3.2, Figure 4).
//!
//! `SKT_T` precomputes the join of `T` with **all** its descendants: one row
//! per tuple of `T` (stored in `T.id` order so the id column itself is
//! implicit — "keeping the SKT sorted on the table identifiers of T
//! eliminates the need to store those identifiers"), holding the id of the
//! unique joining tuple of every descendant table in DFS pre-order.
//!
//! Each id takes its descendant table's [`id_width`]`(|Ti|)` bytes, so a
//! row's layout is a function of public row counts only: at the synthetic
//! schema's ×0.02 scale an `SKT_T0` row holds four 2-byte ids, 8 bytes.
//!
//! The `SJoin` operator semi-joins a sorted list of `T` ids against this
//! table with a single ascending pass, projecting any subset of descendant
//! id columns. The column of a direct child `C` holds the same ids as `T`'s
//! hidden foreign-key column into `C` (both are built from one `FkData`
//! array, at the same width), so when `C` is the only column an SJoin
//! needs, it reads that narrower column instead wherever it is cheaper
//! than these wider rows.

#[cfg(doc)]
use ghostdb_storage::row::id_width;
use ghostdb_storage::row::RowLayout;
use ghostdb_storage::{FlashTable, Result, SchemaTree, StorageError, TableId};

/// A subtree key table on flash.
#[derive(Debug, Clone)]
pub struct SubtreeKeyTable {
    /// Owning table (a non-leaf table of the schema).
    pub table: TableId,
    /// Descendant tables, in DFS pre-order — the column order of each row.
    pub descendants: Vec<TableId>,
    /// The rows on flash: one id cell per descendant, each
    /// [`id_width`] of that table's rows, sorted by the implicit owner id.
    pub flash: FlashTable,
}

impl SubtreeKeyTable {
    /// Wrap a built flash table (used by `IndexBuilder`); `rows[t]` is the
    /// cardinality of table `t`.
    pub fn new(
        schema: &SchemaTree,
        rows: &[u64],
        table: TableId,
        flash: FlashTable,
    ) -> Result<SubtreeKeyTable> {
        let descendants = schema.descendants(table);
        if descendants.is_empty() {
            return Err(StorageError::Schema(format!(
                "SKT on leaf table {}",
                schema.def(table).name
            )));
        }
        let widths: Vec<u64> = descendants.iter().map(|d| rows[*d]).collect();
        if flash.layout != RowLayout::id_cells(&widths) {
            return Err(StorageError::Corrupt("SKT layout mismatch".into()));
        }
        Ok(SubtreeKeyTable {
            table,
            descendants,
            flash,
        })
    }

    /// Column index of descendant table `t` within SKT rows.
    pub fn column_of(&self, t: TableId) -> Option<usize> {
        self.descendants.iter().position(|d| *d == t)
    }

    /// Rows (= cardinality of the owning table).
    pub fn rows(&self) -> u64 {
        self.flash.rows()
    }

    /// Bytes occupied on flash (size model input).
    pub fn bytes(&self, page_size: usize) -> u64 {
        self.flash.pages(page_size) * page_size as u64
    }
}

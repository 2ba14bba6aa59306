//! Subtree Key Tables (paper §3.2, Figure 4).
//!
//! `SKT_T` precomputes the join of `T` with **all** its descendants: one row
//! per tuple of `T` (stored in `T.id` order so the id column itself is
//! implicit — "keeping the SKT sorted on the table identifiers of T
//! eliminates the need to store those identifiers"), holding the id of the
//! unique joining tuple of every descendant table in DFS pre-order.
//!
//! The `SJoin` operator semi-joins a sorted list of `T` ids against this
//! table with a single ascending pass, projecting any subset of descendant
//! id columns. The column of a direct child `C` holds the same ids as `T`'s
//! hidden foreign-key column into `C` (both are built from one `FkData`
//! array), so when `C` is the only column an SJoin needs, it reads that
//! 4-byte column instead wherever it is cheaper than these wider rows.

use ghostdb_storage::row::RowLayout;
use ghostdb_storage::{FlashTable, Result, SchemaTree, StorageError, TableId};

/// A subtree key table on flash.
#[derive(Debug, Clone)]
pub struct SubtreeKeyTable {
    /// Owning table (a non-leaf table of the schema).
    pub table: TableId,
    /// Descendant tables, in DFS pre-order — the column order of each row.
    pub descendants: Vec<TableId>,
    /// The rows on flash: layout = `ids(descendants.len())`, sorted by the
    /// implicit owner id.
    pub flash: FlashTable,
}

impl SubtreeKeyTable {
    /// Wrap a built flash table (used by `IndexBuilder`).
    pub fn new(schema: &SchemaTree, table: TableId, flash: FlashTable) -> Result<SubtreeKeyTable> {
        let descendants = schema.descendants(table);
        if descendants.is_empty() {
            return Err(StorageError::Schema(format!(
                "SKT on leaf table {}",
                schema.def(table).name
            )));
        }
        if flash.layout != RowLayout::ids(descendants.len()) {
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

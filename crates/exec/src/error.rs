//! Error type for query execution.

use std::fmt;

/// Errors surfaced by the executor.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// Propagated storage error.
    Storage(ghostdb_storage::StorageError),
    /// Propagated token error.
    Token(ghostdb_token::TokenError),
    /// Propagated flash error.
    Flash(ghostdb_flash::FlashError),
    /// Query analysis failure (unknown column, predicate on the wrong side,
    /// unsupported shape…).
    Query(String),
    /// A plan required an index that was not built.
    MissingIndex {
        /// Table name.
        table: String,
        /// Column name.
        column: String,
    },
    /// Strategy not applicable (e.g. Cross filtering with no hidden
    /// predicate on the table or its descendants).
    StrategyNotApplicable(String),
    /// A foreign-key cell names no row of the table it references.
    DanglingForeignKey {
        /// Table holding the foreign key.
        table: String,
        /// Foreign-key column.
        column: String,
        /// Row of the offending cell.
        row: u64,
        /// The cell's value.
        value: i64,
        /// Referenced table.
        references: String,
        /// Rows of the referenced table.
        rows: u64,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Storage(e) => write!(f, "storage: {e}"),
            ExecError::Token(e) => write!(f, "token: {e}"),
            ExecError::Flash(e) => write!(f, "flash: {e}"),
            ExecError::Query(msg) => write!(f, "query: {msg}"),
            ExecError::MissingIndex { table, column } => {
                write!(f, "no climbing index on {table}.{column}")
            }
            ExecError::StrategyNotApplicable(msg) => write!(f, "strategy not applicable: {msg}"),
            ExecError::DanglingForeignKey {
                table,
                column,
                row,
                value,
                references,
                rows,
            } => write!(
                f,
                "foreign key {table}.{column} of row {row} is {value}, \
                 which names no row of {references} ({rows} rows)"
            ),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Storage(e) => Some(e),
            ExecError::Token(e) => Some(e),
            ExecError::Flash(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ghostdb_storage::StorageError> for ExecError {
    fn from(e: ghostdb_storage::StorageError) -> Self {
        ExecError::Storage(e)
    }
}

impl From<ghostdb_token::TokenError> for ExecError {
    fn from(e: ghostdb_token::TokenError) -> Self {
        ExecError::Token(e)
    }
}

impl From<ghostdb_flash::FlashError> for ExecError {
    fn from(e: ghostdb_flash::FlashError) -> Self {
        ExecError::Flash(e)
    }
}

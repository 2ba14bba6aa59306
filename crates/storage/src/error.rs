//! Error type for the storage engine.

use std::fmt;

/// Errors surfaced by the storage engine.
#[derive(Debug, Clone, PartialEq)]
pub enum StorageError {
    /// Propagated flash error.
    Flash(ghostdb_flash::FlashError),
    /// Propagated token error (RAM exhaustion etc.).
    Token(ghostdb_token::TokenError),
    /// Schema validation failure (not a tree, dangling foreign key, …).
    Schema(String),
    /// Value does not match the declared column type.
    TypeMismatch {
        /// Column the value was destined for.
        column: String,
        /// What was expected.
        expected: &'static str,
    },
    /// Row id outside the table.
    RowOutOfRange {
        /// Requested row.
        row: u64,
        /// Table cardinality.
        rows: u64,
    },
    /// An id that does not fit its id cell's width.
    IdTooWide {
        /// The id.
        id: u32,
        /// The cell's width in bytes.
        width: usize,
    },
    /// Unknown table or column name.
    Unknown(String),
    /// Corrupt or inconsistent on-flash structure (bulk-load order
    /// violation, bad node type, …).
    Corrupt(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Flash(e) => write!(f, "flash: {e}"),
            StorageError::Token(e) => write!(f, "token: {e}"),
            StorageError::Schema(msg) => write!(f, "schema: {msg}"),
            StorageError::TypeMismatch { column, expected } => {
                write!(f, "type mismatch for column {column}: expected {expected}")
            }
            StorageError::RowOutOfRange { row, rows } => {
                write!(f, "row {row} out of range (table has {rows} rows)")
            }
            StorageError::IdTooWide { id, width } => {
                write!(f, "id {id} does not fit a {width}-byte id cell")
            }
            StorageError::Unknown(name) => write!(f, "unknown object: {name}"),
            StorageError::Corrupt(msg) => write!(f, "corrupt structure: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Flash(e) => Some(e),
            StorageError::Token(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ghostdb_flash::FlashError> for StorageError {
    fn from(e: ghostdb_flash::FlashError) -> Self {
        StorageError::Flash(e)
    }
}

impl From<ghostdb_token::TokenError> for StorageError {
    fn from(e: ghostdb_token::TokenError) -> Self {
        StorageError::Token(e)
    }
}

//! Error type of the public API.

use std::fmt;

/// Errors surfaced by the GhostDB facade.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// SQL lexing/parsing failure with position context.
    Parse(String),
    /// Semantic failure (unknown table/column, bad statement order…).
    Semantic(String),
    /// A CHAR cell or string literal holding a NUL byte, named by its
    /// place. CHAR cells are stored NUL-padded and read back up to their
    /// first NUL, so such a value could not round-trip, and a literal
    /// holding one could select what its stored values do not equal.
    NulInChar(String),
    /// Propagated executor error.
    Exec(ghostdb_exec::ExecError),
    /// Propagated storage error.
    Storage(ghostdb_storage::StorageError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Parse(m) => write!(f, "parse error: {m}"),
            CoreError::Semantic(m) => write!(f, "semantic error: {m}"),
            CoreError::NulInChar(at) => write!(f, "{at}: CHAR values may not hold a NUL byte"),
            CoreError::Exec(e) => write!(f, "execution: {e}"),
            CoreError::Storage(e) => write!(f, "storage: {e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Exec(e) => Some(e),
            CoreError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ghostdb_exec::ExecError> for CoreError {
    fn from(e: ghostdb_exec::ExecError) -> Self {
        CoreError::Exec(e)
    }
}

impl From<ghostdb_storage::StorageError> for CoreError {
    fn from(e: ghostdb_storage::StorageError) -> Self {
        CoreError::Storage(e)
    }
}

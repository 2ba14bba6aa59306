//! Error type for the token environment.

use std::fmt;

/// Errors surfaced by the secure-token environment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenError {
    /// An operator asked for more RAM buffers than remain in the arena.
    /// This is the error that forces GhostDB's algorithms to spill and
    /// reduce instead of buffering freely.
    OutOfRam {
        /// Buffers requested.
        requested: usize,
        /// Buffers currently available.
        available: usize,
        /// Total buffers in the arena.
        capacity: usize,
    },
    /// A RAM buffer is smaller than a flash page, so a page read cannot
    /// land in one buffer.
    BufferTooSmall {
        /// Buffer size in bytes.
        buf_size: usize,
        /// Flash page size in bytes.
        page_size: usize,
    },
    /// Flash error propagated from the device.
    Flash(ghostdb_flash::FlashError),
}

impl fmt::Display for TokenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenError::OutOfRam {
                requested,
                available,
                capacity,
            } => write!(
                f,
                "secure RAM exhausted: requested {requested} buffers, {available}/{capacity} available"
            ),
            TokenError::BufferTooSmall {
                buf_size,
                page_size,
            } => write!(
                f,
                "RAM buffer of {buf_size} bytes cannot hold a {page_size}-byte flash page"
            ),
            TokenError::Flash(e) => write!(f, "flash: {e}"),
        }
    }
}

impl std::error::Error for TokenError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TokenError::Flash(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ghostdb_flash::FlashError> for TokenError {
    fn from(e: ghostdb_flash::FlashError) -> Self {
        TokenError::Flash(e)
    }
}

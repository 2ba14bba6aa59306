//! # ghostdb-storage
//!
//! The storage engine running *inside* the secure token, on top of the
//! simulated flash device:
//!
//! * [`schema`] — table definitions with per-column `HIDDEN` visibility and
//!   the tree-structured schema model of paper §3 (a root table and node
//!   tables connected by key/foreign-key edges);
//! * [`value`] / [`row`] — fixed-width value encodings and record codecs
//!   (GhostDB schemas declare byte widths: `char(200)`, 4-byte IDs, …);
//! * [`idlist`] — sorted lists of tuple IDs packed on flash, the currency of
//!   every GhostDB operator, with streaming RAM-buffered readers/writers;
//! * [`table`] — the columnar hidden image `TiH` of each table (hidden
//!   columns sorted by tuple id) plus generic multi-column flash tables used
//!   for SKTs and materialised intermediates;
//! * [`btree`] — a bulk-loaded B+-tree over flash pages, the value-lookup
//!   layer of climbing indexes (one RAM buffer pinned per level, exactly the
//!   budget §3.4 gives the `CI` operator).
//!
//! Every read and write goes through the flash device and the RAM arena, so
//! the I/O counters and the simulated clock reflect precisely what the
//! GhostDB hardware would do.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod btree;
pub mod error;
pub mod idlist;
pub mod pred;
pub mod row;
pub mod schema;
pub mod table;
pub mod value;

pub use error::StorageError;
pub use idlist::{IdList, IdListReader, IdListWriter};
pub use pred::{CmpOp, Predicate};
pub use schema::{Column, ForeignKey, SchemaTree, TableDef, TableId, Visibility};
pub use table::{FlashTable, HiddenColumn, HiddenImage};
pub use value::{ColumnType, Value};

/// Result alias for storage operations.
pub type Result<T> = std::result::Result<T, StorageError>;

/// A tuple identifier (the paper's 4-byte surrogate `id`).
pub type Id = u32;

/// Width in bytes of an [`Id`] in RAM and in the padded wire format. On
/// flash an id takes [`row::id_width`]`(|T|)` bytes, at most this.
pub const ID_BYTES: usize = 4;

/// The `N` bytes of `buf` at `at`, as an array: the fixed-width field
/// reads of the page and record codecs. Like slice indexing, it panics if
/// they run past `buf`.
pub(crate) fn bytes_at<const N: usize>(buf: &[u8], at: usize) -> [u8; N] {
    let mut out = [0u8; N];
    out.copy_from_slice(&buf[at..at + N]);
    out
}

//! # ghostdb-index
//!
//! The GhostDB indexing model (paper §3.2): a **fully indexed** storage
//! layout that precomputes every select and join while keeping RAM usage
//! minimal.
//!
//! * [`skt::SubtreeKeyTable`] — for each non-leaf table `T`, one row per
//!   tuple (sorted by `T.id`, ids implicit) concatenating the IDs of the
//!   joining tuples of *all descendant* tables: a multidimensional join
//!   index generalising star-schema join indexes to whole subtrees.
//! * [`climbing::ClimbingIndex`] — a B+-tree per indexed attribute whose
//!   entries hold **one sorted ID sublist per target table** (the indexed
//!   table and each of its ancestors up to the root). One index probe
//!   "climbs" straight to any ancestor, avoiding cascading lookups and the
//!   multi-pass list unions they would force on a 64 KB-RAM device.
//! * [`pk::PkIndex`] — the primary-key climbing index of a non-root
//!   table: its keys are the ids themselves, so each ancestor level is an
//!   offset array into that level's ID area, read by arithmetic.
//! * [`builder::IndexBuilder`] — bulk construction of both structures from
//!   loaded foreign-key data ("burning the key" happens at load time; query
//!   measurements start afterwards).
//! * [`schemes`] / [`size_model`] — the four indexing schemes compared in
//!   Figure 7 (FullIndex, BasicIndex, StarIndex, JoinIndex) and their exact
//!   storage-size model, cross-validated against physically built instances.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod builder;
pub mod climbing;
pub mod pk;
pub mod schemes;
pub mod size_model;
pub mod skt;

pub use builder::{ClimbingSpec, FkData, IndexBuilder};
pub use climbing::{CiProbe, ClimbingIndex, KeyRange, LevelSpec};
pub use pk::PkIndex;
pub use schemes::IndexScheme;
pub use skt::SubtreeKeyTable;

//! # ghostdb-datagen
//!
//! Seeded, deterministic dataset generators for the two data sets of the
//! paper's evaluation (§6.2):
//!
//! * [`synthetic`] — the five-table tree schema (`T0` 10 M tuples at paper
//!   scale, `T1`/`T2` 1 M, `T11`/`T12` 100 K) with uniformly distributed
//!   attributes. Attribute values are random **permutations** of
//!   `0..rows`, so a predicate `v < k` selects *exactly* `k` rows — the
//!   experiments sweep selectivity without sampling noise.
//! * [`medical`] — a synthetic stand-in for the paper's sanitized diabetes
//!   database (Doctors 4.5 K, Patients 14 K, Measurements 1.3 M, Drugs 45)
//!   with the §6.2 schema, widths and hidden/visible split. Substituted
//!   because the original data is private; the experiments depend only on
//!   schema shape, cardinalities and selectivities.
//!
//! Both generators build a ready [`ghostdb_exec::Database`] and can mirror
//! themselves into a [`ghostdb_reference::RefDb`] for oracle checks.

pub mod medical;
pub mod spec;
pub mod synthetic;

pub use medical::MedicalDataset;
pub use spec::SyntheticSpec;
pub use synthetic::SyntheticDataset;

/// Fixed-width value helper: zero-padded 8-digit decimal in a `char(10)`
/// cell. Each value is its own 8-byte order key, so climbing indexes are
/// exact and a selection whose literals fit the key skips the projection
/// re-check.
pub fn pad8(n: u64) -> ghostdb_storage::Value {
    ghostdb_storage::Value::Str(format!("{n:08}"))
}

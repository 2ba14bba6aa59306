//! # ghostdb-bloom
//!
//! Bloom filters exactly as GhostDB uses them (paper §3.3–§3.4):
//!
//! * approximate membership over a list of tuple IDs, used to push visible
//!   selections **after** hidden joins (Post-Filtering) and to discard
//!   irrelevant visible values at projection time;
//! * default calibration `m = 8·n` bits with 4 hash functions, giving a
//!   false-positive rate ≈ 0.024 — "a Bloom filter built over a list of IDs
//!   is four times smaller than the initial list";
//! * **smooth degradation** when the ID list outgrows the secure RAM: the
//!   ratio `m/n` is decreased (e.g. `m = 6·n` → fp ≈ 0.055) instead of
//!   failing;
//! * a calibration oracle that also reports when a Bloom filter is *not
//!   worth building* (the Figure 10 cutoff: past sV = 0.5 the filter
//!   "introduces more false positives than it can eliminate").
//!
//! Compressed Bloom filters are deliberately not provided: the paper rejects
//! them because decompression itself needs RAM (§3.4, footnote 6).

pub mod calibrate;
pub mod filter;
pub mod hash;

pub use calibrate::{calibrate, worth_post_filtering, BloomCalibration};
pub use filter::BloomFilter;

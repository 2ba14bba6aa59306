//! # ghostdb-exec
//!
//! GhostDB query execution on the secure token (paper §3–§5): RAM-frugal
//! physical operators, the Pre/Post/Cross filtering strategies, and the
//! projection algorithms, all running against the simulated flash device,
//! the 64 KB RAM arena and the byte-accurate channel.
//!
//! The operator algebra follows §3.3 exactly:
//!
//! * `Vis(Q, T, π)` — sorted visible ids (+ values) shipped by the PC
//!   ([`ghostdb_untrusted`]);
//! * `CI(I, P, π)` — climbing-index lookups delivering per-entry sorted ID
//!   sublists for any target level ([`ci_ops`]);
//! * `Merge(∩{∪{id}})` — CNF evaluation over sorted (sub)lists with one RAM
//!   buffer per open sublist and a *reduction phase* when the sublists
//!   outnumber the buffers ([`merge`]);
//! * `SJoin` — key semi-join against a Subtree Key Table ([`sjoin`]);
//! * `BuildBF` / `ProbeBF` — Bloom post-filtering ([`bloom_ops`]);
//! * `MJoin` + final `Join` — the Figure 5 Project algorithm ([`project`]).
//!
//! [`executor::Executor`] assembles them into the Figure 6 global QEP under
//! a chosen [`strategy::VisStrategy`] and [`project::ProjectAlgo`], with
//! per-operator simulated-time attribution in [`report::ExecReport`]
//! (Figures 8–16) and an automatic, selectivity-driven strategy picker in
//! [`optimizer`] (the cost-based optimizer the paper lists as future work).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod bloom_ops;
pub mod ci_ops;
pub mod ctx;
pub mod database;
pub mod error;
pub mod executor;
pub mod merge;
pub mod optimizer;
pub mod project;
pub mod query;
pub mod report;
pub mod result;
pub mod serve;
pub mod sjoin;
pub mod source;
pub mod strategy;
#[doc(hidden)]
pub mod testkit;

pub use ctx::{CatalogCtx, DeviceLane, ExecCtx};
pub use database::Database;
pub use error::ExecError;
pub use executor::{ExecOptions, Executor};
pub use project::ProjectAlgo;
pub use query::SpjQuery;
pub use report::{ExecReport, OpKind};
pub use result::ResultSet;
pub use serve::{BatchStats, GhostDbServer, QueryOutcome, ServeConfig, ServeError, Session};
pub use source::SharedIds;
pub use strategy::VisStrategy;

// The host-observability surface, re-exported so facade crates (and tests)
// can audit what the untrusted side saw without a direct dependency.
pub use ghostdb_untrusted::{HostOp, HostTrace, HostTraceEvent, PadMode};

/// Result alias for execution.
pub type Result<T> = std::result::Result<T, ExecError>;

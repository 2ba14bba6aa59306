//! # ghostdb-core — GhostDB: querying visible and hidden data without leaks
//!
//! Rust reproduction of *GhostDB* (Anciaux, Benzine, Bouganim, Pucheral,
//! Shasha — SIGMOD 2007): a database whose **sensitive columns live only on
//! a secure USB token** while public columns stay on an untrusted PC.
//! Standard SQL queries freely combine both sides; query processing is
//! arranged so that **no hidden data, and no intermediate result, ever
//! leaves the token** — an observer of the PC and the wire learns only the
//! query itself and which visible data entered the token.
//!
//! ```
//! use ghostdb_core::{GhostDb, GhostDbConfig};
//! use ghostdb_storage::Value;
//!
//! let mut db = GhostDb::new(GhostDbConfig::default());
//! db.execute(
//!     "CREATE TABLE Patients (id INT, name CHAR(20) HIDDEN, age INT, \
//!      bodymassindex FLOAT HIDDEN)",
//! )
//! .unwrap();
//! db.insert_rows(
//!     "Patients",
//!     vec![
//!         vec![Value::Str("Alice".into()), Value::Int(50), Value::Float(23.0)],
//!         vec![Value::Str("Bob".into()), Value::Int(50), Value::Float(31.5)],
//!     ],
//! )
//! .unwrap();
//! let sealed = db.finalize().unwrap(); // burn the key: the catalog is now immutable
//! let result = sealed
//!     .query("SELECT Patients.name FROM Patients WHERE Patients.age = 50 AND Patients.bodymassindex > 25")
//!     .unwrap();
//! assert_eq!(result.rows.len(), 1); // only Bob — and his name never crossed the wire
//! assert!(sealed.audit().unwrap().ok);
//! ```
//!
//! The heavy lifting lives in the substrate crates: `ghostdb-flash`
//! (I/O-accurate NAND + FTL simulator), `ghostdb-token` (64 KB RAM arena +
//! channel), `ghostdb-storage` (columnar hidden store, B+-trees),
//! `ghostdb-index` (Subtree Key Tables, climbing indexes), `ghostdb-exec`
//! (the paper's operators and filtering strategies). This crate adds the
//! SQL surface, the database facade and the leak auditor.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod audit;
pub mod db;
pub mod error;
pub mod sql;

pub use audit::{audit_transcript, AuditReport};
pub use db::{GhostDb, GhostDbConfig, QueryOptions, SealedGhostDb};
pub use error::CoreError;
pub use ghostdb_exec::project::ProjectAlgo;
pub use ghostdb_exec::strategy::VisStrategy as Strategy;
pub use ghostdb_exec::{
    BatchStats, ExecReport, GhostDbServer, HostOp, HostTrace, HostTraceEvent, QueryOutcome,
    ResultSet, ServeConfig, ServeError, Session,
};

/// Result alias.
pub type Result<T> = std::result::Result<T, CoreError>;

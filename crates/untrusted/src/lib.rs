//! # ghostdb-untrusted
//!
//! The **Untrusted** side of GhostDB: the powerful but insecure PC (or
//! remote server) holding the *Visible* partition of the database.
//!
//! §3.3: "Because Untrusted is fast, we want Untrusted to do as much work as
//! possible. … Untrusted is granted permission to: (1) compute Visible
//! predicates of a query Q, (2) project the result of this computation on
//! any Visible column, and (3) send the result to Secure. There is no leak
//! of Hidden data simply because no information leaves Secure."
//!
//! The visible store is plain host memory — the PC's resources are not the
//! bottleneck and its compute cost is neglected, exactly as in the paper.
//! What *is* modelled byte-for-byte is the traffic it pushes through the
//! [`ghostdb_token::Channel`]: sorted ID lists (compressed by [`IdCodec`]
//! in exact mode) and visible attribute values, each transfer recorded in the channel transcript the leak auditor
//! inspects. The [`HostTrace`] widens that record to the host's own view —
//! every store request the engine makes, with shapes and wire
//! volumes — and [`PadMode`] adds the power-of-two volume padding
//! countermeasure (see `SECURITY.md` at the repo root for the contract
//! these two enforce).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod codec;
pub mod host;
pub mod store;
pub mod trace;

pub use codec::IdCodec;
pub use host::{UntrustedHost, VisShipment};
pub use store::{VisibleColumn, VisibleStore, VisibleTable};
pub use trace::{HostOp, HostTrace, HostTraceEvent, PadMode};

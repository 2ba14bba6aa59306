//! # ghostdb-token
//!
//! The **secure-token environment** of GhostDB: the tamper-resistant secure
//! chip of the smart USB key (paper §2.2), reduced to the two resources that
//! drive every algorithmic decision in the paper:
//!
//! * [`ram::RamArena`] — the tiny secured RAM, modelled as a hard-capped pool
//!   of fixed-size buffers (default 64 KB = 32 buffers × 2 KB, the Flash I/O
//!   unit). Operators must acquire buffers before touching data; exceeding
//!   the pool is an error, so RAM-frugality is enforced, not aspirational.
//! * [`channel::Channel`] — the USB link between the Untrusted PC and the
//!   token, with a configurable throughput (Figure 14 sweeps 0.3–10 MB/s)
//!   and a **transcript**: the exact sequence of transfers an adversary
//!   snooping the wire would observe. The leak auditor in `ghostdb-core`
//!   checks that transcript.
//!
//! [`token::SecureToken`] bundles RAM + channel + the flash device from
//! `ghostdb-flash` into the execution environment all operators run against.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod channel;
pub mod error;
pub mod ram;
pub mod token;

pub use channel::{Channel, Direction, TranscriptEntry};
pub use error::TokenError;
pub use ram::{RamArena, RamBuffer, RamRegion};
pub use token::{SecureToken, TokenConfig};

/// Result alias for token operations.
pub type Result<T> = std::result::Result<T, TokenError>;

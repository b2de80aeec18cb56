//! # decache-core
//!
//! The paper's primary contribution: **dynamic decentralized cache
//! coherence schemes** for a shared-bus MIMD multiprocessor.
//!
//! Rudolph & Segall (1984) propose two snooping protocols:
//!
//! * **RB** ([`ProtocolKind::Rb`], Figure 3-1): three per-line states —
//!   `R`eadable, `I`nvalid, `L`ocal. Values fetched by any bus read are
//!   *broadcast*: every cache holding the address captures the value and
//!   becomes readable. Writes are write-through and invalidate other
//!   copies, dynamically reclassifying the datum as local to the writer.
//! * **RWB** ([`ProtocolKind::Rwb`], Figure 5-1): additionally snoops the
//!   *data* of bus writes and adds a `F`irst-write state plus a **bus
//!   invalidate** signal. A datum only reverts to the local configuration
//!   after `k` uninterrupted writes by one processor (the paper uses
//!   `k = 2`).
//!
//! Two classic schemes are implemented as baselines: Goodman's
//! *write-once* ([`ProtocolKind::WriteOnce`], the "event broadcasting"
//! scheme the paper extends) and plain *write-through-invalidate*
//! ([`ProtocolKind::WriteThrough`]); MESI ([`ProtocolKind::Mesi`]) shows a
//! guarded read-miss fill.
//!
//! Every protocol is one guarded-action rule table ([`ir::table`]), the
//! per-line state table of the paper's figures. [`Protocol`] lowers a
//! table into dense decision arrays and is the only executor: the cache
//! controller consults it on CPU references, on completion of its own
//! bus transactions, and on snooped foreign transactions. Decisions are
//! *pure* (no `&mut self`, no side effects): they map observations to
//! [`CpuOutcome`]/[`SnoopOutcome`] values, and the machine crate applies
//! them. The static analyzer, the product-machine proof of
//! `decache-verify` and the figure exporter read the same tables the
//! machine executes.
//!
//! # Examples
//!
//! ```
//! use decache_core::{BusIntent, CpuOutcome, LineState, ProtocolKind};
//!
//! let rb = ProtocolKind::Rb.build();
//! // A CPU write to a readable (shared) line is a write-through:
//! match rb.cpu_write(Some(LineState::Readable)) {
//!     CpuOutcome::Miss { intent } => assert_eq!(intent, BusIntent::Write),
//!     CpuOutcome::Hit { .. } => unreachable!("RB write to R must reach the bus"),
//! }
//! // ... after which the line is local to the writer:
//! assert_eq!(
//!     rb.own_complete(Some(LineState::Readable), BusIntent::Write),
//!     LineState::Local
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod diagram;
pub mod ir;
mod kind;
mod protocol;
mod state;

pub use config::Configuration;
pub use diagram::{to_dot, transition_table, Stimulus, TransitionRow};
pub use kind::ProtocolKind;
pub use protocol::{BusIntent, CpuOutcome, Protocol, SnoopEvent, SnoopOutcome};
pub use state::LineState;

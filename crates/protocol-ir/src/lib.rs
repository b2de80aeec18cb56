//! # decache-protocol-ir
//!
//! Protocols as provable data: the **per-rule static analyzer** of
//! guarded-action rule tables.
//!
//! The IR itself and the tables of every built-in protocol
//! ([`decache_core::ir`]) live in the core crate, which lowers them for
//! execution; this crate proves the very tables the machine runs.
//! [`analyze`] checks totality, determinism, PE-symmetry, and
//! coherence-invariant preservation over a **counting abstraction**
//! whose `Many` element covers every cache count `n` at once (the
//! small-model argument), plus dead-rule and unreachable-state
//! detection.
//!
//! `decache_verify::static_check` orchestrates this into the CI gate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analyze;

pub use analyze::{analyze, Analysis, CheckKind, Diagnostic};

use decache_core::{ir, ProtocolKind};

/// Whether the analyzer, the product checker and the conformance oracle
/// accept the *intermediate* configuration class for this protocol. RB
/// proves the stronger shared-or-local lemma; everything with a
/// first-write-style state (RWB's `F`, write-once's and MESI's
/// exclusive-clean) needs intermediate.
pub fn allow_intermediate(kind: ProtocolKind) -> bool {
    !matches!(kind, ProtocolKind::Rb | ProtocolKind::RbNoBroadcast)
}

/// Analyzer defaults for a built-in protocol: [`analyze`] of
/// [`ir::table`] at the kind's legality class.
pub fn analyze_kind(kind: ProtocolKind) -> Analysis {
    analyze(&ir::table(kind), allow_intermediate(kind))
}

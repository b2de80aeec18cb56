//! Mutation testing of the model checker: deliberately broken rule tables
//! must be *caught* by the product machine. A checker that passes
//! everything proves nothing; these tests show each invariant has teeth
//! — and that every catch comes with a reconstructed shortest witness
//! trace naming the violated invariant.

use decache_core::ir::{self, Effect, SnoopKind, TableInput};
use decache_core::{LineState, Protocol, ProtocolKind, SnoopEvent};
use decache_verify::{Invariant, ProductChecker, ProductReport};
use LineState::{FirstWrite, Local, Readable};

/// Builds a mutant of a healthy table: renamed, with the rule of each
/// edited `(from, input)` cell given a new effect (`None` removes it).
/// Everything not edited is the healthy table, so each mutant differs
/// from health in exactly the decisions listed.
fn mutant(
    kind: ProtocolKind,
    name: &str,
    edits: &[(LineState, TableInput, Option<Effect>)],
) -> Protocol {
    let mut table = ir::table(kind);
    table.name = name.to_owned();
    for &(from, input, effect) in edits {
        let at = table
            .rules
            .iter()
            .position(|r| r.from == Some(from) && r.input == input)
            .unwrap_or_else(|| panic!("{name}: no rule for {from} --{input}"));
        match effect {
            Some(effect) => table.rules[at].effect = effect,
            None => {
                table.rules.remove(at);
            }
        }
    }
    Protocol::new(table)
}

/// A snoop outcome as a rule effect.
fn to(next: LineState, capture: bool) -> Option<Effect> {
    Some(Effect::Next { next, capture })
}

const SNOOP_READ: TableInput = TableInput::Snoop(SnoopKind::Read);
const SNOOP_LOCKED_READ: TableInput = TableInput::Snoop(SnoopKind::LockedRead);
const SNOOP_WRITE: TableInput = TableInput::Snoop(SnoopKind::Write);

/// Asserts a mutant is caught *and* produces a well-formed witness: a
/// non-empty shortest event trace ending in the named invariant, whose
/// message matches the first recorded violation.
fn assert_caught(report: &ProductReport, invariant: Invariant) -> usize {
    assert!(!report.holds(), "the checker must catch this mutant");
    let witness = report
        .witness
        .as_ref()
        .expect("every violation must reconstruct a witness");
    assert_eq!(
        witness.invariant, invariant,
        "wrong invariant; witness:\n{witness}"
    );
    assert!(
        witness.depth() > 0,
        "a bug cannot hold in the initial state"
    );
    assert_eq!(
        witness.message, report.violations[0],
        "the witness must explain the first violation"
    );
    let rendered = witness.to_string();
    assert!(rendered.contains(invariant.name()));
    assert!(rendered.contains("start"));
    witness.depth()
}

// ----------------------------------------------------------------------
// The original RB mutants (one broken decision each).
// ----------------------------------------------------------------------

#[test]
fn healthy_rb_passes() {
    let report = ProductChecker::from_protocol(ProtocolKind::Rb.build(), false, 3).explore();
    assert!(report.holds(), "{:?}", report.violations);
    assert!(report.witness.is_none());
}

#[test]
fn missing_invalidate_is_caught() {
    // THE BUG: a readable holder ignores foreign writes, keeping a stale
    // copy readable.
    let m = mutant(
        ProtocolKind::Rb,
        "RB-broken-no-invalidate",
        &[(Readable, SNOOP_WRITE, to(Readable, false))],
    );
    let report = ProductChecker::from_protocol(m, false, 3).explore();
    assert!(
        report.violations.iter().any(|v| v.contains("stale")),
        "violations: {:?}",
        report.violations
    );
    // The stale R copy survives alongside the writer's new L copy, so
    // the *shortest* counterexample is the resulting R+L configuration.
    assert_caught(&report, Invariant::IllegalConfiguration);
}

#[test]
fn missing_writeback_is_caught() {
    // THE BUG: Local lines are dropped without flushing, losing the
    // latest value.
    let m = mutant(
        ProtocolKind::Rb,
        "RB-broken-no-writeback",
        &[(
            Local,
            TableInput::Evict,
            Some(Effect::Evict { writeback: false }),
        )],
    );
    let report = ProductChecker::from_protocol(m, false, 2).explore();
    assert!(
        report.violations.iter().any(|v| v.contains("stale memory")),
        "violations: {:?}",
        report.violations
    );
    assert_caught(&report, Invariant::NoOwnerStaleMemory);
}

#[test]
fn missing_supply_is_caught() {
    // THE BUG: the owner never interrupts foreign reads, so they are
    // served from stale memory.
    // Memory serves the read as if the owner were absent; the Local
    // copy is kept.
    let m = mutant(
        ProtocolKind::Rb,
        "RB-broken-no-supply",
        &[
            (Local, TableInput::Supply, None),
            (Local, SNOOP_READ, to(Local, false)),
            (Local, SNOOP_LOCKED_READ, to(Local, false)),
        ],
    );
    let report = ProductChecker::from_protocol(m, false, 2).explore();
    // The owner keeps L while the reader installs R — the configuration
    // breaks one event before the stale memory would be served.
    assert_caught(&report, Invariant::IllegalConfiguration);
}

#[test]
fn double_owner_is_caught_as_illegal_configuration() {
    // THE BUG: a Local holder survives a foreign write as Local,
    // creating two owners (violating the lemma's configuration claim).
    let m = mutant(
        ProtocolKind::Rb,
        "RB-broken-double-owner",
        &[(Local, SNOOP_WRITE, to(Local, false))],
    );
    let report = ProductChecker::from_protocol(m, false, 2).explore();
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.contains("illegal configuration")),
        "violations: {:?}",
        report.violations
    );
    assert_caught(&report, Invariant::IllegalConfiguration);
}

// ----------------------------------------------------------------------
// New mutants: RWB-family bugs and witness-depth checks.
// ----------------------------------------------------------------------

#[test]
fn rwb_skipping_the_bus_invalidate_is_caught() {
    // THE BUG: the threshold write that should broadcast BI instead
    // completes silently in the cache — other caches keep readable
    // copies while the writer privately owns the line.
    let m = mutant(
        ProtocolKind::Rwb,
        "RWB-broken-skip-bi",
        &[(
            FirstWrite(1),
            TableInput::CpuWrite,
            Some(Effect::Hit { next: Local }),
        )],
    );
    let report = ProductChecker::from_protocol(m, true, 3).explore();
    let depth = assert_caught(&report, Invariant::IllegalConfiguration);
    // Shortest trace: P_a write (F1), P_b read (R), P_a write (silent L).
    assert_eq!(depth, 3, "witness:\n{}", report.witness.as_ref().unwrap());
}

#[test]
fn rb_installing_local_on_snooped_read_is_caught() {
    // THE BUG: a readable holder "upgrades" to Local when it snoops a
    // foreign read broadcast — a reader manufactures ownership.
    let m = mutant(
        ProtocolKind::Rb,
        "RB-broken-snoop-read-local",
        &[
            (Readable, SNOOP_READ, to(Local, true)),
            (Readable, SNOOP_LOCKED_READ, to(Local, true)),
        ],
    );
    let report = ProductChecker::from_protocol(m, false, 2).explore();
    let depth = assert_caught(&report, Invariant::IllegalConfiguration);
    // Shortest trace: P_a read (R), P_b read (R + bogus L).
    assert_eq!(depth, 2, "witness:\n{}", report.witness.as_ref().unwrap());
}

#[test]
fn rwb_dropping_the_write_broadcast_capture_is_caught() {
    // THE BUG: readable holders see the foreign bus write but do not
    // capture the broadcast data, keeping a stale copy readable — the
    // defining RWB behaviour ("the caches also note the data part of
    // the bus writes", Section 5), silently disabled.
    let m = mutant(
        ProtocolKind::Rwb,
        "RWB-broken-no-capture",
        &[(Readable, SNOOP_WRITE, to(Readable, false))],
    );
    let report = ProductChecker::from_protocol(m, true, 2).explore();
    let depth = assert_caught(&report, Invariant::StaleReadableCopy);
    // Shortest trace: P_a read (R), P_b write (BW leaves the stale R).
    assert_eq!(depth, 2, "witness:\n{}", report.witness.as_ref().unwrap());
}

#[test]
fn rb_ignoring_the_unlock_write_is_caught() {
    // THE BUG: readable holders treat a foreign unlocking write (a
    // successful Test-and-Set's second half) as harmless, surviving the
    // transition to the local configuration.
    let m = mutant(
        ProtocolKind::Rb,
        "RB-broken-stale-unlock",
        &[(
            Readable,
            TableInput::Snoop(SnoopKind::UnlockWrite),
            to(Readable, false),
        )],
    );
    let report = ProductChecker::from_protocol(m, false, 2).explore();
    let depth = assert_caught(&report, Invariant::IllegalConfiguration);
    assert!(
        depth <= 3,
        "witness longer than the obvious read/lock/commit trace:\n{}",
        report.witness.as_ref().unwrap()
    );
}

#[test]
fn rb_faking_the_supply_refresh_is_caught_serving_stale_memory() {
    // THE BUG: the owner stops interrupting foreign reads but demotes
    // itself as if the broadcast had refreshed everyone — so the read
    // is served from memory that was never made current.
    // Without the supply rule the owner falls through to its snoop
    // rows, which already demote L to a captured R.
    let m = mutant(
        ProtocolKind::Rb,
        "RB-broken-ghost-supply",
        &[
            (Local, TableInput::Supply, None),
            (Local, SNOOP_READ, to(Readable, true)),
            (Local, SNOOP_LOCKED_READ, to(Readable, true)),
        ],
    );
    let report = ProductChecker::from_protocol(m, false, 2).explore();
    let depth = assert_caught(&report, Invariant::StaleMemoryServed);
    // Shortest trace: P_a write (L, memory current), P_a write again
    // (silent hit, memory now stale), P_b read served from memory.
    assert_eq!(depth, 3, "witness:\n{}", report.witness.as_ref().unwrap());
}

#[test]
fn mutants_actually_differ_from_healthy() {
    let healthy = ProtocolKind::Rb.build();
    let e = SnoopEvent::Write(decache_mem::Word::ONE);
    let no_invalidate = mutant(
        ProtocolKind::Rb,
        "RB-broken-no-invalidate",
        &[(Readable, SNOOP_WRITE, to(Readable, false))],
    );
    assert_ne!(healthy.snoop(Readable, e), no_invalidate.snoop(Readable, e));
    // Unedited rules are the healthy table's.
    assert_eq!(healthy.snoop(Local, e), no_invalidate.snoop(Local, e));
    assert!(no_invalidate.supplies_on_snoop_read(Local));
    assert!(no_invalidate.writeback_on_evict(Local));
    assert!(!no_invalidate.uses_bus_invalidate());
    let rwb_identity = mutant(ProtocolKind::Rwb, "RWB-identity", &[]);
    assert!(rwb_identity.uses_bus_invalidate());
    assert!(rwb_identity.broadcasts_write_data());
    assert_eq!(
        rwb_identity.table().rules,
        ir::table(ProtocolKind::Rwb).rules
    );
}

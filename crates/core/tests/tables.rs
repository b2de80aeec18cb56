//! The rule tables are the protocols: these tests pin every rule of all
//! eight tables against a committed golden, and check that the lowered
//! decision arrays the machine executes agree with the table
//! specification ([`RuleTable::matching`]) on every cell.
//!
//! `golden/protocol_tables.txt` was rendered when each paper scheme still
//! also existed as a hand-coded state machine, from the table compiled
//! by probing that machine (which equalled the hand-written table), so
//! it pins the behaviour those machines had.

use decache_core::ir::{self, RuleTable, SnoopKind, TableInput};
use decache_core::{BusIntent, LineState, Protocol, ProtocolKind};
use std::fmt::Write as _;

/// All eight tables, in golden order.
const KINDS: [ProtocolKind; 8] = [
    ProtocolKind::Rb,
    ProtocolKind::RbNoBroadcast,
    ProtocolKind::Rwb,
    ProtocolKind::RwbThreshold(1),
    ProtocolKind::RwbThreshold(3),
    ProtocolKind::WriteOnce,
    ProtocolKind::WriteThrough,
    ProtocolKind::Mesi,
];

/// A header line with the table's metadata, then one line per rule.
fn render(table: &RuleTable) -> String {
    let states: Vec<String> = table.states.iter().map(ToString::to_string).collect();
    let mut out = format!(
        "# {} states=[{}] bus_invalidate={} broadcasts_write_data={}\n",
        table.name,
        states.join(" "),
        table.uses_bus_invalidate,
        table.broadcasts_write_data
    );
    for rule in &table.rules {
        writeln!(out, "{rule}").unwrap();
    }
    out
}

#[test]
fn every_table_renders_as_the_committed_golden() {
    let rendered: String = KINDS.iter().map(|&k| render(&ir::table(k))).collect();
    let golden = include_str!("golden/protocol_tables.txt");
    for (line, (got, want)) in rendered.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "golden line {}", line + 1);
    }
    assert_eq!(rendered, golden);
}

/// Every input the controller can present, domain or not.
fn all_inputs() -> Vec<TableInput> {
    let mut inputs = vec![TableInput::CpuRead, TableInput::CpuWrite];
    inputs.extend(
        [BusIntent::Read, BusIntent::Write, BusIntent::Invalidate].map(TableInput::OwnComplete),
    );
    inputs.extend([TableInput::OwnLockedRead, TableInput::OwnUnlockWrite]);
    inputs.extend(SnoopKind::ALL.map(TableInput::Snoop));
    inputs.extend([TableInput::Supply, TableInput::Evict]);
    inputs
}

/// The lowered arrays decide every cell — `NP` and every declared state
/// crossed with every input, at both values of the sampled guard bit —
/// exactly as `matching` does, including where it finds no rule.
#[test]
fn lowered_arrays_agree_with_matching_on_every_cell() {
    for kind in KINDS {
        let table = ir::table(kind);
        let protocol = Protocol::new(table.clone());
        let states = std::iter::once(None).chain(table.states.iter().copied().map(Some));
        for state in states {
            for input in all_inputs() {
                for other_readable in [true, false] {
                    // Only the read-miss fill samples the guard bit; every
                    // other cell is specified at `other_readable = true`.
                    let bit = other_readable || input != TableInput::OwnComplete(BusIntent::Read);
                    let spec = table.matching(state, input, bit).map(|r| r.effect);
                    assert_eq!(
                        protocol.decision(state, input, other_readable),
                        spec,
                        "{kind}: {state:?} --{input} (other_readable={other_readable})"
                    );
                }
            }
        }
    }
}

/// The typed decision methods read the same arrays as `decision`.
#[test]
fn decision_methods_agree_with_the_lowered_cells() {
    use decache_core::ir::Effect;
    use decache_core::{CpuOutcome, SnoopEvent, SnoopOutcome};
    use decache_mem::Word;

    for kind in KINDS {
        let p = kind.build();
        let held: Vec<LineState> = p.states().to_vec();
        for state in std::iter::once(None).chain(held.iter().copied().map(Some)) {
            let cpu = |out: CpuOutcome| match out {
                CpuOutcome::Hit { next } => Effect::Hit { next },
                CpuOutcome::Miss { intent } => Effect::Issue { intent },
            };
            assert_eq!(
                Some(cpu(p.cpu_read(state))),
                p.decision(state, TableInput::CpuRead, true)
            );
            assert_eq!(
                Some(cpu(p.cpu_write(state))),
                p.decision(state, TableInput::CpuWrite, true)
            );
            let next = |next| Effect::Next {
                next,
                capture: false,
            };
            for shared in [true, false] {
                let input = TableInput::OwnComplete(BusIntent::Read);
                assert_eq!(
                    Some(next(p.own_complete_shared(state, BusIntent::Read, shared))),
                    p.decision(state, input, shared)
                );
            }
            assert_eq!(
                Some(next(p.own_locked_read_complete(state))),
                p.decision(state, TableInput::OwnLockedRead, true)
            );
            assert_eq!(
                Some(next(p.own_unlock_write_complete(state))),
                p.decision(state, TableInput::OwnUnlockWrite, true)
            );
            let Some(s) = state else { continue };
            let w = Word::new(7);
            for (kind, event) in [
                (SnoopKind::Read, SnoopEvent::Read(w)),
                (SnoopKind::Write, SnoopEvent::Write(w)),
                (SnoopKind::LockedRead, SnoopEvent::LockedRead(w)),
                (SnoopKind::UnlockWrite, SnoopEvent::UnlockWrite(w)),
            ] {
                let SnoopOutcome { next, capture } = p.snoop(s, event);
                assert_eq!(
                    Some(Effect::Next { next, capture }),
                    p.decision(state, TableInput::Snoop(kind), true)
                );
            }
            assert_eq!(
                p.supplies_on_snoop_read(s),
                p.decision(state, TableInput::Supply, true).is_some()
            );
            assert_eq!(
                Some(Effect::Evict {
                    writeback: p.writeback_on_evict(s)
                }),
                p.decision(state, TableInput::Evict, true)
            );
        }
    }
}

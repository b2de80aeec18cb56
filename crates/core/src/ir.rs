//! Guarded-action protocol IR: protocols as data, not code.
//!
//! Every protocol in this crate is a pure per-line finite state machine,
//! so its complete semantics fit in a finite table of **guarded-action
//! rules**: `(from_state, input) [guard] → effect` (after Meunier et
//! al.'s guarded-action modelling of cache coherence). This module
//! defines that table form ([`Rule`], [`RuleTable`]) and holds the
//! tables of every built-in protocol ([`table`]).
//!
//! The tables are the single definition of each protocol:
//! [`crate::Protocol::new`] lowers one into dense decision arrays that
//! the machine executes, and the static analyzer in
//! `decache-protocol-ir`, the product checker, the conformance oracle
//! and the diagram exporter all read the same tables.
//!
//! Guards range over the **abstract configuration** of the other caches
//! (never over PE identities, keeping every table PE-symmetric by
//! construction). The paper's seven schemes are guard-free; the guard
//! vocabulary exists for schemes like MESI ([`mesi`]) whose read-miss
//! fill depends on whether the line is shared (fill `E` when exclusive,
//! `V` when another readable copy exists).
//!
//! Static analysis of rule tables (totality, determinism, invariant
//! preservation over all n, dead rules) lives in `decache-protocol-ir`;
//! this module only defines the data model and the tables.

use crate::{BusIntent, LineState, SnoopEvent};
use std::fmt;

mod tables;

pub use tables::{mesi, rwb, table, RWB_THRESHOLDS};

/// A snooped bus operation, without its data payload — the column labels
/// of the paper's transition tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SnoopKind {
    /// A foreign bus read (`BR`).
    Read,
    /// A foreign bus write (`BW`).
    Write,
    /// The RWB bus invalidate signal (`BI`).
    Invalidate,
    /// A foreign locked read (`BRL`).
    LockedRead,
    /// A foreign unlocking write (`BWU`).
    UnlockWrite,
}

impl SnoopKind {
    /// Every snoop kind, in table-column order.
    pub const ALL: [SnoopKind; 5] = [
        SnoopKind::Read,
        SnoopKind::Write,
        SnoopKind::Invalidate,
        SnoopKind::LockedRead,
        SnoopKind::UnlockWrite,
    ];

    /// The [`SnoopKind`] of a [`SnoopEvent`].
    #[inline]
    pub fn of(event: SnoopEvent) -> SnoopKind {
        match event {
            SnoopEvent::Read(_) => SnoopKind::Read,
            SnoopEvent::Write(_) => SnoopKind::Write,
            SnoopEvent::Invalidate => SnoopKind::Invalidate,
            SnoopEvent::LockedRead(_) => SnoopKind::LockedRead,
            SnoopEvent::UnlockWrite(_) => SnoopKind::UnlockWrite,
        }
    }
}

impl fmt::Display for SnoopKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnoopKind::Read => write!(f, "BR"),
            SnoopKind::Write => write!(f, "BW"),
            SnoopKind::Invalidate => write!(f, "BI"),
            SnoopKind::LockedRead => write!(f, "BRL"),
            SnoopKind::UnlockWrite => write!(f, "BWU"),
        }
    }
}

/// One input axis of a protocol's transition table: what the cache
/// controller presents to the per-line state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TableInput {
    /// A CPU read reference ([`crate::Protocol::cpu_read`]).
    CpuRead,
    /// A CPU write reference ([`crate::Protocol::cpu_write`]).
    CpuWrite,
    /// Completion of this cache's own bus transaction
    /// ([`crate::Protocol::own_complete`]).
    OwnComplete(BusIntent),
    /// Completion of this cache's own locked read
    /// ([`crate::Protocol::own_locked_read_complete`]).
    OwnLockedRead,
    /// Completion of this cache's own unlocking write
    /// ([`crate::Protocol::own_unlock_write_complete`]).
    OwnUnlockWrite,
    /// A snooped foreign transaction ([`crate::Protocol::snoop`]).
    Snoop(SnoopKind),
    /// Interrupting a foreign bus read to supply data
    /// ([`crate::Protocol::after_supply`]; a state supplies iff it has
    /// this rule).
    Supply,
    /// Eviction of the line ([`crate::Protocol::writeback_on_evict`]).
    Evict,
}

impl TableInput {
    fn rank(self) -> (u8, u8) {
        match self {
            TableInput::CpuRead => (0, 0),
            TableInput::CpuWrite => (1, 0),
            TableInput::OwnComplete(BusIntent::Read) => (2, 0),
            TableInput::OwnComplete(BusIntent::Write) => (2, 1),
            TableInput::OwnComplete(BusIntent::Invalidate) => (2, 2),
            TableInput::OwnLockedRead => (3, 0),
            TableInput::OwnUnlockWrite => (4, 0),
            TableInput::Snoop(k) => (5, k as u8),
            TableInput::Supply => (6, 0),
            TableInput::Evict => (7, 0),
        }
    }
}

impl fmt::Display for TableInput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableInput::CpuRead => write!(f, "CR"),
            TableInput::CpuWrite => write!(f, "CW"),
            TableInput::OwnComplete(i) => write!(f, "own:{i}"),
            TableInput::OwnLockedRead => write!(f, "own:BRL"),
            TableInput::OwnUnlockWrite => write!(f, "own:BWU"),
            TableInput::Snoop(k) => write!(f, "snoop:{k}"),
            TableInput::Supply => write!(f, "supply"),
            TableInput::Evict => write!(f, "evict"),
        }
    }
}

/// One cell of a protocol's transition table: a line state (or `None`
/// for not-present) and the input applied to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TransitionKey {
    /// The line state the input hits; `None` is the `NP` pseudo-state.
    pub state: Option<LineState>,
    /// The input applied.
    pub input: TableInput,
}

/// A stable ordering rank for line states, in paper-table order.
fn state_rank(state: Option<LineState>) -> (u8, u8) {
    match state {
        None => (0, 0),
        Some(LineState::Invalid) => (1, 0),
        Some(LineState::Readable) => (2, 0),
        Some(LineState::FirstWrite(c)) => (3, c),
        Some(LineState::Local) => (4, 0),
        Some(LineState::Valid) => (5, 0),
        Some(LineState::Reserved) => (6, 0),
        Some(LineState::Dirty) => (7, 0),
    }
}

impl Ord for TransitionKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (state_rank(self.state), self.input.rank())
            .cmp(&(state_rank(other.state), other.input.rank()))
    }
}

impl PartialOrd for TransitionKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for TransitionKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.state {
            None => write!(f, "NP --{}", self.input),
            Some(s) => write!(f, "{s} --{}", self.input),
        }
    }
}

/// The guard of a rule: a predicate over the *abstract configuration*
/// of the other caches, evaluated by the controller when the rule's
/// input arrives. Deliberately PE-anonymous — a guard can count or
/// test the other caches' states but can never name a PE — so every
/// table is symmetric under PE permutation by construction.
///
/// Guards are only meaningful on `own:BR` completions (the read-miss
/// fill), sampled after any interrupt-and-supply and before the read
/// broadcast; everywhere else rules are [`Guard::Always`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Guard {
    /// Fires unconditionally.
    Always,
    /// Fires iff **no** other cache holds the line in a locally-readable
    /// state ([`LineState::is_readable_locally`]).
    NoOtherReadableHolder,
    /// Fires iff some other cache holds the line in a locally-readable
    /// state — the complement of [`Guard::NoOtherReadableHolder`].
    OtherReadableHolder,
}

impl Guard {
    /// Evaluates the guard against the sampled "some other cache holds
    /// the line readable" bit.
    pub fn eval(self, other_readable: bool) -> bool {
        match self {
            Guard::Always => true,
            Guard::NoOtherReadableHolder => !other_readable,
            Guard::OtherReadableHolder => other_readable,
        }
    }
}

impl fmt::Display for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Guard::Always => write!(f, "always"),
            Guard::NoOtherReadableHolder => write!(f, "no-other-readable"),
            Guard::OtherReadableHolder => write!(f, "other-readable"),
        }
    }
}

/// The action half of a rule. Each variant is one decision shape of
/// [`crate::Protocol`]; which shapes an input admits is checked by the
/// analyzer and, at lowering time, by [`crate::Protocol::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Effect {
    /// Serve the CPU reference from the cache; the line moves to `next`.
    Hit {
        /// The line's state after the reference.
        next: LineState,
    },
    /// Stall the CPU and issue a bus transaction.
    Issue {
        /// The transaction to issue.
        intent: BusIntent,
    },
    /// Move to `next` (own-completion or snoop), optionally capturing
    /// the word on the bus.
    Next {
        /// The line's next state.
        next: LineState,
        /// Whether the line captures the bus data.
        capture: bool,
    },
    /// Interrupt a foreign bus read, supply the data, and demote to
    /// `next`. A state has supply rules iff it supplies on snooped
    /// reads.
    Supply {
        /// The holder's state after supplying.
        next: LineState,
    },
    /// Evict the line, writing back iff `writeback`.
    Evict {
        /// Whether the evicted line must be flushed to memory.
        writeback: bool,
    },
}

impl fmt::Display for Effect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Effect::Hit { next } => write!(f, "hit→{next}"),
            Effect::Issue { intent } => write!(f, "miss({intent})"),
            Effect::Next {
                next,
                capture: true,
            } => write!(f, "capture→{next}"),
            Effect::Next {
                next,
                capture: false,
            } => write!(f, "→{next}"),
            Effect::Supply { next } => write!(f, "supply→{next}"),
            Effect::Evict { writeback: true } => write!(f, "writeback"),
            Effect::Evict { writeback: false } => write!(f, "drop"),
        }
    }
}

/// One guarded-action rule: in `from` state (`None` = not present), on
/// `input`, if `guard` holds, apply `effect`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rule {
    /// The line state the rule matches; `None` is the `NP` pseudo-state.
    pub from: Option<LineState>,
    /// The input class the rule matches.
    pub input: TableInput,
    /// The guard over the abstract configuration of the other caches.
    pub guard: Guard,
    /// The action taken when the rule fires.
    pub effect: Effect,
}

impl Rule {
    /// The transition-table cell this rule occupies.
    pub fn key(self) -> TransitionKey {
        TransitionKey {
            state: self.from,
            input: self.input,
        }
    }

    /// A stable rule identifier for diagnostics and baselines: the
    /// cell's rendering plus a guard suffix for guarded rules
    /// (`"NP --own:BR [other-readable]"`).
    pub fn id(self) -> String {
        match self.guard {
            Guard::Always => self.key().to_string(),
            guard => format!("{} [{guard}]", self.key()),
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} → {}", self.id(), self.effect)
    }
}

/// A complete protocol as data: its name, state vocabulary, bus
/// capabilities, and guarded-action rule set.
///
/// Well-formedness (exactly one matching rule per `(state, input,
/// configuration)`, invariant preservation, …) is *not* enforced here —
/// that is the static analyzer's job in `decache-protocol-ir`. Executing
/// a cell with no rule panics (see [`crate::Protocol`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleTable {
    /// The protocol's display name.
    pub name: String,
    /// The declared state vocabulary, in table order.
    pub states: Vec<LineState>,
    /// Whether the protocol ever issues the bus invalidate signal.
    pub uses_bus_invalidate: bool,
    /// Whether snooping caches capture foreign bus-write data.
    pub broadcasts_write_data: bool,
    /// The rule set. Order is irrelevant to semantics; [`normalize`]
    /// sorts for canonical comparison.
    ///
    /// [`normalize`]: RuleTable::normalize
    pub rules: Vec<Rule>,
}

impl RuleTable {
    /// Sorts the rules into canonical `(cell, guard)` order, for stable
    /// rendering and table-vs-table comparison.
    pub fn normalize(&mut self) {
        self.rules.sort_by(|a, b| {
            a.key()
                .cmp(&b.key())
                .then_with(|| a.guard.cmp(&b.guard))
                .then_with(|| a.effect.cmp(&b.effect))
        });
    }

    /// All rules occupying the `(state, input)` cell.
    pub fn rules_for(&self, from: Option<LineState>, input: TableInput) -> Vec<Rule> {
        self.rules
            .iter()
            .copied()
            .filter(|r| r.from == from && r.input == input)
            .collect()
    }

    /// The rule matching `(state, input)` under the sampled
    /// configuration bit — the first in rule order when a
    /// non-deterministic table has several — or `None` when no rule
    /// matches. This is the executable specification the lowered
    /// [`crate::Protocol`] arrays are tested against.
    pub fn matching(
        &self,
        from: Option<LineState>,
        input: TableInput,
        other_readable: bool,
    ) -> Option<Rule> {
        self.rules
            .iter()
            .copied()
            .find(|r| r.from == from && r.input == input && r.guard.eval(other_readable))
    }

    /// Whether any rule's firing depends on the abstract configuration.
    pub fn has_guards(&self) -> bool {
        self.rules.iter().any(|r| r.guard != Guard::Always)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProtocolKind;
    use LineState::{Dirty, Invalid, Valid};

    #[test]
    fn effect_rendering() {
        assert_eq!(Effect::Hit { next: Valid }.to_string(), "hit→V");
        assert_eq!(
            Effect::Issue {
                intent: BusIntent::Write
            }
            .to_string(),
            "miss(BW)"
        );
        assert_eq!(
            Effect::Next {
                next: Invalid,
                capture: false
            }
            .to_string(),
            "→I"
        );
        assert_eq!(
            Effect::Next {
                next: LineState::Readable,
                capture: true
            }
            .to_string(),
            "capture→R"
        );
        assert_eq!(Effect::Supply { next: Valid }.to_string(), "supply→V");
        assert_eq!(Effect::Evict { writeback: true }.to_string(), "writeback");
        assert_eq!(Effect::Evict { writeback: false }.to_string(), "drop");
    }

    #[test]
    fn rule_ids_carry_guards() {
        let table = mesi();
        let guarded = table.rules_for(None, TableInput::OwnComplete(BusIntent::Read));
        assert_eq!(guarded.len(), 2);
        let ids: Vec<String> = guarded.iter().map(|r| r.id()).collect();
        assert!(ids.contains(&"NP --own:BR [no-other-readable]".to_owned()));
        assert!(ids.contains(&"NP --own:BR [other-readable]".to_owned()));
        let plain = table.rules_for(Some(Dirty), TableInput::Supply)[0];
        assert_eq!(plain.id(), "D --supply");
    }

    #[test]
    fn keys_render_compactly_and_sort_stably() {
        let key = TransitionKey {
            state: None,
            input: TableInput::CpuRead,
        };
        assert_eq!(key.to_string(), "NP --CR");
        let key = TransitionKey {
            state: Some(LineState::Readable),
            input: TableInput::Snoop(SnoopKind::UnlockWrite),
        };
        assert_eq!(key.to_string(), "R --snoop:BWU");
        let mut keys: Vec<TransitionKey> = table(ProtocolKind::Rb)
            .rules
            .iter()
            .map(|r| r.key())
            .collect();
        let sorted = keys.clone();
        keys.reverse();
        keys.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn only_mesi_is_guarded() {
        assert!(mesi().has_guards());
        assert!(!table(ProtocolKind::Rwb).has_guards());
    }

    #[test]
    fn rwb_k1_degenerates_to_write_back_invalidate() {
        let table = rwb(1);
        assert_eq!(
            table.states,
            vec![Invalid, LineState::Readable, LineState::Local]
        );
        assert!(!table.broadcasts_write_data);
        let cw = table
            .matching(Some(LineState::Readable), TableInput::CpuWrite, true)
            .unwrap();
        assert_eq!(
            cw.effect,
            Effect::Issue {
                intent: BusIntent::Invalidate
            }
        );
    }
}

//! The coherence protocol: its decision vocabulary and the one executor
//! of rule tables.

use crate::ir::{Effect, Rule, RuleTable, SnoopKind, TableInput, TransitionKey};
use crate::LineState;
use decache_mem::Word;
use std::fmt;
use std::sync::Arc;

/// The bus transaction a protocol asks its controller to issue on a miss.
///
/// The controller attaches the address and, for writes, the CPU-supplied
/// data; for reads the data comes back from memory or a supplying cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BusIntent {
    /// Issue a bus read (`BR`).
    Read,
    /// Issue a bus write (`BW`) of the CPU's data.
    Write,
    /// Issue the RWB bus invalidate signal (`BI`).
    Invalidate,
}

impl fmt::Display for BusIntent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusIntent::Read => write!(f, "BR"),
            BusIntent::Write => write!(f, "BW"),
            BusIntent::Invalidate => write!(f, "BI"),
        }
    }
}

/// A protocol's decision for a CPU reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuOutcome {
    /// Serve the reference from the cache immediately; the line moves to
    /// `next`. For writes the controller also stores the CPU data in the
    /// line.
    Hit {
        /// The line's state after the reference.
        next: LineState,
    },
    /// The reference requires bus activity first: the processor stalls
    /// until the transaction completes, then
    /// [`Protocol::own_complete`] determines the resulting state.
    Miss {
        /// The transaction to issue.
        intent: BusIntent,
    },
}

impl CpuOutcome {
    /// Convenience predicate: does this outcome complete without the bus?
    pub fn is_hit(self) -> bool {
        matches!(self, CpuOutcome::Hit { .. })
    }
}

/// A foreign bus transaction as observed by a snooping cache, *including
/// the data on the bus* (address and operation are implicit: snooping is
/// per-line and the machine dispatches only to caches holding the line).
///
/// For reads the carried word is the value being returned on the bus —
/// the caches "read the value returned from the read" (Section 3) — and
/// for writes it is the value being stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnoopEvent {
    /// A completed foreign bus read returning `Word`.
    Read(Word),
    /// A foreign bus write storing `Word`.
    Write(Word),
    /// The RWB bus invalidate signal.
    Invalidate,
    /// A completed foreign locked read (Test-and-Set first half)
    /// returning `Word`.
    LockedRead(Word),
    /// A foreign unlocking write (Test-and-Set second half) storing
    /// `Word`.
    UnlockWrite(Word),
}

impl SnoopEvent {
    /// The word on the bus during this event.
    pub fn word(self) -> Option<Word> {
        match self {
            SnoopEvent::Read(w)
            | SnoopEvent::Write(w)
            | SnoopEvent::LockedRead(w)
            | SnoopEvent::UnlockWrite(w) => Some(w),
            SnoopEvent::Invalidate => None,
        }
    }
}

/// A protocol's reaction to a snooped foreign transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnoopOutcome {
    /// The line's next state.
    pub next: LineState,
    /// Whether the line captures the word on the bus into its data —
    /// the distinguishing power of the RB/RWB schemes ("events *and*
    /// data values are broadcast", Section 1).
    pub capture: bool,
}

impl SnoopOutcome {
    /// A state change without data capture.
    pub const fn to(next: LineState) -> Self {
        SnoopOutcome {
            next,
            capture: false,
        }
    }

    /// A state change that also captures the bus data.
    pub const fn capture(next: LineState) -> Self {
        SnoopOutcome {
            next,
            capture: true,
        }
    }

    /// No state change, no capture.
    pub const fn unchanged(state: LineState) -> Self {
        SnoopOutcome {
            next: state,
            capture: false,
        }
    }
}

/// Decision-array slots: `NP`, `I`, `R`, `L`, `V`, `S`, `D`, `F1 ..= F7`,
/// plus one never-filled slot that every unrepresentable state (`F0`,
/// `F8`, …) maps to, so it finds no rule.
const SLOTS: usize = 15;
const UNREPRESENTABLE: usize = SLOTS - 1;

/// The decision-array slot of a line state (`None` = not present).
#[inline]
fn slot(state: Option<LineState>) -> usize {
    match state {
        None => 0,
        Some(LineState::Invalid) => 1,
        Some(LineState::Readable) => 2,
        Some(LineState::Local) => 3,
        Some(LineState::Valid) => 4,
        Some(LineState::Reserved) => 5,
        Some(LineState::Dirty) => 6,
        Some(LineState::FirstWrite(c @ 1..=7)) => 6 + c as usize,
        Some(LineState::FirstWrite(_)) => UNREPRESENTABLE,
    }
}

/// The own-completion columns: the guarded `own:BR` fill takes one
/// column per value of the sampled "other readable holder" bit.
const OWN_READ_SHARED: usize = 0;
const OWN_READ_ALONE: usize = 1;
const OWN_WRITE: usize = 2;
const OWN_INVALIDATE: usize = 3;
const OWN_LOCKED_READ: usize = 4;
const OWN_UNLOCK_WRITE: usize = 5;

fn own_column(input: TableInput, other_readable: bool) -> Option<usize> {
    match input {
        TableInput::OwnComplete(BusIntent::Read) if other_readable => Some(OWN_READ_SHARED),
        TableInput::OwnComplete(BusIntent::Read) => Some(OWN_READ_ALONE),
        TableInput::OwnComplete(BusIntent::Write) => Some(OWN_WRITE),
        TableInput::OwnComplete(BusIntent::Invalidate) => Some(OWN_INVALIDATE),
        TableInput::OwnLockedRead => Some(OWN_LOCKED_READ),
        TableInput::OwnUnlockWrite => Some(OWN_UNLOCK_WRITE),
        _ => None,
    }
}

/// A snooping cache coherence protocol: one [`RuleTable`] — the per-line
/// state table of the paper's Figures 3-1 and 5-1, or of a baseline —
/// lowered once into dense decision arrays indexed by line state, one
/// array per input family.
///
/// This is the only way the workspace executes a protocol. The machine
/// consults it on CPU references, on completion of its own bus
/// transactions, and on snooped foreign transactions; the product
/// checker and the conformance oracle consult the same arrays; the
/// static analyzer proves the [`Protocol::table`] they were lowered
/// from.
///
/// A `None` line state means the address is **not present** (the `NP`
/// state of the proof sketch); "a reference to an item not in the cache
/// behaves exactly as if it were in the invalid state" (Section 3), and
/// every built-in table upholds that equivalence.
///
/// Decisions are pure: the same inputs always yield the same decision,
/// and all mutation is performed by the cache controller in
/// `decache-machine`.
///
/// # Panics
///
/// [`Protocol::new`] panics if a rule's effect has the wrong shape for
/// its input (a CPU rule that is not a hit or an issue, …) or names a
/// state outside the `F1 ..= F7` range. The decision methods panic with
/// `"<name>: no rule for <cell>"` when the table has no rule for the
/// cell — e.g. asking RB about `Dirty`. The machine only stores states
/// produced by the same protocol, and `decache-protocol-ir` proves the
/// built-in tables total, so this indicates a bug.
///
/// # Examples
///
/// ```
/// use decache_core::{BusIntent, CpuOutcome, LineState, ProtocolKind};
///
/// let rb = ProtocolKind::Rb.build();
/// // A CPU write to a readable (shared) line is a write-through:
/// assert_eq!(
///     rb.cpu_write(Some(LineState::Readable)),
///     CpuOutcome::Miss { intent: BusIntent::Write }
/// );
/// // ... after which the line is local to the writer:
/// assert_eq!(
///     rb.own_complete(Some(LineState::Readable), BusIntent::Write),
///     LineState::Local
/// );
/// ```
#[derive(Clone)]
pub struct Protocol {
    lowered: Arc<Lowered>,
}

/// The table and its decision arrays, shared by every clone.
struct Lowered {
    table: RuleTable,
    /// `CR` and `CW`.
    cpu: [[Option<CpuOutcome>; SLOTS]; 2],
    /// Indexed by the `OWN_*` columns.
    own: [[Option<LineState>; SLOTS]; 6],
    /// Indexed by [`SnoopKind`] discriminant.
    snoop: [[Option<SnoopOutcome>; SLOTS]; 5],
    /// The post-supply state of supplying states.
    supply: [Option<LineState>; SLOTS],
    /// Whether eviction writes back.
    evict: [Option<bool>; SLOTS],
    fill_depends_on_sharers: bool,
}

impl Protocol {
    /// Lowers a rule table into decision arrays. Where several rules
    /// match one cell the first in rule order wins, exactly as in
    /// [`RuleTable::matching`].
    ///
    /// # Panics
    ///
    /// Panics if a rule's effect does not fit its input, or a rule names
    /// a state with no decision slot (see the type docs).
    pub fn new(table: RuleTable) -> Self {
        let mut lowered = Lowered {
            cpu: [[None; SLOTS]; 2],
            own: [[None; SLOTS]; 6],
            snoop: [[None; SLOTS]; 5],
            supply: [None; SLOTS],
            evict: [None; SLOTS],
            fill_depends_on_sharers: table.has_guards(),
            table,
        };
        for rule in lowered.table.rules.clone() {
            // Only the `own:BR` fill has a column per guard bit; every
            // other input is decided at `other_readable = true`.
            let bits: &[bool] = if rule.input == TableInput::OwnComplete(BusIntent::Read) {
                &[true, false]
            } else {
                &[true]
            };
            for &other_readable in bits {
                if rule.guard.eval(other_readable) {
                    lowered.lower(rule, other_readable);
                }
            }
        }
        Protocol {
            lowered: Arc::new(lowered),
        }
    }

    /// The rule table this protocol was lowered from.
    pub fn table(&self) -> &RuleTable {
        &self.lowered.table
    }

    /// A short display name ("RB", "RWB(k=3)", "write-once", ...).
    pub fn name(&self) -> &str {
        &self.lowered.table.name
    }

    /// The states this protocol can store in a line, for enumeration by
    /// the model checker and checkpoint validation.
    pub fn states(&self) -> &[LineState] {
        &self.lowered.table.states
    }

    /// The lowered decision for one table cell, rendered as the
    /// [`Effect`] that produced it; `None` when the table has no rule
    /// there. `other_readable` only matters for the `own:BR` fill.
    pub fn decision(
        &self,
        state: Option<LineState>,
        input: TableInput,
        other_readable: bool,
    ) -> Option<Effect> {
        let s = slot(state);
        if let Some(c) = own_column(input, other_readable) {
            return self.lowered.own[c][s].map(|next| Effect::Next {
                next,
                capture: false,
            });
        }
        match input {
            TableInput::CpuRead | TableInput::CpuWrite => {
                let row = usize::from(input == TableInput::CpuWrite);
                self.lowered.cpu[row][s].map(|outcome| match outcome {
                    CpuOutcome::Hit { next } => Effect::Hit { next },
                    CpuOutcome::Miss { intent } => Effect::Issue { intent },
                })
            }
            TableInput::Snoop(kind) => self.lowered.snoop[kind as usize][s]
                .map(|SnoopOutcome { next, capture }| Effect::Next { next, capture }),
            TableInput::Supply => self.lowered.supply[s].map(|next| Effect::Supply { next }),
            TableInput::Evict => self.lowered.evict[s].map(|writeback| Effect::Evict { writeback }),
            TableInput::OwnComplete(_) | TableInput::OwnLockedRead | TableInput::OwnUnlockWrite => {
                unreachable!("own-completion inputs have a column")
            }
        }
    }

    /// The cold path of every decision method: the table has no rule for
    /// the cell.
    #[cold]
    #[inline(never)]
    fn no_rule(&self, state: Option<LineState>, input: TableInput, other_readable: bool) -> ! {
        let cell = TransitionKey { state, input };
        panic!(
            "{}: no rule for {cell} (other_readable={other_readable})",
            self.lowered.table.name
        )
    }

    #[inline]
    fn own(
        &self,
        column: usize,
        state: Option<LineState>,
        input: TableInput,
        other: bool,
    ) -> LineState {
        self.lowered.own[column][slot(state)].unwrap_or_else(|| self.no_rule(state, input, other))
    }

    /// Decides a CPU read of a line in `state` (`None` = not present).
    #[inline]
    pub fn cpu_read(&self, state: Option<LineState>) -> CpuOutcome {
        self.lowered.cpu[0][slot(state)]
            .unwrap_or_else(|| self.no_rule(state, TableInput::CpuRead, true))
    }

    /// Decides a CPU write to a line in `state` (`None` = not present).
    #[inline]
    pub fn cpu_write(&self, state: Option<LineState>) -> CpuOutcome {
        self.lowered.cpu[1][slot(state)]
            .unwrap_or_else(|| self.no_rule(state, TableInput::CpuWrite, true))
    }

    /// The line state after this cache's *own* bus transaction of the
    /// given intent completes (possibly after abort-and-retry). A
    /// guarded read-miss fill resolves to its shared branch; callers that
    /// sampled the other caches use [`Protocol::own_complete_shared`].
    #[inline]
    pub fn own_complete(&self, state: Option<LineState>, intent: BusIntent) -> LineState {
        self.own_complete_shared(state, intent, true)
    }

    /// [`Protocol::own_complete`] with the sampled "some other cache
    /// holds the line readable" bit, for protocols whose read-miss fill
    /// is guarded on it ([`Protocol::fill_depends_on_sharers`]). The
    /// bit is sampled after any interrupt-and-supply and before the
    /// read broadcast.
    #[inline]
    pub fn own_complete_shared(
        &self,
        state: Option<LineState>,
        intent: BusIntent,
        other_holders: bool,
    ) -> LineState {
        let column = match intent {
            BusIntent::Read if other_holders => OWN_READ_SHARED,
            BusIntent::Read => OWN_READ_ALONE,
            BusIntent::Write => OWN_WRITE,
            BusIntent::Invalidate => OWN_INVALIDATE,
        };
        self.own(
            column,
            state,
            TableInput::OwnComplete(intent),
            other_holders,
        )
    }

    /// The line state after this cache's own locked read (`BRL`, the
    /// Test-and-Set first half) completes. The paper: the locked read
    /// "causes all other caches to enter the read state" — the issuer
    /// captures the broadcast value too.
    #[inline]
    pub fn own_locked_read_complete(&self, state: Option<LineState>) -> LineState {
        self.own(OWN_LOCKED_READ, state, TableInput::OwnLockedRead, true)
    }

    /// The line state after this cache's own unlocking write (`BWU`, a
    /// successful Test-and-Set's second half) completes.
    #[inline]
    pub fn own_unlock_write_complete(&self, state: Option<LineState>) -> LineState {
        self.own(OWN_UNLOCK_WRITE, state, TableInput::OwnUnlockWrite, true)
    }

    /// Reacts to a snooped foreign transaction on a line this cache holds
    /// in `state`.
    #[inline]
    pub fn snoop(&self, state: LineState, event: SnoopEvent) -> SnoopOutcome {
        let kind = SnoopKind::of(event);
        self.lowered.snoop[kind as usize][slot(Some(state))]
            .unwrap_or_else(|| self.no_rule(Some(state), TableInput::Snoop(kind), true))
    }

    /// Whether a cache holding the line in `state` must interrupt a
    /// foreign bus read and supply its data (the paper's `L` state; the
    /// write-once `Dirty` state) — whether the table has a `supply` rule
    /// for `state`.
    #[inline]
    pub fn supplies_on_snoop_read(&self, state: LineState) -> bool {
        self.lowered.supply[slot(Some(state))].is_some()
    }

    /// The holder's state after it interrupted a bus read and supplied
    /// its data via a substituted bus write ("The cache state is changed
    /// to Read", Section 3).
    #[inline]
    pub fn after_supply(&self, state: LineState) -> LineState {
        self.lowered.supply[slot(Some(state))]
            .unwrap_or_else(|| self.no_rule(Some(state), TableInput::Supply, true))
    }

    /// Whether a line evicted in `state` must be written back to memory
    /// ("only those overwritten items that are tagged local need to be
    /// written back", Section 3).
    #[inline]
    pub fn writeback_on_evict(&self, state: LineState) -> bool {
        self.lowered.evict[slot(Some(state))]
            .unwrap_or_else(|| self.no_rule(Some(state), TableInput::Evict, true))
    }

    /// Whether snooping caches capture the data of foreign bus *writes*
    /// (true only for RWB with k >= 2: "the caches also note the data
    /// part of the bus writes", Section 5).
    pub fn broadcasts_write_data(&self) -> bool {
        self.lowered.table.broadcasts_write_data
    }

    /// Whether this protocol ever issues the bus invalidate signal
    /// (`BI`) — true for the RWB family and MESI.
    pub fn uses_bus_invalidate(&self) -> bool {
        self.lowered.table.uses_bus_invalidate
    }

    /// Whether the read-miss fill state depends on the abstract
    /// configuration of the other caches (MESI's exclusive-vs-shared
    /// fill). False for every paper scheme, letting the machine skip
    /// the sharer sample on the hot path.
    pub fn fill_depends_on_sharers(&self) -> bool {
        self.lowered.fill_depends_on_sharers
    }
}

impl Lowered {
    /// Stores one rule's decision in the cell it occupies at
    /// `other_readable`, unless an earlier rule already decided it.
    fn lower(&mut self, rule: Rule, other_readable: bool) {
        let s = slot(rule.from);
        let name = &self.table.name;
        assert!(
            s != UNREPRESENTABLE,
            "{name}: rule {rule} names an unrepresentable state"
        );
        let shape_error =
            || -> ! { panic!("{name}: rule {rule} has the wrong effect shape for its input") };
        match (
            own_column(rule.input, other_readable),
            rule.input,
            rule.effect,
        ) {
            (Some(c), _, Effect::Next { next, .. }) => fill(&mut self.own[c][s], next),
            (None, TableInput::CpuRead | TableInput::CpuWrite, effect) => {
                let outcome = match effect {
                    Effect::Hit { next } => CpuOutcome::Hit { next },
                    Effect::Issue { intent } => CpuOutcome::Miss { intent },
                    _ => shape_error(),
                };
                let row = usize::from(rule.input == TableInput::CpuWrite);
                fill(&mut self.cpu[row][s], outcome);
            }
            (None, TableInput::Snoop(kind), Effect::Next { next, capture }) => {
                fill(
                    &mut self.snoop[kind as usize][s],
                    SnoopOutcome { next, capture },
                );
            }
            (None, TableInput::Supply, Effect::Supply { next }) => fill(&mut self.supply[s], next),
            (None, TableInput::Evict, Effect::Evict { writeback }) => {
                fill(&mut self.evict[s], writeback);
            }
            _ => shape_error(),
        }
    }
}

/// Stores `value` in an empty cell; a filled cell keeps the earlier
/// rule's decision.
fn fill<T>(cell: &mut Option<T>, value: T) {
    if cell.is_none() {
        *cell = Some(value);
    }
}

impl fmt::Debug for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Protocol")
            .field("name", &self.lowered.table.name)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bus_intent_display_matches_mnemonics() {
        assert_eq!(BusIntent::Read.to_string(), "BR");
        assert_eq!(BusIntent::Write.to_string(), "BW");
        assert_eq!(BusIntent::Invalidate.to_string(), "BI");
    }

    #[test]
    fn snoop_event_words() {
        assert_eq!(SnoopEvent::Read(Word::new(4)).word(), Some(Word::new(4)));
        assert_eq!(SnoopEvent::Invalidate.word(), None);
        assert_eq!(SnoopEvent::UnlockWrite(Word::ONE).word(), Some(Word::ONE));
    }

    #[test]
    fn outcome_constructors() {
        let o = SnoopOutcome::to(LineState::Invalid);
        assert!(!o.capture);
        let o = SnoopOutcome::capture(LineState::Readable);
        assert!(o.capture);
        let o = SnoopOutcome::unchanged(LineState::Local);
        assert_eq!(o.next, LineState::Local);
        assert!(!o.capture);
    }

    #[test]
    fn mesi_fill_is_guarded() {
        use LineState::{Dirty, Invalid, Reserved, Valid};
        let p = crate::ProtocolKind::Mesi.build();
        assert_eq!(p.name(), "MESI");
        assert_eq!(p.states(), [Invalid, Valid, Reserved, Dirty]);
        assert!(p.uses_bus_invalidate());
        assert!(!p.broadcasts_write_data());
        assert!(p.fill_depends_on_sharers());
        assert_eq!(
            p.cpu_read(None),
            CpuOutcome::Miss {
                intent: BusIntent::Read
            }
        );
        assert_eq!(
            p.own_complete_shared(None, BusIntent::Read, false),
            Reserved,
            "alone → exclusive-clean"
        );
        assert_eq!(
            p.own_complete_shared(None, BusIntent::Read, true),
            Valid,
            "shared → V"
        );
        // The context-free entry point resolves to the shared branch.
        assert_eq!(p.own_complete(None, BusIntent::Read), Valid);
        // Silent E → M; S → M upgrades over BI.
        assert_eq!(p.cpu_write(Some(Reserved)), CpuOutcome::Hit { next: Dirty });
        assert_eq!(
            p.cpu_write(Some(Valid)),
            CpuOutcome::Miss {
                intent: BusIntent::Invalidate
            }
        );
        assert_eq!(p.own_complete(Some(Valid), BusIntent::Invalidate), Dirty);
        // Owner supplies and demotes; only M writes back.
        assert!(p.supplies_on_snoop_read(Dirty));
        assert!(!p.supplies_on_snoop_read(Reserved));
        assert_eq!(p.after_supply(Dirty), Valid);
        assert!(p.writeback_on_evict(Dirty));
        assert!(!p.writeback_on_evict(Reserved));
        // Read snoops demote to shared without capturing.
        let out = p.snoop(Reserved, SnoopEvent::Read(Word::ZERO));
        assert_eq!(out, SnoopOutcome::to(Valid));
        let out = p.snoop(Valid, SnoopEvent::Write(Word::ZERO));
        assert_eq!(out, SnoopOutcome::to(Invalid));
    }

    #[test]
    #[should_panic(expected = "MESI: no rule for NP --CR (other_readable=true)")]
    fn missing_rules_panic_informatively() {
        let mut table = crate::ir::mesi();
        table.rules.retain(|r| r.input != TableInput::CpuRead);
        let _ = Protocol::new(table).cpu_read(None);
    }

    #[test]
    #[should_panic(expected = "wrong effect shape")]
    fn misshapen_rules_are_rejected_at_lowering() {
        let mut table = crate::ir::mesi();
        let rule = table
            .rules
            .iter_mut()
            .find(|r| r.input == TableInput::Evict)
            .unwrap();
        rule.effect = Effect::Hit {
            next: LineState::Invalid,
        };
        let _ = Protocol::new(table);
    }

    #[test]
    fn unrepresentable_states_find_no_rule() {
        let p = crate::ProtocolKind::RwbThreshold(8).build();
        assert!(p.states().contains(&LineState::FirstWrite(7)));
        for c in [0, 8, 9] {
            let state = LineState::FirstWrite(c);
            assert!(!p.supplies_on_snoop_read(state));
            assert_eq!(p.decision(Some(state), TableInput::CpuRead, true), None);
        }
    }

    #[test]
    fn hit_predicate() {
        assert!(CpuOutcome::Hit {
            next: LineState::Readable
        }
        .is_hit());
        assert!(!CpuOutcome::Miss {
            intent: BusIntent::Read
        }
        .is_hit());
    }
}

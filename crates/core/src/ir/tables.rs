//! The rule tables of every built-in protocol: the paper's seven schemes
//! (Figures 3-1 and 5-1 plus the two baselines) and MESI.
//!
//! These tables are the protocols. The machine executes them (lowered
//! by [`crate::Protocol::new`]), the static analyzer in
//! `decache-protocol-ir` proves them, and the product checker, the
//! conformance oracle and the diagram exporter read them.

use super::{Effect, Guard, Rule, RuleTable, SnoopKind, TableInput};
use crate::{BusIntent, LineState, ProtocolKind};
use std::ops::RangeInclusive;
use LineState::{Dirty, FirstWrite, Invalid, Local, Readable, Reserved, Valid};

/// The supported RWB locality thresholds `k` (footnote 6); the largest
/// needs the first-write states `F1 ..= F7`.
pub const RWB_THRESHOLDS: RangeInclusive<u8> = 1..=8;

/// The rule table of a built-in protocol.
///
/// # Panics
///
/// Panics if a [`ProtocolKind::RwbThreshold`] value is outside
/// [`RWB_THRESHOLDS`].
///
/// # Examples
///
/// ```
/// use decache_core::ir::{table, TableInput};
/// use decache_core::{LineState, ProtocolKind};
///
/// let rb = table(ProtocolKind::Rb);
/// assert_eq!(rb.name, "RB");
/// let rule = rb.matching(Some(LineState::Local), TableInput::Supply, true).unwrap();
/// assert_eq!(rule.to_string(), "L --supply → supply→R");
/// ```
pub fn table(kind: ProtocolKind) -> RuleTable {
    match kind {
        ProtocolKind::Rb => rb(true),
        ProtocolKind::RbNoBroadcast => rb(false),
        ProtocolKind::Rwb => rwb(2),
        ProtocolKind::RwbThreshold(k) => rwb(k),
        ProtocolKind::WriteOnce => write_once(),
        ProtocolKind::WriteThrough => write_through(),
        ProtocolKind::Mesi => mesi(),
    }
}

/// Accumulates rules; [`Builder::rule`] adds a [`Guard::Always`] rule
/// (only MESI's read-miss fill is guarded).
struct Builder {
    rules: Vec<Rule>,
}

impl Builder {
    fn new() -> Self {
        Builder { rules: Vec::new() }
    }

    fn guarded(
        &mut self,
        from: Option<LineState>,
        input: TableInput,
        guard: Guard,
        effect: Effect,
    ) {
        self.rules.push(Rule {
            from,
            input,
            guard,
            effect,
        });
    }

    fn rule(&mut self, from: Option<LineState>, input: TableInput, effect: Effect) {
        self.guarded(from, input, Guard::Always, effect);
    }

    /// The same own-completion outcome from every from-state (the
    /// completions are state-independent except RWB's `BW`).
    fn own_all(&mut self, states: &[Option<LineState>], input: TableInput, next: LineState) {
        for &from in states {
            self.rule(
                from,
                input,
                Effect::Next {
                    next,
                    capture: false,
                },
            );
        }
    }

    fn snoop(&mut self, from: LineState, kinds: &[SnoopKind], next: LineState, capture: bool) {
        for &kind in kinds {
            self.rule(
                Some(from),
                TableInput::Snoop(kind),
                Effect::Next { next, capture },
            );
        }
    }

    fn finish(
        self,
        name: &str,
        states: Vec<LineState>,
        uses_bus_invalidate: bool,
        broadcasts_write_data: bool,
    ) -> RuleTable {
        let mut table = RuleTable {
            name: name.to_owned(),
            states,
            uses_bus_invalidate,
            broadcasts_write_data,
            rules: self.rules,
        };
        table.normalize();
        table
    }
}

const READS: [SnoopKind; 2] = [SnoopKind::Read, SnoopKind::LockedRead];
const WRITES: [SnoopKind; 2] = [SnoopKind::Write, SnoopKind::UnlockWrite];

/// `NP` followed by every declared state.
fn with_np(states: &[LineState]) -> Vec<Option<LineState>> {
    std::iter::once(None)
        .chain(states.iter().copied().map(Some))
        .collect()
}

/// The RB scheme of Section 3 / Figure 3-1: `R`eadable, `I`nvalid,
/// `L`ocal; write-through writes that invalidate every other copy; and
/// **read broadcasting** — "values fetched in response to certain CPU
/// reads are broadcast to all of the caches". `read_broadcast = false`
/// is ablation A3, which degrades the read path to Goodman-style event
/// broadcasting.
fn rb(read_broadcast: bool) -> RuleTable {
    let mut t = Builder::new();
    let states = [Invalid, Readable, Local];
    let all = with_np(&states);

    // CPU references. "A reference to an item not in the cache behaves
    // exactly as if it were in the invalid state": NP and I miss. Writes
    // go through ("informs the other caches that the variable is now
    // considered local") except from L, where they are purely local.
    for from in [None, Some(Invalid)] {
        t.rule(
            from,
            TableInput::CpuRead,
            Effect::Issue {
                intent: BusIntent::Read,
            },
        );
    }
    for s in [Readable, Local] {
        t.rule(Some(s), TableInput::CpuRead, Effect::Hit { next: s });
    }
    for from in [None, Some(Invalid), Some(Readable)] {
        t.rule(
            from,
            TableInput::CpuWrite,
            Effect::Issue {
                intent: BusIntent::Write,
            },
        );
    }
    t.rule(
        Some(Local),
        TableInput::CpuWrite,
        Effect::Hit { next: Local },
    );

    // Completions: a read yields a readable copy, a write claims
    // locality. The locked read is broadcast like any bus read (the
    // issuer keeps a readable copy, Figure 6-1); the unlocking write
    // "sets all the other caches into the invalid state, i.e. a local
    // configuration is assumed".
    t.own_all(&all, TableInput::OwnComplete(BusIntent::Read), Readable);
    t.own_all(&all, TableInput::OwnComplete(BusIntent::Write), Local);
    t.own_all(&all, TableInput::OwnLockedRead, Readable);
    t.own_all(&all, TableInput::OwnUnlockWrite, Local);

    // Snoops: a completed foreign read is a broadcast — invalid holders
    // capture the value "for future use" (the defining RB move); any
    // foreign write invalidates.
    t.snoop(Readable, &READS, Readable, false);
    t.snoop(Readable, &WRITES, Invalid, false);
    if read_broadcast {
        t.snoop(Invalid, &READS, Readable, true);
    } else {
        t.snoop(Invalid, &READS, Invalid, false);
    }
    t.snoop(Invalid, &WRITES, Invalid, false);
    // L sees a completed foreign read only if the supply path was
    // bypassed; fold to the post-supply state (totality arm).
    t.snoop(Local, &READS, Readable, true);
    t.snoop(Local, &WRITES, Invalid, false);

    // "The bus read is interrupted and replaced by a bus write of the
    // cached value. The cache state is changed to Read." And "only those
    // overwritten items that are tagged local need to be written back".
    t.rule(
        Some(Local),
        TableInput::Supply,
        Effect::Supply { next: Readable },
    );
    for s in states {
        t.rule(
            Some(s),
            TableInput::Evict,
            Effect::Evict {
                writeback: s == Local,
            },
        );
    }

    t.finish(
        if read_broadcast {
            "RB"
        } else {
            "RB-no-broadcast"
        },
        states.to_vec(),
        false,
        false,
    )
}

/// The RWB scheme of Section 5 / Figure 5-1, with footnote 6's locality
/// threshold `k` (the paper's expository default is `k = 2`).
///
/// RB plus **write broadcasting** — "the caches also note the data part
/// of the bus writes" — first-write states `F(1) .. F(k-1)`, and the bus
/// invalidate `BI`. The first `k - 1` uninterrupted writes are broadcast
/// bus writes while every other holder captures the data and sits in
/// `R`; the `k`-th broadcasts `BI` and the writer enters `L`. A foreign
/// write folds a first-writer back to `R`; foreign reads leave the
/// intermediate configuration unchanged. With `k = 1` every bus-visible
/// write is a `BI` and the scheme degenerates to write-back-invalidate
/// (ablation A1).
///
/// # Panics
///
/// Panics if `k` is outside [`RWB_THRESHOLDS`].
///
/// # Examples
///
/// ```
/// use decache_core::ir::rwb;
/// use decache_core::LineState;
///
/// let k3 = rwb(3);
/// assert_eq!(k3.name, "RWB(k=3)");
/// assert!(k3.states.contains(&LineState::FirstWrite(2)));
/// ```
pub fn rwb(k: u8) -> RuleTable {
    assert!(
        RWB_THRESHOLDS.contains(&k),
        "threshold k = {k} out of range {}..={}",
        RWB_THRESHOLDS.start(),
        RWB_THRESHOLDS.end()
    );
    let mut t = Builder::new();
    let states: Vec<LineState> = [Invalid, Readable]
        .into_iter()
        .chain((1..k).map(FirstWrite))
        .chain([Local])
        .collect();
    let all = with_np(&states);
    // The k-th uninterrupted write is the invalidating one.
    let intent_after = |done: u8| {
        if done + 1 >= k {
            BusIntent::Invalidate
        } else {
            BusIntent::Write
        }
    };

    // "Variables are initially assumed to be in the local configuration
    // and the first write will cause a change to the shared
    // configuration": a write miss broadcasts data (unless k = 1).
    for from in [None, Some(Invalid)] {
        t.rule(
            from,
            TableInput::CpuRead,
            Effect::Issue {
                intent: BusIntent::Read,
            },
        );
        t.rule(
            from,
            TableInput::CpuWrite,
            Effect::Issue {
                intent: intent_after(0),
            },
        );
    }
    for s in states.iter().copied().filter(|s| *s != Invalid) {
        t.rule(Some(s), TableInput::CpuRead, Effect::Hit { next: s });
    }
    t.rule(
        Some(Readable),
        TableInput::CpuWrite,
        Effect::Issue {
            intent: intent_after(0),
        },
    );
    for c in 1..k {
        t.rule(
            Some(FirstWrite(c)),
            TableInput::CpuWrite,
            Effect::Issue {
                intent: intent_after(c),
            },
        );
    }
    t.rule(
        Some(Local),
        TableInput::CpuWrite,
        Effect::Hit { next: Local },
    );

    t.own_all(&all, TableInput::OwnComplete(BusIntent::Read), Readable);
    // A completed broadcast write advances the uninterrupted-write
    // streak; BI confirms locality ("a subsequent write by PE_i then
    // confirms the fact that the variable is to be assumed local").
    for &from in &all {
        let next = match from {
            Some(FirstWrite(c)) => FirstWrite((c + 1).min(k - 1)),
            _ => FirstWrite(1),
        };
        t.rule(
            from,
            TableInput::OwnComplete(BusIntent::Write),
            Effect::Next {
                next,
                capture: false,
            },
        );
    }
    t.own_all(&all, TableInput::OwnComplete(BusIntent::Invalidate), Local);
    t.own_all(&all, TableInput::OwnLockedRead, Readable);
    // A successful Test-and-Set leaves the issuer holding the first
    // write (Figure 6-3: "P2 locks S" => F), except k = 1 where
    // locality is immediate.
    t.own_all(
        &all,
        TableInput::OwnUnlockWrite,
        if k == 1 { Local } else { FirstWrite(1) },
    );

    for &s in &states {
        // Foreign reads: broadcast fills invalid holders, every other
        // configuration unchanged (L's arm is the totality fold).
        match s {
            Invalid | Local => t.snoop(s, &READS, Readable, true),
            other => t.snoop(other, &READS, other, false),
        }
        // Foreign writes: "the data written is read by all caches and
        // they in turn enter state R" — except k = 1, where the only
        // bus-visible data writes are unlocking writes and the writer
        // claims immediate locality.
        if k == 1 {
            t.snoop(s, &WRITES, Invalid, false);
        } else {
            t.snoop(s, &WRITES, Readable, true);
        }
        // The bus invalidate: "causing all other caches to enter state I".
        t.snoop(s, &[SnoopKind::Invalidate], Invalid, false);
    }

    // F lines are memory-consistent (every write that created them was a
    // broadcast bus write); only L supplies and writes back.
    t.rule(
        Some(Local),
        TableInput::Supply,
        Effect::Supply { next: Readable },
    );
    for &s in &states {
        t.rule(
            Some(s),
            TableInput::Evict,
            Effect::Evict {
                writeback: s == Local,
            },
        );
    }

    let name = if k == 2 {
        "RWB".to_owned()
    } else {
        format!("RWB(k={k})")
    };
    t.finish(&name, states, true, k >= 2)
}

/// Goodman's write-once [GOO83], the "event broadcasting" scheme the
/// paper extends: `I`, `V`alid, `S` (Reserved: written once, through to
/// memory) and `D`irty. Snooping caches never capture bus data.
fn write_once() -> RuleTable {
    let mut t = Builder::new();
    let states = [Invalid, Valid, Reserved, Dirty];
    let all = with_np(&states);

    for from in [None, Some(Invalid)] {
        t.rule(
            from,
            TableInput::CpuRead,
            Effect::Issue {
                intent: BusIntent::Read,
            },
        );
    }
    for s in [Valid, Reserved, Dirty] {
        t.rule(Some(s), TableInput::CpuRead, Effect::Hit { next: s });
    }
    // The first write goes through (the "write once"); later writes
    // stay in the cache.
    for from in [None, Some(Invalid), Some(Valid)] {
        t.rule(
            from,
            TableInput::CpuWrite,
            Effect::Issue {
                intent: BusIntent::Write,
            },
        );
    }
    for s in [Reserved, Dirty] {
        t.rule(Some(s), TableInput::CpuWrite, Effect::Hit { next: Dirty });
    }

    t.own_all(&all, TableInput::OwnComplete(BusIntent::Read), Valid);
    t.own_all(&all, TableInput::OwnComplete(BusIntent::Write), Reserved);
    t.own_all(&all, TableInput::OwnLockedRead, Valid);
    t.own_all(&all, TableInput::OwnUnlockWrite, Reserved);

    // No capture anywhere. A foreign read demotes Reserved to Valid (a
    // later silent write would leave the reader's copy stale); Dirty
    // demotes via the supply path, its snoop arm is the totality fold.
    t.snoop(Invalid, &READS, Invalid, false);
    t.snoop(Valid, &READS, Valid, false);
    t.snoop(Reserved, &READS, Valid, false);
    t.snoop(Dirty, &READS, Valid, false);
    for s in states {
        t.snoop(s, &WRITES, Invalid, false);
    }

    t.rule(
        Some(Dirty),
        TableInput::Supply,
        Effect::Supply { next: Valid },
    );
    for s in states {
        t.rule(
            Some(s),
            TableInput::Evict,
            Effect::Evict {
                writeback: s == Dirty,
            },
        );
    }

    t.finish("write-once", states.to_vec(), false, false)
}

/// Write-through-with-invalidation: two states, every write on the bus —
/// the "do nothing clever" baseline whose every local write still costs
/// a bus cycle (Table 1-1's constant "Local Writes" column).
fn write_through() -> RuleTable {
    let mut t = Builder::new();
    let states = [Invalid, Valid];
    let all = with_np(&states);

    for from in [None, Some(Invalid)] {
        t.rule(
            from,
            TableInput::CpuRead,
            Effect::Issue {
                intent: BusIntent::Read,
            },
        );
    }
    t.rule(
        Some(Valid),
        TableInput::CpuRead,
        Effect::Hit { next: Valid },
    );
    for &from in &all {
        t.rule(
            from,
            TableInput::CpuWrite,
            Effect::Issue {
                intent: BusIntent::Write,
            },
        );
    }

    t.own_all(&all, TableInput::OwnComplete(BusIntent::Read), Valid);
    t.own_all(&all, TableInput::OwnComplete(BusIntent::Write), Valid);
    t.own_all(&all, TableInput::OwnLockedRead, Valid);
    t.own_all(&all, TableInput::OwnUnlockWrite, Valid);

    for s in states {
        t.snoop(s, &READS, s, false);
        t.snoop(s, &WRITES, Invalid, false);
        // Memory is always current: no supply row, nothing to write back.
        t.rule(
            Some(s),
            TableInput::Evict,
            Effect::Evict { writeback: false },
        );
    }

    t.finish("write-through", states.to_vec(), false, false)
}

/// The MESI protocol over the existing state vocabulary: `Invalid` =
/// MESI I, `Valid` = MESI S (shared), `Reserved` = MESI E
/// (exclusive-clean), `Dirty` = MESI M (modified) — displayed with the
/// crate's `I`/`V`/`S`/`D` letters.
///
/// Adaptation to the paper's bus vocabulary (documented in DESIGN.md):
/// a write miss issues the ordinary bus write `BW` (the word is written
/// through to memory, others invalidate, the writer fills
/// exclusive-clean) rather than a read-for-ownership, and the MESI
/// `S → M` upgrade issues the RWB bus-invalidate signal `BI`. The
/// defining MESI behaviours are all present: the guarded read-miss fill
/// (`E` when no other readable copy exists, `V` otherwise), the silent
/// `E → M` write hit, and the owner (`M`) supplying snooped reads and
/// demoting to shared.
pub fn mesi() -> RuleTable {
    use BusIntent::{Invalidate, Read, Write};

    let mut t = Builder::new();
    let held = [Invalid, Valid, Reserved, Dirty];
    let all = with_np(&held);

    // CPU references.
    for from in [None, Some(Invalid)] {
        t.rule(from, TableInput::CpuRead, Effect::Issue { intent: Read });
        t.rule(from, TableInput::CpuWrite, Effect::Issue { intent: Write });
    }
    for s in [Valid, Reserved, Dirty] {
        t.rule(Some(s), TableInput::CpuRead, Effect::Hit { next: s });
    }
    // S → M upgrades over the bus-invalidate signal; E → M and M → M are
    // silent local writes.
    t.rule(
        Some(Valid),
        TableInput::CpuWrite,
        Effect::Issue { intent: Invalidate },
    );
    for s in [Reserved, Dirty] {
        t.rule(Some(s), TableInput::CpuWrite, Effect::Hit { next: Dirty });
    }

    // Own-transaction completions (every from-state for totality; only
    // NP/I fills are dynamically reachable, the rest are reported dead
    // by the analyzer). The read-miss fill is MESI's guarded decision:
    // exclusive-clean when alone, shared otherwise.
    let fill = |next| Effect::Next {
        next,
        capture: false,
    };
    for &from in &all {
        let br = TableInput::OwnComplete(Read);
        t.guarded(from, br, Guard::NoOtherReadableHolder, fill(Reserved));
        t.guarded(from, br, Guard::OtherReadableHolder, fill(Valid));
    }
    t.own_all(&all, TableInput::OwnComplete(Write), Reserved);
    t.own_all(&all, TableInput::OwnComplete(Invalidate), Dirty);
    // A locked read broadcasts; everyone, issuer included, shares.
    t.own_all(&all, TableInput::OwnLockedRead, Valid);
    // The unlocking write goes through to memory: exclusive-clean.
    t.own_all(&all, TableInput::OwnUnlockWrite, Reserved);

    // Snoops: reads demote E/M to shared, writes and invalidates kill
    // the copy. MESI never captures foreign bus data (no write
    // broadcasting — the RB/RWB distinguishing power MESI lacks).
    for s in held {
        let on_read = if s == Invalid { Invalid } else { Valid };
        t.snoop(s, &READS, on_read, false);
        t.snoop(s, &WRITES, Invalid, false);
        t.snoop(s, &[SnoopKind::Invalidate], Invalid, false);
    }

    // Only the owner supplies; it demotes to shared (memory was just
    // made current by the substituted write). Only the owner writes back.
    t.rule(
        Some(Dirty),
        TableInput::Supply,
        Effect::Supply { next: Valid },
    );
    for s in held {
        t.rule(
            Some(s),
            TableInput::Evict,
            Effect::Evict {
                writeback: s == Dirty,
            },
        );
    }

    t.finish("MESI", held.to_vec(), true, false)
}

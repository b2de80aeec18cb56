//! The per-line coherence state vocabulary.

use std::fmt;

/// The state tag of one cache line, covering every protocol in the crate.
///
/// Each protocol uses a subset (reported by [`Protocol::states`]):
///
/// | Protocol | States |
/// |---|---|
/// | RB | `Invalid`, `Readable`, `Local` |
/// | RWB | `Invalid`, `Readable`, `FirstWrite(c)`, `Local` |
/// | Write-once | `Invalid`, `Valid`, `Reserved`, `Dirty` |
/// | Write-through | `Invalid`, `Valid` |
/// | MESI | `Invalid`, `Valid` (S), `Reserved` (E), `Dirty` (M) |
///
/// `FirstWrite(c)` carries the count of uninterrupted writes observed so
/// far (`1 ..= k-1`); the paper's footnote 6 allows requiring "at least k
/// uninterrupted writes to indicate local usage", with `k = 2` as the
/// expository default, in which case the only occupied variant is
/// `FirstWrite(1)` — the figure's plain `F` state.
///
/// The "not present" (`NP`) state of the paper's proof sketch is *not* a
/// variant: absence from the tag store represents it, and the [`Protocol`]
/// decision methods take it as `None`.
///
/// [`Protocol::states`]: crate::Protocol::states
/// [`Protocol`]: crate::Protocol
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LineState {
    /// The cached datum is assumed incorrect; any reference misses.
    Invalid,
    /// The datum is valid and consistent with main memory; reads hit
    /// (RB/RWB `R`).
    Readable,
    /// The datum can be read *and written* locally with no bus activity;
    /// this cache holds the only up-to-date copy (RB/RWB `L`).
    Local,
    /// RWB only: this cache performed the most recent `c` uninterrupted
    /// write(s); one more uninterrupted write (at `c = k-1`) claims the
    /// datum as local.
    FirstWrite(u8),
    /// Baselines only: present and consistent with memory.
    Valid,
    /// Write-once only: written exactly once since load; memory is
    /// current (the write was written through).
    Reserved,
    /// Write-once only: written more than once; memory is stale and this
    /// cache must supply the data and write back on eviction.
    Dirty,
}

impl LineState {
    /// The single-letter tag used in the paper's figures
    /// (`R`, `I`, `L`, `F`) and their natural extensions for the
    /// baselines (`V`, `S`, `D`).
    pub fn letter(self) -> char {
        match self {
            LineState::Invalid => 'I',
            LineState::Readable => 'R',
            LineState::Local => 'L',
            LineState::FirstWrite(_) => 'F',
            LineState::Valid => 'V',
            LineState::Reserved => 'S',
            LineState::Dirty => 'D',
        }
    }

    /// Returns `true` if a CPU read of a line in this state can be served
    /// from the cache without bus activity.
    pub fn is_readable_locally(self) -> bool {
        !matches!(self, LineState::Invalid)
    }

    /// Returns `true` if this state marks the holder as owning the only
    /// up-to-date copy (stale memory): RB/RWB `Local` and write-once
    /// `Dirty`.
    pub fn owns_latest(self) -> bool {
        matches!(self, LineState::Local | LineState::Dirty)
    }
}

impl fmt::Display for LineState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LineState::FirstWrite(c) if *c > 1 => write!(f, "F{c}"),
            other => write!(f, "{}", other.letter()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn letters_match_paper_figures() {
        assert_eq!(LineState::Readable.letter(), 'R');
        assert_eq!(LineState::Invalid.letter(), 'I');
        assert_eq!(LineState::Local.letter(), 'L');
        assert_eq!(LineState::FirstWrite(1).letter(), 'F');
    }

    #[test]
    fn display_elides_count_one() {
        assert_eq!(LineState::FirstWrite(1).to_string(), "F");
        assert_eq!(LineState::FirstWrite(3).to_string(), "F3");
        assert_eq!(LineState::Local.to_string(), "L");
    }

    #[test]
    fn local_readability() {
        assert!(!LineState::Invalid.is_readable_locally());
        for s in [
            LineState::Readable,
            LineState::Local,
            LineState::FirstWrite(1),
            LineState::Valid,
            LineState::Reserved,
            LineState::Dirty,
        ] {
            assert!(s.is_readable_locally(), "{s} should read locally");
        }
    }

    #[test]
    fn latest_value_owners() {
        assert!(LineState::Local.owns_latest());
        assert!(LineState::Dirty.owns_latest());
        assert!(!LineState::Readable.owns_latest());
        assert!(!LineState::FirstWrite(1).owns_latest());
        assert!(!LineState::Reserved.owns_latest());
    }
}

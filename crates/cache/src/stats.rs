//! Per-class cache hit/miss accounting.

use std::fmt;
use std::ops::{Add, AddAssign};

/// Whether a processor reference reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A CPU read reference.
    Read,
    /// A CPU write reference.
    Write,
}

/// The dynamic class of the referenced datum, following the paper's
/// taxonomy (Section 1): code is read-only shared, data is either local
/// (private to one process) or shared read/write.
///
/// For the RB/RWB schemes the class is *discovered dynamically* by the
/// protocol; workload generators still know the ground-truth class of each
/// reference, which is what these statistics are keyed on (exactly like
/// the columns of Table 1-1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RefClass {
    /// Instruction fetch / read-only code.
    Code,
    /// Data local (private) to the referencing process.
    Local,
    /// Read/write data shared between processes.
    Shared,
}

impl RefClass {
    /// All classes, in reporting order.
    pub const ALL: [RefClass; 3] = [RefClass::Code, RefClass::Local, RefClass::Shared];
}

impl fmt::Display for RefClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RefClass::Code => write!(f, "code"),
            RefClass::Local => write!(f, "local"),
            RefClass::Shared => write!(f, "shared"),
        }
    }
}

/// Hit/miss counters broken down by access kind and reference class.
///
/// # Examples
///
/// ```
/// use decache_cache::{AccessKind, CacheStats, RefClass};
///
/// let mut s = CacheStats::default();
/// s.record(AccessKind::Read, RefClass::Code, true);
/// s.record(AccessKind::Read, RefClass::Code, false);
/// assert_eq!(s.total_references(), 2);
/// assert!((s.hit_ratio() - 0.5).abs() < 1e-12);
/// assert_eq!(s.misses(AccessKind::Read, RefClass::Code), 1);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Hits, indexed `[kind][class]`: kind 0 = read, 1 = write; class
    /// in [`RefClass::ALL`] order (0 = code, 1 = local, 2 = shared).
    pub hits: [[u64; 3]; 2],
    /// Misses, same indexing.
    pub misses: [[u64; 3]; 2],
}

impl CacheStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        CacheStats::default()
    }

    fn kind_slot(kind: AccessKind) -> usize {
        match kind {
            AccessKind::Read => 0,
            AccessKind::Write => 1,
        }
    }

    fn class_slot(class: RefClass) -> usize {
        match class {
            RefClass::Code => 0,
            RefClass::Local => 1,
            RefClass::Shared => 2,
        }
    }

    /// Records one reference.
    pub fn record(&mut self, kind: AccessKind, class: RefClass, hit: bool) {
        let table = if hit {
            &mut self.hits
        } else {
            &mut self.misses
        };
        table[Self::kind_slot(kind)][Self::class_slot(class)] += 1;
    }

    /// Returns the hit count for a kind/class pair.
    pub fn hits(&self, kind: AccessKind, class: RefClass) -> u64 {
        self.hits[Self::kind_slot(kind)][Self::class_slot(class)]
    }

    /// Returns the miss count for a kind/class pair.
    pub fn misses(&self, kind: AccessKind, class: RefClass) -> u64 {
        self.misses[Self::kind_slot(kind)][Self::class_slot(class)]
    }

    /// Returns total references of all kinds and classes.
    pub fn total_references(&self) -> u64 {
        let sum = |t: &[[u64; 3]; 2]| t.iter().flatten().sum::<u64>();
        sum(&self.hits) + sum(&self.misses)
    }

    /// Returns total hits.
    pub fn total_hits(&self) -> u64 {
        self.hits.iter().flatten().sum()
    }

    /// Returns total misses.
    pub fn total_misses(&self) -> u64 {
        self.misses.iter().flatten().sum()
    }

    /// Returns read misses across all classes.
    pub fn read_misses(&self) -> u64 {
        self.misses[0].iter().sum()
    }

    /// Returns write misses across all classes.
    pub fn write_misses(&self) -> u64 {
        self.misses[1].iter().sum()
    }

    /// The overall hit ratio `h` in `[0, 1]`; 0 for no references.
    ///
    /// The paper: "caches have routinely achieved hit ratios ... of about
    /// 95 percent" in uniprocessors (Section 1); `1/h` appears in the
    /// SBB bandwidth bound of Section 7 as the miss ratio.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.total_references();
        if total == 0 {
            0.0
        } else {
            self.total_hits() as f64 / total as f64
        }
    }

    /// The overall miss ratio (`1 - hit_ratio` when references exist).
    pub fn miss_ratio(&self) -> f64 {
        let total = self.total_references();
        if total == 0 {
            0.0
        } else {
            self.total_misses() as f64 / total as f64
        }
    }

    /// The fraction of *all* references that are misses of the given
    /// kind/class — the unit in which Table 1-1 reports its columns.
    pub fn miss_fraction(&self, kind: AccessKind, class: RefClass) -> f64 {
        let total = self.total_references();
        if total == 0 {
            0.0
        } else {
            self.misses(kind, class) as f64 / total as f64
        }
    }
}

impl Add for CacheStats {
    type Output = CacheStats;
    fn add(mut self, rhs: CacheStats) -> CacheStats {
        self += rhs;
        self
    }
}

impl CacheStats {
    /// The cell-wise sum, or `None` if any counter overflows `u64` —
    /// for merging counters parsed from untrusted input.
    pub fn checked_add(mut self, rhs: CacheStats) -> Option<CacheStats> {
        let cells = self.hits.iter_mut().chain(&mut self.misses).flatten();
        let more = rhs.hits.iter().chain(&rhs.misses).flatten();
        for (cell, &more) in cells.zip(more) {
            *cell = cell.checked_add(more)?;
        }
        Some(self)
    }
}

impl AddAssign for CacheStats {
    /// # Panics
    ///
    /// Panics if a counter overflows `u64`.
    fn add_assign(&mut self, rhs: CacheStats) {
        *self = self.checked_add(rhs).expect("cache counter overflow");
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "refs={} hit_ratio={:.1}% (read misses={}, write misses={})",
            self.total_references(),
            self.hit_ratio() * 100.0,
            self.read_misses(),
            self.write_misses(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_stats_have_no_ratio() {
        let s = CacheStats::new();
        assert_eq!(s.hit_ratio(), 0.0);
        assert_eq!(s.miss_ratio(), 0.0);
        assert_eq!(s.total_references(), 0);
    }

    #[test]
    fn record_and_query_each_cell() {
        let mut s = CacheStats::new();
        for kind in [AccessKind::Read, AccessKind::Write] {
            for class in RefClass::ALL {
                s.record(kind, class, true);
                s.record(kind, class, false);
                s.record(kind, class, false);
            }
        }
        for kind in [AccessKind::Read, AccessKind::Write] {
            for class in RefClass::ALL {
                assert_eq!(s.hits(kind, class), 1);
                assert_eq!(s.misses(kind, class), 2);
            }
        }
        assert_eq!(s.total_references(), 18);
        assert_eq!(s.total_hits(), 6);
        assert_eq!(s.total_misses(), 12);
        assert!((s.hit_ratio() + s.miss_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn miss_fraction_is_over_total_references() {
        let mut s = CacheStats::new();
        // 3 code read hits + 1 shared read miss = 25% shared miss fraction.
        s.record(AccessKind::Read, RefClass::Code, true);
        s.record(AccessKind::Read, RefClass::Code, true);
        s.record(AccessKind::Read, RefClass::Code, true);
        s.record(AccessKind::Read, RefClass::Shared, false);
        assert!((s.miss_fraction(AccessKind::Read, RefClass::Shared) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn addition_merges_counters() {
        let mut a = CacheStats::new();
        a.record(AccessKind::Read, RefClass::Code, true);
        let mut b = CacheStats::new();
        b.record(AccessKind::Write, RefClass::Local, false);
        let c = a + b;
        assert_eq!(c.total_references(), 2);
        assert_eq!(c.hits(AccessKind::Read, RefClass::Code), 1);
        assert_eq!(c.misses(AccessKind::Write, RefClass::Local), 1);
    }

    #[test]
    fn display_is_informative() {
        let mut s = CacheStats::new();
        s.record(AccessKind::Read, RefClass::Code, true);
        let text = s.to_string();
        assert!(text.contains("refs=1"));
        assert!(text.contains("hit_ratio=100.0%"));
    }

    #[test]
    fn class_display_names() {
        assert_eq!(RefClass::Code.to_string(), "code");
        assert_eq!(RefClass::Local.to_string(), "local");
        assert_eq!(RefClass::Shared.to_string(), "shared");
    }
}

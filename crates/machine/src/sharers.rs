//! Internal bitset indexes that fast-path the cycle engine.
//!
//! The paper's machine is a broadcast medium: every bus transaction is
//! observed by every cache, and the straightforward implementation
//! re-scans all `n` processing elements per transaction (snoop
//! dispatch, supplier search) and per cycle (issue scan, pending-read
//! completion, done checks) — the O(n) "snoop everything" cost the
//! shared-bus scaling literature identifies as the bottleneck. These
//! indexes make every such scan proportional to the number of *actual*
//! participants instead, without changing which caches are visited or
//! in which order, so the simulation's cycle-by-cycle behaviour is
//! bit-for-bit identical (pinned by the machine-fingerprint golden
//! test).
//!
//! * [`PeMask`] — one bitset over processing elements (the idle set).
//! * [`AddrPeIndex`] — a per-address set of processing elements: the
//!   sharer index (which caches hold a block), the supplier index
//!   (which hold it in a supplying state) and the pending-read index
//!   (which PEs stall on a bus read of an address). Its size follows
//!   the run's footprint, O(touched addresses + shared blocks × PEs),
//!   not memory × PEs: a 4-byte head per address holds a single
//!   member inline, and only an address with two or more members
//!   borrows a PE bitset row from a shared arena. Most blocks are
//!   private, so at 1024 PEs a block costs 4 bytes instead of a
//!   128-byte row.
//!
//! Bit iteration is always in ascending PE order, matching the
//! `for pe in 0..n` loops these indexes replace.

/// Scans `words` for the first set bit at position `>= from`; bit `i`
/// lives in `words[i / 64]` at bit `i % 64`.
fn next_set_bit(words: &[u64], from: usize) -> Option<usize> {
    let mut word = from / 64;
    if word >= words.len() {
        return None;
    }
    let mut current = words[word] & (!0u64 << (from % 64));
    loop {
        if current != 0 {
            return Some(word * 64 + current.trailing_zeros() as usize);
        }
        word += 1;
        if word >= words.len() {
            return None;
        }
        current = words[word];
    }
}

/// A bitset over processing elements.
#[derive(Debug, Clone)]
pub(crate) struct PeMask {
    words: Vec<u64>,
}

impl PeMask {
    /// An all-clear mask sized for `pes` processing elements.
    pub(crate) fn new(pes: usize) -> Self {
        PeMask {
            words: vec![0; pes.div_ceil(64).max(1)],
        }
    }

    /// Sets bit `pe`.
    pub(crate) fn set(&mut self, pe: usize) {
        self.words[pe / 64] |= 1u64 << (pe % 64);
    }

    /// Clears bit `pe`.
    pub(crate) fn clear(&mut self, pe: usize) {
        self.words[pe / 64] &= !(1u64 << (pe % 64));
    }

    /// The first set bit `>= from`, in ascending order.
    pub(crate) fn next_from(&self, from: usize) -> Option<usize> {
        next_set_bit(&self.words, from)
    }

    /// Number of set bits (invariant checks only).
    pub(crate) fn total(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// [`AddrPeIndex`] head of an address with no members.
const EMPTY: u32 = 0;
/// [`AddrPeIndex`] head flag of a spilled address; the low bits name
/// its arena row.
const SPILLED: u32 = 1 << 31;

/// The head of an address whose one member is `pe`.
fn inline(pe: usize) -> u32 {
    debug_assert!(pe < (SPILLED - 1) as usize, "P{pe} does not fit a head");
    pe as u32 + 1
}

/// The members of one address in an [`AddrPeIndex`], as stored.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Members<'a> {
    /// No member.
    Empty,
    /// Exactly one member, held inline.
    One(usize),
    /// Two or more members: bit `pe % 64` of word `pe / 64`.
    Row(&'a [u64]),
}

/// A per-address set of processing elements, sized by the run's
/// footprint. Each address has a 4-byte head: [`EMPTY`], its single
/// member inline (`pe + 1`), or [`SPILLED`] plus the number of a
/// `stride`-word bitset row in a shared arena. Only an address with two
/// or more members holds a row; one that drops back to a single member
/// stores it inline again and returns its row to the free list. The
/// heads grow on demand, so addresses beyond the memory size (which
/// would fault at the memory access itself) never fault here first.
#[derive(Debug, Clone)]
pub(crate) struct AddrPeIndex {
    stride: usize,
    heads: Vec<u32>,
    /// Row `r` occupies `rows[r * stride .. (r + 1) * stride]`.
    rows: Vec<u64>,
    /// Member count of each row in use (at least two).
    counts: Vec<u32>,
    /// Rows not in use; every bit of a free row is clear.
    free: Vec<u32>,
}

impl AddrPeIndex {
    /// An empty index over `pes` processing elements.
    pub(crate) fn new(pes: usize) -> Self {
        AddrPeIndex {
            stride: pes.div_ceil(64).max(1),
            heads: Vec::new(),
            rows: Vec::new(),
            counts: Vec::new(),
            free: Vec::new(),
        }
    }

    fn head(&self, addr: u64) -> u32 {
        self.heads.get(addr as usize).copied().unwrap_or(EMPTY)
    }

    fn row(&self, row: usize) -> &[u64] {
        &self.rows[row * self.stride..(row + 1) * self.stride]
    }

    /// The members of `addr`; [`Members::Empty`] for addresses past the
    /// index's current extent. The batched broadcast path walks a
    /// [`Members::Row`] word at a time (popcount for aggregate counts,
    /// trailing zeros for members in ascending PE order).
    pub(crate) fn members(&self, addr: u64) -> Members<'_> {
        match self.head(addr) {
            EMPTY => Members::Empty,
            head if head & SPILLED != 0 => Members::Row(self.row((head & !SPILLED) as usize)),
            head => Members::One(head as usize - 1),
        }
    }

    /// Adds `pe` to `addr` (idempotent). A second member spills the
    /// address into an arena row.
    pub(crate) fn add(&mut self, addr: u64, pe: usize) {
        debug_assert!(pe < self.stride * 64, "P{pe} is outside the index");
        let slot = addr as usize;
        if slot >= self.heads.len() {
            self.heads.resize(slot + 1, EMPTY);
        }
        let head = self.heads[slot];
        if head == EMPTY {
            self.heads[slot] = inline(pe);
        } else if head & SPILLED != 0 {
            let row = (head & !SPILLED) as usize;
            let word = &mut self.rows[row * self.stride + pe / 64];
            let bit = 1u64 << (pe % 64);
            if *word & bit == 0 {
                *word |= bit;
                self.counts[row] += 1;
            }
        } else if head != inline(pe) {
            let row = match self.free.pop() {
                Some(row) => row as usize,
                None => {
                    self.rows.resize(self.rows.len() + self.stride, 0);
                    self.counts.push(0);
                    self.counts.len() - 1
                }
            };
            let base = row * self.stride;
            for member in [head as usize - 1, pe] {
                self.rows[base + member / 64] |= 1u64 << (member % 64);
            }
            self.counts[row] = 2;
            self.heads[slot] = SPILLED | row as u32;
        }
    }

    /// Removes `pe` from `addr` (idempotent). The last member left in a
    /// row moves back inline and the row is freed.
    pub(crate) fn remove(&mut self, addr: u64, pe: usize) {
        let slot = addr as usize;
        let Some(&head) = self.heads.get(slot) else {
            return;
        };
        if head & SPILLED == 0 {
            if head == inline(pe) {
                self.heads[slot] = EMPTY;
            }
            return;
        }
        let row = (head & !SPILLED) as usize;
        let base = row * self.stride;
        let bit = 1u64 << (pe % 64);
        if self.rows[base + pe / 64] & bit == 0 {
            return;
        }
        self.rows[base + pe / 64] &= !bit;
        self.counts[row] -= 1;
        if self.counts[row] == 1 {
            let last = next_set_bit(self.row(row), 0).expect("a counted row has a member");
            self.rows[base + last / 64] = 0;
            self.free.push(row as u32);
            self.heads[slot] = inline(last);
        }
    }

    /// Whether `pe` is a member of `addr`.
    pub(crate) fn contains(&self, addr: u64, pe: usize) -> bool {
        match self.members(addr) {
            Members::Empty => false,
            Members::One(member) => member == pe,
            Members::Row(words) => words
                .get(pe / 64)
                .is_some_and(|word| word & (1u64 << (pe % 64)) != 0),
        }
    }

    /// The first member `>= from` of `addr`, in ascending order — the
    /// cursor primitive behind every holder loop.
    pub(crate) fn next_from(&self, addr: u64, from: usize) -> Option<usize> {
        match self.members(addr) {
            Members::Empty => None,
            Members::One(member) => (member >= from).then_some(member),
            Members::Row(words) => next_set_bit(words, from),
        }
    }

    /// Total number of members across all addresses, counted from the
    /// heads and row bits (invariant checks only — O(index size)).
    pub(crate) fn total(&self) -> usize {
        (0..self.heads.len() as u64)
            .map(|addr| match self.members(addr) {
                Members::Empty => 0,
                Members::One(_) => 1,
                Members::Row(words) => words.iter().map(|w| w.count_ones() as usize).sum(),
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decache_rng::Rng;
    use std::collections::BTreeSet;

    #[test]
    fn pe_mask_set_clear_iterate() {
        let mut m = PeMask::new(130);
        for pe in [0usize, 63, 64, 129] {
            m.set(pe);
        }
        let mut seen = Vec::new();
        let mut cursor = 0;
        while let Some(pe) = m.next_from(cursor) {
            seen.push(pe);
            cursor = pe + 1;
        }
        assert_eq!(seen, vec![0, 63, 64, 129]);
        m.clear(64);
        assert_eq!(m.next_from(64), Some(129));
        assert_eq!(m.total(), 3);
    }

    #[test]
    fn empty_mask_yields_nothing() {
        let m = PeMask::new(8);
        assert_eq!(m.next_from(0), None);
    }

    #[test]
    fn index_add_remove_contains() {
        let mut idx = AddrPeIndex::new(4);
        idx.add(3, 2);
        idx.add(3, 0);
        assert!(idx.contains(3, 2));
        assert!(!idx.contains(3, 1));
        assert!(!idx.contains(4, 2));
        assert_eq!(idx.next_from(3, 0), Some(0));
        assert_eq!(idx.next_from(3, 1), Some(2));
        assert_eq!(idx.next_from(3, 3), None);
        idx.remove(3, 0);
        assert_eq!(idx.next_from(3, 0), Some(2));
        assert_eq!(idx.total(), 1);
    }

    #[test]
    fn index_is_idempotent() {
        let mut idx = AddrPeIndex::new(2);
        idx.add(1, 1);
        idx.add(1, 1);
        assert_eq!(idx.total(), 1);
        idx.remove(1, 0);
        assert_eq!(idx.total(), 1);
    }

    #[test]
    fn index_grows_beyond_initial_size() {
        let mut idx = AddrPeIndex::new(70);
        assert_eq!(idx.next_from(100, 0), None);
        assert!(!idx.contains(100, 69));
        idx.remove(100, 69); // no-op, no panic
        idx.add(100, 69);
        assert!(idx.contains(100, 69));
        assert_eq!(idx.next_from(100, 0), Some(69));
    }

    #[test]
    fn ascending_order_across_words() {
        let mut idx = AddrPeIndex::new(200);
        for pe in [5usize, 70, 199] {
            idx.add(0, pe);
        }
        let mut seen = Vec::new();
        let mut cursor = 0;
        while let Some(pe) = idx.next_from(0, cursor) {
            seen.push(pe);
            cursor = pe + 1;
        }
        assert_eq!(seen, vec![5, 70, 199]);
    }

    /// Checks the arena's bookkeeping: each spilled head names a
    /// distinct row whose count equals its population (at least two),
    /// every other row is on the free list exactly once and all clear.
    fn assert_well_formed(idx: &AddrPeIndex) {
        let mut used = BTreeSet::new();
        for &head in &idx.heads {
            if head & SPILLED != 0 {
                let row = (head & !SPILLED) as usize;
                assert!(used.insert(row), "row {row} shared by two heads");
                let population: u32 = idx.row(row).iter().map(|w| w.count_ones()).sum();
                assert_eq!(idx.counts[row], population, "row {row} count");
                assert!(population >= 2, "row {row} holds {population} members");
            }
        }
        let free: BTreeSet<usize> = idx.free.iter().map(|&r| r as usize).collect();
        assert_eq!(free.len(), idx.free.len(), "free list repeats a row");
        assert!(free.is_disjoint(&used), "a row in use is on the free list");
        assert_eq!(free.len() + used.len(), idx.counts.len(), "a row leaked");
        assert_eq!(idx.rows.len(), idx.counts.len() * idx.stride);
        for row in free {
            assert!(idx.row(row).iter().all(|&w| w == 0), "free row {row} dirty");
        }
    }

    /// Checks every query on `addr` against the model's members.
    fn assert_matches_model(idx: &AddrPeIndex, model: &BTreeSet<(u64, usize)>, addr: u64) {
        let want: Vec<usize> = model
            .range((addr, 0)..=(addr, usize::MAX))
            .map(|&(_, pe)| pe)
            .collect();
        let mut walk = Vec::new();
        let mut cursor = 0;
        while let Some(pe) = idx.next_from(addr, cursor) {
            walk.push(pe);
            cursor = pe + 1;
        }
        assert_eq!(walk, want, "next_from walk of {addr}");
        for pe in 0..idx.stride * 64 {
            assert_eq!(idx.contains(addr, pe), want.contains(&pe), "{addr} P{pe}");
        }
        match idx.members(addr) {
            Members::Empty => assert!(want.is_empty(), "{addr} reads empty"),
            Members::One(pe) => assert_eq!(want, [pe], "{addr} reads one member"),
            Members::Row(words) => {
                assert!(want.len() >= 2, "{addr} keeps a row for {want:?}");
                let mut bits = Vec::new();
                for (w, &word) in words.iter().enumerate() {
                    let mut word = word;
                    while word != 0 {
                        bits.push(w * 64 + word.trailing_zeros() as usize);
                        word &= word - 1;
                    }
                }
                assert_eq!(bits, want, "{addr} row bits");
            }
        }
    }

    /// Random adds and removes against a `BTreeSet<(addr, pe)>` model,
    /// over 1..=200 PEs (one to four mask words) and up to 300
    /// addresses, a few of them hot so members pile up and drain:
    /// every query agrees after every operation, rows are freed as soon
    /// as an address drops to one member, and the arena never outgrows
    /// the peak number of multi-member addresses.
    #[test]
    fn index_matches_reference_model() {
        decache_rng::testing::check("addr_pe_index_model", 256, |rng: &mut Rng| {
            let pes = rng.gen_range(1usize..=200);
            let addrs = rng.gen_range(1u64..=300);
            let hot = rng.gen_range(1u64..=8).min(addrs);
            let mut idx = AddrPeIndex::new(pes);
            let mut model = BTreeSet::new();
            let (mut multi, mut peak_multi) = (0, 0);
            for _ in 0..rng.gen_range(1..=400u32) {
                let addr = if rng.gen_bool(0.6) {
                    rng.gen_range(0..hot)
                } else {
                    rng.gen_range(0..addrs)
                };
                let present: Vec<usize> = model
                    .range((addr, 0)..=(addr, usize::MAX))
                    .map(|&(_, pe)| pe)
                    .collect();
                let pe = if !present.is_empty() && rng.gen_bool(0.5) {
                    *rng.choose(&present)
                } else {
                    rng.gen_range(0..pes)
                };
                if rng.gen_bool(0.55) {
                    idx.add(addr, pe);
                    model.insert((addr, pe));
                } else {
                    idx.remove(addr, pe);
                    model.remove(&(addr, pe));
                }
                assert_matches_model(&idx, &model, addr);
                assert_eq!(idx.total(), model.len(), "total");
                assert_well_formed(&idx);
                let after = model.range((addr, 0)..=(addr, usize::MAX)).count();
                match (present.len() >= 2, after >= 2) {
                    (false, true) => multi += 1,
                    (true, false) => multi -= 1,
                    _ => {}
                }
                let spilled = idx.heads.iter().filter(|&&h| h & SPILLED != 0).count();
                assert_eq!(spilled, multi, "rows in use != multi-member addresses");
                peak_multi = peak_multi.max(multi);
                assert!(idx.counts.len() <= peak_multi, "arena outgrew its peak");
            }
            for addr in 0..addrs {
                assert_matches_model(&idx, &model, addr);
            }
            let beyond = addrs + rng.gen_range(0..1000u64);
            idx.remove(beyond, pes - 1);
            assert!(!idx.contains(beyond, pes - 1));
            assert_eq!(idx.next_from(beyond, 0), None);
        });
    }
}

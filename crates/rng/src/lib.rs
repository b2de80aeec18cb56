//! Dependency-free deterministic randomness for the decache workspace.
//!
//! The whole repository builds and tests offline, so every source of
//! pseudo-randomness — workload generators, random arbiters, random
//! replacement, randomized tests — runs on this crate instead of
//! external crates. Two generators cover all needs:
//!
//! * [`SplitMix64`] — the stateless-feeling 64-bit seed expander from
//!   Steele, Lea & Flood (OOPSLA 2014), used to turn one `u64` seed
//!   into many well-mixed streams (per-PE seeding, test-case corpora).
//! * [`Rng`] — xoshiro256\*\* (Blackman & Vigna, 2018), the general
//!   workhorse stream with the small API surface the workspace uses:
//!   [`Rng::from_seed`], [`Rng::next_u64`], [`Rng::next_f64`],
//!   [`Rng::gen_range`], [`Rng::gen_bool`], [`Rng::shuffle`],
//!   [`Rng::choose`].
//!
//! Both implementations are pinned by golden-value tests against the
//! published reference outputs, so a stream produced from a seed today
//! is byte-for-byte the stream produced from that seed forever — the
//! property that makes cross-protocol comparisons on "the same"
//! workload meaningful.
//!
//! The [`testing`] module adds a tiny seeded-harness replacement for
//! `proptest`: a fixed per-test seed corpus, an environment-variable
//! case-count override, and failure messages that name the seed to
//! replay.
//!
//! # Examples
//!
//! ```
//! use decache_rng::Rng;
//!
//! let mut rng = Rng::from_seed(7);
//! let die = rng.gen_range(1u64..=6);
//! assert!((1..=6).contains(&die));
//!
//! // Identical seeds give identical streams.
//! let (mut a, mut b) = (Rng::from_seed(9), Rng::from_seed(9));
//! assert_eq!(a.next_u64(), b.next_u64());
//! ```

use std::ops::{Range, RangeInclusive};

/// The SplitMix64 generator: a 64-bit state advanced by the golden
/// ratio, output through a mixing function.
///
/// Primarily a **seed expander**: feeding one user seed through
/// SplitMix64 yields arbitrarily many decorrelated 64-bit values (the
/// recommended way to seed xoshiro state, and how the workspace derives
/// per-PE and per-test-case seeds from one root seed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates the generator with the given seed. Every seed, including
    /// zero, yields a full-quality stream.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Produces the next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A xoshiro256\*\* pseudo-random generator seeded via [`SplitMix64`].
///
/// 256 bits of state, period 2^256 − 1, passes BigCrush; more than
/// adequate for workload synthesis and randomized testing, and fully
/// deterministic per seed on every platform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator whose 256-bit state is expanded from `seed`
    /// by four successive [`SplitMix64`] outputs (the seeding procedure
    /// recommended by the xoshiro authors).
    pub fn from_seed(seed: u64) -> Self {
        let mut mix = SplitMix64::new(seed);
        Rng {
            s: [
                mix.next_u64(),
                mix.next_u64(),
                mix.next_u64(),
                mix.next_u64(),
            ],
        }
    }

    /// Creates a generator directly from a 256-bit state. The state
    /// must not be all zeros (the one fixed point of the generator).
    pub fn from_state(state: [u64; 4]) -> Self {
        assert!(
            state.iter().any(|&w| w != 0),
            "xoshiro256** state must be nonzero"
        );
        Rng { s: state }
    }

    /// Returns the current 256-bit state, suitable for exact stream
    /// resumption via [`Rng::from_state`] — the checkpoint/restore
    /// primitive: `from_state(rng.state())` continues the stream
    /// bit-identically.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Produces the next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Produces a uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Produces a uniform value in `[0, n)` by rejection sampling
    /// (modulo bias removed).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    fn bounded(&mut self, n: u64) -> u64 {
        assert!(n > 0, "cannot sample from an empty range");
        // Power-of-two bound: the rejection threshold is zero and the
        // modulo is a mask, so this draws the same single sample as the
        // general path without its two divisions.
        if n.is_power_of_two() {
            return self.next_u64() & (n - 1);
        }
        // Reject the low `2^64 mod n` values so every residue class is
        // equally likely.
        let threshold = n.wrapping_neg() % n;
        loop {
            let v = self.next_u64();
            if v >= threshold {
                return v % n;
            }
        }
    }

    /// Produces a uniform value in the given integer range, half-open
    /// (`lo..hi`) or inclusive (`lo..=hi`).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    ///
    /// # Examples
    ///
    /// ```
    /// let mut rng = decache_rng::Rng::from_seed(3);
    /// let x = rng.gen_range(10u64..20);
    /// assert!((10..20).contains(&x));
    /// let y = rng.gen_range(0usize..=4);
    /// assert!(y <= 4);
    /// ```
    pub fn gen_range<R: UniformRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
        self.next_f64() < p
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.bounded(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Picks a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.bounded(items.len() as u64) as usize]
    }

    /// Derives an independent child generator; the parent advances by
    /// one output. Useful for giving each component of a larger system
    /// its own decorrelated stream from one root seed.
    pub fn split(&mut self) -> Rng {
        Rng::from_seed(self.next_u64())
    }
}

/// Integer ranges [`Rng::gen_range`] can sample uniformly.
pub trait UniformRange {
    /// The sampled integer type.
    type Output;
    /// Draws one uniform value from the range.
    fn sample(self, rng: &mut Rng) -> Self::Output;
}

macro_rules! impl_uniform_range {
    ($($t:ty),*) => {$(
        impl UniformRange for Range<$t> {
            type Output = $t;
            fn sample(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "empty range {:?}", self);
                let span = (self.end - self.start) as u64;
                self.start + rng.bounded(span) as $t
            }
        }
        impl UniformRange for RangeInclusive<$t> {
            type Output = $t;
            fn sample(self, rng: &mut Rng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range {lo}..={hi}");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + rng.bounded(span + 1) as $t
            }
        }
    )*};
}

impl_uniform_range!(u8, u16, u32, u64, usize);

pub mod testing {
    //! A seeded randomized-test harness: the workspace's offline
    //! replacement for `proptest`.
    //!
    //! [`check`] runs a closure over a fixed corpus of seeds derived
    //! from the test's name, so every CI run explores the same cases;
    //! set `DECACHE_TEST_CASES` to raise (or lower) the corpus size
    //! when hunting for rare interleavings. On failure the panic
    //! message names the test, case index, and seed, and the failing
    //! case can be replayed alone via `DECACHE_TEST_SEED=<seed>`.

    use super::{Rng, SplitMix64};
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

    /// The default number of cases per [`check`] call.
    pub const DEFAULT_CASES: u32 = 64;

    /// The number of cases to run: `DECACHE_TEST_CASES` if set,
    /// otherwise `default`.
    pub fn cases(default: u32) -> u32 {
        match std::env::var("DECACHE_TEST_CASES") {
            Ok(v) => v
                .parse()
                .unwrap_or_else(|_| panic!("DECACHE_TEST_CASES={v} is not a number")),
            Err(_) => default,
        }
    }

    /// FNV-1a, used to give every named test its own seed corpus.
    fn fnv1a(name: &str) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for byte in name.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }

    /// Applies one random edit to `bytes` — overwrite, insert or delete
    /// one byte, or truncate — for fuzzing a parser with [`check`].
    /// Written bytes favour the structural characters of text formats
    /// (digits, quotes, brackets, separators), so a mutated document
    /// often still parses and reaches the code behind the parser.
    ///
    /// # Examples
    ///
    /// ```
    /// decache_rng::testing::check("mutate_example", 8, |rng| {
    ///     let mut doc = b"{\"a\":[1,2]}".to_vec();
    ///     decache_rng::testing::mutate_bytes(rng, &mut doc);
    ///     assert!(doc.len() <= 12);
    /// });
    /// ```
    pub fn mutate_bytes(rng: &mut Rng, bytes: &mut Vec<u8>) {
        const STRUCTURAL: &[u8] = b"0123456789\"{}[],:-.eEnul\\ ";
        let byte = |rng: &mut Rng| {
            if rng.gen_bool(0.75) {
                *rng.choose(STRUCTURAL)
            } else {
                rng.gen_range(0..=u8::MAX)
            }
        };
        let at = rng.gen_range(0..=bytes.len());
        match rng.gen_range(0..10u32) {
            0..=4 if at < bytes.len() => bytes[at] = byte(rng),
            5 | 6 => bytes.insert(at, byte(rng)),
            7 | 8 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => bytes.truncate(at),
        }
    }

    /// Runs `body` over `n` seeded cases (see [`cases`] for `n`). The
    /// corpus is fixed per `name`, so failures reproduce across runs;
    /// a failing case panics with its seed, and
    /// `DECACHE_TEST_SEED=<seed>` replays exactly that case.
    ///
    /// # Examples
    ///
    /// ```
    /// decache_rng::testing::check("doc_example", 8, |rng| {
    ///     let x = rng.gen_range(0u64..100);
    ///     assert!(x < 100);
    /// });
    /// ```
    pub fn check(name: &str, default_cases: u32, mut body: impl FnMut(&mut Rng)) {
        if let Ok(seed) = std::env::var("DECACHE_TEST_SEED") {
            let seed: u64 = seed
                .parse()
                .unwrap_or_else(|_| panic!("DECACHE_TEST_SEED must be a u64"));
            body(&mut Rng::from_seed(seed));
            return;
        }
        let mut corpus = SplitMix64::new(fnv1a(name));
        for case in 0..cases(default_cases) {
            let seed = corpus.next_u64();
            let result = catch_unwind(AssertUnwindSafe(|| body(&mut Rng::from_seed(seed))));
            if let Err(cause) = result {
                eprintln!(
                    "randomized test '{name}' failed at case {case} \
                     (replay with DECACHE_TEST_SEED={seed})"
                );
                resume_unwind(cause);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_streams_are_decorrelated() {
        let mut root = Rng::from_seed(1);
        let mut a = root.split();
        let mut b = root.split();
        let collisions = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(collisions, 0);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::from_seed(5);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v, sorted,
            "a 100-element shuffle virtually never fixes everything"
        );
    }

    #[test]
    fn choose_covers_all_elements() {
        let mut rng = Rng::from_seed(11);
        let items = [1u8, 2, 3, 4];
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[(*rng.choose(&items) - 1) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        Rng::from_seed(0).gen_range(5u64..5);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn bad_probability_panics() {
        Rng::from_seed(0).gen_bool(1.5);
    }

    #[test]
    fn state_round_trip_resumes_stream_exactly() {
        let mut rng = Rng::from_seed(17);
        for _ in 0..10 {
            rng.next_u64();
        }
        let mut resumed = Rng::from_state(rng.state());
        for _ in 0..64 {
            assert_eq!(rng.next_u64(), resumed.next_u64());
        }
    }

    #[test]
    fn full_u64_inclusive_range_does_not_overflow() {
        let mut rng = Rng::from_seed(2);
        let _ = rng.gen_range(0u64..=u64::MAX);
    }

    #[test]
    fn gen_bool_edge_probabilities() {
        let mut rng = Rng::from_seed(3);
        assert!(!(0..64).any(|_| rng.gen_bool(0.0)));
        assert!((0..64).all(|_| rng.gen_bool(1.0)));
    }
}

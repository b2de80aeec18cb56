//! Cycle-attribution histograms: where a stalled operation's cycles go.
//!
//! The paper's evaluation is entirely about *measured* quantities — bus
//! utilization, miss ratios, efficiency as `n` grows — and every one of
//! those aggregates hides a distribution. This module records four of
//! them from the machine's existing cycle phases, as fixed power-of-2
//! bucket histograms:
//!
//! * **bus-acquire wait** — cycles a granted transaction spent queued
//!   since it last entered arbitration (retries re-arm the clock, so
//!   each grant measures one arbitration wait);
//! * **memory service** — bus occupancy charged per transaction that
//!   actually touched memory (reads served by memory, completed writes,
//!   supplier substitutions, eviction and drain write-backs — not
//!   invalidates, which carry no data, and not lock-rejected attempts);
//! * **read-miss fill** — cycles from a plain read miss to its value
//!   arriving, whether via the PE's own bus read or a snooped broadcast;
//! * **TS lock-spin** — cycles from a Test-and-Set's locked read being
//!   issued to the attempt resolving (acquired or failed), lock
//!   rejections included.
//!
//! Recording is gated exactly like fault injection's
//! `faults_possible()`: a machine built without
//! [`MachineBuilder::telemetry`](crate::MachineBuilder::telemetry) holds
//! no recorder and pays one `Option` test per hook. Recording is pure
//! observation — enabling it changes **zero** simulated statistics (the
//! fingerprint suite pins this bit-exactly).

use std::fmt;

/// Number of buckets: one for zero plus one per power of two up to
/// `2^63`.
const BUCKETS: usize = 65;

/// A fixed-bucket latency histogram with power-of-2 bucket boundaries.
///
/// Bucket 0 counts exact zeros; bucket `i` (for `i >= 1`) counts values
/// in `[2^(i-1), 2^i)`. The shape is fixed so histograms from different
/// runs merge bucket-by-bucket without rebinning.
///
/// # Examples
///
/// ```
/// use decache_machine::Histogram;
///
/// let mut h = Histogram::new();
/// h.record(0);
/// h.record(1);
/// h.record(5); // falls in [4, 8)
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.sum(), 6);
/// assert_eq!(h.max(), 5);
/// assert_eq!(h.bucket_count(Histogram::bucket_of(5)), 1);
/// assert_eq!(Histogram::bucket_floor(Histogram::bucket_of(5)), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// The bucket index holding `value`: 0 for zero, else
    /// `1 + floor(log2(value))`.
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// The smallest value falling in bucket `index` (0 for buckets 0
    /// and 1, else `2^(index-1)`).
    ///
    /// # Panics
    ///
    /// Panics if `index >= 65`.
    pub fn bucket_floor(index: usize) -> u64 {
        assert!(index < BUCKETS, "bucket {index} out of range");
        match index {
            0 => 0,
            i => 1u64 << (i - 1),
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The largest sample seen (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The mean sample, or 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The sample count in bucket `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 65`.
    pub fn bucket_count(&self, index: usize) -> u64 {
        self.buckets[index]
    }

    /// The non-empty buckets as `(floor, count)` pairs, in ascending
    /// floor order.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_floor(i), c))
            .collect()
    }

    /// All 65 per-bucket counts, bucket 0 first — with the moments,
    /// the checkpoint form. Round-trips exactly through
    /// [`Histogram::from_checkpoint`].
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Reconstructs a histogram from its [`Histogram::buckets`] and
    /// moments.
    ///
    /// # Errors
    ///
    /// Returns an error if `buckets` does not have exactly 65 entries
    /// (the fixed bucket shape), or if `count` disagrees with the
    /// bucket totals (including a total that overflows).
    pub fn from_checkpoint(
        buckets: &[u64],
        count: u64,
        sum: u64,
        max: u64,
    ) -> Result<Self, String> {
        let raw: [u64; BUCKETS] = buckets.try_into().map_err(|_| {
            format!(
                "histogram has {} buckets, expected {BUCKETS}",
                buckets.len()
            )
        })?;
        let total = raw.iter().try_fold(0u64, |sum, &b| sum.checked_add(b));
        if total != Some(count) {
            let total = total.map_or("overflowing".to_owned(), |t| t.to_string());
            return Err(format!(
                "histogram count {count} disagrees with bucket total {total}"
            ));
        }
        Ok(Histogram {
            buckets: raw,
            count,
            sum,
            max,
        })
    }

    /// Merges another histogram into this one, bucket by bucket.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.1} max={}",
            self.count,
            self.mean(),
            self.max
        )
    }
}

/// The four cycle-attribution histograms a telemetry-enabled machine
/// maintains; read via
/// [`Machine::histograms`](crate::Machine::histograms).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CycleHistograms {
    /// Cycles each granted transaction waited in arbitration since it
    /// last entered the queue. Population: one sample per completed
    /// bus transaction that went through a grant — total transactions
    /// minus eviction write-backs and fail-stop drains, which are
    /// charged without arbitration.
    pub bus_acquire_wait: Histogram,
    /// Bus occupancy charged per transaction that accessed memory.
    /// Population: reads + writes (all kinds) minus lock rejections.
    pub memory_service: Histogram,
    /// Cycles from a plain read miss to its fill. Population: bus
    /// reads completed plus broadcast-satisfied reads.
    pub read_fill: Histogram,
    /// Cycles from a Test-and-Set's locked read being issued to the
    /// attempt resolving. Population: TS successes + failures.
    pub ts_spin: Histogram,
}

/// The live recorder of a telemetry-enabled machine: the histograms
/// plus the per-PE start-cycle scratchpads the hooks sample against.
#[derive(Debug)]
pub(crate) struct TelemetryState {
    pub(crate) hist: CycleHistograms,
    /// Cycle at which each PE's outstanding transaction last entered a
    /// bus queue (enqueue, requeue, or retry).
    pub(crate) enqueued_at: Vec<u64>,
    /// Cycle at which each PE's pending plain read missed.
    pub(crate) read_since: Vec<u64>,
    /// Cycle at which each PE's Test-and-Set issued its locked read.
    pub(crate) ts_since: Vec<u64>,
}

impl TelemetryState {
    pub(crate) fn new(pes: usize) -> Self {
        TelemetryState {
            hist: CycleHistograms::default(),
            enqueued_at: vec![0; pes],
            read_since: vec![0; pes],
            ts_since: vec![0; pes],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        assert_eq!(Histogram::bucket_floor(0), 0);
        assert_eq!(Histogram::bucket_floor(1), 1);
        assert_eq!(Histogram::bucket_floor(5), 16);
    }

    #[test]
    fn every_value_lands_in_its_bucket_range() {
        for value in [0u64, 1, 2, 3, 7, 8, 1023, 1024, u64::MAX] {
            let b = Histogram::bucket_of(value);
            assert!(Histogram::bucket_floor(b) <= value);
            if b < BUCKETS - 1 {
                let next_floor = Histogram::bucket_floor(b + 1);
                assert!(value < next_floor || next_floor <= Histogram::bucket_floor(b));
            }
        }
    }

    #[test]
    fn record_tracks_count_sum_max() {
        let mut h = Histogram::new();
        for v in [3u64, 0, 17, 9] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 29);
        assert_eq!(h.max(), 17);
        assert!((h.mean() - 29.0 / 4.0).abs() < 1e-12);
        assert_eq!(h.nonzero_buckets().iter().map(|&(_, c)| c).sum::<u64>(), 4);
    }

    #[test]
    fn checkpoint_round_trip_is_exact() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 5, 5, 1023, u64::MAX] {
            h.record(v);
        }
        let (buckets, count, sum, max) = (h.buckets(), h.count(), h.sum(), h.max());
        let back = Histogram::from_checkpoint(buckets, count, sum, max).unwrap();
        assert_eq!(back, h);
        // Shape and consistency violations are structured errors.
        assert!(Histogram::from_checkpoint(&buckets[1..], count, sum, max).is_err());
        assert!(Histogram::from_checkpoint(buckets, count + 1, sum, max).is_err());
        let mut overflowing = buckets.to_vec();
        overflowing[0] = u64::MAX;
        assert!(Histogram::from_checkpoint(&overflowing, count, sum, max).is_err());
    }

    #[test]
    fn merge_is_componentwise() {
        let mut a = Histogram::new();
        a.record(1);
        a.record(100);
        let mut b = Histogram::new();
        b.record(1);
        b.record(7);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.sum(), 109);
        assert_eq!(a.max(), 100);
        assert_eq!(a.bucket_count(Histogram::bucket_of(1)), 2);
    }

    #[test]
    fn display_names_the_moments() {
        let mut h = Histogram::new();
        h.record(4);
        let text = h.to_string();
        assert!(text.contains("n=1"));
        assert!(text.contains("max=4"));
    }
}

//! The unified metrics snapshot: every counter the machine exposes,
//! gathered into one typed, serializable tree.
//!
//! [`MetricsSnapshot::from_machine`] is the single reading point for
//! cache, bus, machine, fault, and histogram statistics; everything the
//! bench bins and experiment tables report is derived from it. The
//! snapshot holds the machine's own counter types ([`CacheStats`],
//! [`TrafficStats`], [`MachineStats`], [`FaultStats`]) unchanged; this
//! module adds only their schema-1 JSON codec and the cross-counter
//! audit. The serialized form contains **only raw integer counters**
//! (never derived ratios), so a snapshot round-trips through JSON
//! exactly and two snapshots merge with the counters' own `checked_add`.

use crate::json::{field, uint, Json};
use decache_bus::{BusOpKind, TrafficStats};
use decache_cache::CacheStats;
use decache_machine::{FaultStats, Histogram, Machine, MachineStats};

/// Schema version stamped into every serialized snapshot.
pub const SCHEMA_VERSION: u64 = 1;

const KINDS: [&str; 2] = ["read", "write"];
const CLASSES: [&str; 3] = ["code", "local", "shared"];

/// Like [`uint`] but treats an absent field as 0, for counters added
/// after snapshots of this schema version were first written.
pub(crate) fn uint_or_zero(value: &Json, key: &str) -> Result<u64, String> {
    match value.get(key) {
        None => Ok(0),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| format!("field '{key}' is not an integer")),
    }
}

/// Encodes one PE's counters as `{hits|misses: {read|write: {code|local|shared}}}`.
fn cache_to_json(stats: &CacheStats) -> Json {
    let table = |t: &[[u64; 3]; 2]| {
        Json::Object(
            KINDS
                .iter()
                .zip(t)
                .map(|(kind, row)| {
                    let cells = CLASSES.iter().zip(row);
                    let cells = cells.map(|(class, &v)| ((*class).to_owned(), Json::U64(v)));
                    ((*kind).to_owned(), Json::Object(cells.collect()))
                })
                .collect(),
        )
    };
    Json::object(vec![
        ("hits", table(&stats.hits)),
        ("misses", table(&stats.misses)),
    ])
}

fn cache_from_json(value: &Json) -> Result<CacheStats, String> {
    let table = |key: &str| -> Result<[[u64; 3]; 2], String> {
        let table = field(value, key)?;
        let mut out = [[0u64; 3]; 2];
        for (row, kind) in out.iter_mut().zip(KINDS) {
            let cells = field(table, kind)?;
            for (cell, class) in row.iter_mut().zip(CLASSES) {
                *cell = uint(cells, class)?;
            }
        }
        Ok(out)
    };
    Ok(CacheStats {
        hits: table("hits")?,
        misses: table("misses")?,
    })
}

/// Snapshot key of each bus transaction kind, in [`BusOpKind::ALL`]
/// order (the order of [`TrafficStats::counts`]).
const BUS_KINDS: [&str; 5] = [
    "reads",
    "writes",
    "invalidates",
    "locked_reads",
    "unlock_writes",
];

fn bus_to_json(t: &TrafficStats) -> Json {
    let counts = BUS_KINDS
        .iter()
        .zip(t.counts)
        .map(|(k, v)| (*k, Json::U64(v)));
    let mut fields: Vec<_> = counts.collect();
    fields.extend([
        ("aborted_reads", Json::U64(t.aborted_reads)),
        ("retries", Json::U64(t.retries)),
        ("busy_cycles", Json::U64(t.busy_cycles)),
        ("idle_cycles", Json::U64(t.idle_cycles)),
        ("address_phases", Json::U64(t.address_phases)),
    ]);
    Json::object(fields)
}

fn bus_from_json(value: &Json) -> Result<TrafficStats, String> {
    let mut counts = [0u64; 5];
    for (count, key) in counts.iter_mut().zip(BUS_KINDS) {
        *count = uint(value, key)?;
    }
    Ok(TrafficStats {
        counts,
        aborted_reads: uint(value, "aborted_reads")?,
        retries: uint(value, "retries")?,
        busy_cycles: uint(value, "busy_cycles")?,
        idle_cycles: uint(value, "idle_cycles")?,
        // Postdates the first schema-1 snapshots; absent means a run
        // under a non-split discipline that never counted it.
        address_phases: uint_or_zero(value, "address_phases")?,
    })
}

fn machine_to_json(s: &MachineStats) -> Json {
    Json::object(vec![
        ("broadcast_satisfied", Json::U64(s.broadcast_satisfied)),
        ("writebacks", Json::U64(s.writebacks)),
        ("ts_successes", Json::U64(s.ts_successes)),
        ("ts_failures", Json::U64(s.ts_failures)),
        ("lock_rejections", Json::U64(s.lock_rejections)),
        ("lock_rejected_reads", Json::U64(s.lock_rejected_reads)),
        ("lock_rejected_writes", Json::U64(s.lock_rejected_writes)),
        ("tag_probes", Json::U64(s.tag_probes)),
        ("sharer_visits", Json::U64(s.sharer_visits)),
        ("queue_scans", Json::U64(s.queue_scans)),
        ("split_cancels", Json::U64(s.split_cancels)),
    ])
}

/// Decodes [`MachineStats`] from either codec's object (key order is
/// irrelevant to decoding). `late` reads the four counters added after
/// the first schema-1 snapshots: the snapshot reads an absent one as
/// 0, the checkpoint requires them.
pub(crate) fn machine_from_json(
    value: &Json,
    late: fn(&Json, &str) -> Result<u64, String>,
) -> Result<MachineStats, String> {
    Ok(MachineStats {
        broadcast_satisfied: uint(value, "broadcast_satisfied")?,
        writebacks: uint(value, "writebacks")?,
        ts_successes: uint(value, "ts_successes")?,
        ts_failures: uint(value, "ts_failures")?,
        lock_rejections: uint(value, "lock_rejections")?,
        lock_rejected_reads: uint(value, "lock_rejected_reads")?,
        lock_rejected_writes: uint(value, "lock_rejected_writes")?,
        tag_probes: late(value, "tag_probes")?,
        sharer_visits: late(value, "sharer_visits")?,
        queue_scans: late(value, "queue_scans")?,
        split_cancels: late(value, "split_cancels")?,
    })
}

/// Defines the one codec of [`FaultStats`]: snapshots and checkpoints
/// write the fault counters identically, keyed by field name in the
/// listed order. The struct literal makes a counter missing from the
/// list a compile error.
macro_rules! fault_codec {
    ($($counter:ident),* $(,)?) => {
        pub(crate) fn faults_to_json(stats: &FaultStats) -> Json {
            Json::object(vec![$((stringify!($counter), Json::U64(stats.$counter))),*])
        }

        pub(crate) fn faults_from_json(value: &Json) -> Result<FaultStats, String> {
            Ok(FaultStats {
                $($counter: uint(value, stringify!($counter))?),*
            })
        }
    };
}

fault_codec!(
    memory_faults_injected,
    cache_faults_injected,
    bus_transactions_lost,
    pe_fail_stops,
    memory_faults_detected,
    cache_faults_detected,
    memory_recoveries_owner,
    memory_recoveries_majority,
    memory_recoveries_failed,
    cache_refetches,
    broadcast_heals,
    lost_writes,
    drained_lines,
    forced_unlocks,
    recovery_latency_total,
    recovery_latency_samples,
    replicas_at_recovery,
);

/// A serialized latency histogram: the moments plus the non-empty
/// power-of-2 buckets as `(floor, count)` pairs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total samples.
    pub count: u64,
    /// Sum of all samples (saturating).
    pub sum: u64,
    /// The largest sample.
    pub max: u64,
    /// Non-empty buckets, ascending by floor.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    fn from_histogram(h: &Histogram) -> Self {
        HistogramSnapshot {
            count: h.count(),
            sum: h.sum(),
            max: h.max(),
            buckets: h.nonzero_buckets(),
        }
    }

    /// The mean sample, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Adds `other`'s samples; `None` if a count overflows `u64`, with
    /// `self` partly merged.
    fn checked_merge(&mut self, other: &HistogramSnapshot) -> Option<()> {
        self.count = self.count.checked_add(other.count)?;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
        for &(floor, count) in &other.buckets {
            match self.buckets.binary_search_by_key(&floor, |&(f, _)| f) {
                Ok(i) => self.buckets[i].1 = self.buckets[i].1.checked_add(count)?,
                Err(i) => self.buckets.insert(i, (floor, count)),
            }
        }
        Some(())
    }

    fn to_json(&self) -> Json {
        Json::object(vec![
            ("count", Json::U64(self.count)),
            ("sum", Json::U64(self.sum)),
            ("max", Json::U64(self.max)),
            (
                "buckets",
                Json::Array(
                    self.buckets
                        .iter()
                        .map(|&(floor, count)| {
                            Json::Array(vec![Json::U64(floor), Json::U64(count)])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(value: &Json) -> Result<Self, String> {
        let buckets = field(value, "buckets")?;
        let buckets = buckets
            .as_array()
            .ok_or("'buckets' is not an array")?
            .iter()
            .map(|pair| {
                let pair = pair.as_array().ok_or("bucket is not a pair")?;
                match pair {
                    [floor, count] => Ok((
                        floor.as_u64().ok_or("bucket floor is not an integer")?,
                        count.as_u64().ok_or("bucket count is not an integer")?,
                    )),
                    _ => Err("bucket is not a pair".to_owned()),
                }
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(HistogramSnapshot {
            count: uint(value, "count")?,
            sum: uint(value, "sum")?,
            max: uint(value, "max")?,
            buckets,
        })
    }
}

/// The four cycle-attribution histograms in serialized form.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSet {
    /// Arbitration wait per granted transaction.
    pub bus_acquire_wait: HistogramSnapshot,
    /// Bus occupancy per memory-touching transaction.
    pub memory_service: HistogramSnapshot,
    /// Read-miss-to-fill latency.
    pub read_fill: HistogramSnapshot,
    /// Test-and-Set issue-to-resolution spin length.
    pub ts_spin: HistogramSnapshot,
}

impl HistogramSet {
    fn checked_merge(&mut self, other: &HistogramSet) -> Option<()> {
        self.bus_acquire_wait
            .checked_merge(&other.bus_acquire_wait)?;
        self.memory_service.checked_merge(&other.memory_service)?;
        self.read_fill.checked_merge(&other.read_fill)?;
        self.ts_spin.checked_merge(&other.ts_spin)
    }

    fn to_json(&self) -> Json {
        Json::object(vec![
            ("bus_acquire_wait", self.bus_acquire_wait.to_json()),
            ("memory_service", self.memory_service.to_json()),
            ("read_fill", self.read_fill.to_json()),
            ("ts_spin", self.ts_spin.to_json()),
        ])
    }

    fn from_json(value: &Json) -> Result<Self, String> {
        Ok(HistogramSet {
            bus_acquire_wait: HistogramSnapshot::from_json(field(value, "bus_acquire_wait")?)?,
            memory_service: HistogramSnapshot::from_json(field(value, "memory_service")?)?,
            read_fill: HistogramSnapshot::from_json(field(value, "read_fill")?)?,
            ts_spin: HistogramSnapshot::from_json(field(value, "ts_spin")?)?,
        })
    }
}

/// One unified snapshot of every statistic a machine exposes.
///
/// # Examples
///
/// ```
/// use decache_core::ProtocolKind;
/// use decache_machine::{MachineBuilder, Script};
/// use decache_mem::{Addr, Word};
/// use decache_telemetry::MetricsSnapshot;
///
/// let mut machine = MachineBuilder::new(ProtocolKind::Rwb)
///     .telemetry()
///     .processor(Script::new().write(Addr::new(0), Word::ONE).build())
///     .processor(Script::new().read(Addr::new(0)).build())
///     .build();
/// machine.run_to_completion(1_000);
///
/// let snapshot = MetricsSnapshot::from_machine(&machine);
/// snapshot.check_conservation().unwrap();
/// let back = MetricsSnapshot::parse(&snapshot.to_json_string()).unwrap();
/// assert_eq!(back, snapshot);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// The coherence protocol's display name (e.g. `"RWB"`).
    pub protocol: String,
    /// Processing elements in the machine.
    pub pes: u64,
    /// Shared buses in the machine.
    pub buses: u64,
    /// Elapsed bus cycles.
    pub cycles: u64,
    /// Runs merged into this snapshot (1 for a fresh one).
    pub runs: u64,
    /// Per-PE cache hit/miss counters.
    pub cache_per_pe: Vec<CacheStats>,
    /// Per-bus traffic counters.
    pub bus_per_bus: Vec<TrafficStats>,
    /// Machine-level counters.
    pub machine: MachineStats,
    /// Fault-injection and recovery counters.
    pub faults: FaultStats,
    /// Cycle-attribution histograms; `None` when the machine was built
    /// without [`MachineBuilder::telemetry`].
    ///
    /// [`MachineBuilder::telemetry`]: decache_machine::MachineBuilder::telemetry
    pub histograms: Option<HistogramSet>,
}

impl MetricsSnapshot {
    /// Reads every counter out of a machine.
    pub fn from_machine(machine: &Machine) -> Self {
        let traffic = machine.traffic_per_bus();
        MetricsSnapshot {
            protocol: machine.protocol().name().to_owned(),
            pes: machine.pe_count() as u64,
            buses: machine.bus_count() as u64,
            cycles: machine.cycles(),
            runs: 1,
            cache_per_pe: (0..machine.pe_count())
                .map(|pe| machine.cache_stats(pe))
                .collect(),
            bus_per_bus: (0..machine.bus_count()).map(|b| *traffic.bus(b)).collect(),
            machine: machine.stats(),
            faults: machine.fault_stats(),
            histograms: machine.histograms().map(|h| HistogramSet {
                bus_acquire_wait: HistogramSnapshot::from_histogram(&h.bus_acquire_wait),
                memory_service: HistogramSnapshot::from_histogram(&h.memory_service),
                read_fill: HistogramSnapshot::from_histogram(&h.read_fill),
                ts_spin: HistogramSnapshot::from_histogram(&h.ts_spin),
            }),
        }
    }

    /// Cache counters summed over all PEs.
    pub fn cache_total(&self) -> CacheStats {
        self.cache_per_pe
            .iter()
            .fold(CacheStats::default(), |a, &b| a + b)
    }

    /// Traffic counters summed over all buses.
    pub fn bus_total(&self) -> TrafficStats {
        self.bus_per_bus
            .iter()
            .fold(TrafficStats::default(), |a, &b| a + b)
    }

    /// Merges another run of the **same configuration** (protocol, PE
    /// count, bus count) into this snapshot by summing every counter.
    ///
    /// # Errors
    ///
    /// Returns a message, leaving `self` unchanged, if the
    /// configurations differ, if exactly one of the two snapshots
    /// carries histograms, or if a summed counter overflows `u64`.
    pub fn merge(&mut self, other: &MetricsSnapshot) -> Result<(), String> {
        if self.protocol != other.protocol {
            return Err(format!(
                "protocol mismatch: {} vs {}",
                self.protocol, other.protocol
            ));
        }
        if self.pes != other.pes || self.buses != other.buses {
            return Err(format!(
                "shape mismatch: {}x{} vs {}x{} (PEs x buses)",
                self.pes, self.buses, other.pes, other.buses
            ));
        }
        if self.histograms.is_some() != other.histograms.is_some() {
            return Err("histogram presence mismatch".to_owned());
        }
        *self = self
            .checked_sum(other)
            .ok_or("a merged counter overflows u64")?;
        Ok(())
    }

    /// `self` with every counter of `other` added, or `None` if any
    /// sum overflows `u64`.
    fn checked_sum(&self, other: &MetricsSnapshot) -> Option<MetricsSnapshot> {
        let mut sum = self.clone();
        sum.cycles = sum.cycles.checked_add(other.cycles)?;
        sum.runs = sum.runs.checked_add(other.runs)?;
        for (mine, &theirs) in sum.cache_per_pe.iter_mut().zip(&other.cache_per_pe) {
            *mine = mine.checked_add(theirs)?;
        }
        for (mine, &theirs) in sum.bus_per_bus.iter_mut().zip(&other.bus_per_bus) {
            *mine = mine.checked_add(theirs)?;
        }
        sum.machine = sum.machine.checked_add(other.machine)?;
        sum.faults = sum.faults.checked_add(other.faults)?;
        if let (Some(mine), Some(theirs)) = (&mut sum.histograms, &other.histograms) {
            mine.checked_merge(theirs)?;
        }
        Some(sum)
    }

    /// Serializes to the versioned JSON schema.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("schema", Json::U64(SCHEMA_VERSION)),
            ("protocol", Json::Str(self.protocol.clone())),
            ("pes", Json::U64(self.pes)),
            ("buses", Json::U64(self.buses)),
            ("cycles", Json::U64(self.cycles)),
            ("runs", Json::U64(self.runs)),
            (
                "cache_per_pe",
                Json::Array(self.cache_per_pe.iter().map(cache_to_json).collect()),
            ),
            (
                "bus_per_bus",
                Json::Array(self.bus_per_bus.iter().map(bus_to_json).collect()),
            ),
            ("machine", machine_to_json(&self.machine)),
            ("faults", faults_to_json(&self.faults)),
        ];
        if let Some(h) = &self.histograms {
            fields.push(("histograms", h.to_json()));
        }
        Json::object(fields)
    }

    /// The canonical compact JSON text.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }

    /// Reconstructs a snapshot from its JSON form.
    ///
    /// # Errors
    ///
    /// Returns a message for a missing or ill-typed field, or an
    /// unsupported schema version.
    pub fn from_json(value: &Json) -> Result<Self, String> {
        let schema = uint(value, "schema")?;
        if schema != SCHEMA_VERSION {
            return Err(format!(
                "unsupported snapshot schema {schema} (expected {SCHEMA_VERSION})"
            ));
        }
        let cache_per_pe = field(value, "cache_per_pe")?
            .as_array()
            .ok_or("'cache_per_pe' is not an array")?
            .iter()
            .map(cache_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let bus_per_bus = field(value, "bus_per_bus")?
            .as_array()
            .ok_or("'bus_per_bus' is not an array")?
            .iter()
            .map(bus_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(MetricsSnapshot {
            protocol: field(value, "protocol")?
                .as_str()
                .ok_or("'protocol' is not a string")?
                .to_owned(),
            pes: uint(value, "pes")?,
            buses: uint(value, "buses")?,
            cycles: uint(value, "cycles")?,
            runs: uint(value, "runs")?,
            cache_per_pe,
            bus_per_bus,
            machine: machine_from_json(field(value, "machine")?, uint_or_zero)?,
            faults: faults_from_json(field(value, "faults")?)?,
            histograms: match value.get("histograms") {
                Some(h) => Some(HistogramSet::from_json(h)?),
                None => None,
            },
        })
    }

    /// Parses a snapshot from JSON text.
    ///
    /// # Errors
    ///
    /// Returns a message for malformed JSON or a schema mismatch.
    pub fn parse(text: &str) -> Result<Self, String> {
        Self::from_json(&Json::parse(text)?)
    }

    /// Checks every cross-counter identity that holds for **any**
    /// snapshot — fault-free or fault-laden, fresh or merged. The
    /// seeded conservation suite layers stricter fault-free identities
    /// on top.
    ///
    /// # Errors
    ///
    /// Returns the list of violated identities.
    pub fn check_conservation(&self) -> Result<(), Vec<String>> {
        let mut violations = Vec::new();
        // Parsed counters can be hostile, so every sum is checked: an
        // identity whose terms overflow `u64` is violated, never a
        // panic.
        let mut check = |ok: Option<bool>, what: String| match ok {
            Some(true) => {}
            Some(false) => violations.push(what),
            None => violations.push(format!("{what}: overflows u64")),
        };
        let m = &self.machine;
        let f = &self.faults;

        check(
            Some(self.cache_per_pe.len() as u64 == self.pes),
            format!(
                "per-PE cache vector length {} != pes {}",
                self.cache_per_pe.len(),
                self.pes
            ),
        );
        check(
            Some(self.bus_per_bus.len() as u64 == self.buses),
            format!(
                "per-bus vector length {} != buses {}",
                self.bus_per_bus.len(),
                self.buses
            ),
        );
        let bus = self
            .bus_per_bus
            .iter()
            .try_fold(TrafficStats::default(), |a, &b| a.checked_add(b));
        let cache = self
            .cache_per_pe
            .iter()
            .try_fold(CacheStats::default(), |a, &b| a.checked_add(b));
        let (Some(bus), Some(cache)) = (bus, cache) else {
            check(None, "per-bus or per-PE counter totals".to_owned());
            return Err(violations);
        };
        let transactions = checked_sum(bus.counts);
        let ts_attempts = checked_sum([m.ts_failures, m.ts_successes]);

        // Rejection split: every rejection is exactly one locked read
        // or one plain write.
        check(
            checked_sum([m.lock_rejected_reads, m.lock_rejected_writes])
                .map(|split| split == m.lock_rejections),
            format!(
                "lock rejections {} != rejected reads {} + rejected writes {}",
                m.lock_rejections, m.lock_rejected_reads, m.lock_rejected_writes
            ),
        );

        // Every unlocking write completes exactly one successful TS
        // (BWU cannot be rejected; a cancelled one is never granted).
        check(
            Some(bus.count(BusOpKind::WriteWithUnlock) == m.ts_successes),
            format!(
                "BWU {} != TS successes {}",
                bus.count(BusOpKind::WriteWithUnlock),
                m.ts_successes
            ),
        );

        // Locked reads: one accepted BRL resolves each TS attempt, one
        // rejected BRL per rejected locked read; a fail-stop can cancel
        // an attempt after its BRL was accepted but before resolution.
        let locked_reads = bus.count(BusOpKind::ReadWithLock);
        let fewest = ts_attempts.and_then(|t| t.checked_add(m.lock_rejected_reads));
        let most = fewest.and_then(|l| l.checked_add(f.pe_fail_stops));
        check(
            fewest
                .zip(most)
                .map(|(fewest, most)| (fewest..=most).contains(&locked_reads)),
            format!(
                "BRL {} outside [TS attempts {} + rejected reads {}, +fail-stops {}]",
                locked_reads,
                shown(ts_attempts),
                m.lock_rejected_reads,
                f.pe_fail_stops
            ),
        );

        // A broadcast can satisfy at most the n-1 other PEs per
        // transaction.
        let satisfiable = transactions.map(|t| self.pes.saturating_sub(1).saturating_mul(t));
        check(
            satisfiable.map(|most| m.broadcast_satisfied <= most),
            format!(
                "broadcasts satisfied {} > (pes-1) x transactions {}",
                m.broadcast_satisfied,
                shown(satisfiable)
            ),
        );

        // Work-unit identities (skipped for legacy snapshots that
        // predate the counters and parsed them as all-zero). Every
        // sharer or pending-reader visit probes exactly one tag store,
        // every issued CPU reference probes one, and every
        // broadcast-satisfied read was one pending-reader visit — on
        // both the scanned and the batched dispatch path.
        if [m.tag_probes, m.sharer_visits, m.queue_scans] != [0; 3] {
            check(
                Some(m.tag_probes >= m.sharer_visits),
                format!(
                    "tag probes {} < sharer visits {}",
                    m.tag_probes, m.sharer_visits
                ),
            );
            check(
                Some(m.sharer_visits >= m.broadcast_satisfied),
                format!(
                    "sharer visits {} < broadcasts satisfied {}",
                    m.sharer_visits, m.broadcast_satisfied
                ),
            );
            let references = checked_sum(cache.hits.iter().chain(&cache.misses).flatten().copied());
            check(
                references.map(|refs| m.tag_probes >= refs),
                format!(
                    "tag probes {} < cache references {}",
                    m.tag_probes,
                    shown(references)
                ),
            );
            check(
                Some(m.queue_scans <= self.cycles.saturating_mul(self.buses)),
                format!(
                    "queue scans {} > cycles {} x buses {}",
                    m.queue_scans, self.cycles, self.buses
                ),
            );
        }

        // Address phases are busy cycles the split discipline charges
        // without a transaction completion; other disciplines never
        // record one.
        for (i, b) in self.bus_per_bus.iter().enumerate() {
            check(
                Some(b.address_phases <= b.busy_cycles),
                format!(
                    "bus {i}: address phases {} > busy cycles {}",
                    b.address_phases, b.busy_cycles
                ),
            );
        }

        // Eviction write-backs and fail-stop drains are each charged
        // one bus write.
        check(
            checked_sum([m.writebacks, f.drained_lines])
                .map(|charged| charged <= bus.count(BusOpKind::Write)),
            format!(
                "writebacks {} + drained {} > bus writes {}",
                m.writebacks,
                f.drained_lines,
                bus.count(BusOpKind::Write)
            ),
        );

        // Every detected memory fault reaches the repair policy exactly
        // once.
        let recovery_attempts = checked_sum([
            f.memory_recoveries_owner,
            f.memory_recoveries_majority,
            f.memory_recoveries_failed,
        ]);
        check(
            recovery_attempts.map(|attempts| attempts == f.memory_faults_detected),
            format!(
                "memory recovery attempts {} != detections {}",
                shown(recovery_attempts),
                f.memory_faults_detected
            ),
        );

        // Detecting a corrupted cache line and re-fetching it are the
        // same event.
        check(
            Some(f.cache_refetches == f.cache_faults_detected),
            format!(
                "cache refetches {} != cache detections {}",
                f.cache_refetches, f.cache_faults_detected
            ),
        );

        // Each detection or heal closes at most one latency ledger
        // entry.
        let detections = checked_sum([f.memory_faults_detected, f.cache_faults_detected]);
        check(
            detections
                .and_then(|d| d.checked_add(f.broadcast_heals))
                .map(|closable| f.recovery_latency_samples <= closable),
            format!(
                "latency samples {} > detections {} + heals {}",
                f.recovery_latency_samples,
                shown(detections),
                f.broadcast_heals
            ),
        );

        if let Some(h) = &self.histograms {
            // Histogram populations equal their driving counters —
            // exact even under faults. Each identity is stated as a
            // sum on both sides, so no term can underflow.
            // Split cancels sampled a wait at their address grant but
            // never complete a transaction, so they join the
            // ledger on the sample side.
            let samples = checked_sum([h.bus_acquire_wait.count, m.writebacks, f.drained_lines]);
            let granted = transactions.and_then(|t| t.checked_add(m.split_cancels));
            check(
                samples
                    .zip(granted)
                    .map(|(samples, granted)| samples == granted),
                format!(
                    "acquire-wait samples {} != transactions {} - writebacks {} - drained {} \
                     + split cancels {}",
                    h.bus_acquire_wait.count,
                    shown(transactions),
                    m.writebacks,
                    f.drained_lines,
                    m.split_cancels
                ),
            );
            // Under split every grant records exactly one address
            // phase; under other disciplines none do.
            check(
                Some(bus.address_phases <= h.bus_acquire_wait.count),
                format!(
                    "address phases {} > acquire-wait samples {}",
                    bus.address_phases, h.bus_acquire_wait.count
                ),
            );
            let reads = checked_sum([
                bus.count(BusOpKind::Read),
                bus.count(BusOpKind::ReadWithLock),
            ]);
            let writes = checked_sum([
                bus.count(BusOpKind::Write),
                bus.count(BusOpKind::WriteWithUnlock),
            ]);
            let served = checked_sum([h.memory_service.count, m.lock_rejections]);
            check(
                reads
                    .zip(writes)
                    .and_then(|(r, w)| r.checked_add(w))
                    .zip(served)
                    .map(|(touching, served)| touching == served),
                format!(
                    "memory-service samples {} != reads {} + writes {} - rejections {}",
                    h.memory_service.count,
                    shown(reads),
                    shown(writes),
                    m.lock_rejections
                ),
            );
            check(
                checked_sum([bus.count(BusOpKind::Read), m.broadcast_satisfied])
                    .map(|fills| fills == h.read_fill.count),
                format!(
                    "read-fill samples {} != BR {} + broadcasts satisfied {}",
                    h.read_fill.count,
                    bus.count(BusOpKind::Read),
                    m.broadcast_satisfied
                ),
            );
            check(
                ts_attempts.map(|attempts| attempts == h.ts_spin.count),
                format!(
                    "TS-spin samples {} != TS attempts {}",
                    h.ts_spin.count,
                    shown(ts_attempts)
                ),
            );
            for (name, hist) in [
                ("bus_acquire_wait", &h.bus_acquire_wait),
                ("memory_service", &h.memory_service),
                ("read_fill", &h.read_fill),
                ("ts_spin", &h.ts_spin),
            ] {
                let bucket_total = checked_sum(hist.buckets.iter().map(|&(_, c)| c));
                check(
                    bucket_total.map(|total| total == hist.count),
                    format!(
                        "{name}: bucket population {} != count {}",
                        shown(bucket_total),
                        hist.count
                    ),
                );
                if hist.count > 0 {
                    check(
                        Some(
                            hist.max <= hist.sum
                                && hist.sum <= hist.count.saturating_mul(hist.max.max(1)),
                        ),
                        format!(
                            "{name}: moments inconsistent (count={} sum={} max={})",
                            hist.count, hist.sum, hist.max
                        ),
                    );
                }
            }
        }

        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations)
        }
    }
}

/// The sum of `terms`, or `None` if it overflows `u64`.
fn checked_sum(terms: impl IntoIterator<Item = u64>) -> Option<u64> {
    terms.into_iter().try_fold(0u64, u64::checked_add)
}

/// A checked sum as a violation message shows it.
fn shown(total: Option<u64>) -> String {
    total.map_or_else(|| "(overflow)".to_owned(), |t| t.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use decache_core::ProtocolKind;
    use decache_machine::{MachineBuilder, Script};
    use decache_mem::{Addr, Word};

    fn sample_machine(telemetry: bool) -> Machine {
        let mut b = MachineBuilder::new(ProtocolKind::Rwb);
        b.memory_words(64).cache_lines(8);
        if telemetry {
            b.telemetry();
        }
        let mut machine = b
            .processor(
                Script::new()
                    .write(Addr::new(0), Word::new(7))
                    .test_and_set(Addr::new(1), Word::ONE)
                    .read(Addr::new(2))
                    .build(),
            )
            .processor(
                Script::new()
                    .read(Addr::new(0))
                    .test_and_set(Addr::new(1), Word::ONE)
                    .build(),
            )
            .build();
        machine.run_to_completion(10_000);
        machine
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        for telemetry in [false, true] {
            let machine = sample_machine(telemetry);
            let snapshot = MetricsSnapshot::from_machine(&machine);
            assert_eq!(snapshot.histograms.is_some(), telemetry);
            let text = snapshot.to_json_string();
            let back = MetricsSnapshot::parse(&text).unwrap();
            assert_eq!(back, snapshot);
            assert_eq!(back.to_json_string(), text, "canonical form is stable");
        }
    }

    #[test]
    fn snapshot_matches_machine_counters() {
        let machine = sample_machine(true);
        let snapshot = MetricsSnapshot::from_machine(&machine);
        assert_eq!(snapshot.protocol, "RWB");
        assert_eq!(snapshot.pes, 2);
        assert_eq!(snapshot.cycles, machine.cycles());
        assert_eq!(
            snapshot.cache_total().total_references(),
            machine.total_cache_stats().total_references()
        );
        assert_eq!(
            snapshot.bus_total().total_transactions(),
            machine.traffic().total_transactions()
        );
        assert_eq!(
            snapshot.machine.ts_attempts(),
            machine.stats().ts_attempts()
        );
        assert_eq!(
            snapshot.machine.work_units(),
            machine.stats().work_units(),
            "work-unit counters survive the snapshot"
        );
        assert!(snapshot.machine.tag_probes > 0);
    }

    #[test]
    fn legacy_snapshot_without_work_units_still_parses() {
        let machine = sample_machine(false);
        let snapshot = MetricsSnapshot::from_machine(&machine);
        let mut text = snapshot.to_json_string();
        for key in ["tag_probes", "sharer_visits", "queue_scans"] {
            let needle = format!(
                ",\"{key}\":{}",
                match key {
                    "tag_probes" => snapshot.machine.tag_probes,
                    "sharer_visits" => snapshot.machine.sharer_visits,
                    _ => snapshot.machine.queue_scans,
                }
            );
            assert!(text.contains(&needle), "expected {needle} in {text}");
            text = text.replace(&needle, "");
        }
        let back = MetricsSnapshot::parse(&text).unwrap();
        assert_eq!(back.machine.work_units(), 0, "absent counters read as 0");
        back.check_conservation()
            .expect("work-unit identities are skipped for legacy snapshots");
    }

    #[test]
    fn conservation_catches_doctored_work_units() {
        let machine = sample_machine(true);
        let mut snapshot = MetricsSnapshot::from_machine(&machine);
        snapshot.machine.sharer_visits = snapshot.machine.tag_probes + 1;
        let violations = snapshot.check_conservation().unwrap_err();
        assert!(
            violations.iter().any(|v| v.contains("tag probes")),
            "{violations:?}"
        );
    }

    #[test]
    fn conservation_holds_on_a_real_run() {
        let machine = sample_machine(true);
        MetricsSnapshot::from_machine(&machine)
            .check_conservation()
            .unwrap();
    }

    #[test]
    fn conservation_catches_a_doctored_counter() {
        let machine = sample_machine(true);
        let mut snapshot = MetricsSnapshot::from_machine(&machine);
        snapshot.machine.ts_successes += 1;
        let violations = snapshot.check_conservation().unwrap_err();
        assert!(!violations.is_empty());
    }

    #[test]
    fn merge_sums_counters() {
        let machine = sample_machine(true);
        let one = MetricsSnapshot::from_machine(&machine);
        let mut two = one.clone();
        two.merge(&one).unwrap();
        assert_eq!(two.runs, 2);
        assert_eq!(two.cycles, 2 * one.cycles);
        assert_eq!(
            two.cache_total().total_references(),
            2 * one.cache_total().total_references()
        );
        two.check_conservation().unwrap();

        let mut other = one.clone();
        other.protocol = "RB".to_owned();
        assert!(other.merge(&one).is_err());
    }

    #[test]
    fn histogram_merge_combines_buckets() {
        let mut a = HistogramSnapshot {
            count: 2,
            sum: 5,
            max: 4,
            buckets: vec![(1, 1), (4, 1)],
        };
        let b = HistogramSnapshot {
            count: 2,
            sum: 10,
            max: 8,
            buckets: vec![(4, 1), (8, 1)],
        };
        a.checked_merge(&b).unwrap();
        assert_eq!(a.count, 4);
        assert_eq!(a.sum, 15);
        assert_eq!(a.max, 8);
        assert_eq!(a.buckets, vec![(1, 1), (4, 2), (8, 1)]);
    }
}

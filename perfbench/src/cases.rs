//! The workloads of record and the simulated machines (cases) they run.
//!
//! A workload is a fixed list of cases derived from the workload seed.
//! One *pass* runs every case of the list once; a benchmark run repeats
//! passes, so every pass simulates the same input and must produce the
//! same statistics.

use decache_bus::ArbiterKind;
use decache_core::ProtocolKind;
use decache_machine::{Machine, MachineBuilder, Processor};
use decache_mem::{Addr, AddrRange};
use decache_sync::{LockWorker, Primitive};
use decache_telemetry::MetricsSnapshot;
use decache_workloads::{MixConfig, MixWorkload};

/// Workload names, in the order the benchmark documents them.
pub const WORKLOADS: [&str; 2] = ["bcast_1024", "protocol_sweep"];

/// Every protocol kind the simulator runs, as exercised by
/// `protocol_sweep`.
pub const SWEEP_KINDS: [ProtocolKind; 7] = [
    ProtocolKind::Rb,
    ProtocolKind::RbNoBroadcast,
    ProtocolKind::Rwb,
    ProtocolKind::RwbThreshold(3),
    ProtocolKind::WriteOnce,
    ProtocolKind::WriteThrough,
    ProtocolKind::Mesi,
];

/// Seeds per grid cell of `protocol_sweep`.
const SWEEP_REPLICATES: u64 = 8;

/// Mix workloads share the first 64 words; PE `i` privately owns
/// `[1088 + 256 i, 1088 + 256 (i + 1))` (the layout of
/// `MixWorkload::new`).
const SHARED_WORDS: u64 = 64;
const PRIVATE_BASE: u64 = 1088;
const PRIVATE_LEN: u64 = 256;

/// Lock cases: the lock word, and PE `i`'s critical-section word at
/// `LOCK_PRIVATE_BASE + i` (a distinct cache line from the lock).
const LOCK: Addr = Addr::new(0);
const LOCK_PRIVATE_BASE: u64 = 16;

/// Cycle budget of every case; each case completes far below it.
pub const CYCLE_BUDGET: u64 = 1 << 32;

/// What every PE of a case runs.
#[derive(Debug, Clone, Copy)]
pub enum Program {
    /// `MixWorkload` with this configuration.
    Mix(MixConfig),
    /// `LockWorker` acquiring the shared lock `rounds` times.
    Lock {
        primitive: Primitive,
        rounds: u64,
        critical_refs: u64,
    },
}

/// One simulated machine: its shape, its program, and its seed. Every
/// machine has one bus with the builder's default (per-cycle) service
/// discipline.
#[derive(Debug, Clone, Copy)]
pub struct Case {
    pub kind: ProtocolKind,
    pub pes: usize,
    pub program: Program,
    /// Feeds the per-PE `MixWorkload` seeds, or the random arbiter of a
    /// lock case.
    pub seed: u64,
}

/// The case list of `workload` for `seed`, or `None` for an unknown
/// workload name.
pub fn workload(name: &str, seed: u64) -> Option<Vec<Case>> {
    let mix = |ops_per_pe| {
        Program::Mix(MixConfig {
            ops_per_pe,
            ..MixConfig::default()
        })
    };
    match name {
        "bcast_1024" => Some(vec![Case {
            kind: ProtocolKind::Rb,
            pes: 1024,
            program: mix(300),
            seed,
        }]),
        "protocol_sweep" => {
            let lock = |primitive| Program::Lock {
                primitive,
                rounds: 8,
                critical_refs: 8,
            };
            let programs = [
                mix(MixConfig::default().ops_per_pe),
                lock(Primitive::TestAndTestAndSet),
                lock(Primitive::TestAndSet),
            ];
            let mut cases = Vec::new();
            for kind in SWEEP_KINDS {
                for program in programs {
                    for _ in 0..SWEEP_REPLICATES {
                        cases.push(Case {
                            kind,
                            pes: 16,
                            program,
                            seed: mix64(seed ^ mix64(cases.len() as u64)),
                        });
                    }
                }
            }
            Some(cases)
        }
        _ => None,
    }
}

impl Case {
    /// The PE programs of this case (the `workloads`/`sync` layer's
    /// set-up work).
    pub fn processors(&self) -> Vec<Box<dyn Processor + Send>> {
        (0..self.pes as u64)
            .map(|pe| -> Box<dyn Processor + Send> {
                match self.program {
                    Program::Mix(config) => Box::new(MixWorkload::with_private_region(
                        config,
                        AddrRange::with_len(Addr::new(0), SHARED_WORDS),
                        AddrRange::with_len(
                            Addr::new(PRIVATE_BASE + pe * PRIVATE_LEN),
                            PRIVATE_LEN,
                        ),
                        mix64(self.seed ^ mix64(pe)),
                    )),
                    Program::Lock {
                        primitive,
                        rounds,
                        critical_refs,
                    } => Box::new(
                        LockWorker::new(LOCK, primitive)
                            .rounds(rounds)
                            .critical_section(Addr::new(LOCK_PRIVATE_BASE + pe), critical_refs),
                    ),
                }
            })
            .collect()
    }

    /// Builds the machine around `processors` (from
    /// [`Case::processors`]). `telemetry` turns on the cycle histograms,
    /// which change no statistic.
    pub fn build(&self, processors: Vec<Box<dyn Processor + Send>>, telemetry: bool) -> Machine {
        let mut builder = MachineBuilder::new(self.kind);
        match self.program {
            Program::Mix(_) => {
                let words = PRIVATE_BASE + self.pes as u64 * PRIVATE_LEN;
                builder
                    .memory_words(words.next_power_of_two())
                    .cache_lines(256);
            }
            Program::Lock { .. } => {
                builder
                    .memory_words(1024)
                    .cache_lines(64)
                    .arbiter(ArbiterKind::Random(self.seed));
            }
        }
        if telemetry {
            builder.telemetry();
        }
        let mut programs = processors.into_iter();
        builder
            .processors(self.pes, |_| programs.next().expect("one program per PE"))
            .build()
    }

    /// Checks the counts this case must produce: every mix reference
    /// retired, every lock acquisition made.
    pub fn check_counts(&self, snapshot: &MetricsSnapshot) -> Result<(), String> {
        let pes = self.pes as u64;
        let (what, got, want) = match self.program {
            Program::Mix(config) => (
                "references",
                snapshot.cache_total().total_references(),
                pes * config.ops_per_pe,
            ),
            Program::Lock { rounds, .. } => {
                ("ts_successes", snapshot.machine.ts_successes, pes * rounds)
            }
        };
        if got == want {
            Ok(())
        } else {
            Err(format!("{what}: got {got}, want {want}"))
        }
    }
}

/// The metric-name form of a protocol kind (`core.case_ms_p50.<slug>`).
pub fn slug(kind: ProtocolKind) -> String {
    match kind {
        ProtocolKind::Rb => "rb".into(),
        ProtocolKind::RbNoBroadcast => "rb_no_broadcast".into(),
        ProtocolKind::Rwb => "rwb".into(),
        ProtocolKind::RwbThreshold(k) => format!("rwb_k{k}"),
        ProtocolKind::WriteOnce => "write_once".into(),
        ProtocolKind::WriteThrough => "write_through".into(),
        ProtocolKind::Mesi => "mesi".into(),
    }
}

/// splitmix64's finaliser: spreads a seed and an index into an
/// independent-looking 64-bit seed.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

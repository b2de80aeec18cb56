//! Cross-crate stat-conservation suite: seeded random machines under
//! every protocol, checked against the counter identities that tie the
//! cache, bus, machine, and fault statistics together.
//!
//! [`MetricsSnapshot::check_conservation`] carries the identities valid
//! for *any* run; this suite layers the stricter ones that hold only
//! fault-free (exact acquire-wait population, zero fault counters) or
//! only for plan-driven faults (detections bounded by injections —
//! manual `corrupt_*` calls corrupt without counting an injection).
//!
//! Runs under `decache_rng::testing::check`; a failure prints a
//! replayable seed (`DECACHE_TEST_SEED=<seed>`).

use decache_bus::BusOpKind;
use decache_core::ProtocolKind;
use decache_machine::{FaultPlan, Machine, MachineBuilder, Script};
use decache_mem::{Addr, AddrRange, Word};
use decache_rng::testing::check;
use decache_rng::Rng;
use decache_telemetry::MetricsSnapshot;
use decache_workloads::{MixConfig, MixWorkload};

const PROTOCOLS: [ProtocolKind; 7] = [
    ProtocolKind::Rb,
    ProtocolKind::RbNoBroadcast,
    ProtocolKind::Rwb,
    ProtocolKind::RwbThreshold(1),
    ProtocolKind::RwbThreshold(3),
    ProtocolKind::WriteOnce,
    ProtocolKind::WriteThrough,
];

const MEMORY_WORDS: u64 = 256;

/// A random scripted machine: 2–6 PEs on one or two buses with tiny
/// caches, mixing reads, writes, and Test-and-Set over a hot shared
/// region so evictions, write-backs, lock rejections, and supplier
/// aborts all occur.
fn build_random(rng: &mut Rng, kind: ProtocolKind, faults: bool) -> Machine {
    let pes = rng.gen_range(2usize..7);
    let mut builder = MachineBuilder::new(kind);
    builder
        .memory_words(MEMORY_WORDS)
        .cache_lines(*rng.choose(&[4usize, 8, 16]))
        .telemetry();
    if rng.gen_bool(0.3) {
        builder.buses(2);
    }
    if faults {
        builder.fault_plan(
            FaultPlan::new(rng.next_u64())
                .memory_flip_rate(0.002)
                .cache_flip_rate(0.002)
                .bus_loss_rate(0.002)
                .fail_stop_rate(0.0005)
                .region(AddrRange::with_len(Addr::new(0), MEMORY_WORDS)),
        );
    }
    for pe in 0..pes {
        let ops = rng.gen_range(10u64..60);
        let mut script = Script::new();
        for i in 0..ops {
            let addr = if rng.gen_bool(0.7) {
                Addr::new(rng.gen_range(0..24u64))
            } else {
                Addr::new(rng.gen_range(0..MEMORY_WORDS))
            };
            script = match rng.gen_range(0..10u32) {
                0 => script.test_and_set(addr, Word::ONE),
                1 => script.write(addr, Word::ZERO),
                2..=4 => script.write(addr, Word::new(pe as u64 * 1000 + i)),
                _ => script.read(addr),
            };
        }
        builder.processor(script.build());
    }
    builder.build()
}

fn snapshot_of(machine: &Machine) -> MetricsSnapshot {
    let snapshot = MetricsSnapshot::from_machine(machine);
    snapshot.check_conservation().unwrap_or_else(|violations| {
        panic!(
            "conservation violated under {}:\n  {}",
            snapshot.protocol,
            violations.join("\n  ")
        )
    });
    snapshot
}

/// Fault-free runs obey the universal identities plus the exact forms:
/// every counted transaction except a write-back was individually
/// granted, every BRL is a TS attempt or a rejection, and every fault
/// counter is zero.
#[test]
fn conservation_holds_fault_free_across_protocols() {
    check("telemetry_conservation_fault_free", 24, |rng| {
        for kind in PROTOCOLS {
            let mut machine = build_random(rng, kind, false);
            machine.run_to_completion(1_000_000);
            assert!(machine.is_done(), "machine failed to terminate");
            let snapshot = snapshot_of(&machine);

            let bus = snapshot.bus_total();
            let m = &snapshot.machine;
            let h = snapshot.histograms.as_ref().expect("telemetry enabled");
            assert_eq!(
                h.bus_acquire_wait.count,
                bus.total_transactions() - m.writebacks,
                "fault-free: every non-writeback transaction is granted once"
            );
            assert_eq!(
                bus.count(BusOpKind::ReadWithLock),
                m.ts_attempts() + m.lock_rejected_reads,
                "fault-free: BRL population is exact"
            );
            assert_eq!(snapshot.faults, Default::default(), "no faults were armed");
        }
    });
}

/// The identities survive live fault injection: flips, bus losses, and
/// fail-stops move the counters but never break the ledgers.
#[test]
fn conservation_holds_under_plan_driven_faults() {
    check("telemetry_conservation_faults", 24, |rng| {
        let kind = *rng.choose(&PROTOCOLS);
        let mut machine = build_random(rng, kind, true);
        machine.run_to_completion(1_000_000);
        assert!(machine.is_done(), "machine failed to terminate");
        let snapshot = snapshot_of(&machine);

        // Plan-driven-only identities: detections are bounded by
        // injections (each corrupted word/line is detected or healed at
        // most once before being repaired or adopted).
        let f = &snapshot.faults;
        assert!(
            f.memory_faults_detected <= f.memory_faults_injected,
            "memory detections {} > injections {}",
            f.memory_faults_detected,
            f.memory_faults_injected
        );
        assert!(
            f.cache_faults_detected + f.broadcast_heals <= f.cache_faults_injected,
            "cache detections {} + heals {} > injections {}",
            f.cache_faults_detected,
            f.broadcast_heals,
            f.cache_faults_injected
        );
        assert!(f.pe_fail_stops <= snapshot.pes, "more fail-stops than PEs");
        assert!(
            f.forced_unlocks <= f.pe_fail_stops,
            "forced unlocks {} > fail-stops {}",
            f.forced_unlocks,
            f.pe_fail_stops
        );
    });
}

/// Every snapshot round-trips losslessly through its canonical JSON
/// text, and the canonical form is byte-stable.
#[test]
fn snapshots_round_trip_through_json() {
    check("telemetry_snapshot_round_trip", 16, |rng| {
        let kind = *rng.choose(&PROTOCOLS);
        let with_faults = rng.gen_bool(0.5);
        let mut machine = build_random(rng, kind, with_faults);
        machine.run_to_completion(1_000_000);
        let snapshot = MetricsSnapshot::from_machine(&machine);
        let text = snapshot.to_json_string();
        let back = MetricsSnapshot::parse(&text).expect("snapshot JSON parses");
        assert_eq!(back, snapshot, "lossless round-trip");
        assert_eq!(back.to_json_string(), text, "canonical form is stable");
    });
}

/// Merging independent runs of one configuration preserves every
/// conservation identity (they are all sums or sum-bounds).
#[test]
fn merged_snapshots_conserve() {
    check("telemetry_merge_conserves", 8, |rng| {
        let kind = *rng.choose(&PROTOCOLS);
        let mut merged: Option<MetricsSnapshot> = None;
        // Fixed shape across runs so the snapshots are mergeable.
        for _ in 0..3 {
            let mut builder = MachineBuilder::new(kind);
            builder
                .memory_words(MEMORY_WORDS)
                .cache_lines(8)
                .telemetry();
            for pe in 0..3usize {
                let mut script = Script::new();
                for i in 0..rng.gen_range(10u64..40) {
                    let addr = Addr::new(rng.gen_range(0..32u64));
                    script = match rng.gen_range(0..6u32) {
                        0 => script.test_and_set(addr, Word::ONE),
                        1 => script.write(addr, Word::ZERO),
                        2 => script.write(addr, Word::new(pe as u64 + i)),
                        _ => script.read(addr),
                    };
                }
                builder.processor(script.build());
            }
            let mut machine = builder.build();
            machine.run_to_completion(1_000_000);
            let snapshot = snapshot_of(&machine);
            match &mut merged {
                None => merged = Some(snapshot),
                Some(acc) => acc.merge(&snapshot).expect("same configuration"),
            }
        }
        let merged = merged.unwrap();
        assert_eq!(merged.runs, 3);
        merged.check_conservation().unwrap_or_else(|violations| {
            panic!("merged snapshot violated:\n  {}", violations.join("\n  "))
        });
    });
}

/// The mixed workload issues exactly `ops_per_pe` classified references
/// per PE, and the snapshot's cache tree accounts for every one of them
/// under every protocol.
#[test]
fn mix_workload_reference_count_is_conserved() {
    const PES: usize = 4;
    const OPS: u64 = 500;
    let shared = AddrRange::with_len(Addr::new(0), 64);
    let config = MixConfig {
        ops_per_pe: OPS,
        ..MixConfig::default()
    };
    for kind in PROTOCOLS {
        let mut machine = MachineBuilder::new(kind)
            .memory_words(1 << 12)
            .cache_lines(32)
            .telemetry()
            .processors(PES, |pe| {
                Box::new(MixWorkload::new(config, shared, pe as u64))
            })
            .build();
        machine.run_to_completion(10_000_000);
        assert!(machine.is_done());
        let snapshot = snapshot_of(&machine);
        assert_eq!(
            snapshot.cache_total().total_references(),
            PES as u64 * OPS,
            "every issued reference lands in exactly one hit/miss cell ({kind:?})"
        );
        let h = snapshot.histograms.as_ref().unwrap();
        assert!(h.bus_acquire_wait.count > 0, "misses crossed the bus");
        assert_eq!(h.ts_spin.count, 0, "the mix issues no Test-and-Set");
    }
}

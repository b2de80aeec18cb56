//! Seeded randomized invariant tests for the cycle engine's fast
//! paths: at any point during any run, the sharer/supplier indexes
//! must equal the sets recomputed by a brute-force scan of all tag
//! stores, the scheduler's idle/done/pending-read bookkeeping must
//! match the PE statuses it summarizes, the bus queues' lane
//! invariants must hold, and the wake schedule must be sane
//! ([`Machine::assert_fast_path_invariants`] performs the brute-force
//! comparison). A second test pins the wake schedule's *semantics*:
//! a run that bulk-skips dead cycles must be indistinguishable —
//! cycle count, every statistic, every cache line, all of memory —
//! from the same machine single-stepped.
//!
//! Runs under `decache_rng::testing::check`, so a divergence prints a
//! replayable seed (`DECACHE_TEST_SEED=<seed>`); `DECACHE_TEST_CASES`
//! widens the corpus when hunting rare interleavings.

use decache_bus::ServiceDiscipline;
use decache_core::ProtocolKind;
use decache_machine::{FaultPlan, Machine, MachineBuilder, Script};
use decache_mem::{Addr, Word};
use decache_rng::Rng;

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
const GLOBAL_WORDS: u64 = 64;

/// The bus shapes a random machine may take.
#[derive(Clone, Copy)]
enum Shape {
    Single,
    /// One bus and 65..=130 PEs: sharer rows span two or three mask
    /// words, so spills, demotions and skipped PEs cross word
    /// boundaries.
    Wide,
    Interleaved(usize),
    Clustered(usize),
}

/// A random address the given PE is allowed to touch under `shape`
/// (clustered machines impose the hierarchy's region discipline:
/// global words plus the PE's own cluster slice).
fn random_addr(rng: &mut Rng, shape: Shape, pe: usize, pes: usize) -> Addr {
    match shape {
        Shape::Single | Shape::Wide | Shape::Interleaved(_) => {
            if rng.gen_bool(0.7) {
                // Hot shared region: forces migration and invalidation.
                Addr::new(rng.gen_range(0..GLOBAL_WORDS))
            } else {
                Addr::new(rng.gen_range(0..MEMORY_WORDS))
            }
        }
        Shape::Clustered(clusters) => {
            if rng.gen_bool(0.5) {
                Addr::new(rng.gen_range(0..GLOBAL_WORDS))
            } else {
                let cluster = pe / (pes / clusters);
                let cluster_words = (MEMORY_WORDS - GLOBAL_WORDS) / clusters as u64;
                let base = GLOBAL_WORDS + cluster as u64 * cluster_words;
                Addr::new(base + rng.gen_range(0..cluster_words))
            }
        }
    }
}

/// Builds a machine with random protocol, PE count, bus shape, cache
/// size, and per-PE scripts mixing reads, writes, and Test-and-Set.
fn build_random(rng: &mut Rng) -> Machine {
    build_random_config(rng, None)
}

/// [`build_random`] with an optional seeded fault storm (memory/cache
/// flips, bus losses, fail stops) layered on the same drawn
/// configuration — the RNG draw sequence is untouched, so one seed
/// pins one machine under every engine path.
fn build_random_config(rng: &mut Rng, fault_seed: Option<u64>) -> Machine {
    let kind = *rng.choose(&PROTOCOLS);
    let shape = if rng.gen_bool(0.25) {
        Shape::Wide
    } else {
        *rng.choose(&[
            Shape::Single,
            Shape::Interleaved(2),
            Shape::Interleaved(4),
            Shape::Clustered(2),
        ])
    };
    let pes = match shape {
        Shape::Clustered(clusters) => clusters * rng.gen_range(1usize..4),
        Shape::Wide => rng.gen_range(65usize..=130),
        _ => rng.gen_range(1usize..9),
    };
    // Tiny caches so conflict evictions churn the sharer index; short
    // scripts keep a wide machine as cheap as a narrow one.
    let (cache_lines, ops) = match shape {
        Shape::Wide => (4, 1u64..5),
        _ => (*rng.choose(&[4usize, 8, 16]), 10..60),
    };
    // Multi-cycle transactions create bus-held dead spans, the case
    // the wake schedule bulk-skips.
    let transaction_cycles = rng.gen_range(1u64..5);
    // Every service discipline, so the equivalence corpora cover the
    // FCFS arrival lane, batched grant gating, and split in-flight
    // phases alongside the default per-cycle arbitration.
    let discipline = *rng.choose(&ServiceDiscipline::ALL);

    let mut builder = MachineBuilder::new(kind);
    builder
        .memory_words(MEMORY_WORDS)
        .cache_lines(cache_lines)
        .transaction_cycles(transaction_cycles)
        .discipline(discipline);
    match shape {
        Shape::Single | Shape::Wide => {}
        Shape::Interleaved(buses) => {
            builder.buses(buses);
        }
        Shape::Clustered(clusters) => {
            builder.clusters(clusters, GLOBAL_WORDS);
        }
    }
    for pe in 0..pes {
        let ops = rng.gen_range(ops.clone());
        let mut script = Script::new();
        for i in 0..ops {
            let addr = random_addr(rng, shape, pe, pes);
            script = match rng.gen_range(0..10u32) {
                0 => script.test_and_set(addr, Word::ONE),
                1..=4 => script.write(addr, Word::new(pe as u64 * 1000 + i)),
                _ => script.read(addr),
            };
        }
        builder.processor(script.build());
    }
    if let Some(seed) = fault_seed {
        builder.fault_plan(
            FaultPlan::new(seed)
                .memory_flip_rate(0.01)
                .cache_flip_rate(0.01)
                .bus_loss_rate(0.005)
                .fail_stop_rate(0.002),
        );
    }
    builder.build()
}

/// Asserts two finished machines agree on everything observable:
/// cycle count, machine/fault/cache/traffic statistics (per bus and
/// per PE, work-unit counters included via `MachineStats`'s equality),
/// every cache line, and all of memory.
fn assert_observably_identical(a: &Machine, b: &Machine, what: &str, seed: u64) {
    assert_eq!(a.cycles(), b.cycles(), "{what}: cycles (seed {seed})");
    assert_eq!(a.stats(), b.stats(), "{what}: machine stats (seed {seed})");
    assert_eq!(
        a.fault_stats(),
        b.fault_stats(),
        "{what}: fault stats (seed {seed})"
    );
    assert_eq!(a.traffic(), b.traffic(), "{what}: traffic (seed {seed})");
    for bus in 0..a.bus_count() {
        assert_eq!(
            a.traffic_per_bus().bus(bus),
            b.traffic_per_bus().bus(bus),
            "{what}: bus {bus} accounting (seed {seed})"
        );
    }
    for pe in 0..a.pe_count() {
        assert_eq!(
            a.cache_stats(pe),
            b.cache_stats(pe),
            "{what}: P{pe} cache stats (seed {seed})"
        );
    }
    for word in 0..a.memory().size() {
        let addr = Addr::new(word);
        assert_eq!(
            a.snapshot(addr),
            b.snapshot(addr),
            "{what}: {addr} (seed {seed})"
        );
    }
}

#[test]
fn sharer_index_matches_brute_force_recompute() {
    // NOTE: `machine.run(burst)` below drives the wake-schedule
    // engine, so the invariant assertions land mid-run at arbitrary
    // points between bulk skips.
    decache_rng::testing::check("fast_path_invariants", 64, |rng| {
        let mut machine = build_random(rng);
        machine.assert_fast_path_invariants();
        let mut budget = 100_000u64;
        while !machine.is_done() && budget > 0 {
            let burst = rng.gen_range(1u64..64);
            machine.run(burst.min(budget));
            budget = budget.saturating_sub(burst);
            machine.assert_fast_path_invariants();
        }
        assert!(machine.is_done(), "random machine failed to terminate");
        machine.assert_fast_path_invariants();
    });
}

/// Two machines built from the same seed, one single-stepped and one
/// driven through [`Machine::run`]'s dead-cycle-skipping wake
/// schedule in random bursts, must agree on everything observable:
/// cycle count, machine/cache/traffic statistics (per bus), every
/// cache line, and all of memory. Covers all 7 protocols, every bus
/// shape, and transaction_cycles 1..=4 via `build_random`.
#[test]
fn wake_schedule_matches_single_stepping() {
    decache_rng::testing::check("wake_schedule_equivalence", 48, |rng| {
        let seed = rng.next_u64();
        let mut stepped = build_random(&mut Rng::from_seed(seed));
        let mut jumped = build_random(&mut Rng::from_seed(seed));

        let mut guard = 0u64;
        while !stepped.is_done() {
            stepped.step();
            guard += 1;
            assert!(guard < 200_000, "random machine failed to terminate");
        }

        while !jumped.is_done() {
            let burst = rng.gen_range(1u64..128);
            jumped.run(burst);
            jumped.assert_fast_path_invariants();
            assert!(
                jumped.cycles() <= stepped.cycles(),
                "wake schedule overshot the completion cycle"
            );
        }

        assert_eq!(jumped.cycles(), stepped.cycles(), "seed {seed}");
        assert_eq!(jumped.stats(), stepped.stats(), "seed {seed}");
        assert_eq!(jumped.traffic(), stepped.traffic(), "seed {seed}");
        for bus in 0..stepped.bus_count() {
            assert_eq!(
                jumped.traffic_per_bus().bus(bus),
                stepped.traffic_per_bus().bus(bus),
                "bus {bus} accounting diverged (seed {seed})"
            );
        }
        for pe in 0..stepped.pe_count() {
            assert_eq!(
                jumped.cache_stats(pe),
                stepped.cache_stats(pe),
                "P{pe} cache stats diverged (seed {seed})"
            );
        }
        for word in 0..MEMORY_WORDS {
            let addr = Addr::new(word);
            assert_eq!(
                jumped.snapshot(addr),
                stepped.snapshot(addr),
                "{addr} diverged (seed {seed})"
            );
        }
    });
}

/// Two machines from the same seed, one on the default snoop dispatch
/// (batched over the sharer index where the shape allows) and one
/// forced onto the per-sharer scan path, must agree on everything
/// observable — including the work-unit counters, which count logical
/// work and so must be path-independent. A third of the corpus layers
/// a fault storm on both machines: faults force the scan path at
/// runtime, so the dispatcher's fallback is exercised too, and the
/// fault histories must coincide exactly. Covers all 7 protocols and
/// every bus shape via `build_random_config`.
#[test]
fn batched_broadcast_matches_forced_scan() {
    decache_rng::testing::check("batched_vs_scan", 48, |rng| {
        let seed = rng.next_u64();
        let fault_seed = rng.gen_bool(0.33).then(|| rng.next_u64());
        let mut batched = build_random_config(&mut Rng::from_seed(seed), fault_seed);
        let mut scanned = build_random_config(&mut Rng::from_seed(seed), fault_seed);
        scanned.force_scan_snoop();

        assert!(batched.run(300_000), "batched machine failed to terminate");
        assert!(scanned.run(300_000), "scanned machine failed to terminate");
        batched.assert_fast_path_invariants();
        scanned.assert_fast_path_invariants();
        assert_observably_identical(&batched, &scanned, "batched vs scan", seed);
    });
}

/// A 256-PE machine whose PEs mostly hit their warmed private words,
/// with periodic hot-word writes for coherence traffic, under
/// split-transaction bus mode: hundreds of PEs issue per cycle while
/// address phases sit in flight awaiting their data phases. The run
/// must terminate with every fast-path index consistent — the only
/// split-mode machine at this scale in the suite.
#[test]
fn split_transactions_at_256_pes_keep_fast_path_invariants() {
    const PES: usize = 256;
    let mut builder = MachineBuilder::new(ProtocolKind::Rwb);
    builder
        .memory_words(1 << 12)
        .cache_lines(16)
        .discipline(ServiceDiscipline::Split)
        .transaction_cycles(3);
    for pe in 0..PES {
        let base = 1024 + pe as u64 * 8;
        let mut script = Script::new();
        for w in 0..4u64 {
            script = script.read(Addr::new(base + w));
        }
        for i in 0..96u64 {
            script = if (i + pe as u64).is_multiple_of(24) {
                script.write(Addr::new(i % 16), Word::new(pe as u64 * 1000 + i))
            } else {
                script.read(Addr::new(base + i % 4))
            };
        }
        builder.processor(script.build());
    }
    let mut machine = builder.build();
    assert!(machine.run(1_000_000), "machine failed to terminate");
    machine.assert_fast_path_invariants();
}

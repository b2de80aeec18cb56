//! Golden metrics snapshot: a pinned 2-PE RWB run with telemetry and a
//! small fault schedule, serialized with
//! [`MetricsSnapshot::to_json_string`] and diffed byte-for-byte against
//! `tests/golden/snapshot_rwb_2pe.json`.
//!
//! The round-trip tests only prove that the codec agrees with itself;
//! this golden pins the schema-1 wire format (key names, key order,
//! nesting) that recorded bench JSON and campaign files depend on. To
//! regenerate after an *intentional* format change, run
//! `DECACHE_GOLDEN_PRINT=1 cargo test -p decache-telemetry --test golden_snapshot`
//! and commit the rewritten file.
//!
//! The same snapshot, truncated and byte-mutated, feeds the seeded
//! never-panic suite of [`MetricsSnapshot::parse`]; a failing case
//! prints the seed to replay via `DECACHE_TEST_SEED`.

use decache_core::ProtocolKind;
use decache_machine::{FaultPlan, MachineBuilder, Script};
use decache_mem::{Addr, Word};
use decache_rng::testing::{check, mutate_bytes};
use decache_telemetry::MetricsSnapshot;

/// P0 writes a shared word, both PEs contend for one Test-and-Set lock
/// and both touch a second shared word, while one memory word and one
/// cached line are flipped mid-run: every counter family (cache, bus,
/// machine, faults, histograms) carries non-trivial values.
fn pinned_snapshot() -> MetricsSnapshot {
    let shared = Addr::new(0);
    let lock = Addr::new(8);
    let other = Addr::new(1);
    let mut machine = MachineBuilder::new(ProtocolKind::Rwb)
        .memory_words(64)
        .cache_lines(8)
        .telemetry()
        .fault_plan(
            FaultPlan::new(7)
                .memory_flip_at(3, other)
                .cache_flip_at(6, 1, shared),
        )
        .processor(
            Script::new()
                .write(shared, Word::new(7))
                .test_and_set(lock, Word::ONE)
                .read(other)
                .write(other, Word::new(5))
                .build(),
        )
        .processor(
            Script::new()
                .read(shared)
                .test_and_set(lock, Word::ONE)
                .read(other)
                .read(shared)
                .build(),
        )
        .build();
    machine.run_to_completion(10_000);
    assert!(machine.is_done());
    MetricsSnapshot::from_machine(&machine)
}

#[test]
fn pinned_snapshot_matches_committed_golden() {
    let text = pinned_snapshot().to_json_string();
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/snapshot_rwb_2pe.json");
    if std::env::var("DECACHE_GOLDEN_PRINT").is_ok() {
        std::fs::write(&path, &text).unwrap();
        println!("rewrote {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with DECACHE_GOLDEN_PRINT=1",
            path.display()
        )
    });
    assert_eq!(
        text, golden,
        "snapshot wire format drifted; if intentional, regenerate with \
         DECACHE_GOLDEN_PRINT=1 cargo test -p decache-telemetry --test golden_snapshot"
    );
    let back = MetricsSnapshot::parse(&golden).expect("golden parses");
    assert_eq!(back.to_json_string(), golden, "canonical form is stable");
    back.check_conservation()
        .expect("golden is self-consistent");
}

/// Every prefix of the golden and random byte edits of it: the parser
/// returns an error or a snapshot that re-encodes losslessly, never a
/// panic.
#[test]
fn truncated_and_mutated_snapshots_never_panic() {
    let golden = pinned_snapshot().to_json_string();
    let survives = |text: &str| {
        if let Ok(snapshot) = MetricsSnapshot::parse(text) {
            let back = MetricsSnapshot::parse(&snapshot.to_json_string()).unwrap();
            assert_eq!(back, snapshot, "an accepted snapshot round-trips");
        }
    };
    for end in 0..golden.len() {
        assert!(MetricsSnapshot::parse(&golden[..end]).is_err());
    }
    check("snapshot_byte_mutations", 10_000, |rng| {
        let mut bytes = golden.clone().into_bytes();
        for _ in 0..rng.gen_range(1..=3u32) {
            mutate_bytes(rng, &mut bytes);
        }
        survives(&String::from_utf8_lossy(&bytes));
    });
}

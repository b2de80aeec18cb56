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
//! never-panic suite of [`MetricsSnapshot::parse`], and with counters
//! set near `u64::MAX` the never-panic suite of
//! [`MetricsSnapshot::check_conservation`] and [`MetricsSnapshot::merge`];
//! a failing case prints the seed to replay via `DECACHE_TEST_SEED`.

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

/// The golden text with the `k`th integer literal replaced by `value`.
fn with_integer(text: &str, k: usize, value: u64) -> String {
    let mut out = String::with_capacity(text.len() + 20);
    let mut seen = 0;
    let mut rest = text;
    while let Some(start) = rest.find(|c: char| c.is_ascii_digit()) {
        let len = rest[start..]
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len() - start);
        out.push_str(&rest[..start]);
        if seen == k {
            out.push_str(&value.to_string());
        } else {
            out.push_str(&rest[start..start + len]);
        }
        seen += 1;
        rest = &rest[start + len..];
    }
    out.push_str(rest);
    out
}

/// The two overflows first seen on parsed snapshots: an underflowing
/// acquire-wait identity and a self-merge past `u64::MAX`.
#[test]
fn overflowing_counters_are_reported_not_panicked() {
    let golden = pinned_snapshot().to_json_string();
    let text = golden.replacen("\"writebacks\":0", "\"writebacks\":100", 1);
    assert_ne!(text, golden, "the golden records zero write-backs");
    let snapshot = MetricsSnapshot::parse(&text).unwrap();
    let violations = snapshot.check_conservation().unwrap_err();
    assert!(
        violations
            .iter()
            .any(|v| v.starts_with("acquire-wait samples")),
        "{violations:?}"
    );

    let retries = golden.find("\"retries\":").unwrap() + "\"retries\":".len();
    let k = golden[..retries]
        .split(|c: char| !c.is_ascii_digit())
        .filter(|run| !run.is_empty())
        .count();
    let snapshot = MetricsSnapshot::parse(&with_integer(&golden, k, u64::MAX)).unwrap();
    assert_eq!(snapshot.bus_per_bus[0].retries, u64::MAX);
    let mut merged = snapshot.clone();
    assert!(merged.merge(&snapshot).is_err());
    assert_eq!(
        merged, snapshot,
        "a failed merge leaves the snapshot unchanged"
    );
}

/// Random integer fields of the golden set near `u64::MAX`: auditing
/// the parsed snapshot and merging it with itself report violations or
/// an error — never an overflow panic — and a failed merge leaves the
/// snapshot unchanged.
#[test]
fn hostile_counters_never_panic() {
    let golden = pinned_snapshot().to_json_string();
    let integers = golden
        .split(|c: char| !c.is_ascii_digit())
        .filter(|run| !run.is_empty())
        .count();
    check("snapshot_hostile_counters", 10_000, |rng| {
        let mut text = golden.clone();
        for _ in 0..rng.gen_range(1..=4u32) {
            let value = if rng.gen_bool(0.8) {
                u64::MAX - rng.gen_range(0..=1u64 << 20)
            } else {
                u64::MAX / 2 + rng.gen_range(0..=1u64 << 20)
            };
            text = with_integer(&text, rng.gen_range(0..integers), value);
        }
        // An edited schema version or PE count may be rejected.
        let Ok(snapshot) = MetricsSnapshot::parse(&text) else {
            return;
        };
        let _ = snapshot.check_conservation();
        let mut merged = snapshot.clone();
        match merged.merge(&snapshot) {
            Ok(()) => {
                assert_eq!(merged.runs, 2 * snapshot.runs);
                let _ = merged.check_conservation();
            }
            Err(_) => assert_eq!(merged, snapshot, "a failed merge changed the snapshot"),
        }
    });
}

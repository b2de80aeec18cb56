//! E13 — the headline **protocol comparison**: RB, RWB, write-once,
//! write-through, and the table-driven MESI on the paper's assumed
//! reference mix (reads dominate; local and read-only dominate shared),
//! measuring cycles, bus traffic, and hit ratio. MESI rides along as a
//! modern baseline: its semantics live entirely in its rule table,
//! executed like every other protocol's. All machines fan out over
//! `decache_bench::par`; the tables print in the same order as the old
//! sequential loops.

use decache_analysis::{ProtocolComparison, ProtocolRow, TextTable};
use decache_bench::{banner, par, record_snapshot};
use decache_core::ProtocolKind;
use decache_workloads::MixConfig;

fn main() {
    banner(
        "Protocol comparison on the paper's reference mix",
        "Section 1/5 claims: dynamic classification + data broadcast win",
    );

    // The paper's four headline schemes plus MESI (table-driven).
    let compared: Vec<ProtocolKind> = ProtocolKind::ALL
        .into_iter()
        .chain([ProtocolKind::Mesi])
        .collect();

    let pe_counts = [4usize, 8, 16];
    let cases: Vec<(usize, ProtocolKind)> = pe_counts
        .iter()
        .flat_map(|&pes| compared.iter().map(move |&kind| (pes, kind)))
        .collect();
    let snapshots = par::run_cases(&cases, |&(pes, kind)| {
        ProtocolComparison::new(pes)
            .config(MixConfig {
                ops_per_pe: 3_000,
                ..MixConfig::default()
            })
            .snapshot_one(kind)
    });
    for (&(pes, kind), snapshot) in cases.iter().zip(&snapshots) {
        record_snapshot(&format!("protocol_compare/{pes}pe/{kind}"), snapshot);
    }
    for (&pes, chunk) in pe_counts.iter().zip(snapshots.chunks(compared.len())) {
        let rows: Vec<ProtocolRow> = compared
            .iter()
            .zip(chunk)
            .map(|(&kind, snapshot)| ProtocolRow::from_snapshot(kind, snapshot))
            .collect();
        println!("{pes} processors:");
        println!("{}", ProtocolComparison::render(&rows));
    }

    println!("sensitivity: shared-data fraction sweep (8 PEs, RB vs write-once)");
    let kinds = [ProtocolKind::Rb, ProtocolKind::WriteOnce, ProtocolKind::Rwb];
    let fractions = [0.02f64, 0.05, 0.10, 0.20];
    let cases: Vec<(f64, ProtocolKind)> = fractions
        .iter()
        .flat_map(|&shared| kinds.iter().map(move |&kind| (shared, kind)))
        .collect();
    let sweep = par::run_cases(&cases, |&(shared, kind)| {
        ProtocolComparison::new(8)
            .config(MixConfig {
                shared_fraction: shared,
                ops_per_pe: 2_000,
                ..MixConfig::default()
            })
            .snapshot_one(kind)
    });
    let rows: Vec<_> = cases
        .iter()
        .zip(&sweep)
        .map(|(&(shared, kind), snapshot)| {
            record_snapshot(
                &format!("protocol_compare/shared_{shared}/{kind}"),
                snapshot,
            );
            ProtocolRow::from_snapshot(kind, snapshot)
        })
        .collect();
    let mut table = TextTable::new(vec![
        "shared %",
        "RB bus tx",
        "write-once bus tx",
        "RWB bus tx",
    ]);
    for (shared, group) in fractions.iter().zip(rows.chunks(kinds.len())) {
        table.row(vec![
            format!("{:.0}%", shared * 100.0),
            group[0].bus_transactions.to_string(),
            group[1].bus_transactions.to_string(),
            group[2].bus_transactions.to_string(),
        ]);
    }
    println!("{table}");

    // With DECACHE_TRACE=<path>, capture one representative machine
    // (4 PEs, RWB, the default mix) as a Perfetto trace.
    if decache_telemetry::env_trace_path().is_some() {
        use decache_machine::MachineBuilder;
        use decache_mem::{Addr, AddrRange};
        use decache_workloads::MixWorkload;
        let shared = AddrRange::with_len(Addr::new(0), 64);
        let config = MixConfig {
            ops_per_pe: 200,
            ..MixConfig::default()
        };
        let mut builder = MachineBuilder::new(ProtocolKind::Rwb);
        builder
            .memory_words(1 << 12)
            .cache_lines(64)
            .processors(4, |pe| {
                Box::new(MixWorkload::new(config, shared, pe as u64))
            });
        let trace = decache_bench::env_trace(&mut builder);
        let mut machine = builder.build();
        machine.run_to_completion(10_000_000);
        decache_bench::save_env_trace(&trace, &machine);
    }
}

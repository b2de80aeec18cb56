//! The product-machine gate: exhaustive reachability for every protocol
//! at every supported checker configuration.
//!
//! Runs all eight protocol variants × `n ∈ {2, 3, 4}` × every
//! combination of {evictions on/off, Test-and-Set on/off} (96 cases,
//! fanned across threads).
//!
//! Exits non-zero — failing CI — if any case violates the Section 4
//! lemma/theorem (printing the reconstructed witness trace) or if any
//! declared state is unreachable.
//!
//! Totality and the dead-rule baseline belong to the **static** analyzer
//! (`protocol_lint`, pinned by `crates/verify/src/static_baseline.txt`),
//! which proves them per rule for every `n`; regenerate the baseline with
//! `protocol_lint --print-baseline <path>`.

use decache_analysis::TextTable;
use decache_bench::{banner, par};
use decache_core::ProtocolKind;
use decache_verify::{ProductChecker, ProductReport};
use std::process::ExitCode;

/// The eight protocol variants the workspace checks everywhere.
const KINDS: [ProtocolKind; 8] = [
    ProtocolKind::Rb,
    ProtocolKind::RbNoBroadcast,
    ProtocolKind::Rwb,
    ProtocolKind::RwbThreshold(1),
    ProtocolKind::RwbThreshold(3),
    ProtocolKind::WriteOnce,
    ProtocolKind::WriteThrough,
    ProtocolKind::Mesi,
];

/// One checker configuration to explore.
#[derive(Debug, Clone, Copy)]
struct Case {
    kind: ProtocolKind,
    n: usize,
    evictions: bool,
    test_and_set: bool,
}

impl Case {
    fn checker(self) -> ProductChecker {
        let mut checker = ProductChecker::new(self.kind, self.n);
        if !self.evictions {
            checker = checker.without_evictions();
        }
        if !self.test_and_set {
            checker = checker.without_test_and_set();
        }
        checker
    }
}

fn run(case: &Case) -> ProductReport {
    case.checker().explore()
}

fn main() -> ExitCode {
    let mut cases = Vec::new();
    for kind in KINDS {
        for n in [2usize, 3, 4] {
            for evictions in [true, false] {
                for test_and_set in [true, false] {
                    cases.push(Case {
                        kind,
                        n,
                        evictions,
                        test_and_set,
                    });
                }
            }
        }
    }
    let outcomes = par::run_cases(&cases, run);

    banner(
        "Protocol static analysis",
        "reachability (lemma & theorem) and declared-state coverage, all configurations",
    );

    let mut table = TextTable::new(vec![
        "protocol",
        "n",
        "evict",
        "TS",
        "states",
        "transitions",
        "verdict",
    ]);
    let mut failures = Vec::new();
    for (case, report) in cases.iter().zip(&outcomes) {
        let mut problems = Vec::new();
        if !report.holds() {
            problems.push(format!("{} violations", report.violations.len()));
        }
        if !report.unreachable_states.is_empty() {
            problems.push(format!("unreachable: {:?}", report.unreachable_states));
        }
        let verdict = if problems.is_empty() {
            "ok".to_owned()
        } else {
            problems.join("; ")
        };
        table.row(vec![
            case.kind.to_string(),
            case.n.to_string(),
            if case.evictions { "+" } else { "-" }.to_owned(),
            if case.test_and_set { "+" } else { "-" }.to_owned(),
            report.states.to_string(),
            report.transitions.to_string(),
            verdict.clone(),
        ]);
        if verdict != "ok" {
            failures.push(format!(
                "{} n={} evict={} ts={}: {verdict}",
                case.kind, case.n, case.evictions, case.test_and_set
            ));
            if let Some(witness) = &report.witness {
                println!("counterexample for {} (n={}):", case.kind, case.n);
                println!("{witness}");
            }
        }
    }
    println!("{table}");
    println!("totality and dead-rule baseline: see protocol_lint (static analyzer gate)");

    if failures.is_empty() {
        println!("\nprotocol_check: all {} cases ok", outcomes.len());
        ExitCode::SUCCESS
    } else {
        println!("\nprotocol_check: {} failure(s):", failures.len());
        for failure in &failures {
            println!("  {failure}");
        }
        ExitCode::FAILURE
    }
}

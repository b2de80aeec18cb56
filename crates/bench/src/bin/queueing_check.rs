//! The queueing cross-check gate: simulated bus utilization and mean
//! bus-acquire wait vs the exact finite-source queueing model, per
//! service discipline — rerunning the Figure 7-1 interleaved-bus
//! experiment (E10) at up to 128 PEs with an analytic verdict attached.
//!
//! Each PE runs a geometric-think / fixed-service loop the model can
//! describe exactly: think (issue a read with probability `p` per idle
//! cycle), then alternate between two private addresses that map to the
//! same direct-mapped cache line, so *every* read misses and posts a
//! bus request, and to the same interleaved bus, so each bus serves a
//! fixed population of `n / m` statistically identical sources. Reads
//! of private read-only data never write back, never find a supplier,
//! and never snoop-satisfy, leaving pure queueing behaviour for the
//! model to predict.
//!
//! The gate sweeps `n x m x discipline`, predicts utilization and mean
//! acquire wait from the *configured* think probability, and fails if
//! the simulation diverges. Below saturation it additionally checks
//! that calibrating the think probability back from the *measured*
//! request rate ([`QueueingModel::calibrate_think_p`]) recovers the
//! configured value — the measured-rate-driven path a real workload
//! would use.
//!
//! Set `DECACHE_QUEUEING_SMOKE=1` for the reduced CI grid.

use decache_analysis::QueueingModel;
use decache_bench::banner;
use decache_bus::{ServiceDiscipline, TrafficStats};
use decache_core::ProtocolKind;
use decache_machine::{MachineBuilder, MemOp, OpResult, Poll, Processor};
use decache_mem::Addr;
use decache_rng::Rng;
use decache_telemetry::MetricsSnapshot;

/// Geometric think probability per idle cycle.
const THINK_P: f64 = 0.05;

/// Bus cycles per memory service.
const SERVICE: u64 = 3;

/// Direct-mapped cache lines; the two per-PE addresses are `SPAN`
/// apart, so they collide on one line and every read misses.
const SPAN: u64 = 512;

/// Absolute tolerance on per-bus utilization.
const UTIL_TOL: f64 = 0.025;

/// Wait tolerance: relative, with an absolute floor for light loads.
const WAIT_REL: f64 = 0.10;
const WAIT_FLOOR: f64 = 0.20;

/// A processor the queueing model describes exactly: geometric think,
/// then a read of one of two conflicting private addresses.
struct ThinkRead {
    rng: Rng,
    base: Addr,
    flip: bool,
}

impl ThinkRead {
    fn new(pe: usize, seed: u64) -> Self {
        ThinkRead {
            rng: Rng::from_seed(seed ^ (pe as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            base: Addr::new(pe as u64),
            flip: false,
        }
    }
}

impl Processor for ThinkRead {
    fn next_op(&mut self, _last: Option<&OpResult>) -> Poll {
        if !self.rng.gen_bool(THINK_P) {
            return Poll::Wait;
        }
        let addr = if self.flip {
            Addr::new(self.base.index() + SPAN)
        } else {
            self.base
        };
        self.flip = !self.flip;
        Poll::Op(MemOp::read(addr))
    }
}

struct Cell {
    pes: usize,
    buses: usize,
    discipline: ServiceDiscipline,
    sim_util: f64,
    sim_wait: f64,
    model_util: f64,
    model_wait: f64,
    calibrated: Option<f64>,
}

fn run_cell(
    pes: usize,
    buses: usize,
    discipline: ServiceDiscipline,
    warmup: u64,
    window: u64,
) -> Cell {
    let mut machine = MachineBuilder::new(ProtocolKind::Rb)
        .memory_words(2 * SPAN)
        .cache_lines(SPAN as usize)
        .buses(buses)
        .transaction_cycles(SERVICE)
        .discipline(discipline)
        .telemetry()
        .processors(pes, |pe| Box::new(ThinkRead::new(pe, 0xDECAC4E)))
        .build();
    machine.run(warmup);
    machine.reset_stats();
    let start = machine.cycles();
    machine.run(window);
    assert_eq!(
        machine.cycles() - start,
        window,
        "think processors never finish, so the window is exact"
    );

    let snap = MetricsSnapshot::from_machine(&machine);
    let sim_util = snap
        .bus_per_bus
        .iter()
        .map(TrafficStats::utilization)
        .sum::<f64>()
        / buses as f64;
    let hist = &snap
        .histograms
        .as_ref()
        .expect("telemetry enabled")
        .bus_acquire_wait;
    let sim_wait = if hist.count == 0 {
        0.0
    } else {
        hist.sum as f64 / hist.count as f64
    };

    let sources = (pes / buses) as u32;
    let model = QueueingModel::new(sources, THINK_P, SERVICE as u32, discipline).predict();

    // The measured-rate-driven path: identifiable only below
    // saturation (above it, every sufficient think rate produces the
    // same throughput).
    let offered = f64::from(sources)
        * THINK_P
        * QueueingModel::new(sources, THINK_P, SERVICE as u32, discipline).cycles_per_transaction();
    let calibrated = (offered < 0.8).then(|| {
        let per_source = snap.bus_total().total_transactions() as f64 / window as f64 / pes as f64;
        QueueingModel::calibrate_think_p(sources, SERVICE as u32, discipline, per_source)
            .expect("sub-saturation rate is sustainable")
    });

    Cell {
        pes,
        buses,
        discipline,
        sim_util,
        sim_wait,
        model_util: model.utilization,
        model_wait: model.mean_wait,
        calibrated,
    }
}

fn main() {
    banner(
        "queueing check",
        "simulated bus wait/utilization vs the exact finite-source model",
    );
    let smoke = std::env::var("DECACHE_QUEUEING_SMOKE").is_ok_and(|v| v == "1");
    let (sizes, bus_counts, warmup, window): (&[usize], &[usize], u64, u64) = if smoke {
        (&[8, 16], &[1, 2], 2_000, 8_000)
    } else {
        (&[8, 16, 32, 64, 128], &[1, 2, 4, 8], 3_000, 20_000)
    };

    let mut failures = Vec::new();
    let mut cells = 0usize;
    println!(
        "{:<5} {:>4} {:>3} {:>10} {:>10} {:>9} {:>9} {:>9}",
        "disc", "n", "m", "util(sim)", "util(mod)", "W(sim)", "W(mod)", "p-hat"
    );
    for &discipline in &ServiceDiscipline::ALL {
        for &pes in sizes {
            for &buses in bus_counts {
                if buses > pes {
                    continue;
                }
                let c = run_cell(pes, buses, discipline, warmup, window);
                cells += 1;
                println!(
                    "{:<5} {:>4} {:>3} {:>10.4} {:>10.4} {:>9.3} {:>9.3} {:>9}",
                    c.discipline.name(),
                    c.pes,
                    c.buses,
                    c.sim_util,
                    c.model_util,
                    c.sim_wait,
                    c.model_wait,
                    c.calibrated.map_or("-".to_owned(), |p| format!("{p:.4}")),
                );
                let tag = format!("{} n={} m={}", c.discipline.name(), c.pes, c.buses);
                if (c.sim_util - c.model_util).abs() > UTIL_TOL {
                    failures.push(format!(
                        "{tag}: utilization {:.4} vs model {:.4} (tol {UTIL_TOL})",
                        c.sim_util, c.model_util
                    ));
                }
                let wait_tol = WAIT_FLOOR.max(c.model_wait * WAIT_REL);
                if (c.sim_wait - c.model_wait).abs() > wait_tol {
                    failures.push(format!(
                        "{tag}: mean wait {:.3} vs model {:.3} (tol {wait_tol:.3})",
                        c.sim_wait, c.model_wait
                    ));
                }
                if let Some(p_hat) = c.calibrated {
                    if (p_hat - THINK_P).abs() > THINK_P * 0.2 {
                        failures.push(format!(
                            "{tag}: calibrated think p {p_hat:.4} vs configured {THINK_P}"
                        ));
                    }
                }
            }
        }
    }

    if !failures.is_empty() {
        eprintln!("\nqueueing check FAILED:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    println!("\nqueueing check passed ({cells} cells)");
}

//! The decache simulator's benchmark of record.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (see `cases.rs` and `README.md`) closed-loop for
//! `--seconds`, audits every simulated case, and prints the host record,
//! a human-readable report, and — as the last line — one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ones, and the spans are written to
//! `perfbench/out/trace_<workload>_<seed>.json`.

mod cases;
mod trace;

use cases::{Case, CYCLE_BUDGET};
use decache_analysis::par;
use decache_machine::{HaltReason, Processor};
use decache_telemetry::MetricsSnapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use trace::{now_ns, NextOpTally, Span, Timed};

const USAGE: &str =
    "usage: perfbench --workload <bcast_1024|protocol_sweep> --seed <u64> --seconds <n> --trace <0|1>";

/// The fewest cases a `--trace 0` run times, so `case_ms_p90` has at
/// least ten samples beyond it; a run lasts `--seconds` or until it has
/// this many cases, whichever is later.
const MIN_CASES: usize = 100;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag} {value}: not {what}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|_| bad("a u64"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err(bad("a positive number"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    });
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(cases) = cases::workload(&args.workload, args.seed) else {
        eprintln!(
            "perfbench: unknown workload {:?} (one of {})",
            args.workload,
            cases::WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    println!("{}", host_record(&args, pool_threads(cases.len())));

    let mut audit = Audit::default();
    // Warm-up pass: untimed; its statistics are the reference every later
    // pass (traced or not) must reproduce exactly.
    let warm = run_pass(&cases, false);
    audit.check(&cases, &warm, false);
    // Memory high-water mark of a fresh process that has simulated the
    // input once; later passes would only add allocator churn.
    let peak_rss_mb = vm_kb("VmHWM") as f64 / 1024.0;
    let (refs, cycles) = warm.runs.iter().fold((0, 0), |(r, c), run| {
        (r + references(&run.snapshot), c + run.snapshot.cycles)
    });
    println!(
        "reference pass: {} cases, {refs} refs, {cycles} cycles, digest {:016x}",
        cases.len(),
        audit
            .reference
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, d| fnv1a(h, &d.to_le_bytes()))
    );

    let metrics = if args.trace {
        traced_run(&args, &cases, &mut audit)
    } else {
        let cycles_per_ref = cycles as f64 / refs as f64;
        end_to_end_run(&args, &cases, &mut audit, cycles_per_ref, peak_rss_mb)
    };

    for failure in audit.failures.iter().take(10) {
        eprintln!("perfbench: case failed: {failure}");
    }
    let correct = audit.failed == 0;
    let mut out = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        audit.attempted, audit.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    println!("{out}");
    ExitCode::SUCCESS
}

/// One metric of the final JSON line.
struct Metric {
    name: String,
    value: String,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    let value = if value.is_finite() { value } else { 0.0 };
    Metric {
        name: name.into(),
        value: format!("{value:?}"),
        unit,
    }
}

fn count(name: impl Into<String>, value: u64) -> Metric {
    Metric {
        name: name.into(),
        value: value.to_string(),
        unit: "count",
    }
}

/// `--trace 0`: the end-to-end metrics, with no tracing.
fn end_to_end_run(
    args: &Args,
    cases: &[Case],
    audit: &mut Audit,
    cycles_per_ref: f64,
    rss_mb: f64,
) -> Vec<Metric> {
    let (mut setups, mut refs, mut wall_ns, mut case_ms) = (Vec::new(), 0u64, 0u64, Vec::new());
    let deadline = now_ns() + (args.seconds * 1e9) as u64;
    while now_ns() < deadline || case_ms.len() < MIN_CASES {
        let pass = run_pass(cases, false);
        audit.check(cases, &pass, false);
        refs += pass
            .runs
            .iter()
            .map(|r| references(&r.snapshot))
            .sum::<u64>();
        wall_ns += pass.wall_ns;
        // One set-up per pass, outside its wall time, so `setup_s` sees
        // the host as the timed passes do.
        setups.push(setup_seconds(cases));
        case_ms.extend(pass.runs.iter().map(|r| r.case_ns as f64 / 1e6));
    }
    let n = case_ms.len();
    let (p50, p90) = (quantile(&mut case_ms, 0.5), quantile(&mut case_ms, 0.9));
    let setup_s = quantile(&mut setups, 0.5);
    let refs_per_s = refs as f64 / (wall_ns as f64 / 1e9);
    println!(
        "sim_refs_per_s      {refs_per_s:.0} refs/s ({refs} refs in {:.3} s)",
        wall_ns as f64 / 1e9
    );
    println!("case_ms_p50         {p50:.3} ms (n={n})");
    println!(
        "case_ms_p90         {p90:.3} ms (n={n}, {} beyond)",
        n - (0.9 * n as f64).ceil() as usize
    );
    println!(
        "setup_s             {setup_s:.6} s (median of {} set-ups of one pass)",
        setups.len()
    );
    println!("peak_rss_mb         {rss_mb:.1} MB (after the reference pass)");
    println!("sim_cycles_per_ref  {cycles_per_ref} cycles/ref");
    println!(
        "cases_failed        {} of {}",
        audit.failed, audit.attempted
    );
    vec![
        metric("sim_refs_per_s", refs_per_s, "refs/s"),
        metric("case_ms_p50", p50, "ms"),
        metric("case_ms_p90", p90, "ms"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", rss_mb, "MB"),
        metric("sim_cycles_per_ref", cycles_per_ref, "cycles/ref"),
    ]
}

/// Host time to construct the programs and build the machines of one
/// pass (the machines are not run).
fn setup_seconds(cases: &[Case]) -> f64 {
    let mut ns = 0;
    for case in cases {
        let start = now_ns();
        let machine = case.build(case.processors(), false);
        ns += now_ns() - start;
        drop(machine);
    }
    ns as f64 / 1e9
}

/// `--trace 1`: untraced and traced passes alternate for `--seconds`;
/// the per-layer metrics come from the traced ones.
fn traced_run(args: &Args, cases: &[Case], audit: &mut Audit) -> Vec<Metric> {
    trace::clock_ns(); // calibrate before anything is timed
    let (mut passes, mut plain_refs, mut plain_ns, mut traced_refs) = (0u64, 0u64, 0u64, 0u64);
    let (mut next_op_calls, mut work_units, mut rss_build_kb, mut rss_run_kb) = (0, 0, 0, 0);
    let mut min_coverage = 1.0f64;
    let mut kind_ms: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut spans: Vec<Span> = Vec::new();
    let mut next_op: Vec<(u64, (u64, u64))> = Vec::new();
    let mut first_traced: Option<Pass> = None;
    let deadline = now_ns() + (args.seconds * 1e9) as u64;
    while passes == 0 || now_ns() < deadline {
        let plain = run_pass(cases, false);
        audit.check(cases, &plain, false);
        plain_refs += plain
            .runs
            .iter()
            .map(|r| references(&r.snapshot))
            .sum::<u64>();
        plain_ns += plain.wall_ns;
        for (case, run) in cases.iter().zip(&plain.runs) {
            let ms = run.case_ns as f64 / 1e6;
            kind_ms.entry(cases::slug(case.kind)).or_default().push(ms);
        }

        let mut pass = run_pass(cases, true);
        audit.check(cases, &pass, true);
        passes += 1;
        for run in &mut pass.runs {
            let case_span = run.spans[0];
            let children: u64 = run.spans[1..].iter().map(Span::ns).sum();
            min_coverage = min_coverage.min(children as f64 / case_span.ns() as f64);
            traced_refs += references(&run.snapshot);
            next_op_calls += run.next_op.0;
            work_units += run.snapshot.machine.work_units();
            rss_build_kb = rss_build_kb.max(run.rss_build_kb);
            rss_run_kb = rss_run_kb.max(run.rss_run_kb);
            let run_span = run.spans.iter().find(|s| s.name == "machine.run");
            next_op.push((
                run_span.expect("every traced case has a run span").id,
                run.next_op,
            ));
            spans.append(&mut run.spans);
        }
        spans.extend(pass.pool);
        if first_traced.is_none() {
            first_traced = Some(pass);
        }
    }
    spans.append(&mut audit.spans);

    let layers = layer_times(&spans, &next_op);
    let total = |name| layers.get(name).map_or(0, |l: &Layer| l.total_ns);
    let own = |name| layers.get(name).map_or(0, |l: &Layer| l.self_ns);
    let per_pass = |ns: u64| ns as f64 / 1e9 / passes as f64;
    println!("traced passes {passes}: time per pass by span name");
    for (name, l) in &layers {
        println!(
            "  {name:<20} spans {:>7}  total {:>12.6} s  self {:>12.6} s",
            l.spans,
            per_pass(l.total_ns),
            per_pass(l.self_ns)
        );
    }

    let threads = pool_threads(cases.len());
    let (pool_ns, busy_ns) = (total("analysis.pool"), total("case"));
    let plain_rate = plain_refs as f64 / plain_ns as f64;
    let traced_rate = traced_refs as f64 / pool_ns as f64;
    let counters = Counters::of(&first_traced.expect("at least one traced pass").runs);
    let mut metrics = vec![
        metric("machine.run_s", per_pass(total("machine.run")), "s"),
        metric("machine.self_s", per_pass(own("machine.run")), "s"),
        metric(
            "machine.ns_per_wu",
            own("machine.run") as f64 / work_units as f64,
            "ns/wu",
        ),
        metric("machine.build_s", per_pass(total("machine.build")), "s"),
        metric("machine.drop_s", per_pass(total("machine.drop")), "s"),
        metric("machine.rss_build_mb", rss_build_kb as f64 / 1024.0, "MB"),
        metric("machine.rss_run_mb", rss_run_kb as f64 / 1024.0, "MB"),
        metric("workloads.make_s", per_pass(total("workloads.make")), "s"),
        count("workloads.next_op_calls", next_op_calls / passes),
        metric(
            "workloads.next_op_s",
            per_pass(total("workloads.next_op")),
            "s",
        ),
        metric(
            "workloads.ns_per_op",
            total("workloads.next_op") as f64 / next_op_calls as f64,
            "ns/op",
        ),
        metric("analysis.threads", threads as f64, "count"),
        metric("analysis.pool_wall_s", per_pass(pool_ns), "s"),
        metric("analysis.pool_self_s", per_pass(own("analysis.pool")), "s"),
        metric("analysis.case_busy_s", per_pass(busy_ns), "s"),
        metric(
            "analysis.pool_efficiency",
            busy_ns as f64 / (threads as f64 * pool_ns as f64),
            "ratio",
        ),
        metric(
            "telemetry.snapshot_s",
            per_pass(total("telemetry.snapshot")),
            "s",
        ),
        metric("telemetry.audit_s", per_pass(total("telemetry.audit")), "s"),
        count("telemetry.audit_failures", audit.failed),
        metric("trace.overhead_ratio", traced_rate / plain_rate, "ratio"),
        metric("trace.span_coverage_min", min_coverage, "ratio"),
        metric("trace.clock_ns", trace::clock_ns(), "ns"),
        count("trace.spans", spans.len() as u64),
    ];
    metrics.extend(counters.metrics());
    for kind in cases::SWEEP_KINDS {
        let slug = cases::slug(kind);
        let p50 = kind_ms.get_mut(&slug).map_or(0.0, |ms| quantile(ms, 0.5));
        metrics.push(metric(format!("core.case_ms_p50.{slug}"), p50, "ms"));
    }

    let path = format!("perfbench/out/trace_{}_{}.json", args.workload, args.seed);
    let written = std::fs::create_dir_all("perfbench/out")
        .and_then(|()| std::fs::write(&path, trace::chrome_json(&spans, &next_op)));
    match written {
        Ok(()) => println!("spans written to {path}"),
        Err(e) => eprintln!("perfbench: could not write {path}: {e}"),
    }
    metrics
}

/// Span count, total time and self time of one span name.
#[derive(Default)]
struct Layer {
    spans: u64,
    total_ns: u64,
    self_ns: u64,
}

/// Sums spans by name. Self time is a span's duration minus the part its
/// children cover; `machine.run` also loses its `next_op` time, which is
/// reported as the pseudo-span `workloads.next_op`.
fn layer_times(spans: &[Span], next_op: &[(u64, (u64, u64))]) -> BTreeMap<&'static str, Layer> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let next_op: BTreeMap<u64, u64> = next_op.iter().map(|&(id, (_, ns))| (id, ns)).collect();
    let mut layers: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for s in spans {
        let mut kids = children.remove(&s.id).unwrap_or_default();
        let covered =
            trace::covered_ns(s.start_ns, s.end_ns, &mut kids) + next_op.get(&s.id).unwrap_or(&0);
        let layer = layers.entry(s.name).or_default();
        layer.spans += 1;
        layer.total_ns += s.ns();
        layer.self_ns += s.ns().saturating_sub(covered);
    }
    let next_op_ns: u64 = next_op.values().sum();
    layers.insert(
        "workloads.next_op",
        Layer {
            spans: next_op.len() as u64,
            total_ns: next_op_ns,
            self_ns: next_op_ns,
        },
    );
    layers
}

/// The deterministic counters of one pass, summed over its cases.
#[derive(Default)]
struct Counters {
    work_units: u64,
    sharer_visits: u64,
    tag_probes: u64,
    queue_scans: u64,
    broadcast_satisfied: u64,
    transactions: u64,
    busy_cycles: u64,
    bus_cycles: u64,
    wait_sum: u64,
    wait_count: u64,
    retries: u64,
    aborted_reads: u64,
    references: u64,
    hits: u64,
    read_misses: u64,
    write_misses: u64,
    ts_attempts: u64,
    ts_successes: u64,
    lock_rejections: u64,
    spin_sum: u64,
    spin_count: u64,
}

impl Counters {
    fn of(runs: &[CaseRun]) -> Counters {
        let mut c = Counters::default();
        for s in runs.iter().map(|r| &r.snapshot) {
            let (m, cache, bus) = (&s.machine, s.cache_total(), s.bus_total());
            let h = s
                .histograms
                .as_ref()
                .expect("traced machines carry telemetry");
            c.work_units += m.work_units();
            c.sharer_visits += m.sharer_visits;
            c.tag_probes += m.tag_probes;
            c.queue_scans += m.queue_scans;
            c.broadcast_satisfied += m.broadcast_satisfied;
            c.transactions += bus.total_transactions();
            c.busy_cycles += bus.busy_cycles;
            c.bus_cycles += bus.busy_cycles + bus.idle_cycles;
            c.wait_sum += h.bus_acquire_wait.sum;
            c.wait_count += h.bus_acquire_wait.count;
            c.retries += bus.retries;
            c.aborted_reads += bus.aborted_reads;
            c.references += cache.total_references();
            c.hits += cache.total_hits();
            c.read_misses += cache.read_misses();
            c.write_misses += cache.write_misses();
            c.ts_attempts += m.ts_attempts();
            c.ts_successes += m.ts_successes;
            c.lock_rejections += m.lock_rejections;
            c.spin_sum += h.ts_spin.sum;
            c.spin_count += h.ts_spin.count;
        }
        c
    }

    fn metrics(&self) -> Vec<Metric> {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        vec![
            count("machine.work_units", self.work_units),
            count("machine.sharer_visits", self.sharer_visits),
            count("machine.tag_probes", self.tag_probes),
            count("machine.queue_scans", self.queue_scans),
            count("machine.broadcast_satisfied", self.broadcast_satisfied),
            count("bus.transactions", self.transactions),
            metric(
                "bus.utilization",
                ratio(self.busy_cycles, self.bus_cycles),
                "ratio",
            ),
            metric(
                "bus.acquire_wait_mean_cycles",
                ratio(self.wait_sum, self.wait_count),
                "cycles",
            ),
            count("bus.retries", self.retries),
            count("bus.aborted_reads", self.aborted_reads),
            count("cache.references", self.references),
            metric(
                "cache.hit_ratio",
                ratio(self.hits, self.references),
                "ratio",
            ),
            count("cache.read_misses", self.read_misses),
            count("cache.write_misses", self.write_misses),
            count("sync.ts_attempts", self.ts_attempts),
            metric(
                "sync.ts_success_ratio",
                ratio(self.ts_successes, self.ts_attempts),
                "ratio",
            ),
            count("sync.lock_rejections", self.lock_rejections),
            metric(
                "sync.ts_spin_mean_cycles",
                ratio(self.spin_sum, self.spin_count),
                "cycles",
            ),
        ]
    }
}

/// One case's result, as the pool returns it.
struct CaseRun {
    /// Host time of programs + build + run: the per-case latency.
    case_ns: u64,
    snapshot: MetricsSnapshot,
    completed: bool,
    /// `(calls, ns)` of `Processor::next_op` (traced only).
    next_op: (u64, u64),
    /// The `case` span first, then its children (traced only).
    spans: Vec<Span>,
    rss_build_kb: u64,
    rss_run_kb: u64,
}

/// One run of every case through `par::run_cases`.
struct Pass {
    runs: Vec<CaseRun>,
    wall_ns: u64,
    pool: Option<Span>,
}

fn run_pass(cases: &[Case], traced: bool) -> Pass {
    let pool_id = if traced { trace::next_id() } else { 0 };
    let start = now_ns();
    let runs = par::run_cases(cases, |case| run_case(case, traced, pool_id));
    let end = now_ns();
    let pool = traced.then(|| Span {
        id: pool_id,
        parent: 0,
        case: 0,
        name: "analysis.pool",
        thread: trace::thread_id(),
        start_ns: start,
        end_ns: end,
    });
    Pass {
        runs,
        wall_ns: end - start,
        pool,
    }
}

fn run_case(case: &Case, traced: bool, pool: u64) -> CaseRun {
    let tally = Arc::new(NextOpTally::default());
    let t0 = now_ns();
    let mut programs = case.processors();
    if traced {
        programs = programs
            .into_iter()
            .map(|p| Timed::wrap(p, &tally) as Box<dyn Processor + Send>)
            .collect();
    }
    let t1 = now_ns();
    let mut machine = case.build(programs, traced);
    let t2 = now_ns();
    let rss_build_kb = if traced { vm_kb("VmRSS") } else { 0 };
    let t3 = now_ns();
    let outcome = machine.run_outcome(CYCLE_BUDGET);
    let t4 = now_ns();
    let rss_run_kb = if traced { vm_kb("VmRSS") } else { 0 };
    let t5 = now_ns();
    let snapshot = MetricsSnapshot::from_machine(&machine);
    let t6 = now_ns();
    drop(machine);
    let t7 = now_ns();

    let mut spans = Vec::new();
    if traced {
        let (case_id, thread) = (trace::next_id(), trace::thread_id());
        let span = |id, parent, name, start_ns, end_ns| Span {
            id,
            parent,
            case: case_id,
            name,
            thread,
            start_ns,
            end_ns,
        };
        spans.push(span(case_id, pool, "case", t0, t7));
        for (name, start, end) in [
            ("workloads.make", t0, t1),
            ("machine.build", t1, t2),
            ("trace.rss", t2, t3),
            ("machine.run", t3, t4),
            ("trace.rss", t4, t5),
            ("telemetry.snapshot", t5, t6),
            ("machine.drop", t6, t7),
        ] {
            spans.push(span(trace::next_id(), case_id, name, start, end));
        }
    }
    CaseRun {
        case_ns: (t2 - t0) + (t4 - t3),
        snapshot,
        completed: outcome.reason == HaltReason::Completed,
        next_op: tally.read(),
        spans,
        rss_build_kb,
        rss_run_kb,
    }
}

/// Correctness bookkeeping: every case audited, every pass compared
/// against the first.
#[derive(Default)]
struct Audit {
    /// Per-case digests of the first pass.
    reference: Vec<u64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// `telemetry.audit` spans of traced passes.
    spans: Vec<Span>,
}

impl Audit {
    fn check(&mut self, cases: &[Case], pass: &Pass, traced: bool) {
        let first = self.reference.is_empty();
        for (i, (case, run)) in cases.iter().zip(&pass.runs).enumerate() {
            let start = now_ns();
            let digest = audit_case(case, run);
            if first {
                // A failed case still takes its slot, so later passes
                // compare case by case.
                self.reference.push(*digest.as_ref().unwrap_or(&0));
            }
            let verdict = digest.and_then(|digest| {
                if digest == self.reference[i] {
                    Ok(())
                } else {
                    Err(format!(
                        "snapshot digest {digest:016x} differs from the reference {:016x}",
                        self.reference[i]
                    ))
                }
            });
            let end = now_ns();
            self.attempted += 1;
            if let Err(e) = verdict {
                self.failed += 1;
                self.failures
                    .push(format!("case {i} ({:?}, {}): {e}", case.kind, case.pes));
            }
            if traced {
                let case_span = run.spans[0];
                self.spans.push(Span {
                    id: trace::next_id(),
                    parent: case_span.id,
                    case: case_span.id,
                    name: "telemetry.audit",
                    thread: trace::thread_id(),
                    start_ns: start,
                    end_ns: end,
                });
            }
        }
    }
}

/// Audits one case and returns the digest of its canonical snapshot
/// JSON (cycle histograms excluded: they exist only when traced).
fn audit_case(case: &Case, run: &CaseRun) -> Result<u64, String> {
    if !run.completed {
        return Err("run did not complete".into());
    }
    run.snapshot
        .check_conservation()
        .map_err(|errs| format!("conservation: {}", errs.join("; ")))?;
    case.check_counts(&run.snapshot)?;
    let mut canonical = run.snapshot.clone();
    canonical.histograms = None;
    Ok(fnv1a(
        0xcbf2_9ce4_8422_2325,
        canonical.to_json_string().as_bytes(),
    ))
}

fn references(snapshot: &MetricsSnapshot) -> u64 {
    snapshot.cache_total().total_references()
}

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// Linear-interpolation quantile (`q` in `[0, 1]`) of a non-empty sample.
fn quantile(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// A `kB` field of `/proc/self/status` (0 where unavailable).
fn vm_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let rest = line.strip_prefix(field)?.strip_prefix(':')?;
                rest.trim().trim_end_matches("kB").trim().parse().ok()
            })
        })
        .unwrap_or(0)
}

/// The worker count `par::run_cases` uses for `cases` cases.
fn pool_threads(cases: usize) -> usize {
    let workers = std::env::var("DECACHE_BENCH_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from));
    workers.clamp(1, cases.max(1))
}

/// The host record printed first by every run.
fn host_record(args: &Args, threads: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "{{\"host\":{{\"nproc\":{nproc},\"rustc\":\"{}\",\"profile\":\"{}\",\"commit\":\"{}\",\"workload\":\"{}\",\"seed\":{},\"threads\":{threads},\"seconds\":{},\"trace\":{}}}}}",
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
        git_commit(),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    )
}

/// The checked-out commit, read from `.git` in the working directory
/// (the repository root), or `"none"` outside a git checkout.
fn git_commit() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "none".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.into();
    };
    if let Ok(commit) = std::fs::read_to_string(format!(".git/{name}")) {
        return commit.trim().into();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (commit, refname) = line.split_once(' ')?;
                (refname == name).then(|| commit.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

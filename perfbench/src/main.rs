//! `perfbench --workload <survey|monitor|tenants> --seed <n> --seconds <s>
//! --trace <0|1> [--trace-out <file>]`
//!
//! Sets the workload up several times, runs it untraced for `--seconds`
//! (half of it with `--trace 1`), then traced (once, or for the other half
//! with `--trace 1`), checks every output and prints a metric table followed
//! by one JSON line:
//! end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`.
//! Exits 1 when an output check fails, 2 on bad arguments.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use perfbench::stats::{digest, median, percentile, percentile_label, tail_percentile};
use perfbench::trace::EpochParts;
use perfbench::truth::Score;
use perfbench::workload::{self, Outcome, Report, Setup, Workload, WORLD_SEED};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut trace_out = None;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()? as f64),
            "--trace" => trace = Some(number()? != 0),
            "--trace-out" => trace_out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        trace_out,
    })
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Output checks and failure counts of one benchmark process.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Ledger {
    fn check(&mut self, name: &str, passed: bool) {
        self.attempted += 1;
        if !passed {
            self.failed += 1;
            self.failures.push(name.to_string());
        }
    }

    /// Record one run: its failure, or its outcome after checking that its
    /// report equals the first run's (which becomes the reference).
    fn run(
        &mut self,
        result: Result<Outcome, String>,
        reference: &mut Option<Report>,
        runs: &mut Vec<Outcome>,
    ) -> bool {
        self.attempted += 1;
        match result {
            Ok(mut outcome) => {
                let report = outcome.report.take();
                match reference {
                    None => *reference = report,
                    Some(first) => self.check(
                        "report equals the first run's",
                        report.as_ref() == Some(first),
                    ),
                }
                runs.push(outcome);
                true
            }
            Err(e) => {
                self.failed += 1;
                self.failures.push(e);
                false
            }
        }
    }
}

/// A metric as printed: name, value, unit and how many samples it rests on.
#[derive(Clone)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: String,
}

fn metric(
    name: impl Into<String>,
    value: f64,
    unit: &'static str,
    samples: impl Into<String>,
) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        samples: samples.into(),
    }
}

/// Repeat `f` until `budget` has elapsed, at least once, not starting a
/// repetition expected to end past the budget.
fn repeat(budget: Duration, mut f: impl FnMut() -> bool) {
    let started = Instant::now();
    let mut took: Vec<f64> = Vec::new();
    loop {
        if let Some(&longest) = took.iter().max_by(|a, b| a.total_cmp(b)) {
            if started.elapsed().as_secs_f64() + longest > budget.as_secs_f64() {
                break;
            }
        }
        let t = Instant::now();
        let go_on = f();
        took.push(t.elapsed().as_secs_f64());
        if !go_on {
            break;
        }
    }
}

/// Per-run epoch p50 and tail percentile (untraced epoch clock).
fn epoch_stats(runs: &[Outcome]) -> Option<(f64, f64, String)> {
    let per_run: Vec<(f64, f64, usize, f64)> = runs
        .iter()
        .filter(|r| !r.epoch_ms.is_empty())
        .map(|r| {
            let n = r.epoch_ms.len();
            let tail = tail_percentile(n).unwrap_or(1.0);
            (median(&r.epoch_ms), percentile(&r.epoch_ms, tail), n, tail)
        })
        .collect();
    let &(_, _, n, tail) = per_run.first()?;
    let p50 = median(&per_run.iter().map(|r| r.0).collect::<Vec<_>>());
    let high = median(&per_run.iter().map(|r| r.1).collect::<Vec<_>>());
    let label = if tail >= 1.0 {
        "max".to_string()
    } else {
        percentile_label(tail)
    };
    Some((
        p50,
        high,
        format!("{label} of {n} epochs, median of {} runs", per_run.len()),
    ))
}

fn epoch_part_metrics(epochs: &[EpochParts], out: &mut Vec<Metric>) {
    let n = epochs.len();
    type Part = fn(&EpochParts) -> u64;
    let parts: [(&str, Part); 6] = [
        ("wall", |e| e.wall),
        ("startup", |e| e.startup),
        ("probe", |e| e.probe),
        ("boundary", |e| e.boundary),
        ("boundary_probe", |e| e.boundary_probe),
        ("other", |e| e.other),
    ];
    for (name, part) in parts {
        let ms: Vec<f64> = epochs.iter().map(|e| part(e) as f64 / 1e6).collect();
        let p50 = if ms.is_empty() { 0.0 } else { median(&ms) };
        out.push(metric(
            format!("stream.epoch.{name}_ms_p50"),
            p50,
            "ms",
            format!("{n} epochs"),
        ));
        out.push(metric(
            format!("stream.epoch.{name}_ms_sum"),
            ms.iter().fold(0.0, |a, b| a + b),
            "ms",
            format!("{n} epochs"),
        ));
    }
}

const PHASES: [&str; 5] = ["seed", "expansion", "density", "detection", "finish"];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Set the workload up at least five times and for at least a second; keep
/// the last set-up. Returns it with the set-up and world-build times.
fn set_up(args: &Args) -> Result<(Setup, Vec<f64>, Vec<f64>), String> {
    let mut setup_s = Vec::new();
    let mut build_s = Vec::new();
    let mut kept: Option<Setup> = None;
    let started = Instant::now();
    while setup_s.len() < 5 || (started.elapsed() < Duration::from_secs(1) && setup_s.len() < 200) {
        drop(kept.take());
        let t = Instant::now();
        let setup = workload::setup(args.workload, WORLD_SEED, args.seed)?;
        setup_s.push(t.elapsed().as_secs_f64());
        build_s.push(setup.build_s);
        kept = Some(setup);
    }
    Ok((kept.expect("at least one set-up ran"), setup_s, build_s))
}

/// Output checks beyond report equality, made on every run.
fn check_runs(workload: Workload, untraced: &[Outcome], traced: &[Outcome], ledger: &mut Ledger) {
    let Some(reference) = untraced.first().or(traced.first()) else {
        return;
    };
    for run in untraced.iter().chain(traced) {
        ledger.check(
            "report facts equal the first run's",
            run.facts == reference.facts,
        );
        for &(name, passed) in &run.checks {
            ledger.check(name, passed);
        }
        ledger.attempted += run.facts.tenant_outcomes;
        ledger.failed += run.facts.failed_tenants;
        if workload == Workload::Tenants {
            ledger.check(
                "one allocation per tenant epoch",
                run.facts.allocations == run.facts.tenant_epochs,
            );
        }
    }
    for run in traced {
        let trace = run.trace.as_ref().expect("traced runs carry a trace");
        ledger.check("probes arrive in epoch order", trace.misordered == 0);
        ledger.check(
            "epoch parts add up to the epoch wall time within 10%",
            trace.epochs.iter().all(EpochParts::adds_up),
        );
        if workload == Workload::Survey {
            let wall = trace.total_ns("Campaign::run");
            let phases: u64 = PHASES
                .iter()
                .map(|p| trace.total_ns(&format!("phase.{p}")))
                .sum();
            ledger.check(
                "phase spans add up to the run's wall time within 10%",
                phases.abs_diff(wall) <= wall / 10,
            );
            ledger.check(
                "probe busy time fits inside each phase",
                trace
                    .spans
                    .iter()
                    .filter(|s| s.name.starts_with("phase."))
                    .all(|s| s.probe_ns + s.trace_ns <= s.duration_ns()),
            );
        }
        if let Some(watched) = &run.facts.watched {
            ledger.check(
                "detection probes hit exactly the watched /48s",
                &trace.probed == watched,
            );
        }
    }
}

/// Precision and recall of the first run's report. Recall is over the /48s
/// that received a detection probe: the watch lists the report implies on
/// `monitor` and `tenants`, the traced run's detection probes on `survey`.
fn ground_truth_score(setup: &Setup, untraced: &[Outcome], traced: &[Outcome]) -> Option<Score> {
    let reference = untraced.first().or(traced.first())?;
    let probed: HashSet<_> = match &reference.facts.watched {
        Some(watched) => watched.clone(),
        None => traced.first()?.trace.as_ref()?.probed.clone(),
    };
    Some(Score::new(
        &setup.rotating_pools,
        &reference.facts.reported,
        &probed,
    ))
}

/// `epoch_ms_p50`, `epoch_ms_tail` and `restore_s` from the untraced runs
/// (0 where the workload has no epochs or no checkpoints).
fn workload_specific(untraced: &[Outcome]) -> Vec<Metric> {
    let mut out = match epoch_stats(untraced) {
        Some((p50, tail, samples)) => vec![
            metric("epoch_ms_p50", p50, "ms", samples.clone()),
            metric("epoch_ms_tail", tail, "ms", samples),
        ],
        None => vec![
            metric("epoch_ms_p50", 0.0, "ms", "n/a: no epochs"),
            metric("epoch_ms_tail", 0.0, "ms", "n/a: no epochs"),
        ],
    };
    let restores: Vec<f64> = untraced.iter().filter_map(|r| r.restore_s).collect();
    out.push(if restores.is_empty() {
        metric("restore_s", 0.0, "s", "n/a: no checkpoints")
    } else {
        let samples = format!("median of {} restores", restores.len());
        metric("restore_s", median(&restores), "s", samples)
    });
    out
}

/// Per-layer metrics of one traced run.
fn per_layer(run: &Outcome, build_s: &[f64]) -> Vec<Metric> {
    let trace = run.trace.as_ref().expect("traced runs carry a trace");
    let f = &run.facts;
    let ck = &run.checkpoint;
    let c = trace.counts;
    let (probes, probe_ns) = trace.probes();
    let (traces, trace_ns) = trace.traces();
    let one =
        |name: &str, value: f64, unit: &'static str| metric(name, value, unit, "1 traced run");
    let count = |name: &str, value: u64| one(name, value as f64, "count");
    let builds = format!("median of {} builds", build_s.len());
    let mut out = vec![
        metric("simnet.build_s", median(build_s), "s", builds),
        count("simnet.probes", probes),
        one("simnet.probe_busy_s", probe_ns as f64 / 1e9, "s"),
        one(
            "simnet.probe_ns_mean",
            ratio(probe_ns as f64, probes as f64),
            "ns",
        ),
        one(
            "simnet.response_ratio",
            ratio(c.responses as f64, probes as f64),
            "ratio",
        ),
        count("simnet.traces", traces),
        one("simnet.trace_busy_s", trace_ns as f64 / 1e9, "s"),
        count("prober.probes_sent", c.probes_sent),
        one(
            "prober.probe_rate",
            ratio(c.probes_sent as f64, run.run_s),
            "1/s",
        ),
    ];
    for phase in PHASES {
        let s = trace.total_ns(&format!("phase.{phase}")) as f64 / 1e9;
        out.push(one(&format!("stream.phase.{phase}_s"), s, "s"));
    }
    out.push(count("stream.routed", c.routed));
    out.push(count("stream.stalls", c.stalls));
    epoch_part_metrics(&trace.epochs, &mut out);
    out.extend([
        count("core.validated_48s", f.validated_48s),
        count("core.rotating_48s", f.rotating_48s),
        count("core.expansion_probes", f.expansion_probes),
        count("core.admitted", f.admitted),
        count("core.evicted", f.evicted),
        one(
            "core.rotating_per_kprobe",
            ratio(f.rotating_48s as f64 * 1e3, probes as f64),
            "ratio",
        ),
        count("discovery.probes", f.discovery[0]),
        count("discovery.splits", f.discovery[1]),
        count("discovery.merges", f.discovery[2]),
        count("discovery.leaves", f.discovery[3]),
        count("discovery.dense_48s", f.discovery[4]),
        one(
            "discovery.dense_per_kprobe",
            ratio(f.discovery[4] as f64 * 1e3, f.discovery[0] as f64),
            "ratio",
        ),
        count("checkpoint.snapshots", ck.snapshots),
        one("checkpoint.bytes_last", ck.bytes_last as f64, "B"),
        one("checkpoint.snapshot_ms", ck.snapshot_ms, "ms"),
        one("checkpoint.encode_ms", ck.encode_ms, "ms"),
        one("checkpoint.decode_ms", ck.decode_ms, "ms"),
        one("checkpoint.resume_ms", ck.resume_ms, "ms"),
        count("sched.tenant_epochs", f.tenant_epochs),
        count("sched.allocations", f.allocations),
        count("sched.failed_tenants", f.failed_tenants),
    ]);
    out
}

fn write_trace(path: &str, trace: &perfbench::trace::TraceData) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    trace.write_jsonl(&mut out)?;
    std::io::Write::flush(&mut out)
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title:<32} {:>18} {:<6} samples", "value", "unit");
    for m in metrics {
        println!(
            "{:<32} {:>18.6} {:<6} {}",
            m.name, m.value, m.unit, m.samples
        );
    }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
fn json_line(correct: bool, ledger: &Ledger, metrics: &[&Metric]) -> String {
    let mut json = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        ledger.attempted.max(1),
        ledger.failed
    )
}

/// End-to-end metrics that every workload reports in its result line (the
/// others are in the table and, workload-specific ones, the per-layer list).
const RESULT_LINE_E2E: [&str; 5] = [
    "setup_s",
    "run_s",
    "peak_rss_mb",
    "rotating48_precision",
    "rotating48_recall",
];

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let (setup, setup_s, build_s) = match set_up(&args) {
        Ok(set) => set,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            std::process::exit(1);
        }
    };
    let mut ledger = Ledger::default();
    let mut reference: Option<Report> = None;

    // Untraced runs: the end-to-end measurement. Peak memory is read after
    // the first one, before the benchmark holds a reference report.
    let half = if args.trace { 0.5 } else { 1.0 };
    let mut untraced: Vec<Outcome> = Vec::new();
    let mut peak = Err("no run finished".to_string());
    repeat(Duration::from_secs_f64(args.seconds * half), || {
        let result = workload::run_untraced(&setup);
        if untraced.is_empty() {
            peak = peak_rss_mib();
        }
        ledger.run(result, &mut reference, &mut untraced)
    });

    // Traced runs: the per-layer measurement.
    let mut traced: Vec<Outcome> = Vec::new();
    repeat(Duration::from_secs_f64(args.seconds * (1.0 - half)), || {
        let result = workload::run_traced(&setup, traced.len() as u64);
        ledger.run(result, &mut reference, &mut traced)
    });

    check_runs(args.workload, &untraced, &traced, &mut ledger);
    let score = ground_truth_score(&setup, &untraced, &traced);
    ledger.check(
        "a rotating /48 is reported and one is probed",
        score.is_some_and(|s| s.reported > 0 && s.probed_rotating > 0),
    );
    let peak = peak.unwrap_or_else(|e| {
        ledger.check(&e, false);
        0.0
    });

    // Per-layer metrics, from the traced run with the median wall time.
    let run_s: Vec<f64> = untraced.iter().map(|r| r.run_s).collect();
    let traced_s: Vec<f64> = traced.iter().map(|r| r.run_s).collect();
    let specific = workload_specific(&untraced);
    let mut by_time: Vec<&Outcome> = traced.iter().collect();
    by_time.sort_by(|a, b| a.run_s.total_cmp(&b.run_s));
    let median_traced = by_time.get(by_time.len() / 2).copied();
    let mut layers = median_traced.map_or_else(Vec::new, |run| per_layer(run, &build_s));
    layers.push(metric(
        "trace.overhead",
        ratio(median(&traced_s), median(&run_s)),
        "ratio",
        format!(
            "median of {} traced over median of {} untraced runs",
            traced.len(),
            untraced.len()
        ),
    ));
    layers.extend(specific.iter().cloned());
    let trace = median_traced.and_then(|run| run.trace.as_ref());
    if let (Some(path), Some(trace)) = (&args.trace_out, trace) {
        if let Err(e) = write_trace(path, trace) {
            ledger.check(&format!("write trace to {path}: {e}"), false);
        }
    }

    // End-to-end metrics, from the untraced runs.
    let score = score.unwrap_or(Score {
        reported: 0,
        true_reported: 0,
        probed_rotating: 0,
        found: 0,
    });
    let times: Vec<String> = run_s.iter().map(|s| format!("{s:.3}")).collect();
    let mut e2e = vec![
        metric(
            "setup_s",
            median(&setup_s),
            "s",
            format!("median of {} set-ups", setup_s.len()),
        ),
        metric(
            "run_s",
            median(&run_s),
            "s",
            format!("median of {} runs: {}", run_s.len(), times.join(" ")),
        ),
    ];
    e2e.extend(specific);
    e2e.extend([
        metric(
            "peak_rss_mb",
            peak,
            "MiB",
            "VmHWM after set-up and the first run",
        ),
        metric(
            "failed_share",
            ratio(ledger.failed as f64, ledger.attempted as f64),
            "ratio",
            format!("{} failed of {} attempted", ledger.failed, ledger.attempted),
        ),
        metric(
            "rotating48_precision",
            score.precision(),
            "ratio",
            format!("{} of {} reported", score.true_reported, score.reported),
        ),
        metric(
            "rotating48_recall",
            score.recall(),
            "ratio",
            format!("{} of {} probed", score.found, score.probed_rotating),
        ),
    ]);

    let correct = ledger.failed == 0 && !untraced.is_empty() && !traced.is_empty();
    println!(
        "perfbench {} seed {} world seed {}: {} untraced + {} traced runs, {} CPUs available",
        args.workload.name(),
        args.seed,
        WORLD_SEED,
        untraced.len(),
        traced.len(),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    if let Some(report) = &reference {
        println!(
            "report digest {:016x} (FNV-1a 64 of its Debug rendering)",
            digest(report)
        );
    }
    print_table("end-to-end metric", &e2e);
    if args.trace {
        print_table("per-layer metric", &layers);
        println!(
            "{:<32} {:>8} {:>12} {:>12}",
            "span (traced run)", "count", "self ms", "total ms"
        );
        for (name, count, self_ns, total_ns) in
            trace.map(|t| t.self_time_by_name()).unwrap_or_default()
        {
            let (self_ms, total_ms) = (self_ns as f64 / 1e6, total_ns as f64 / 1e6);
            println!("{name:<32} {count:>8} {self_ms:>12.3} {total_ms:>12.3}");
        }
    }
    for failure in &ledger.failures {
        println!("FAILED: {failure}");
    }
    let chosen: Vec<&Metric> = if args.trace {
        layers.iter().collect()
    } else {
        e2e.iter()
            .filter(|m| RESULT_LINE_E2E.contains(&m.name.as_str()))
            .collect()
    };
    println!("{}", json_line(correct, &ledger, &chosen));
    std::process::exit(if correct { 0 } else { 1 });
}

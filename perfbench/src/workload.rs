//! The three workloads, each run untraced (for end-to-end metrics) and
//! traced (for per-layer metrics) through the same public entry points a
//! user calls.

use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

use followscent::checkpoint::{CheckpointError, CheckpointSink};
use followscent::core::{PipelineConfig, PipelineReport};
use followscent::discovery::DiscoveryConfig;
use followscent::ipv6::Ipv6Prefix;
use followscent::prober::{ProbeTransport, WorldView};
use followscent::sched::{AllocationRecord, Campaign as Tenant, Scheduler, SchedulerReport};
use followscent::simnet::{scenarios, CpeId, Engine, SimDuration, WorldScale};
use followscent::stream::{
    MonitorConfig, MonitorControl, MonitorReport, MonitorSession, MonitorSnapshot, StreamError,
    StreamMonitor, WatchChurn,
};
use followscent::telemetry::StreamObserver;
use followscent::{Campaign, CampaignMode};

use crate::trace::{EpochClock, EpochMode, Hooks, TraceData, Traced, Tracer};

/// The world seed every workload builds its world from unless overridden.
pub const WORLD_SEED: u64 = 7;
/// Tenants in the `tenants` workload.
pub const TENANTS: usize = 100;
/// Probe budget per unit of tenant weight.
pub const PPS_PER_WEIGHT: u64 = 500;
/// Initial watch list size of the `monitor` workload (its watch capacity).
pub const MONITOR_WATCH: usize = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Survey,
    Monitor,
    Tenants,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Survey, Workload::Monitor, Workload::Tenants];

    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Survey => "survey",
            Workload::Monitor => "monitor",
            Workload::Tenants => "tenants",
        }
    }
}

/// A latest-only checkpoint sink: it keeps the newest snapshot in memory.
#[derive(Debug, Default)]
pub struct LatestSink {
    pub bytes: Vec<u8>,
    pub stored: u64,
}

impl CheckpointSink for LatestSink {
    fn store(&mut self, _epoch: u64, bytes: &[u8]) -> Result<(), CheckpointError> {
        self.bytes.clear();
        self.bytes.extend_from_slice(bytes);
        self.stored += 1;
        Ok(())
    }
}

/// Everything a workload needs before its timed run: the world plus the
/// configs and watch lists built from the seed.
pub struct Setup {
    pub workload: Workload,
    pub engine: Engine,
    pub build_s: f64,
    pub seed: u64,
    /// Pool prefixes whose ground-truth policy rotates.
    pub rotating_pools: Vec<Ipv6Prefix>,
    pub monitor: MonitorConfig,
    pub watched: Vec<Ipv6Prefix>,
    pub tenants: Vec<(MonitorConfig, Vec<Ipv6Prefix>, u64)>,
}

/// A distinct campaign seed per tenant, derived from the workload seed.
fn tenant_seed(seed: u64, tenant: usize) -> u64 {
    let mut z = seed ^ (tenant as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `/48`s holding the most responsive EUI-64 devices at `config.start`
/// (ground truth), densest first, ties in prefix order.
fn densest_48s(engine: &Engine, config: &MonitorConfig, count: usize) -> Vec<Ipv6Prefix> {
    let mut devices: BTreeMap<Ipv6Prefix, u64> = BTreeMap::new();
    for (pool_idx, pool) in engine.pools().iter().enumerate() {
        for (index, cpe) in pool.cpes.iter().enumerate() {
            if !(cpe.eui64 && cpe.responsive) {
                continue;
            }
            let id = CpeId {
                pool: pool_idx as u32,
                index: index as u32,
            };
            if let Some(delegation) = engine.current_delegation(id, config.start) {
                let len = delegation.len().min(48);
                let block = delegation.supernet(len).expect("supernet of a delegation");
                *devices.entry(block).or_default() += 1;
            }
        }
    }
    let mut ranked: Vec<(Ipv6Prefix, u64)> = devices.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked.into_iter().take(count).map(|(p, _)| p).collect()
}

/// Every pool's /48s, taken one per pool in turn.
fn round_robin_48s(engine: &Engine) -> Vec<Ipv6Prefix> {
    let per_pool: Vec<Vec<Ipv6Prefix>> = engine
        .pools()
        .iter()
        .map(|p| match p.config.prefix.subnets(48) {
            Ok(subnets) => subnets.collect(),
            Err(_) => vec![p.config.prefix],
        })
        .collect();
    let rounds = per_pool.iter().map(Vec::len).max().unwrap_or(0);
    (0..rounds)
        .flat_map(|i| per_pool.iter().filter_map(move |p| p.get(i).copied()))
        .collect()
}

/// Build the workload's world and configs.
pub fn setup(workload: Workload, world_seed: u64, seed: u64) -> Result<Setup, String> {
    let world = match workload {
        Workload::Survey => scenarios::paper_world(
            world_seed,
            WorldScale {
                divisor: 1,
                max_48s_per_as: 8192,
                other_ases: 96,
            },
        ),
        Workload::Monitor => scenarios::paper_world(world_seed, WorldScale::experiment()),
        Workload::Tenants => scenarios::continuous_world(world_seed),
    };
    let started = Instant::now();
    let engine = Engine::build(world).map_err(|e| format!("world build failed: {e}"))?;
    let build_s = started.elapsed().as_secs_f64();
    let rotating_pools = engine
        .pools()
        .iter()
        .filter(|p| p.config.rotation.rotates())
        .map(|p| p.config.prefix)
        .collect();
    let mut setup = Setup {
        workload,
        engine,
        build_s,
        seed,
        rotating_pools,
        monitor: MonitorConfig::default(),
        watched: Vec::new(),
        tenants: Vec::new(),
    };
    match workload {
        Workload::Survey => {}
        Workload::Monitor => {
            setup.monitor = MonitorConfig {
                shards: 1,
                producers: 1,
                seed,
                windows: 42,
                churn: Some(WatchChurn {
                    refresh_every: 1,
                    watch_capacity: MONITOR_WATCH,
                    ..WatchChurn::default()
                }),
                discovery: Some(DiscoveryConfig {
                    probe_budget: 65_536,
                    ..DiscoveryConfig::paper_scale()
                }),
                checkpoint_every: Some(7),
                ..MonitorConfig::default()
            };
            setup.watched = densest_48s(&setup.engine, &setup.monitor, MONITOR_WATCH);
        }
        Workload::Tenants => {
            let blocks = round_robin_48s(&setup.engine);
            if blocks.is_empty() {
                return Err("world has no pools to watch".into());
            }
            setup.tenants = (0..TENANTS)
                .map(|i| {
                    let config = MonitorConfig {
                        shards: 1,
                        producers: 1,
                        seed: tenant_seed(seed, i),
                        windows: 40,
                        churn: Some(WatchChurn {
                            refresh_every: 1,
                            ..WatchChurn::default()
                        }),
                        ..MonitorConfig::default()
                    };
                    let watched = vec![
                        blocks[(2 * i) % blocks.len()],
                        blocks[(2 * i + 1) % blocks.len()],
                    ];
                    (config, watched, 1 + (i % 4) as u64)
                })
                .collect();
        }
    }
    Ok(setup)
}

impl Setup {
    fn global_pps(&self) -> u64 {
        PPS_PER_WEIGHT * self.tenants.iter().map(|t| t.2).sum::<u64>()
    }

    fn survey_config(&self) -> PipelineConfig {
        PipelineConfig {
            seed: self.seed,
            ..PipelineConfig::default()
        }
    }

    fn epoch_len(config: &MonitorConfig) -> SimDuration {
        let refresh = config.churn.map_or(config.windows, |c| c.refresh_every);
        SimDuration::from_secs(config.window_interval.as_secs() * refresh)
    }
}

/// Report-derived facts of one run (deterministic: a pure function of the
/// world and config).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Facts {
    /// `(session, /48)` reported as rotating.
    pub reported: Vec<(u32, Ipv6Prefix)>,
    /// `(session, /48)` the report says were watched (monitor, tenants).
    pub watched: Option<HashSet<(u32, Ipv6Prefix)>>,
    pub validated_48s: u64,
    pub rotating_48s: u64,
    pub expansion_probes: u64,
    pub admitted: u64,
    pub evicted: u64,
    pub discovery: [u64; 5],
    pub tenant_epochs: u64,
    pub allocations: u64,
    pub failed_tenants: u64,
    pub tenant_outcomes: u64,
}

/// Timings of the checkpoint layer in one run (milliseconds).
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckpointCost {
    pub snapshots: u64,
    pub bytes_last: u64,
    pub snapshot_ms: f64,
    pub encode_ms: f64,
    pub decode_ms: f64,
    pub resume_ms: f64,
}

/// One run of a workload.
#[derive(Debug, Default)]
pub struct Outcome {
    pub run_s: f64,
    pub report: Option<Report>,
    /// Epoch wall times (ms), close to close (untraced runs only).
    pub epoch_ms: Vec<f64>,
    /// `from_bytes` + `MonitorSession::new` + `resume` of the final snapshot.
    pub restore_s: Option<f64>,
    /// Output checks made by the run: (name, passed).
    pub checks: Vec<(&'static str, bool)>,
    pub facts: Facts,
    pub checkpoint: CheckpointCost,
    pub trace: Option<TraceData>,
}

fn monitor_facts(session: u32, report: &MonitorReport, initial: &[Ipv6Prefix], facts: &mut Facts) {
    facts
        .reported
        .extend(report.rotating_48s.iter().map(|p| (session, *p)));
    let watched = facts.watched.get_or_insert_with(HashSet::new);
    watched.extend(initial.iter().map(|p| (session, *p)));
    for revision in &report.revisions {
        watched.extend(revision.admitted.iter().map(|p| (session, *p)));
    }
    let (admitted, evicted) = report.churn_counts();
    facts.validated_48s += report.validated_48s.len() as u64;
    facts.rotating_48s += report.rotating_48s.len() as u64;
    facts.expansion_probes += report.expansion_probes;
    facts.admitted += admitted as u64;
    facts.evicted += evicted as u64;
    if let Some(d) = &report.discovery {
        facts.discovery[0] += d.probes;
        facts.discovery[1] += d.splits;
        facts.discovery[2] += d.merges;
        facts.discovery[3] += d.leaves;
        facts.discovery[4] += d.dense_48s.len() as u64;
    }
}

/// A run's report, compared whole between runs. Back-pressure stall counts
/// are zeroed first: a stall is the router finding a shard channel full, a
/// fact about thread scheduling that a snapshot does not carry and a rerun
/// does not repeat.
#[derive(Debug, PartialEq)]
pub enum Report {
    Survey(PipelineReport),
    Monitor(MonitorReport),
    Tenants(
        Vec<(usize, u64, Result<MonitorReport, StreamError>)>,
        Vec<AllocationRecord>,
    ),
}

fn monitor_report(mut report: MonitorReport) -> MonitorReport {
    report.backpressure_stalls = 0;
    report
}

fn scheduler_report(report: SchedulerReport) -> Report {
    Report::Tenants(
        report
            .tenants
            .into_iter()
            .map(|t| (t.tenant, t.weight, t.outcome.map(monitor_report)))
            .collect(),
        report.allocations,
    )
}

fn scheduler_facts(setup: &Setup, report: &SchedulerReport, facts: &mut Facts) {
    facts.allocations = report.allocations.len() as u64;
    for outcome in &report.tenants {
        facts.tenant_outcomes += 1;
        match &outcome.outcome {
            Ok(r) => {
                let (config, watched, _) = &setup.tenants[outcome.tenant];
                monitor_facts(outcome.tenant as u32, r, watched, facts);
                let epoch_windows = config.churn.map_or(config.windows, |c| c.refresh_every);
                facts.tenant_epochs += r.windows.div_ceil(epoch_windows);
            }
            Err(_) => facts.failed_tenants += 1,
        }
    }
}

/// Run `f`, inside a span named `name` when tracing.
fn timed<T>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(tracer) => tracer.span(name, f),
        None => f(),
    }
}

/// Resume a fresh session from the final snapshot `bytes`, recording the
/// restore time (decode, then session set-up and resume) in `out` and
/// checking that finishing the session reproduces `expected`.
fn restore<B: ProbeTransport + WorldView + ?Sized>(
    world: &B,
    setup: &Setup,
    bytes: &[u8],
    expected: &MonitorReport,
    tracer: Option<&Tracer>,
    out: &mut Outcome,
) -> Result<(), String> {
    let started = Instant::now();
    let snapshot = timed(tracer, "MonitorSnapshot::from_bytes", || {
        MonitorSnapshot::from_bytes(bytes)
    })
    .map_err(|e| format!("final snapshot does not decode: {e}"))?;
    let decoded = started.elapsed();
    let session = timed(tracer, "MonitorSession::resume", || {
        MonitorSession::new(world, setup.monitor.clone(), setup.watched.clone(), None)
            .resume(snapshot)
    })
    .map_err(|e| format!("final snapshot does not resume: {e}"))?;
    let restored = started.elapsed();
    out.restore_s = Some(restored.as_secs_f64());
    out.checkpoint.decode_ms = decoded.as_secs_f64() * 1e3;
    out.checkpoint.resume_ms = (restored - decoded).as_secs_f64() * 1e3;
    let resumed = monitor_report(session.finish());
    out.checks
        .push(("resumed report equals the run's", &resumed == expected));
    Ok(())
}

/// Run the workload with no tracing: the end-to-end measurement.
pub fn run_untraced(setup: &Setup) -> Result<Outcome, String> {
    let engine = &setup.engine;
    let mut out = Outcome::default();
    match setup.workload {
        Workload::Survey => {
            let started = Instant::now();
            let report = Campaign::builder()
                .world(engine)
                .pipeline_config(setup.survey_config())
                .mode(CampaignMode::Streamed {
                    shards: 1,
                    producers: 1,
                })
                .run()
                .map_err(|e| format!("survey failed: {e}"))?;
            out.run_s = started.elapsed().as_secs_f64();
            let report = report
                .pipeline()
                .ok_or("survey returned no pipeline report")?;
            survey_facts(report, &mut out.facts);
            out.report = Some(Report::Survey(report.clone()));
        }
        Workload::Monitor => {
            let clock = EpochClock::default();
            let mut sink = LatestSink::default();
            let started = Instant::now();
            let report = StreamMonitor::new(setup.monitor.clone())
                .run_controlled(
                    engine,
                    &setup.watched,
                    MonitorControl {
                        observer: Some(&clock),
                        sink: Some(&mut sink),
                        ..MonitorControl::default()
                    },
                )
                .map_err(|e| format!("monitor failed: {e}"))?;
            out.run_s = started.elapsed().as_secs_f64();
            out.epoch_ms = clock.epoch_ms(started);
            let report = monitor_report(report);
            monitor_facts(0, &report, &setup.watched, &mut out.facts);
            out.checkpoint.snapshots = sink.stored;
            out.checkpoint.bytes_last = sink.bytes.len() as u64;
            restore(engine, setup, &sink.bytes, &report, None, &mut out)?;
            out.report = Some(Report::Monitor(report));
        }
        Workload::Tenants => {
            let clock = EpochClock::default();
            let started = Instant::now();
            let mut builder = Scheduler::builder().global_pps(setup.global_pps());
            for (config, watched, weight) in &setup.tenants {
                builder = builder.add(
                    Tenant::new(engine, config.clone(), watched.clone()).observer(&clock),
                    *weight,
                );
            }
            let report = builder
                .run()
                .map_err(|e| format!("scheduler failed: {e}"))?;
            out.run_s = started.elapsed().as_secs_f64();
            out.epoch_ms = clock.epoch_ms(started);
            scheduler_facts(setup, &report, &mut out.facts);
            out.report = Some(scheduler_report(report));
        }
    }
    Ok(out)
}

fn survey_facts(report: &PipelineReport, facts: &mut Facts) {
    facts.reported = report.rotating_48s.iter().map(|p| (0, *p)).collect();
    facts.validated_48s = report.validated_48s as u64;
    facts.rotating_48s = report.rotating_48s.len() as u64;
    facts.expansion_probes = report.expansion_probed;
}

/// Run the workload traced: the same entry points behind the probe wrapper
/// and the hook observer, with spans around every public call.
pub fn run_traced(setup: &Setup, run: u64) -> Result<Outcome, String> {
    let engine = &setup.engine;
    let mut out = Outcome::default();
    match setup.workload {
        Workload::Survey => {
            let tracer = Tracer::new(run, EpochMode::Phases);
            let world = Traced::new(engine, &tracer, 0);
            let hooks = Hooks::new(&tracer, 0);
            let started = Instant::now();
            let report = tracer.span("Campaign::run", || {
                Campaign::builder()
                    .world(&world)
                    .pipeline_config(setup.survey_config())
                    .mode(CampaignMode::Streamed {
                        shards: 1,
                        producers: 1,
                    })
                    .telemetry(&hooks)
                    .run()
            });
            out.run_s = started.elapsed().as_secs_f64();
            let report = report.map_err(|e| format!("traced survey failed: {e}"))?;
            let report = report
                .pipeline()
                .ok_or("survey returned no pipeline report")?;
            survey_facts(report, &mut out.facts);
            out.report = Some(Report::Survey(report.clone()));
            out.trace = Some(tracer.finish());
        }
        Workload::Monitor => {
            let tracer = Tracer::new(run, EpochMode::ByCall);
            let config = &setup.monitor;
            let session_tag = tracer.add_session(config.start, Setup::epoch_len(config));
            let world = Traced::new(engine, &tracer, session_tag);
            let hooks = Hooks::new(&tracer, session_tag);
            let mut sink = LatestSink::default();
            let started = Instant::now();
            // The same loop as `StreamMonitor::run_controlled`, driven through
            // the session's public calls so each one gets its own span.
            let top = tracer.open("StreamMonitor::run_controlled");
            let mut session = tracer.span("MonitorSession::new", || {
                MonitorSession::new(
                    &world,
                    config.clone(),
                    setup.watched.clone(),
                    Some(&hooks as &dyn StreamObserver),
                )
            });
            while !session.is_done() {
                let epoch = tracer.begin_epoch();
                let result = session.run_epoch(config.packets_per_second);
                tracer.end_epoch(epoch);
                result.map_err(|e| format!("traced monitor failed: {e}"))?;
                let on_cadence = config
                    .checkpoint_every
                    .is_none_or(|every| session.completed_windows() % every == 0);
                if on_cadence || session.is_done() {
                    let t = Instant::now();
                    let snapshot = tracer.span("MonitorSession::snapshot", || session.snapshot());
                    out.checkpoint.snapshot_ms += t.elapsed().as_secs_f64() * 1e3;
                    let t = Instant::now();
                    let bytes = tracer.span("MonitorSnapshot::to_bytes", || snapshot.to_bytes());
                    out.checkpoint.encode_ms += t.elapsed().as_secs_f64() * 1e3;
                    drop(snapshot);
                    let key = session.next_epoch() as u64;
                    tracer
                        .span("CheckpointSink::store", || sink.store(key, &bytes))
                        .map_err(|e| format!("checkpoint store failed: {e}"))?;
                }
            }
            let report = tracer.span("MonitorSession::finish", || session.finish());
            tracer.close(top);
            out.run_s = started.elapsed().as_secs_f64();
            let report = monitor_report(report);
            monitor_facts(session_tag, &report, &setup.watched, &mut out.facts);
            out.checkpoint.snapshots = sink.stored;
            out.checkpoint.bytes_last = sink.bytes.len() as u64;
            restore(&world, setup, &sink.bytes, &report, Some(&tracer), &mut out)?;
            out.report = Some(Report::Monitor(report));
            out.trace = Some(tracer.finish());
        }
        Workload::Tenants => {
            let tracer = Tracer::new(run, EpochMode::ByClose);
            let tags: Vec<u32> = setup
                .tenants
                .iter()
                .map(|(config, _, _)| tracer.add_session(config.start, Setup::epoch_len(config)))
                .collect();
            let worlds: Vec<Traced<'_, Engine>> = tags
                .iter()
                .map(|&tag| Traced::new(engine, &tracer, tag))
                .collect();
            let hooks: Vec<Hooks<'_>> = tags.iter().map(|&tag| Hooks::new(&tracer, tag)).collect();
            let started = Instant::now();
            let top = tracer.open("Scheduler::run");
            tracer.begin_scheduled();
            let mut builder = Scheduler::builder().global_pps(setup.global_pps());
            for (i, (config, watched, weight)) in setup.tenants.iter().enumerate() {
                builder = builder.add(
                    Tenant::new(&worlds[i], config.clone(), watched.clone()).observer(&hooks[i]),
                    *weight,
                );
            }
            let report = builder.run();
            tracer.end_scheduled();
            tracer.close(top);
            out.run_s = started.elapsed().as_secs_f64();
            let report = report.map_err(|e| format!("traced scheduler failed: {e}"))?;
            scheduler_facts(setup, &report, &mut out.facts);
            out.report = Some(scheduler_report(report));
            out.trace = Some(tracer.finish());
        }
    }
    Ok(out)
}

//! The benchmark's own checks, made once on a small world: the streamed
//! survey equals the batch pipeline, and measuring through the probe wrapper
//! and the hook observer leaves the report unchanged.

use followscent::core::{PipelineConfig, PipelineReport};
use followscent::simnet::{scenarios, Engine, WorldScale};
use followscent::{Campaign, CampaignMode};
use perfbench::stats::digest;
use perfbench::trace::{EpochMode, Hooks, Traced, Tracer};

const PHASES: [&str; 5] = ["seed", "expansion", "density", "detection", "finish"];

fn config() -> PipelineConfig {
    PipelineConfig {
        max_48s_per_seed: 128,
        ..PipelineConfig::default()
    }
}

fn survey(engine: &Engine, mode: CampaignMode) -> PipelineReport {
    Campaign::builder()
        .world(engine)
        .pipeline_config(config())
        .mode(mode)
        .run()
        .expect("survey runs")
        .pipeline()
        .expect("pipeline report")
        .clone()
}

#[test]
fn streamed_survey_equals_batch_and_tracing_changes_nothing() {
    let world = scenarios::paper_world(71, WorldScale::small());
    let streamed_mode = CampaignMode::Streamed {
        shards: 1,
        producers: 1,
    };
    // A fresh engine per run: the engine's ICMP rate-limit state is shared.
    let batch = survey(&Engine::build(world.clone()).unwrap(), CampaignMode::Batch);
    let streamed = survey(&Engine::build(world.clone()).unwrap(), streamed_mode);
    assert_eq!(streamed, batch);
    assert!(!streamed.rotating_48s.is_empty(), "the small world rotates");

    let engine = Engine::build(world).unwrap();
    let tracer = Tracer::new(0, EpochMode::Phases);
    let traced = Traced::new(&engine, &tracer, 0);
    let hooks = Hooks::new(&tracer, 0);
    let report = tracer
        .span("Campaign::run", || {
            Campaign::builder()
                .world(&traced)
                .pipeline_config(config())
                .mode(streamed_mode)
                .telemetry(&hooks)
                .run()
        })
        .expect("traced survey runs");
    let report = report.pipeline().expect("pipeline report");
    assert_eq!(digest(report), digest(&streamed), "report bytes unchanged");

    let trace = tracer.finish();
    let wall = trace.total_ns("Campaign::run");
    let phases: u64 = PHASES
        .iter()
        .map(|p| {
            let name = format!("phase.{p}");
            assert_eq!(trace.named(&name).count(), 1, "one {name} span");
            trace.total_ns(&name)
        })
        .sum();
    assert!(phases.abs_diff(wall) <= wall / 10, "phases tile the run");
    let (probes, _) = trace.probes();
    assert_eq!(
        probes, trace.counts.probes_sent,
        "every probe was sent by the prober"
    );
    assert!(trace.traces().0 > 0, "the seed phase traceroutes");
    let seed = trace.named("phase.seed").next().unwrap();
    assert_eq!((seed.probes, seed.traces > 0), (0, true));
    assert!(!trace.probed.is_empty(), "detection probes were recorded");
}

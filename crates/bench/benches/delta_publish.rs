//! Micro-benchmark: sub-epoch delta publishing vs full-epoch retraining.
//!
//! Measures the freshness economics of the delta tier and writes
//! `BENCH_delta_publish.json` at the workspace root (also in `--smoke` mode,
//! with tiny sampling — CI asserts the file is emitted and well-formed):
//!
//! * **delta publish latency** — one `ShardedFeedbackLoop::run_delta_round`
//!   of a one-shard fleet, serving no jobs, on a window where a bounded
//!   fraction (≤25%) of signatures is dirty: dirty-set detection, dirty-only
//!   refits, per-signature guard, copy-on-write publish;
//! * **full epoch latency** — `ShardedFeedbackLoop::run_epoch`, serving no
//!   jobs, on the *same* window and incumbent (interim stores for the
//!   meta-model, combined FastTree retrain, seeded final stores, guard,
//!   publish);
//! * **staleness window reduction** — how much sooner a workload shift is
//!   served by fresh models when a delta ships it instead of waiting for the
//!   full retrain (the latency ratio of the two publish paths);
//! * **predictions/sec unchanged** — serving throughput through a
//!   delta-published snapshot vs its full-epoch incumbent (copy-on-write maps
//!   and the shared, identity-salted prediction cache keep costing identical).

use std::sync::Arc;
use std::time::Duration;

use cleo_bench::{BenchGroup, BenchMeta};
use cleo_common::obs::Obs;
use cleo_core::feedback::{DeltaDecision, DeltaOutcome, FeedbackConfig, WindowEviction};
use cleo_core::sharding::{
    ClusterRouter, ShardedFeedbackConfig, ShardedFeedbackLoop, ShardedRegistry,
};
use cleo_core::{PublishDecision, RetrainOutcome};
use cleo_engine::exec::{Simulator, SimulatorConfig};
use cleo_engine::telemetry::TelemetryLog;
use cleo_engine::workload::generator::{generate_cluster_workload, ClusterConfig};
use cleo_engine::workload::JobSpec;
use cleo_engine::{ClusterId, DayIndex};
use cleo_optimizer::{CostModelProvider, HeuristicCostModel, OptimizerConfig, SharedOptimizer};

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A full guarded retrain over the current window (an epoch serving no jobs).
fn retrain(fl: &mut ShardedFeedbackLoop) -> RetrainOutcome {
    fl.run_epoch(&[]).expect("full epoch").shards[0].retrain
}

/// A dirty-only delta round over the current window (serving no jobs).
fn publish_dirty(fl: &mut ShardedFeedbackLoop) -> DeltaOutcome {
    fl.run_delta_round(&[]).expect("delta round").shards[0].outcome
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let per_day_jobs = if smoke { 24 } else { 150 };
    let dirty_job_fraction = 0.03;

    // Execute a 3-day workload once under the default model; both publish
    // paths replay the same telemetry.  Full runs use the paper-like scale so
    // the signature population resembles a production cluster's (a full epoch
    // retrains the whole population; a delta only the dirty slice); smoke runs
    // stay small for CI.
    let cluster_config = if smoke {
        ClusterConfig::small(ClusterId(0))
    } else {
        ClusterConfig::paper_like(ClusterId(0))
    };
    let workload = generate_cluster_workload(&cluster_config, 3);
    let simulator = Simulator::new(SimulatorConfig::default());
    let default_model = HeuristicCostModel::default_model();
    let log = {
        let jobs: Vec<&JobSpec> = workload.jobs.iter().collect();
        cleo_core::pipeline::run_jobs(
            &jobs,
            &default_model,
            OptimizerConfig::default(),
            &simulator,
        )
        .expect("execute workload")
    };
    let day = |d: u32| {
        TelemetryLog::from_jobs(
            log.slice_days(DayIndex(d), DayIndex(d))
                .into_jobs()
                .into_iter()
                .take(per_day_jobs)
                .collect(),
        )
    };

    // Steady state: v1 trained on days 0–1 by a one-shard fleet (the
    // single-cluster loop).  Registry lifecycle (epoch/delta publishes and the
    // bench's rollbacks) flows into one observability registry, snapshotted
    // into the JSON below.
    let router = Arc::new(ClusterRouter::with_uniform_similarity(
        Arc::new(ShardedRegistry::new([ClusterId(0)])),
        Arc::new(HeuristicCostModel::default_model()),
    ));
    let registry = Arc::clone(router.registry().shard(ClusterId(0)).expect("shard"));
    let obs = Arc::new(Obs::new());
    registry.attach_obs(Arc::clone(&obs), 0);
    let mut fl = ShardedFeedbackLoop::new(
        ShardedFeedbackConfig {
            shard: FeedbackConfig {
                eviction: WindowEviction::JobCount(1_000_000),
                ..FeedbackConfig::default()
            },
            ..ShardedFeedbackConfig::default()
        },
        Simulator::new(SimulatorConfig::default()),
        Arc::clone(&router),
    );
    fl.observe(day(0)).expect("observe day 0");
    fl.observe(day(1)).expect("observe day 1");
    let first = retrain(&mut fl);
    assert!(
        matches!(first.decision, PublishDecision::Published { version: 1 }),
        "{first:?}"
    );

    // The sub-epoch shift: a small slice of day-2 telemetry lands, dirtying a
    // bounded fraction of the signature population.
    let day2 = day(2).into_jobs();
    let dirty_jobs = ((day2.len() as f64 * dirty_job_fraction).round() as usize).max(2);
    fl.observe(TelemetryLog::from_jobs(
        day2.into_iter().take(dirty_jobs).collect(),
    ))
    .expect("observe day 2 slice");
    let window_jobs = fl.window(ClusterId(0)).expect("shard window").len();

    // Probe the dirty set once (then roll back so every timed round starts
    // from the identical v1 incumbent and window).
    let probe = publish_dirty(&mut fl);
    let DeltaDecision::Published {
        changed_signatures, ..
    } = probe.decision
    else {
        panic!("the day-2 slice must dirty some signatures: {probe:?}");
    };
    // "Dirty" counts every signature whose window multiset moved: the refit
    // ones plus those the hot-signature gate deferred to the next full epoch.
    let moved = probe.dirty_signatures + probe.deferred_signatures;
    let dirty_fraction = moved as f64 / (moved + probe.unchanged_signatures).max(1) as f64;
    // Smoke runs use a tiny signature population (two dirty jobs are a large
    // share of it); the dirty budget is asserted on the measured scenario only.
    assert!(
        smoke || dirty_fraction <= 0.25,
        "the scenario must stay within the ≤25% dirty budget, got {dirty_fraction:.3}"
    );
    registry.rollback();

    let mut group = BenchGroup::new("delta_publish");
    group.sample_size(if smoke { 2 } else { 15 });

    // (a) Sub-epoch delta publish on the dirty window (rolled back after each
    // publishing round so the incumbent is always v1; rollback is O(1)
    // pointer work, and a skipped/rejected round leaves the registry as-is).
    let delta_sample = group.bench_function("delta_publish", || {
        let outcome = publish_dirty(&mut fl);
        if matches!(outcome.decision, DeltaDecision::Published { .. }) {
            registry.rollback();
        }
        outcome
    });

    // (b) Full-epoch retrain + publish on the same window and incumbent.
    let full_sample = group.bench_function("full_epoch", || {
        let outcome = retrain(&mut fl);
        if matches!(outcome.decision, PublishDecision::Published { .. }) {
            registry.rollback();
        }
        outcome
    });

    // (c) Serving throughput: the same test-day jobs served through the full
    // incumbent v1 and through a delta-published successor.
    let serve_jobs: Vec<&JobSpec> = workload
        .jobs
        .iter()
        .filter(|j| j.meta.day == DayIndex(2))
        .take(per_day_jobs)
        .collect();
    let shared = SharedOptimizer::new(
        Arc::clone(&router) as Arc<dyn CostModelProvider>,
        OptimizerConfig::resource_aware(),
    );
    let serve = || shared.optimize_all(&serve_jobs, 1).expect("serve");
    let full_serve_sample = group.bench_function("serve_full_snapshot", serve);
    let delta_outcome = publish_dirty(&mut fl);
    assert!(matches!(
        delta_outcome.decision,
        DeltaDecision::Published { .. }
    ));
    let delta_serve_sample = group.bench_function("serve_delta_snapshot", serve);
    group.finish();

    let delta_ms = ms(delta_sample.median);
    let full_ms = ms(full_sample.median);
    let speedup = full_ms / delta_ms.max(1e-9);
    let staleness_reduction = 1.0 - delta_ms / full_ms.max(1e-9);
    let rate = |jobs: usize, d: Duration| jobs as f64 / d.as_secs_f64().max(1e-12);
    let full_rate = rate(serve_jobs.len(), full_serve_sample.median);
    let delta_rate = rate(serve_jobs.len(), delta_serve_sample.median);

    println!(
        "\nwindow: {window_jobs} jobs; moved: {moved}/{} signatures ({:.1}%): {} refit, \
         {} deferred by the hot-signature gate, {} dropped by the guard\n\
         delta publish: {delta_ms:.2} ms vs full epoch: {full_ms:.2} ms -> {speedup:.1}x \
         (staleness window -{:.1}%)\nserving: {full_rate:.0} jobs/sec (full snapshot) vs \
         {delta_rate:.0} jobs/sec (delta snapshot)",
        moved + probe.unchanged_signatures,
        dirty_fraction * 100.0,
        probe.dirty_signatures,
        probe.deferred_signatures,
        probe.dropped_regressions,
        staleness_reduction * 100.0,
    );

    let meta_fields = BenchMeta::capture(4).json_fields();
    let metrics_json = obs.metrics().snapshot().to_json();
    let json = format!(
        "{{\n  \"bench\": \"delta_publish\",\n  \"smoke\": {smoke},\n  \
         {meta_fields},\n  \
         \"window_jobs\": {window_jobs},\n  \
         \"dirty_signatures\": {moved},\n  \"refit_signatures\": {},\n  \
         \"deferred_signatures\": {},\n  \"unchanged_signatures\": {},\n  \
         \"dirty_fraction\": {dirty_fraction:.4},\n  \
         \"changed_signatures_published\": {changed_signatures},\n  \
         \"dropped_regressions\": {},\n  \
         \"delta_publish_ms\": {delta_ms:.3},\n  \"full_epoch_ms\": {full_ms:.3},\n  \
         \"delta_publish_speedup\": {speedup:.2},\n  \
         \"staleness_window_reduction\": {staleness_reduction:.4},\n  \
         \"jobs_per_sec_full_snapshot\": {full_rate:.1},\n  \
         \"jobs_per_sec_delta_snapshot\": {delta_rate:.1},\n  \
         \"metrics\": {metrics_json}\n}}\n",
        probe.dirty_signatures,
        probe.deferred_signatures,
        probe.unchanged_signatures,
        probe.dropped_regressions,
    );
    // Anchor the result file at the workspace root regardless of the bench cwd.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_delta_publish.json");
    std::fs::write(&path, &json).expect("write BENCH_delta_publish.json");
    println!("wrote {}", path.display());
}

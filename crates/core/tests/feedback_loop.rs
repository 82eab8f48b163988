//! Feedback-loop system tests: the properties the continuous-retraining refactor
//! promised, pinned on the paper's single-cluster loop (a one-shard fleet).
//!
//! 1. **Determinism** — N epochs of the loop publish bit-identical registry
//!    versions whether serving/training runs on 1 thread or T.
//! 2. **Guarded rollout** — a poisoned epoch (telemetry whose labels were
//!    corrupted) produces a candidate that regresses on the clean holdout, is
//!    rejected, and the previous version keeps serving.
//! 3. **Closing the loop** — within ≤3 epochs the learned model versions produce
//!    plans with lower end-to-end latency than the default cost model that served
//!    epoch 1.

mod common;

use std::sync::Arc;

use cleo_common::rng::DetRng;
use cleo_core::feedback::{FeedbackConfig, PublishDecision, WindowEviction};
use cleo_core::sharding::{ShardedEpochReport, ShardedFeedbackLoop};
use cleo_engine::telemetry::TelemetryLog;
use cleo_engine::workload::generator::{generate_cluster_workload, ClusterConfig};
use cleo_engine::workload::JobSpec;

use common::{one_shard_loop, one_shard_router, shard_registry, shard_window, CLUSTER};

fn jobs() -> Vec<JobSpec> {
    // Two generated days of one small cluster: plenty of recurring templates, so
    // per-signature models cover most of the next epoch's operators.
    generate_cluster_workload(&ClusterConfig::small(CLUSTER), 2).jobs
}

fn config(threads: usize) -> FeedbackConfig {
    let mut config = FeedbackConfig {
        eviction: WindowEviction::JobCount(400),
        serving_threads: threads,
        ..FeedbackConfig::default()
    };
    config.trainer.threads = threads;
    config
}

/// Run one epoch and return the version that served its jobs (0 = the
/// fallback model) with the report.
fn run_epoch(fl: &mut ShardedFeedbackLoop, jobs: &[&JobSpec]) -> (u64, ShardedEpochReport) {
    let served_version = shard_registry(fl).current_version();
    (served_version, fl.run_epoch(jobs).unwrap())
}

#[test]
fn epochs_are_bit_identical_across_thread_counts() {
    let jobs = jobs();
    let refs: Vec<&JobSpec> = jobs.iter().collect();

    let run_loop = |threads: usize| {
        let mut fl = one_shard_loop(config(threads), one_shard_router());
        let mut reports = Vec::new();
        for _ in 0..3 {
            reports.push(run_epoch(&mut fl, &refs));
        }
        (fl, reports)
    };

    let (serial_loop, serial_reports) = run_loop(1);
    for threads in [2, 8] {
        let (parallel_loop, parallel_reports) = run_loop(threads);

        // Same decisions, same served versions, same telemetry totals per epoch.
        for ((served_a, a), (served_b, b)) in serial_reports.iter().zip(&parallel_reports) {
            assert_eq!(a.epoch, b.epoch);
            assert_eq!(served_a, served_b, "epoch {}", a.epoch);
            assert_eq!(
                a.shards[0].retrain.decision, b.shards[0].retrain.decision,
                "epoch {}",
                a.epoch
            );
            assert_eq!(
                a.total_latency.to_bits(),
                b.total_latency.to_bits(),
                "epoch {} telemetry must not depend on the thread schedule",
                a.epoch
            );
        }

        // Same published versions, and each version's predictor is bit-identical:
        // probed over real plans, every prediction matches to the last bit.
        assert_eq!(
            shard_registry(&serial_loop).version_count(),
            shard_registry(&parallel_loop).version_count()
        );
        for (a, b) in shard_registry(&serial_loop)
            .versions()
            .iter()
            .zip(shard_registry(&parallel_loop).versions())
        {
            assert_eq!(a.version(), b.version());
            assert_eq!(a.epoch(), b.epoch());
            assert_eq!(
                a.holdout().correlation.to_bits(),
                b.holdout().correlation.to_bits()
            );
            // Probe every operator of a dozen executed plans: predictions must
            // match to the last bit.
            for telemetry in shard_window(&serial_loop).jobs().iter().take(12) {
                for node in telemetry.plan.operators() {
                    let x = a
                        .predictor()
                        .predict(node, node.partition_count, &telemetry.plan.meta);
                    let y = b
                        .predictor()
                        .predict(node, node.partition_count, &telemetry.plan.meta);
                    assert_eq!(
                        x.combined.to_bits(),
                        y.combined.to_bits(),
                        "version {} differs on {threads} threads",
                        a.version()
                    );
                }
            }
        }
    }
}

#[test]
fn poisoned_epoch_keeps_serving_the_previous_version() {
    let jobs = jobs();
    let refs: Vec<&JobSpec> = jobs.iter().collect();
    let router = one_shard_router();
    let mut fl = one_shard_loop(config(2), Arc::clone(&router));

    // A clean epoch publishes version 1.
    let first = fl.run_epoch(&refs).unwrap();
    assert!(matches!(
        first.shards[0].retrain.decision,
        PublishDecision::Published { version: 1 }
    ));
    assert_eq!(shard_registry(&fl).current_version(), 1);

    // Poison the next window: scramble the labels of every job the holdout split
    // will NOT sample (the guard's holdout stride is 1/holdout_fraction), so the
    // candidate trains on garbage while the guard still measures against clean
    // telemetry — the exact corruption the guarded rollout exists for.
    let stride = config(2).holdout_stride();
    let mut poisoned_jobs = shard_window(&fl).clone().into_jobs();
    let mut rng = DetRng::new(0xBAD);
    for (i, job) in poisoned_jobs.iter_mut().enumerate() {
        if i % stride == 0 {
            continue; // holdout slot: leave clean
        }
        for run in job.run.operator_runs.values_mut() {
            // Random garbage in a plausible range, uncorrelated with features.
            run.exclusive_seconds = rng.uniform(1e-3, 1e3);
        }
    }
    // A fresh loop over the same router keeps v1 serving and starts with an
    // empty window, which then holds only the poisoned telemetry.
    let mut fl = one_shard_loop(config(2), router);
    fl.observe(TelemetryLog::from_jobs(poisoned_jobs)).unwrap();

    let outcome = fl.run_epoch(&[]).unwrap().shards[0].retrain;
    assert_eq!(
        outcome.decision,
        PublishDecision::RejectedRegression,
        "candidate {:?} incumbent {:?}",
        outcome.candidate,
        outcome.incumbent
    );
    // The registry still serves version 1; nothing new was published.
    assert_eq!(shard_registry(&fl).current_version(), 1);
    assert_eq!(shard_registry(&fl).version_count(), 1);
}

#[test]
fn learned_versions_beat_the_default_model_within_three_epochs() {
    let jobs = jobs();
    let refs: Vec<&JobSpec> = jobs.iter().collect();
    let mut fl = one_shard_loop(config(0), one_shard_router());

    let mut reports = Vec::new();
    for _ in 0..3 {
        reports.push(run_epoch(&mut fl, &refs));
    }
    assert_eq!(reports[0].0, 0, "epoch 1 = default cost model");
    assert!(
        reports.iter().skip(1).any(|(served, _)| *served > 0),
        "a learned version must start serving within 3 epochs"
    );

    let baseline = reports[0].1.total_latency;
    let best_learned = reports
        .iter()
        .skip(1)
        .filter(|(served, _)| *served > 0)
        .map(|(_, r)| r.total_latency)
        .fold(f64::INFINITY, f64::min);
    assert!(
        best_learned < baseline,
        "learned-model epochs must lower total plan latency: baseline {baseline:.2}s, best learned {best_learned:.2}s"
    );

    // The loop never publishes a regressing version: every published snapshot's
    // holdout metrics were at least as good as its incumbent's at publish time.
    for (_, report) in &reports {
        let retrain = report.shards[0].retrain;
        if let (Some(candidate), Some(incumbent)) = (retrain.candidate, retrain.incumbent) {
            if matches!(retrain.decision, PublishDecision::Published { .. }) {
                assert!(
                    !candidate.regresses_from(&incumbent, 0.02, 2.0),
                    "published a regressing candidate: {candidate:?} vs {incumbent:?}"
                );
            }
        }
    }
}

//! The continuous feedback-loop experiment: the deployment story of Section 5.1
//! run end to end — epochs of serve → window → retrain → guarded publish — with
//! the per-epoch latency trajectory against the default-cost-model baseline.
//! The single-cluster loop is a fleet with one shard.

use std::sync::Arc;

use cleo_common::table::{fnum, TextTable};
use cleo_common::Result;

use cleo_core::feedback::{FeedbackConfig, PublishDecision, WindowEviction};
use cleo_core::sharding::{
    ClusterRouter, ShardedFeedbackConfig, ShardedFeedbackLoop, ShardedRegistry,
};
use cleo_core::CacheStats;
use cleo_engine::exec::{Simulator, SimulatorConfig};
use cleo_engine::workload::JobSpec;
use cleo_optimizer::HeuristicCostModel;

use crate::context::ExperimentContext;

/// Number of feedback epochs the experiment runs.
const EPOCHS: usize = 4;

/// Run the feedback loop over one cluster's recurring workload and report the
/// per-epoch serving version, guard decision, and latency trajectory.
pub fn feedback_loop(ctx: &ExperimentContext) -> Result<String> {
    let cluster = ctx.cluster(0);
    let jobs: Vec<&JobSpec> = cluster.workload.jobs.iter().collect();

    let id = cluster.workload.cluster;
    let router = Arc::new(ClusterRouter::with_uniform_similarity(
        Arc::new(ShardedRegistry::new([id])),
        Arc::new(HeuristicCostModel::default_model()),
    ));
    let registry = Arc::clone(router.registry().shard(id).expect("the cluster's shard"));
    let mut fl = ShardedFeedbackLoop::new(
        ShardedFeedbackConfig {
            shard: FeedbackConfig {
                eviction: WindowEviction::JobCount(jobs.len().max(64) * 2),
                ..FeedbackConfig::default()
            },
            ..ShardedFeedbackConfig::default()
        },
        Simulator::new(SimulatorConfig::default()),
        router,
    );

    let mut table = TextTable::new(
        "Feedback loop: versioned serving over a recurring workload",
        &[
            "Epoch",
            "Served ver",
            "Decision",
            "Window jobs",
            "Holdout corr",
            "Holdout med err %",
            "Total latency (s)",
            "vs epoch 1 %",
        ],
    );

    let mut baseline_latency = 0.0f64;
    let mut best_improvement = f64::MIN;
    for _ in 0..EPOCHS {
        let served_version = registry.current_version();
        let report = fl.run_epoch(&jobs)?;
        let shard = &report.shards[0];
        if report.epoch == 1 {
            baseline_latency = report.total_latency;
        }
        let improvement_pct = if baseline_latency > 0.0 {
            (baseline_latency - report.total_latency) / baseline_latency * 100.0
        } else {
            0.0
        };
        if served_version > 0 {
            best_improvement = best_improvement.max(improvement_pct);
        }
        let decision = match shard.retrain.decision {
            PublishDecision::Published { version } => format!("published v{version}"),
            PublishDecision::RejectedRegression => "rejected (regression)".into(),
            PublishDecision::SkippedTooFewJobs => "skipped (window too small)".into(),
        };
        let holdout = shard.retrain.candidate;
        table.add_row(&[
            report.epoch.to_string(),
            served_version.to_string(),
            decision,
            shard.window_jobs.to_string(),
            holdout.map_or("-".into(), |h| fnum(h.correlation, 3)),
            holdout.map_or("-".into(), |h| fnum(h.median_error_pct, 1)),
            fnum(report.total_latency, 1),
            fnum(improvement_pct, 1),
        ]);
    }

    let mut out = table.render();
    out.push_str(&format!(
        "\nVersions published: {} (registry serves v{}).\n",
        registry.version_count(),
        registry.current_version()
    ));
    out.push_str(&format!(
        "Best learned-epoch latency improvement vs the default-model epoch: {}%.\n",
        fnum(best_improvement, 1)
    ));
    // Aggregate over every published version: the version that served the last
    // epoch is not necessarily the current one (a newer version published after
    // serving finished has an empty, never-exercised cache).
    let mut total = CacheStats::default();
    for snapshot in registry.versions() {
        let stats = snapshot.cost_model().cache_stats();
        total.hits += stats.hits;
        total.misses += stats.misses;
    }
    out.push_str(&format!(
        "Prediction caches across published versions: {} hits / {} misses ({}% hit rate).\n",
        total.hits,
        total.misses,
        fnum(total.hit_rate() * 100.0, 1)
    ));
    Ok(out)
}

//! Shared experiment context.
//!
//! Most experiments need the same expensive artefacts: a multi-day, multi-cluster
//! workload executed under the default cost model (the telemetry Cleo trains on), and
//! a trained predictor per cluster.  [`ExperimentContext`] builds them once and the
//! individual experiment runners share them.
//!
//! Since the registry-aware port, all telemetry is collected through the
//! **shared-serving path** ([`pipeline::serve_jobs`]): baseline runs serve the
//! default model through a [`FixedCostModel`] provider, and each cluster's
//! trained predictor is published into the one shard of a per-cluster
//! [`ShardedRegistry`] whose [`ClusterRouter`] the learned-model experiments
//! serve from — the same seam (and the same prediction cache) the feedback
//! loop exercises.

use std::sync::Arc;

use cleo_core::sharding::{ClusterRouter, ShardedRegistry};
use cleo_core::trainer::TrainerConfig;
use cleo_core::{pipeline, CleoPredictor, HoldoutMetrics, ModelRegistry};
use cleo_engine::exec::{Simulator, SimulatorConfig};
use cleo_engine::telemetry::TelemetryLog;
use cleo_engine::workload::generator::{
    generate_cluster_workload, ClusterConfig, GeneratedWorkload,
};
use cleo_engine::workload::JobSpec;
use cleo_engine::{ClusterId, DayIndex};
use cleo_optimizer::{
    CostModel, CostModelProvider, FixedCostModel, HeuristicCostModel, OptimizerConfig,
};

use cleo_common::Result;

/// Environment metadata every `BENCH_*.json` result records: the honest core
/// count, a `degraded` flag when the machine has fewer cores than the bench's
/// topology assumes, the SIMD ISA the inference kernels dispatched to, and a
/// capture timestamp.  One helper instead of a copy of this block in every
/// bench binary, so the fields (and their JSON spelling) cannot drift apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchMeta {
    /// `std::thread::available_parallelism()` (1 when unknown).
    pub cores: usize,
    /// True when `cores` is below the bench's assumed minimum — throughput
    /// numbers then measure timeslicing, not the real topology.
    pub degraded: bool,
    /// The SIMD instruction set the mlkit kernels dispatched to.
    pub simd: &'static str,
    /// Seconds since the Unix epoch at capture (0 if the clock is unset).
    pub timestamp_unix: u64,
}

impl BenchMeta {
    /// Capture the environment; `min_cores` is the core count the bench's
    /// shard/worker topology assumes (below it `degraded` is set).
    pub fn capture(min_cores: usize) -> BenchMeta {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        BenchMeta {
            cores,
            degraded: cores < min_cores,
            simd: cleo_mlkit::simd::isa_name(),
            timestamp_unix: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
        }
    }

    /// The shared fields as a JSON fragment (no surrounding braces, two-space
    /// indent, no trailing comma), ready to splice into a bench's hand-built
    /// result object.
    pub fn json_fields(&self) -> String {
        format!(
            "\"cores\": {},\n  \"degraded\": {},\n  \"simd\": \"{}\",\n  \"timestamp_unix\": {}",
            self.cores, self.degraded, self.simd, self.timestamp_unix
        )
    }
}

/// How large a workload the experiments run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tens of jobs per cluster-day: used by unit tests and quick runs.
    Small,
    /// Hundreds of jobs per cluster-day: the default for the `repro` binary, mirroring
    /// the relative cluster heterogeneity of Figure 9 at ~1/100 the job count.
    PaperLike,
}

/// Everything one cluster contributes to the experiments.
pub struct ClusterData {
    /// The generated workload (templates + jobs).
    pub workload: GeneratedWorkload,
    /// Telemetry from executing every job under the default cost model.
    pub telemetry: TelemetryLog,
    /// Telemetry restricted to the training window (days 0–1).
    pub train_log: TelemetryLog,
    /// Telemetry restricted to the test day (day 2).
    pub test_log: TelemetryLog,
    /// Predictor trained on the training window (also published into
    /// [`ClusterData::registry`] as version 1).
    pub predictor: Arc<CleoPredictor>,
    /// Registry holding the trained predictor as version 1 (shared by every
    /// learned-model run of this cluster, so their prediction caches are too).
    pub registry: Arc<ModelRegistry>,
    /// One-shard router serving [`ClusterData::registry`] through the
    /// optimizer seam.
    pub provider: Arc<ClusterRouter>,
}

/// The shared context for all experiments.
pub struct ExperimentContext {
    /// Per-cluster data (clusters 1–4).
    pub clusters: Vec<ClusterData>,
    /// The simulator used throughout.
    pub simulator: Simulator,
    /// Number of generated days.
    pub days: u32,
}

impl ExperimentContext {
    /// Build the context: generate, execute (through the shared-serving path),
    /// train, and publish for all four clusters.
    pub fn build(scale: Scale, days: u32) -> Result<ExperimentContext> {
        let simulator = Simulator::new(SimulatorConfig::default());
        let default_provider: Arc<dyn CostModelProvider> = Arc::new(FixedCostModel::new(Arc::new(
            HeuristicCostModel::default_model(),
        )));
        let mut clusters = Vec::new();
        for c in 0u8..4 {
            let config = match scale {
                Scale::Small => ClusterConfig::small(ClusterId(c)),
                Scale::PaperLike => ClusterConfig::paper_like(ClusterId(c)),
            };
            let workload = generate_cluster_workload(&config, days);
            let jobs: Vec<&JobSpec> = workload.jobs.iter().collect();
            let telemetry = pipeline::serve_jobs(
                &jobs,
                Arc::clone(&default_provider),
                OptimizerConfig::default(),
                &simulator,
                0,
            )?;
            let train_log = telemetry.slice_days(DayIndex(0), DayIndex(days.saturating_sub(2)));
            let test_log = telemetry.slice_days(
                DayIndex(days.saturating_sub(1)),
                DayIndex(days.saturating_sub(1)),
            );
            let predictor = Arc::new(pipeline::train_predictor(
                &train_log,
                TrainerConfig::default(),
            )?);
            let sharded = Arc::new(ShardedRegistry::new([ClusterId(c)]));
            let registry = Arc::clone(sharded.shard(ClusterId(c)).expect("the cluster's shard"));
            let eval = pipeline::evaluate_predictor(&predictor, &train_log)
                .into_iter()
                .find(|e| e.name == "Combined")
                .expect("combined model evaluation");
            registry.publish(
                Arc::clone(&predictor),
                0,
                HoldoutMetrics {
                    correlation: eval.correlation,
                    median_error_pct: eval.median_error_pct,
                    sample_count: eval.pairs.len(),
                },
            );
            let provider = Arc::new(ClusterRouter::with_uniform_similarity(
                sharded,
                Arc::new(HeuristicCostModel::default_model()) as Arc<dyn CostModel>,
            ));
            clusters.push(ClusterData {
                workload,
                telemetry,
                train_log,
                test_log,
                predictor,
                registry,
                provider,
            });
        }
        Ok(ExperimentContext {
            clusters,
            simulator,
            days,
        })
    }

    /// A quick small context for tests (4 clusters × 3 days, small scale).
    pub fn quick() -> Result<ExperimentContext> {
        ExperimentContext::build(Scale::Small, 3)
    }

    /// Cluster data by 0-based index.
    pub fn cluster(&self, idx: usize) -> &ClusterData {
        &self.clusters[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_context_builds_all_clusters() {
        let ctx = ExperimentContext::quick().unwrap();
        assert_eq!(ctx.clusters.len(), 4);
        for c in &ctx.clusters {
            assert!(!c.train_log.is_empty());
            assert!(!c.test_log.is_empty());
            assert!(c.predictor.model_count() > 0);
            assert_eq!(c.registry.current_version(), 1);
            assert_eq!(c.provider.snapshot_for(&c.workload.jobs[0].meta).version, 1);
        }
    }
}

//! What every workload shares: the host's thread budget, the fleet it builds
//! through public constructors, the result report and the quality score.

use std::sync::Arc;
use std::time::Instant;

use cleo_core::feedback::{FeedbackConfig, WindowEviction};
use cleo_core::scenario::{compile_str, CompiledSuite};
use cleo_core::sharding::{
    ClusterRouter, ShardedFeedbackConfig, ShardedFeedbackLoop, ShardedRegistry,
};
use cleo_core::trainer::TrainerConfig;
use cleo_engine::exec::{Simulator, SimulatorConfig};
use cleo_engine::telemetry::TelemetryLog;
use cleo_engine::workload::JobSpec;
use cleo_engine::DayIndex;
use cleo_optimizer::{
    CostModel, CostModelProvider, FixedCostModel, HeuristicCostModel, OptimizerConfig,
    SharedOptimizer,
};

use crate::gate::{self, Gate};
use crate::{END_TO_END, PER_LAYER};

/// Most shards any workload retrains at once (the suites declare four to
/// seven clusters).
const SHARD_THREADS_MAX: usize = 4;

/// Thread settings.  Every thread alive at the same time counts against the
/// host's cores: the open-loop generator plus the pool workers while serving;
/// shard threads times trainer threads while retraining; parse threads while
/// ingesting.  Feedback rounds serve and retrain one after the other.
#[derive(Debug, Clone, Copy)]
pub struct Host {
    /// `available_parallelism`.
    pub cores: usize,
    /// Serving-pool workers (one core is left to the generator).
    pub pool_workers: usize,
    /// Threads optimizing a feedback round's jobs.
    pub serving_threads: usize,
    /// Shards retrained at once.
    pub shard_threads: usize,
    /// Trainer threads per shard.
    pub trainer_threads: usize,
    /// Telemetry parse threads.
    pub parse_threads: usize,
}

impl Host {
    /// The settings for this machine: shards retrain in parallel, one core
    /// each, and a core left over goes to the trainer.
    pub fn detect() -> Host {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let shard_threads = cores.min(SHARD_THREADS_MAX);
        Host {
            cores,
            pool_workers: cores.saturating_sub(1).max(1),
            serving_threads: cores,
            shard_threads,
            trainer_threads: cores / shard_threads,
            parse_threads: cores,
        }
    }

    /// These settings with every learning-path thread count at one: the
    /// timed steps of `fleet_replay` and `ingest_train` are short parallel
    /// regions, and on the reference host (a shared 2-vCPU VM, where one vCPU
    /// at a time is often slowed) a parallel region waits for its slowest
    /// thread; with two threads the 10-seed spread of the ingest rate reached
    /// 0.3, and five runs of one `fleet_replay` seed spread by 0.2.
    pub fn serial(self) -> Host {
        Host {
            serving_threads: 1,
            shard_threads: 1,
            trainer_threads: 1,
            parse_threads: 1,
            ..self
        }
    }

    /// The settings as info fields.
    pub fn info(&self, report: &mut Report) {
        report.info("cores", self.cores.to_string());
        report.info("simd", format!("\"{}\"", cleo_mlkit::simd::isa_name()));
        report.info("generator_threads", "1".to_string());
        report.info("pool_workers", self.pool_workers.to_string());
        report.info("serving_threads", self.serving_threads.to_string());
        report.info("shard_threads", self.shard_threads.to_string());
        report.info("trainer_threads", self.trainer_threads.to_string());
        report.info("parse_threads", self.parse_threads.to_string());
    }
}

/// Compile a suite, timing the compilation (`scenario.compile_ms`).
pub fn compile(src: &str, host: &Host) -> (CompiledSuite, f64) {
    let t = Instant::now();
    let compiled = compile_str(src, host.cores).expect("benchmark suites are well-formed");
    (compiled, ms(t))
}

/// A cold fleet over the suite's clusters: registry, router (heuristic
/// fallback, similarity-ordered donor chains) and feedback loop.
pub fn fleet(compiled: &CompiledSuite, host: &Host) -> ShardedFeedbackLoop {
    let registry = Arc::new(ShardedRegistry::new(compiled.clusters()));
    let router = Arc::new(ClusterRouter::new(
        registry,
        Arc::new(HeuristicCostModel::default_model()),
        &compiled.profiles(),
    ));
    ShardedFeedbackLoop::new(
        ShardedFeedbackConfig {
            shard: FeedbackConfig {
                eviction: WindowEviction::JobCount(4096),
                trainer: TrainerConfig {
                    threads: host.trainer_threads,
                    ..TrainerConfig::default()
                },
                serving_threads: host.serving_threads,
                ..FeedbackConfig::default()
            },
            shard_threads: host.shard_threads,
            ..ShardedFeedbackConfig::default()
        },
        Simulator::new(SimulatorConfig::default()),
        router,
    )
}

/// The suite's jobs of one day, in stream order.
pub fn day_jobs(compiled: &CompiledSuite, day: u32) -> Vec<&JobSpec> {
    compiled
        .stream()
        .into_iter()
        .filter(|j| j.meta.day == DayIndex(day))
        .collect()
}

/// Model and plan quality on a held-out day.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    /// Pearson correlation of predicted and simulated operator latencies,
    /// in log space: latencies span orders of magnitude, and a raw
    /// correlation is decided by the few largest operators.
    pub corr: f64,
    /// Median relative error of the predictions (%).
    pub median_err_pct: f64,
    /// The same correlation for the default cost model on the same operators.
    pub default_corr: f64,
    /// The default cost model's median relative error on the same operators
    /// (%).
    pub default_err_pct: f64,
    /// Geometric mean over held-out jobs of simulated latency under the
    /// fleet's plan over latency under the default plan.
    pub sim_latency_ratio: f64,
}

impl Quality {
    /// The values' bit patterns, for determinism checks.
    pub fn bits(&self) -> [u64; 5] {
        [
            self.corr.to_bits(),
            self.median_err_pct.to_bits(),
            self.default_corr.to_bits(),
            self.default_err_pct.to_bits(),
            self.sim_latency_ratio.to_bits(),
        ]
    }

    /// Report the model-accuracy metric (end to end).
    pub fn report(&self, report: &mut Report) {
        report.metric("quality.corr", self.corr, "ratio");
    }

    /// Report the errors and the plan-latency metric (per layer: they follow
    /// the seed's job mix too closely to bound a change across seeds).
    pub fn report_layers(&self, report: &mut Report) {
        report.metric("quality.median_err_pct", self.median_err_pct, "%");
        report.metric("quality.default_err_pct", self.default_err_pct, "%");
        report.metric("quality.sim_latency_ratio", self.sim_latency_ratio, "ratio");
    }
}

/// `jobs` executed under the default cost model's plans: the telemetry a
/// fleet learns from before it has models, and the held-out operators its
/// models are scored against (as the paper scores a model on the day after
/// its training window).
pub fn holdout(jobs: &[&JobSpec], host: &Host) -> TelemetryLog {
    cleo_core::pipeline::serve_jobs(
        jobs,
        Arc::new(FixedCostModel::new(Arc::new(
            HeuristicCostModel::default_model(),
        ))),
        OptimizerConfig::resource_aware(),
        &Simulator::new(SimulatorConfig::default()),
        host.serving_threads,
    )
    .expect("default-plan telemetry")
}

/// Score the fleet on a held-out day: every operator of `baseline` (the
/// day's jobs under default plans, in `jobs` order) is predicted by the
/// model its job routes to, and every job of `jobs` is optimized through
/// the router and its plan simulated.
pub fn score(
    fleet: &ShardedFeedbackLoop,
    jobs: &[&JobSpec],
    baseline: &TelemetryLog,
    gate: &mut Gate,
) -> Quality {
    let router = Arc::clone(fleet.router()) as Arc<dyn CostModelProvider>;
    let default = HeuristicCostModel::default_model();
    let mut preds = Vec::new();
    let mut defaults = Vec::new();
    let mut actuals = Vec::new();
    for job in baseline.jobs() {
        let model = router.snapshot_for(&job.plan.meta).model;
        for (node, actual) in job.operator_samples() {
            preds.push(model.exclusive_cost(node, node.partition_count, &job.plan.meta));
            defaults.push(default.exclusive_cost(node, node.partition_count, &job.plan.meta));
            actuals.push(actual);
        }
    }
    gate.check(gate::ensure(!preds.is_empty(), || {
        "held-out day has no operators to score".to_string()
    }));
    let shared = SharedOptimizer::new(router, OptimizerConfig::resource_aware());
    let simulator = Simulator::new(SimulatorConfig::default());
    // Plan quality: each held-out job's simulated latency under the fleet's
    // plan relative to the default plan, as a geometric mean.  Absolute
    // latencies follow the generated data sizes, which differ threefold
    // between seeds; the ratio isolates what the models' plans changed.
    let mut log_ratio = 0.0;
    for (job, base) in jobs.iter().zip(baseline.jobs()) {
        gate.check(gate::count_equal(
            "held-out job order",
            job.meta.id.0,
            base.job_id().0,
        ));
        match shared.optimize(job) {
            Ok(plan) => {
                let latency = simulator.run(&plan.plan).job_latency;
                log_ratio += (latency / base.run.job_latency).ln();
            }
            Err(e) => gate.check(Err(format!("scoring job {}: {e}", job.meta.id.0))),
        }
    }
    gate.check(gate::count_equal(
        "held-out jobs",
        jobs.len() as u64,
        baseline.len() as u64,
    ));
    let quality = Quality {
        corr: cleo_common::stats::pearson(&ln(&preds), &ln(&actuals)),
        median_err_pct: cleo_common::stats::median_error_pct(&preds, &actuals),
        default_corr: cleo_common::stats::pearson(&ln(&defaults), &ln(&actuals)),
        default_err_pct: cleo_common::stats::median_error_pct(&defaults, &actuals),
        sim_latency_ratio: (log_ratio / jobs.len().max(1) as f64).exp(),
    };
    // The paper's premise, as a guard: the learned models beat the default
    // model on the held-out operators, in correlation and in error.
    gate.check(gate::ensure(
        quality.corr > quality.default_corr && quality.median_err_pct < quality.default_err_pct,
        || format!("learned models do not beat the default model: {quality:?}"),
    ));
    quality
}

/// Natural logarithms, floored at 1 ns.
fn ln(xs: &[f64]) -> Vec<f64> {
    xs.iter().map(|x| x.max(1e-9).ln()).collect()
}

/// Milliseconds since `t`.
pub fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Steal and total CPU time of the machine so far, in clock ticks (the
/// first line of `/proc/stat`), or `None` where it is not available.  Steal
/// is time the hypervisor gave this VM's vCPUs to someone else; a run that
/// saw much of it measured the host more than the program.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The run's result: metrics, operation counts and descriptive info.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    info: Vec<(String, String)>,
    /// Operations attempted: requests offered, shard rounds, records parsed.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Report {
    /// Add one metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Add one info field (`value` is raw JSON).
    pub fn info(&mut self, key: &str, value: String) {
        self.info.push((key.to_string(), value));
    }

    /// Count operations.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Bring the metrics into the manifest's set for this kind of run
    /// ([`END_TO_END`] untraced, [`PER_LAYER`] traced), in its order.  A
    /// metric outside the set, in another unit or reported twice, and an
    /// end-to-end metric not measured, fail the gate.  A per-layer metric not
    /// measured belongs to a layer the workload does not run: it reads 0 and
    /// the info field `idle_metrics` names it.
    pub fn conform(&mut self, traced: bool, gate: &mut Gate) {
        let wanted: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        for (i, (name, _, unit)) in self.metrics.iter().enumerate() {
            gate.check(gate::ensure(
                wanted.iter().any(|(n, u)| n == name && u == unit),
                || format!("metric {name} ({unit}) is not in the manifest"),
            ));
            gate.check(gate::ensure(
                !self.metrics[..i].iter().any(|(n, _, _)| n == name),
                || format!("metric {name} is reported twice"),
            ));
        }
        let mut idle = Vec::new();
        let mut ordered = Vec::with_capacity(wanted.len());
        for &(name, unit) in wanted {
            match self.metrics.iter().find(|(n, _, _)| n == name) {
                Some(&(_, value, _)) => ordered.push((name.to_string(), value, unit)),
                None if traced => {
                    idle.push(format!("\"{name}\""));
                    ordered.push((name.to_string(), 0.0, unit));
                }
                None => gate.check(Err(format!("end-to-end metric {name} was not measured"))),
            }
        }
        if traced {
            self.info("idle_metrics", format!("[{}]", idle.join(", ")));
        }
        self.metrics = ordered;
    }

    /// Every metric must be a finite number.
    pub fn check_finite(&self, gate: &mut Gate) {
        for (name, value, _) in &self.metrics {
            gate.check(gate::ensure(value.is_finite(), || {
                format!("metric {name} is {value}")
            }));
        }
    }

    /// The info line and the result line (the last line of standard output).
    pub fn print(&self, correct: bool) {
        let info: Vec<String> = self
            .info
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        println!("{{\"info\": {{{}}}}}", info.join(", "));
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(*value)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A number as JSON, with every digit Rust's shortest round-trip form keeps
/// (`null` for a non-finite value, which the gate has already failed).
pub fn json_num(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    format!("{v:?}")
}

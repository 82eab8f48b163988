//! End-to-end performance experiments: Figures 19 and 20 plus the overhead analysis
//! of Section 6.6.3.
//!
//! The end-to-end runs go through the shared-serving path
//! ([`pipeline::serve_jobs`]): baselines behind a [`FixedCostModel`] provider,
//! learned models behind a one-shard [`ClusterRouter`] — exercising the
//! registry's publish/load seam and the served model's prediction cache exactly
//! as the deployment loop does.

use std::sync::Arc;
use std::time::Instant;

use cleo_common::stats;
use cleo_common::table::{fnum, TextTable};
use cleo_common::Result;

use cleo_core::sharding::{ClusterRouter, ShardedRegistry};
use cleo_core::trainer::TrainerConfig;
use cleo_core::{pipeline, HoldoutMetrics, LearnedCostModel};
use cleo_engine::workload::tpch::{all_queries, tpch_job, TpchParams};
use cleo_engine::workload::JobSpec;
use cleo_engine::{ClusterId, DayIndex};
use cleo_optimizer::{
    CostModel, CostModelProvider, FixedCostModel, HeuristicCostModel, Optimizer, OptimizerConfig,
};

use crate::context::ExperimentContext;

/// Publish a freshly trained predictor as version 1 of `cluster`'s shard in a
/// new one-shard registry and hand back its router (fallback: the default
/// hand-written model).
fn registry_provider(
    cluster: ClusterId,
    predictor: cleo_core::CleoPredictor,
    holdout: HoldoutMetrics,
) -> Arc<ClusterRouter> {
    let registry = Arc::new(ShardedRegistry::new([cluster]));
    registry
        .shard(cluster)
        .expect("the cluster's shard")
        .publish(predictor, 0, holdout);
    Arc::new(ClusterRouter::with_uniform_similarity(
        registry,
        Arc::new(HeuristicCostModel::default_model()) as Arc<dyn CostModel>,
    ))
}

/// Figure 19: changed-plan production jobs — latency, total processing time, and
/// optimization-time overhead under the learned cost models (cluster 4).
pub fn fig19(ctx: &ExperimentContext) -> Result<String> {
    let cluster = ctx.cluster(3);
    let default_model = HeuristicCostModel::default_model();

    // Re-optimize the test-day jobs against the cluster's published registry
    // version (v1) with resource-aware planning.
    let test_day = DayIndex(ctx.days.saturating_sub(1));
    let jobs: Vec<&JobSpec> = cluster
        .workload
        .jobs
        .iter()
        .filter(|j| j.meta.day == test_day)
        .collect();
    let baseline = pipeline::serve_jobs(
        &jobs,
        Arc::new(FixedCostModel::new(Arc::new(default_model))),
        OptimizerConfig::default(),
        &ctx.simulator,
        0,
    )?;
    let learned_log = pipeline::serve_jobs(
        &jobs,
        Arc::clone(&cluster.provider) as Arc<dyn CostModelProvider>,
        OptimizerConfig::resource_aware(),
        &ctx.simulator,
        0,
    )?;

    let comparisons = pipeline::compare_runs(&baseline, &learned_log);
    let changed: Vec<_> = comparisons.iter().filter(|c| c.plan_changed).collect();
    let selected: Vec<_> = changed.iter().take(17).collect();

    let mut table = TextTable::new(
        "Figure 19: production jobs with changed plans (default vs CLEO)",
        &[
            "Job",
            "Latency default (s)",
            "Latency CLEO (s)",
            "Latency gain %",
            "CPU gain %",
        ],
    );
    for c in &selected {
        table.add_row(&[
            c.name.clone(),
            fnum(c.baseline_latency, 1),
            fnum(c.new_latency, 1),
            fnum(c.latency_improvement_pct(), 1),
            fnum(c.cpu_improvement_pct(), 1),
        ]);
    }
    let improved = selected
        .iter()
        .filter(|c| c.latency_improvement_pct() > 0.0)
        .count();
    let lat_gains: Vec<f64> = selected
        .iter()
        .map(|c| c.latency_improvement_pct())
        .collect();
    let cpu_gains: Vec<f64> = selected.iter().map(|c| c.cpu_improvement_pct()).collect();
    let mut out = table.render();
    out.push_str(&format!(
        "plans changed: {}/{} jobs; of the {} selected, {} ({:.0}%) improved latency; \
         mean latency gain {:.1}%, mean CPU gain {:.1}%\n",
        changed.len(),
        comparisons.len(),
        selected.len(),
        improved,
        improved as f64 / selected.len().max(1) as f64 * 100.0,
        stats::mean(&lat_gains),
        stats::mean(&cpu_gains),
    ));
    let stamped = learned_log
        .jobs()
        .iter()
        .filter(|j| j.provenance.model_version == 1)
        .count();
    let cache = cluster
        .registry
        .current()
        .expect("context publishes v1")
        .cost_model()
        .cache_stats();
    out.push_str(&format!(
        "served from registry v{}: {stamped}/{} plans stamped v1; prediction cache \
         {} hits / {} misses ({:.1}% hit rate)\n",
        cluster.registry.current_version(),
        learned_log.len(),
        cache.hits,
        cache.misses,
        cache.hit_rate() * 100.0,
    ));
    Ok(out)
}

/// Figure 20: TPC-H — % improvement in latency and total processing time for queries
/// whose plans change under the learned cost models.
pub fn fig20(ctx: &ExperimentContext) -> Result<String> {
    let scale_factor = 10.0; // structurally equivalent to SF1000, scaled for runtime
    let default_model = HeuristicCostModel::default_model();

    // Training runs: each query 6 times with random parameters under the default plans.
    let mut rng = cleo_common::rng::DetRng::new(0x79C1_u64 ^ 0x1234);
    let mut training_jobs = Vec::new();
    for q in all_queries() {
        for run in 0..6 {
            let params = TpchParams::draw(&mut rng);
            training_jobs.push(tpch_job(q, run, scale_factor, &params, ClusterId(0)));
        }
    }
    let training_refs: Vec<&JobSpec> = training_jobs.iter().collect();
    let default_provider: Arc<dyn CostModelProvider> =
        Arc::new(FixedCostModel::new(Arc::new(default_model.clone())));
    let train_log = pipeline::serve_jobs(
        &training_refs,
        Arc::clone(&default_provider),
        OptimizerConfig::default(),
        &ctx.simulator,
        0,
    )?;
    let predictor = pipeline::train_predictor(&train_log, TrainerConfig::default())?;
    let train_eval = pipeline::evaluate_predictor(&predictor, &train_log)
        .into_iter()
        .find(|e| e.name == "Combined")
        .expect("combined evaluation");
    // Every TPC-H job (training and evaluation) runs on cluster 0.
    let provider = registry_provider(
        ClusterId(0),
        predictor,
        HoldoutMetrics {
            correlation: train_eval.correlation,
            median_error_pct: train_eval.median_error_pct,
            sample_count: train_eval.pairs.len(),
        },
    );

    // Evaluation runs: reference parameters, default vs registry-served learned
    // models + resource-aware planning.
    let eval_jobs: Vec<JobSpec> = all_queries()
        .into_iter()
        .map(|q| tpch_job(q, 100, scale_factor, &TpchParams::reference(), ClusterId(0)))
        .collect();
    let eval_refs: Vec<&JobSpec> = eval_jobs.iter().collect();
    let baseline = pipeline::serve_jobs(
        &eval_refs,
        default_provider,
        OptimizerConfig::default(),
        &ctx.simulator,
        0,
    )?;
    let learned_log = pipeline::serve_jobs(
        &eval_refs,
        provider as Arc<dyn CostModelProvider>,
        OptimizerConfig::resource_aware(),
        &ctx.simulator,
        0,
    )?;
    let comparisons = pipeline::compare_runs(&baseline, &learned_log);

    let mut table = TextTable::new(
        "Figure 20: TPC-H queries with changed plans (% improvement, higher is better)",
        &["Query", "Latency %", "Total processing time %"],
    );
    let mut changed = 0;
    for (q, c) in all_queries().iter().zip(comparisons.iter()) {
        if !c.plan_changed {
            continue;
        }
        changed += 1;
        table.add_row(&[
            format!("Q{q}"),
            fnum(c.latency_improvement_pct(), 1),
            fnum(c.cpu_improvement_pct(), 1),
        ]);
    }
    let mut out = table.render();
    out.push_str(&format!(
        "{changed}/22 TPC-H queries changed plans under CLEO\n"
    ));
    Ok(out)
}

/// Section 6.6.3: training and runtime overheads.
pub fn overheads(ctx: &ExperimentContext) -> Result<String> {
    let cluster = ctx.cluster(0);

    let t0 = Instant::now();
    let predictor = pipeline::train_predictor(&cluster.train_log, TrainerConfig::default())?;
    let training_secs = t0.elapsed().as_secs_f64();
    let model_count = predictor.model_count();

    // Optimization-time overhead: optimize the same jobs with the default and the
    // learned cost model and compare wall-clock optimization times.
    let default_model = HeuristicCostModel::default_model();
    let learned = LearnedCostModel::new(predictor);
    let jobs: Vec<&JobSpec> = cluster
        .workload
        .jobs
        .iter()
        .filter(|j| j.meta.day == DayIndex(0))
        .take(50)
        .collect();
    let mut default_micros = 0u128;
    let mut learned_micros = 0u128;
    let default_opt = Optimizer::new(&default_model, OptimizerConfig::default());
    let learned_opt = Optimizer::new(&learned, OptimizerConfig::resource_aware());
    for job in &jobs {
        default_micros += default_opt.optimize(job)?.stats.optimization_micros;
        learned_micros += learned_opt.optimize(job)?.stats.optimization_micros;
    }

    let mut table = TextTable::new(
        "Section 6.6.3: training and runtime overheads",
        &["Metric", "Value"],
    );
    table.add_row(&[
        "Training jobs (cluster 1, 2-day window)".into(),
        format!("{}", cluster.train_log.len()),
    ]);
    table.add_row(&[
        "Operator samples".into(),
        format!("{}", cluster.train_log.operator_sample_count()),
    ]);
    table.add_row(&["Models learned".into(), format!("{model_count}")]);
    table.add_row(&["Training time (s)".into(), fnum(training_secs, 2)]);
    table.add_row(&[
        "Avg optimization time, default (ms/job)".into(),
        fnum(default_micros as f64 / 1000.0 / jobs.len() as f64, 3),
    ]);
    table.add_row(&[
        "Avg optimization time, CLEO (ms/job)".into(),
        fnum(learned_micros as f64 / 1000.0 / jobs.len() as f64, 3),
    ]);
    table.add_row(&[
        "Optimization overhead (%)".into(),
        fnum(
            (learned_micros as f64 / default_micros.max(1) as f64 - 1.0) * 100.0,
            1,
        ),
    ]);
    table.add_row(&[
        "Learned-model invocations (50 jobs)".into(),
        format!("{}", learned.invocation_count()),
    ]);
    Ok(table.render())
}

//! Micro-benchmark: the zero-allocation inference path.
//!
//! Pins the performance of the optimize-time prediction stack on the path every
//! *new or drifted* job takes — uncached costing — after the flat-matrix /
//! Arc-shared-plan / memoized-signature refactor:
//!
//! * **uncached predictions/sec** over recurring-shaped 32-candidate sweeps
//!   (the exact measurement shape of `BENCH_feedback_loop.json`, so the number
//!   is directly comparable with the pre-refactor 1.74M/s baseline);
//! * **ns/candidate** of a 64-candidate partition sweep through the reused
//!   [`PredictScratch`] (the resource-aware planning shape of §5.2);
//! * **enumeration alternatives/sec** of full plan enumeration with Arc-shared
//!   subtrees instead of per-alternative deep clones.
//!
//! Writes `BENCH_inference.json` at the workspace root.  Pass `--smoke` for a
//! fast CI smoke run (tiny sampling, no JSON written).

use std::sync::Arc;

use cleo_bench::{BenchGroup, BenchMeta};
use cleo_core::models::PredictScratch;
use cleo_core::{pipeline, LearnedCostModel, TrainerConfig};
use cleo_engine::workload::JobSpec;
use cleo_optimizer::{CostModel, HeuristicCostModel, Optimizer, OptimizerConfig};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let ctx = cleo_bench::ExperimentContext::quick().expect("context");
    let cluster = ctx.cluster(0);
    let mut group = BenchGroup::new("inference_path");
    group.sample_size(if smoke { 2 } else { 15 });

    // A trained predictor served without the prediction cache: every call runs
    // the full uncached stack (signatures, features, per-family models,
    // combined meta-model) — the path new jobs take.
    let predictor = Arc::new(
        pipeline::train_predictor(&cluster.train_log, TrainerConfig::default()).expect("train"),
    );
    let uncached = LearnedCostModel::without_cache(Arc::clone(&predictor));

    // (a) Uncached costing, recurring-workload shape (32-candidate sweeps over
    // every operator of 20 test-day plans) — comparable with the
    // `recurring_costing_uncached` measurement of BENCH_feedback_loop.json.
    let candidates32: Vec<usize> = (0..32).map(|i| 1 + 8 * i).collect();
    let plans: Vec<_> = cluster.test_log.jobs().iter().take(20).collect();
    let predictions_per_run: usize = plans
        .iter()
        .map(|j| j.plan.operators().len() * candidates32.len())
        .sum();
    let uncached_sample = group.bench_function("uncached_costing_32cand", || {
        let mut acc = 0.0;
        for job in &plans {
            for node in job.plan.operators() {
                acc += uncached
                    .exclusive_cost_batch(node, &candidates32, &job.plan.meta)
                    .iter()
                    .sum::<f64>();
            }
        }
        acc
    });
    let uncached_preds_per_sec =
        predictions_per_run as f64 / uncached_sample.median.as_secs_f64().max(1e-12);

    // (b) 64-candidate partition sweeps through one reused scratch: the pure
    // predictor path (no cost-model wrapper), measuring ns per candidate.
    let candidates64: Vec<usize> = (0..64).map(|i| 1 + 4 * i).collect();
    let mut scratch = PredictScratch::new();
    let sweeps_per_run: usize = plans.iter().map(|j| j.plan.operators().len()).sum();
    let sweep_sample = group.bench_function("predict_candidates_64cand", || {
        let mut acc = 0.0;
        for job in &plans {
            for node in job.plan.operators() {
                let breakdowns = predictor.predict_candidates_with(
                    node,
                    &candidates64,
                    &job.plan.meta,
                    &mut scratch,
                );
                acc += breakdowns.iter().map(|b| b.combined).sum::<f64>();
            }
        }
        acc
    });
    let ns_per_candidate =
        sweep_sample.median.as_nanos() as f64 / (sweeps_per_run * candidates64.len()) as f64;

    // (c) Plan enumeration with Arc-shared subtrees (no per-alternative deep
    // clones), measured as generated alternatives per second.
    let jobs: Vec<&JobSpec> = cluster.workload.jobs.iter().take(20).collect();
    let heuristic = HeuristicCostModel::default_model();
    let optimizer = Optimizer::new(&heuristic, OptimizerConfig::default());
    let mut alternatives_per_run = 0usize;
    let enum_sample = group.bench_function("enumerate_20_jobs", || {
        alternatives_per_run = 0;
        for job in &jobs {
            let optimized = optimizer.optimize(job).expect("optimize");
            alternatives_per_run += optimized.stats.alternatives_generated;
        }
        alternatives_per_run
    });
    let alternatives_per_sec =
        alternatives_per_run as f64 / enum_sample.median.as_secs_f64().max(1e-12);
    group.finish();

    // The pre-refactor reference measured by BENCH_feedback_loop.json at PR 2,
    // and the scalar pre-SIMD reference this file recorded before the
    // lane-blocked kernels landed.
    let baseline_uncached_preds_per_sec = 1_737_539.5_f64;
    let presimd_uncached_preds_per_sec = 3_827_168.3_f64;
    let speedup = uncached_preds_per_sec / baseline_uncached_preds_per_sec;
    let simd_speedup = uncached_preds_per_sec / presimd_uncached_preds_per_sec;
    let simd = cleo_mlkit::simd::isa_name();
    println!(
        "\nuncached predictions/sec: {uncached_preds_per_sec:.0} ({speedup:.2}x vs the \
         1.74M/s pre-refactor baseline, {simd_speedup:.2}x vs the 3.83M/s pre-SIMD \
         baseline, {simd} kernels)  ns/candidate (64-cand sweep): {ns_per_candidate:.0}  \
         enumeration alternatives/sec: {alternatives_per_sec:.0}"
    );

    if smoke {
        println!("smoke mode: skipping BENCH_inference.json");
        return;
    }
    let meta_fields = BenchMeta::capture(4).json_fields();
    // Every costing call the bench made, read off the model's own counter.
    let invocations = uncached.invocation_count();
    let json = format!(
        "{{\n  \"bench\": \"inference_path\",\n  {meta_fields},\n  \
         \"predictions_per_run\": {predictions_per_run},\n  \
         \"predictions_per_sec_uncached\": {uncached_preds_per_sec:.1},\n  \
         \"baseline_predictions_per_sec_uncached\": {baseline_uncached_preds_per_sec:.1},\n  \
         \"uncached_speedup_vs_baseline\": {speedup:.3},\n  \
         \"presimd_predictions_per_sec_uncached\": {presimd_uncached_preds_per_sec:.1},\n  \
         \"simd_speedup_vs_presimd\": {simd_speedup:.3},\n  \
         \"ns_per_candidate_64cand_sweep\": {ns_per_candidate:.1},\n  \
         \"enumeration_alternatives_per_sec\": {alternatives_per_sec:.1},\n  \
         \"cost_model_invocations\": {invocations}\n}}\n"
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_inference.json");
    std::fs::write(&path, &json).expect("write BENCH_inference.json");
    println!("wrote {}", path.display());
}

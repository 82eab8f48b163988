//! Micro-benchmark: the cross-cluster sharded serving tier.
//!
//! Measures the serving shapes of the fleet-scale tier and writes
//! `BENCH_sharded_serving.json` at the workspace root (also in `--smoke` mode,
//! with tiny sampling — CI asserts the file is emitted and well-formed):
//!
//! * **per-shard serving rate, isolated and concurrent** — jobs/sec of each
//!   shard serving its own cluster through the [`ClusterRouter`], measured both
//!   alone on the hardware and while all four shards serve simultaneously
//!   through the [`ServingPool`];
//! * **fleet capacity scaling 1 → 4 shards** — shards share no locks, caches,
//!   or windows, so fleet capacity is the sum of per-shard rates; the summed
//!   isolation upper bound is reported alongside *measured* worker-pool
//!   wall-clock rates (`workers = shards`), the machine's core count, and a
//!   `degraded` flag when cores < shards, so a single-core builder shows
//!   linear capacity scaling honestly while a multi-core one also shows it on
//!   the wall clock;
//! * **prediction-cache contention** — cached-lookup throughput at 1 vs 4
//!   threads against one shared [`LearnedCostModel`]; near-linear scaling is
//!   asserted on machines with >= 4 cores and skipped (with a logged reason)
//!   elsewhere;
//! * **sharded serial serving** — the whole 4-cluster stream through the
//!   router on one thread;
//! * **fallback-hit rates** — the routing mix on a half-cold fleet;
//! * **per-shard epoch latency** — parallel per-cluster retrain epochs of the
//!   [`ShardedFeedbackLoop`].

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cleo_bench::{BenchGroup, BenchMeta};
use cleo_common::obs::Obs;
use cleo_core::feedback::{FeedbackConfig, WindowEviction};
use cleo_core::sharding::{
    ClusterRouter, ServingPool, ShardedFeedbackConfig, ShardedFeedbackLoop, ShardedRegistry,
};
use cleo_core::{HoldoutMetrics, LearnedCostModel};
use cleo_engine::exec::{Simulator, SimulatorConfig};
use cleo_engine::physical::{PhysicalNode, PhysicalOpKind};
use cleo_engine::types::OpStats;
use cleo_engine::workload::generator::WorkloadProfile;
use cleo_engine::workload::JobSpec;
use cleo_engine::ClusterId;
use cleo_optimizer::{
    CostModel, CostModelProvider, HeuristicCostModel, OptimizerConfig, SharedOptimizer,
};

fn metrics() -> HoldoutMetrics {
    HoldoutMetrics {
        correlation: 0.9,
        median_error_pct: 10.0,
        sample_count: 100,
    }
}

fn rate(jobs: usize, median: Duration) -> f64 {
    jobs as f64 / median.as_secs_f64().max(1e-12)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let ctx = cleo_bench::ExperimentContext::quick().expect("context");
    let per_cluster_jobs = if smoke { 8 } else { 40 };
    let bench_meta = BenchMeta::capture(4);
    let cores = bench_meta.cores;

    // One warm shard per cluster: each cluster's predictor published as v1 of
    // its own registry shard.
    let profiles: Vec<WorkloadProfile> = ctx
        .clusters
        .iter()
        .map(|c| WorkloadProfile::of(&c.workload))
        .collect();
    let registry = Arc::new(ShardedRegistry::new((0u8..4).map(ClusterId)));
    for (c, cluster) in ctx.clusters.iter().enumerate() {
        registry.shard(ClusterId(c as u8)).unwrap().publish(
            Arc::clone(&cluster.predictor),
            1,
            metrics(),
        );
    }
    let fallback: Arc<dyn CostModel> = Arc::new(HeuristicCostModel::default_model());
    // The router's routing counters double as registry metrics; the end-of-run
    // snapshot is folded into the JSON result.
    let obs = Arc::new(Obs::new());
    let router = Arc::new(
        ClusterRouter::new(Arc::clone(&registry), Arc::clone(&fallback), &profiles)
            .with_obs(Some(Arc::clone(&obs))),
    );
    let shared = SharedOptimizer::new(
        Arc::clone(&router) as Arc<dyn CostModelProvider>,
        OptimizerConfig::resource_aware(),
    );

    // The serving stream: each cluster's test-day jobs.
    let test_day = cleo_engine::DayIndex(ctx.days.saturating_sub(1));
    let cluster_jobs: Vec<Vec<&JobSpec>> = ctx
        .clusters
        .iter()
        .map(|c| {
            c.workload
                .jobs
                .iter()
                .filter(|j| j.meta.day == test_day)
                .take(per_cluster_jobs)
                .collect()
        })
        .collect();
    let jobs_per_shard = cluster_jobs[0].len();

    let mut group = BenchGroup::new("sharded_serving");
    group.sample_size(if smoke { 2 } else { 7 });

    // (a) Per-shard serving rate, each shard in isolation (serial): the rate
    // one cluster's serving loop sustains on its own hardware.
    let mut per_shard_rate = Vec::new();
    for (c, jobs) in cluster_jobs.iter().enumerate() {
        let sample = group.bench_function(format!("serve_shard_{c}_serial"), || {
            shared.optimize_all(jobs, 1).expect("serve")
        });
        per_shard_rate.push(rate(jobs.len(), sample.median));
    }

    // (b) Measured concurrent serving through the shard worker pool: the first
    // n clusters' jobs, one batch per shard, on a [`ServingPool`] with n shard
    // queues and n pinned workers.  On a machine with >= n cores this
    // approaches the fleet-capacity sum; on fewer cores the workers timeslice
    // and the wall clock shows it honestly.
    let cluster_jobs_arc: Vec<Vec<Arc<JobSpec>>> = cluster_jobs
        .iter()
        .map(|jobs| jobs.iter().map(|j| Arc::new((*j).clone())).collect())
        .collect();
    let mut concurrent_rate = Vec::new();
    for n in [1usize, 2, 4] {
        let pool = ServingPool::new(
            SharedOptimizer::new(
                Arc::clone(&router) as Arc<dyn CostModelProvider>,
                OptimizerConfig::resource_aware(),
            ),
            n,
            n,
        );
        let total: usize = cluster_jobs_arc[..n].iter().map(Vec::len).sum();
        let sample = group.bench_function(format!("pool_serve_{n}_shards_{n}_workers"), || {
            let tickets: Vec<_> = cluster_jobs_arc[..n]
                .iter()
                .enumerate()
                .map(|(c, jobs)| pool.submit(c, jobs.clone()))
                .collect();
            for t in tickets {
                for r in t.wait().results {
                    r.expect("serve");
                }
            }
        });
        concurrent_rate.push((n, rate(total, sample.median)));
    }

    // Per-shard rates *while all four shards serve simultaneously*: one timed
    // run on the 4-shard / 4-worker pool, each shard's rate taken from its own
    // ticket's completion time.  Contrast with (a): isolation rates price a
    // shard alone on the hardware; these price it under fleet-wide load.
    let pool4 = ServingPool::new(
        SharedOptimizer::new(
            Arc::clone(&router) as Arc<dyn CostModelProvider>,
            OptimizerConfig::resource_aware(),
        ),
        4,
        4,
    );
    for (c, jobs) in cluster_jobs_arc.iter().enumerate() {
        pool4.submit(c, jobs.clone()).wait(); // warm pass: steady-state caches
    }
    let start = Instant::now();
    let tickets: Vec<_> = cluster_jobs_arc
        .iter()
        .enumerate()
        .map(|(c, jobs)| pool4.submit(c, jobs.clone()))
        .collect();
    let per_shard_concurrent: Vec<f64> = tickets
        .into_iter()
        .enumerate()
        .map(|(c, t)| {
            rate(
                cluster_jobs_arc[c].len(),
                t.wait().completed_at.duration_since(start),
            )
        })
        .collect();
    drop(pool4);

    // (c) The whole 4-cluster stream through the router on one thread.
    let all_jobs: Vec<&JobSpec> = cluster_jobs.iter().flatten().copied().collect();
    let sharded_all_sample = group.bench_function("serve_4_clusters_sharded_serial", || {
        shared.optimize_all(&all_jobs, 1).expect("serve")
    });
    let sharded_all_rate = rate(all_jobs.len(), sharded_all_sample.median);

    // (d) Fallback-hit rates on a half-cold fleet (shards 0 and 2 warm).
    let cold_registry = Arc::new(ShardedRegistry::new((0u8..4).map(ClusterId)));
    for c in [0u8, 2] {
        cold_registry.shard(ClusterId(c)).unwrap().publish(
            Arc::clone(&ctx.clusters[c as usize].predictor),
            1,
            metrics(),
        );
    }
    let cold_router = Arc::new(ClusterRouter::new(
        cold_registry,
        Arc::new(HeuristicCostModel::default_model()),
        &profiles,
    ));
    let cold_shared = SharedOptimizer::new(
        Arc::clone(&cold_router) as Arc<dyn CostModelProvider>,
        OptimizerConfig::resource_aware(),
    );
    cold_shared.optimize_all(&all_jobs, 1).expect("serve");
    let routing = cold_router.routing_stats();

    // (e) Per-shard epoch latency of the parallel sharded feedback loop.
    let epoch_registry = Arc::new(ShardedRegistry::new((0u8..4).map(ClusterId)));
    let epoch_router = Arc::new(ClusterRouter::new(
        epoch_registry,
        Arc::new(HeuristicCostModel::default_model()),
        &profiles,
    ));
    let mut fleet = ShardedFeedbackLoop::new(
        ShardedFeedbackConfig {
            shard: FeedbackConfig {
                eviction: WindowEviction::JobCount(all_jobs.len().max(64) * 2),
                ..FeedbackConfig::default()
            },
            ..ShardedFeedbackConfig::default()
        },
        Simulator::new(SimulatorConfig::default()),
        epoch_router,
    );
    fleet.run_epoch(&all_jobs).expect("cold epoch");
    let warm_epoch = fleet.run_epoch(&all_jobs).expect("warm epoch");
    let shard_epoch_ms: Vec<f64> = warm_epoch
        .shards
        .iter()
        .map(|s| s.retrain_micros as f64 / 1000.0)
        .collect();
    group.finish();

    // (f) Prediction-cache contention: cached-lookup throughput at 1 vs 4
    // threads against one shared [`LearnedCostModel`].  The cache is striped
    // (shard count derived from `available_parallelism`), so with the cache
    // warm the hot path takes no contended lock and throughput should scale
    // near-linearly with threads — asserted only on machines with >= 4 cores;
    // on fewer cores the measurement is timeslicing, not contention, and the
    // assertion is skipped with a logged reason.
    let model = Arc::new(LearnedCostModel::new(Arc::clone(
        &ctx.clusters[0].predictor,
    )));
    let meta = cluster_jobs[0][0].meta.clone();
    let nodes: Vec<PhysicalNode> = (0..64)
        .map(|i| {
            let rows = 1e5 * (1.0 + i as f64);
            let mut n = PhysicalNode::new(PhysicalOpKind::Filter, "pred", vec![]);
            n.est = OpStats {
                input_cardinality: rows,
                base_cardinality: rows,
                output_cardinality: rows / 2.0,
                avg_row_bytes: 40.0,
            };
            n.partition_count = 4 + (i % 4);
            n
        })
        .collect();
    let candidates = [1usize, 2, 4, 8];
    for n in &nodes {
        model.exclusive_cost_batch(n, &candidates, &meta); // warm: fill the cache
    }
    let reps = if smoke { 20 } else { 200 };
    let cached_lookup_rate = |threads: usize| -> f64 {
        let mut best = f64::MAX;
        for _ in 0..3 {
            let start = Instant::now();
            std::thread::scope(|s| {
                for _ in 0..threads {
                    s.spawn(|| {
                        for _ in 0..reps {
                            for n in &nodes {
                                black_box(model.exclusive_cost_batch(n, &candidates, &meta));
                            }
                        }
                    });
                }
            });
            best = best.min(start.elapsed().as_secs_f64());
        }
        (threads * reps * nodes.len()) as f64 / best.max(1e-12)
    };
    let cached_rate_1 = cached_lookup_rate(1);
    let cached_rate_4 = cached_lookup_rate(4);
    let cache_scaling_1_to_4 = cached_rate_4 / cached_rate_1.max(1e-12);
    let cache_scaling_asserted = cores >= 4;
    if cache_scaling_asserted {
        assert!(
            cache_scaling_1_to_4 >= 2.5,
            "cached-prediction throughput must scale near-linearly 1 -> 4 threads on a \
             {cores}-core machine: measured {cache_scaling_1_to_4:.2}x \
             ({cached_rate_1:.0} -> {cached_rate_4:.0} lookups/sec)"
        );
    } else {
        println!(
            "cache-contention scaling assertion skipped: {cores} core(s) < 4 \
             (measured {cache_scaling_1_to_4:.2}x is timeslicing, not contention)"
        );
    }

    // Headline fleet capacity: the measured concurrent wall-clock rate with
    // one OS thread per shard.  Summed per-shard isolation rates overstate
    // capacity on CI-class machines with fewer cores than shards, so the sum
    // is recorded as the contention-free upper bound, not the headline.
    let measured_1 = concurrent_rate[0].1;
    let measured_4 = concurrent_rate[2].1;
    let measured_scaling_1_to_4 = measured_4 / measured_1.max(1e-12);
    let summed_capacity: Vec<f64> = (1..=4).map(|n| per_shard_rate[..n].iter().sum()).collect();
    let summed_scaling_1_to_4 = summed_capacity[3] / summed_capacity[0].max(1e-12);
    let routing_total = routing.total().max(1) as f64;
    let degraded = bench_meta.degraded;

    println!(
        "\nfleet capacity (worker pool wall clock, {cores} core(s), degraded={degraded}): \
         {measured_4:.1} jobs/sec at 4 shards/4 workers ({measured_scaling_1_to_4:.2}x vs 1 \
         worker; all points: {concurrent_rate:?})\nper-shard jobs/sec isolated: \
         {per_shard_rate:?}, concurrent: {per_shard_concurrent:?} (summed isolated upper \
         bound 1->4 shards: {summed_capacity:?}, {summed_scaling_1_to_4:.2}x)\ncached-lookup \
         throughput: {cached_rate_1:.0} -> {cached_rate_4:.0} lookups/sec 1->4 threads \
         ({cache_scaling_1_to_4:.2}x, asserted={cache_scaling_asserted})\nsharded serial: \
         {sharded_all_rate:.1} jobs/sec\nhalf-cold routing: {} own / {} donor / {} fallback\nper-shard \
         epoch latency (ms): {shard_epoch_ms:?}",
        routing.own_hits, routing.donor_hits, routing.fallback_hits
    );

    let fmt_list = |v: &[f64]| {
        v.iter()
            .map(|r| format!("{r:.1}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let concurrent_json = concurrent_rate
        .iter()
        .map(|(n, r)| format!("\"{n}\": {r:.1}"))
        .collect::<Vec<_>>()
        .join(", ");
    let meta_fields = bench_meta.json_fields();
    let metrics_json = obs.metrics().snapshot().to_json();
    let json = format!(
        "{{\n  \"bench\": \"sharded_serving\",\n  \"smoke\": {smoke},\n  {meta_fields},\n  \
         \"shards\": 4,\n  \"jobs_per_shard\": {jobs_per_shard},\n  \
         \"fleet_jobs_per_sec\": {measured_4:.1},\n  \
         \"throughput_scaling_1_to_4\": {measured_scaling_1_to_4:.3},\n  \
         \"jobs_per_sec_measured_concurrent\": {{{concurrent_json}}},\n  \
         \"per_shard_jobs_per_sec\": {{\"isolated\": [{per_shard}], \
         \"concurrent\": [{per_shard_conc}]}},\n  \
         \"fleet_capacity_summed_isolated_1_to_4_shards\": [{fleet}],\n  \
         \"throughput_scaling_summed_isolated_1_to_4\": {summed_scaling_1_to_4:.3},\n  \
         \"cache_contention\": {{\"cached_lookups_per_sec_1_thread\": {cached_rate_1:.0}, \
         \"cached_lookups_per_sec_4_threads\": {cached_rate_4:.0}, \
         \"scaling_1_to_4\": {cache_scaling_1_to_4:.3}, \
         \"asserted\": {cache_scaling_asserted}}},\n  \
         \"jobs_per_sec_sharded_serial\": {sharded_all_rate:.1},\n  \
         \"half_cold_routing\": {{\"own_hits\": {}, \"donor_hits\": {}, \"fallback_hits\": {}, \
         \"own_rate\": {:.4}, \"donor_rate\": {:.4}, \"fallback_rate\": {:.4}}},\n  \
         \"per_shard_epoch_latency_ms\": [{epoch_ms}],\n  \
         \"metrics\": {metrics_json}\n}}\n",
        routing.own_hits,
        routing.donor_hits,
        routing.fallback_hits,
        routing.own_hits as f64 / routing_total,
        routing.donor_hits as f64 / routing_total,
        routing.fallback_hits as f64 / routing_total,
        per_shard = fmt_list(&per_shard_rate),
        per_shard_conc = fmt_list(&per_shard_concurrent),
        fleet = fmt_list(&summed_capacity),
        epoch_ms = fmt_list(&shard_epoch_ms),
    );
    // Anchor the result file at the workspace root regardless of the bench cwd.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_sharded_serving.json");
    std::fs::write(&path, &json).expect("write BENCH_sharded_serving.json");
    println!("wrote {}", path.display());
}

//! Observability bench: measured cost of the obs layer, and a breaker trace.
//!
//! **Phase A — overhead.**  Replays one fixed request stream through two
//! identical [`FrontDoor`] → [`ServingPool`] stacks — one with no [`Obs`]
//! handle attached (the production default), one with metrics + tracing
//! enabled — and records the relative throughput overhead of the enabled
//! stack (`enabled_overhead_pct`, target < 3%).  The served plans of the two
//! stacks are asserted bit-identical: observability must never perturb a
//! serving result.
//!
//! **Phase B — breaker trace.**  Drives a scripted circuit-breaker scenario
//! (4 consecutive failures trip shard 0 → 8 donor-served outcomes drain the
//! cooldown → half-open → a healthy probe re-closes) with an [`Obs`] handle
//! attached, then writes the drained, deterministically ordered event trace
//! to `BENCH_obs_trace.ndjson` and cross-checks the registry's route counters
//! against the event multiset (counters and events are two views of the same
//! stream — they must agree exactly).
//!
//! Writes `BENCH_obs.json` at the workspace root (also in `--smoke` mode —
//! CI asserts the file is fresh, well-formed, and carries the measured
//! overhead field).

use std::sync::Arc;
use std::time::{Duration, Instant};

use cleo_bench::context::BenchMeta;
use cleo_common::obs::{BreakerKind, Obs, RouteKind, TraceEvent};
use cleo_common::Instruments;
use cleo_core::serving::{FrontDoor, FrontDoorConfig, OverloadPolicy};
use cleo_core::sharding::{
    BreakerPolicy, BreakerState, ClusterRouter, ServingPool, ShardedRegistry,
};
use cleo_core::HoldoutMetrics;
use cleo_engine::catalog::{Catalog, ColumnDef, TableDef};
use cleo_engine::logical::LogicalNode;
use cleo_engine::physical::JobMeta;
use cleo_engine::telemetry_io::{read_events_ndjson, write_events_ndjson};
use cleo_engine::types::{ClusterId, DayIndex, JobId};
use cleo_engine::workload::generator::WorkloadProfile;
use cleo_engine::workload::JobSpec;
use cleo_optimizer::{
    CostModel, CostModelProvider, HeuristicCostModel, OptimizerConfig, SharedOptimizer,
};

const SHARDS: usize = 4;
const WORKERS: usize = 4;

fn metrics() -> HoldoutMetrics {
    HoldoutMetrics {
        correlation: 0.9,
        median_error_pct: 10.0,
        sample_count: 100,
    }
}

fn catalog() -> Catalog {
    let mut catalog = Catalog::new();
    catalog.add_table(TableDef::new(
        "facts",
        vec![
            ColumnDef::new("k", 8.0, 0.1),
            ColumnDef::new("v", 40.0, 0.8),
        ],
        1e7,
        16,
    ));
    catalog
}

/// A healthy job for `cluster` (its plan optimizes under any model).
fn job(id: u64, cluster: u8) -> Arc<JobSpec> {
    let plan = LogicalNode::get("facts")
        .filter("v > 1", 0.3, 0.2)
        .aggregate(vec!["k".into()], 0.05, 0.02)
        .output("out");
    Arc::new(JobSpec {
        meta: JobMeta {
            id: JobId(id),
            cluster: ClusterId(cluster),
            template: None,
            name: format!("obs_{id}_c{cluster}"),
            normalized_inputs: vec!["facts".into()],
            params: vec![],
            day: DayIndex(0),
            recurring: true,
        },
        plan,
        catalog: catalog(),
    })
}

/// A job whose optimization fails deterministically on every route (its plan
/// names a table absent from its catalog) — route-independent failures are
/// what make the breaker schedule a pure function of the stream.
fn failing_job(id: u64, cluster: u8) -> Arc<JobSpec> {
    let plan = LogicalNode::get("missing").output("out");
    Arc::new(JobSpec {
        meta: JobMeta {
            id: JobId(id),
            cluster: ClusterId(cluster),
            template: None,
            name: format!("obs_bad_{id}_c{cluster}"),
            normalized_inputs: vec!["missing".into()],
            params: vec![],
            day: DayIndex(0),
            recurring: true,
        },
        plan,
        catalog: catalog(),
    })
}

/// Build a warm four-shard serving stack; `instruments` decide whether the
/// router (and with it the pool) carries an observability handle (the only
/// difference between the two phase-A stacks).
fn build_pool(
    ctx: &cleo_bench::ExperimentContext,
    profiles: &[WorkloadProfile],
    instruments: Instruments,
) -> Arc<ServingPool> {
    let registry = Arc::new(ShardedRegistry::new((0u8..4).map(ClusterId)));
    for (c, cluster) in ctx.clusters.iter().enumerate() {
        registry.shard(ClusterId(c as u8)).unwrap().publish(
            Arc::clone(&cluster.predictor),
            1,
            metrics(),
        );
    }
    let fallback: Arc<dyn CostModel> = Arc::new(HeuristicCostModel::default_model());
    let router =
        Arc::new(ClusterRouter::new(registry, fallback, profiles).with_instruments(instruments));
    let shared = SharedOptimizer::new(
        Arc::clone(&router) as Arc<dyn CostModelProvider>,
        OptimizerConfig::resource_aware(),
    );
    Arc::new(ServingPool::new(shared, SHARDS, WORKERS))
}

/// One pass of the fixed stream; returns the elapsed time and a bit-exact
/// digest of every served plan `(request, cost bits, cluster, version)`.
fn run_pass(
    pool: &Arc<ServingPool>,
    requests: &[Arc<JobSpec>],
    config: FrontDoorConfig,
) -> (Duration, Vec<(usize, u64, u16, u64)>) {
    let mut door = FrontDoor::new(Arc::clone(pool), config);
    let start = Instant::now();
    for job in requests {
        door.offer(Arc::clone(job));
    }
    let report = door.drain_report();
    let elapsed = start.elapsed();
    assert_eq!(report.stats.shed, 0, "the stream must not shed");
    let mut digest: Vec<(usize, u64, u16, u64)> = report
        .completed
        .iter()
        .map(|c| {
            let plan = c.result.as_ref().expect("healthy stream serves");
            (
                c.request,
                plan.estimated_cost.to_bits(),
                plan.stats
                    .model_cluster
                    .map(|c| u16::from(c.0))
                    .unwrap_or(u16::MAX),
                plan.stats.model_version,
            )
        })
        .collect();
    digest.sort_unstable();
    (elapsed, digest)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let ctx = cleo_bench::ExperimentContext::quick().expect("context");
    let (n_requests, iters) = if smoke { (96, 2) } else { (768, 5) };
    let meta = BenchMeta::capture(SHARDS);

    let profiles: Vec<WorkloadProfile> = ctx
        .clusters
        .iter()
        .map(|c| WorkloadProfile::of(&c.workload))
        .collect();

    // The fixed request stream: test-day jobs, round-robin across clusters.
    let test_day = cleo_engine::DayIndex(ctx.days.saturating_sub(1));
    let per_cluster: Vec<Vec<Arc<JobSpec>>> = ctx
        .clusters
        .iter()
        .map(|c| {
            c.workload
                .jobs
                .iter()
                .filter(|j| j.meta.day == test_day)
                .map(|j| Arc::new(j.clone()))
                .collect()
        })
        .collect();
    let requests: Vec<Arc<JobSpec>> = (0..n_requests)
        .map(|i| {
            let cluster = &per_cluster[i % per_cluster.len()];
            Arc::clone(&cluster[(i / per_cluster.len()) % cluster.len()])
        })
        .collect();

    let config = FrontDoorConfig {
        max_queue_depth: 1024,
        policy: OverloadPolicy::Shed,
        coalesce_max: 8,
        deadline: None,
        max_retries: 0,
        retry_backoff: Duration::from_micros(500),
    };

    // -----------------------------------------------------------------------
    // Phase A — enabled-vs-disabled overhead on identical stacks.
    // -----------------------------------------------------------------------
    let obs = Arc::new(Obs::new());
    let disabled_pool = build_pool(&ctx, &profiles, Instruments::default());
    let enabled_pool = build_pool(&ctx, &profiles, Instruments::observed(Arc::clone(&obs)));

    // One warmup pass per stack (model-snapshot caches, worker spin-up), then
    // `iters` timed passes each; the per-variant minimum is the noise-robust
    // figure the overhead is computed from.
    let (_, disabled_digest) = run_pass(&disabled_pool, &requests, config);
    let (_, enabled_digest) = run_pass(&enabled_pool, &requests, config);
    assert_eq!(
        disabled_digest, enabled_digest,
        "observability must not perturb served plans (bit-identical digests)"
    );
    let mut disabled_best = Duration::MAX;
    let mut enabled_best = Duration::MAX;
    for _ in 0..iters {
        disabled_best = disabled_best.min(run_pass(&disabled_pool, &requests, config).0);
        enabled_best = enabled_best.min(run_pass(&enabled_pool, &requests, config).0);
    }
    let disabled_ms = disabled_best.as_secs_f64() * 1000.0;
    let enabled_ms = enabled_best.as_secs_f64() * 1000.0;
    let overhead_pct = (enabled_ms / disabled_ms.max(1e-9) - 1.0) * 100.0;
    let within_target = overhead_pct < 3.0;

    // -----------------------------------------------------------------------
    // Phase B — scripted breaker scenario under a fresh Obs handle: trip →
    // donor routing → half-open → close, every step visible in the trace.
    // -----------------------------------------------------------------------
    const TRIP_AFTER: u32 = 4;
    const COOLDOWN: u32 = 8;
    let trace_obs = Arc::new(Obs::new());
    let registry = Arc::new(ShardedRegistry::new((0u8..4).map(ClusterId)));
    for (c, cluster) in ctx.clusters.iter().enumerate() {
        registry.shard(ClusterId(c as u8)).unwrap().publish(
            Arc::clone(&cluster.predictor),
            1,
            metrics(),
        );
    }
    let fallback: Arc<dyn CostModel> = Arc::new(HeuristicCostModel::default_model());
    let router = Arc::new(
        ClusterRouter::new(registry, fallback, &profiles)
            .with_breaker_policy(BreakerPolicy {
                enabled: true,
                trip_after: TRIP_AFTER,
                cooldown: COOLDOWN,
            })
            .with_instruments(Instruments::observed(Arc::clone(&trace_obs))),
    );
    let shared = SharedOptimizer::new(
        Arc::clone(&router) as Arc<dyn CostModelProvider>,
        OptimizerConfig::resource_aware(),
    );
    let pool = ServingPool::new(shared, SHARDS, 2);

    // Waiting on each ticket before submitting the next keeps the scenario
    // readable; the breaker fold is submission-ordered either way.
    for i in 0..TRIP_AFTER as u64 {
        let batch = pool.submit(0, vec![failing_job(9000 + i, 0)]).wait();
        assert!(batch.results[0].is_err(), "scripted failure must fail");
    }
    assert_eq!(router.breaker_state(ClusterId(0)), Some(BreakerState::Open));
    let mut donor_served = 0u64;
    for i in 0..COOLDOWN as u64 {
        let batch = pool.submit(0, vec![job(9100 + i, 0)]).wait();
        let plan = batch.results[0].as_ref().expect("donor serves while open");
        assert_ne!(plan.stats.model_cluster, Some(ClusterId(0)));
        donor_served += 1;
    }
    assert_eq!(
        router.breaker_state(ClusterId(0)),
        Some(BreakerState::HalfOpen)
    );
    let probe = pool.submit(0, vec![job(9200, 0)]).wait();
    assert!(probe.results[0].is_ok(), "healthy probe closes the breaker");
    assert_eq!(
        router.breaker_state(ClusterId(0)),
        Some(BreakerState::Closed)
    );
    let closed = pool.submit(0, vec![job(9201, 0)]).wait();
    let plan = closed.results[0].as_ref().expect("own shard serves again");
    assert_eq!(plan.stats.model_cluster, Some(ClusterId(0)));

    // Drain the deterministically ordered trace and pin the story it tells.
    let events = trace_obs.trace().drain_sorted();
    assert_eq!(
        trace_obs.trace().dropped(),
        0,
        "trace buffer never overflowed"
    );
    let breaker_story: Vec<(u64, u16, BreakerKind)> = events
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::Breaker {
                seq,
                cluster,
                state,
            } => Some((seq, cluster, state)),
            _ => None,
        })
        .collect();
    assert_eq!(
        breaker_story,
        vec![
            (u64::from(TRIP_AFTER), 0, BreakerKind::Open),
            (u64::from(TRIP_AFTER + COOLDOWN), 0, BreakerKind::HalfOpen),
            (u64::from(TRIP_AFTER + COOLDOWN) + 1, 0, BreakerKind::Closed),
        ],
        "trace must show trip -> half-open -> close at the folded outcome indices"
    );

    // Counters and events are two views of one stream — cross-check exactly.
    let route_count = |kind: RouteKind| -> u64 {
        events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Route { outcome, .. } if *outcome == kind))
            .count() as u64
    };
    let snapshot = trace_obs.metrics().snapshot();
    let donor_routes = route_count(RouteKind::Donor);
    let own_routes = route_count(RouteKind::Own);
    let fallback_routes = route_count(RouteKind::Fallback);
    assert_eq!(snapshot.counter("router.donor_hits"), Some(donor_routes));
    assert_eq!(snapshot.counter("router.own_hits"), Some(own_routes));
    assert_eq!(
        snapshot.counter("router.fallback_hits"),
        Some(fallback_routes)
    );
    assert!(
        donor_routes >= donor_served,
        "every open-breaker serve shows up as a donor route event"
    );

    // The NDJSON trace round-trips span-exactly.
    let ndjson = write_events_ndjson(&events);
    let reread = read_events_ndjson(ndjson.as_bytes()).expect("trace parses");
    assert_eq!(reread, events, "NDJSON trace round-trips");
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let trace_path = root.join("BENCH_obs_trace.ndjson");
    std::fs::write(&trace_path, &ndjson).expect("write BENCH_obs_trace.ndjson");

    println!(
        "\n== obs_overhead ==\n{n_requests} requests x {iters} iters over {SHARDS} shards / \
         {WORKERS} workers on {} core(s) (degraded={})\n\
         disabled: {disabled_ms:.2}ms best   enabled: {enabled_ms:.2}ms best   \
         overhead: {overhead_pct:+.2}% (target < 3%)\n\
         trace: {} events ({} breaker transitions, {own_routes} own / {donor_routes} donor / \
         {fallback_routes} fallback routes), counters cross-checked\n\
         wrote {}",
        meta.cores,
        meta.degraded,
        events.len(),
        breaker_story.len(),
        trace_path.display(),
    );

    let meta_fields = meta.json_fields();
    let metrics_json = obs.metrics().snapshot().to_json();
    let json = format!(
        "{{\n  \"bench\": \"obs_overhead\",\n  \"smoke\": {smoke},\n  {meta_fields},\n  \
         \"shards\": {SHARDS},\n  \"workers\": {WORKERS},\n  \
         \"requests\": {n_requests},\n  \"iters\": {iters},\n  \
         \"disabled_best_ms\": {disabled_ms:.3},\n  \"enabled_best_ms\": {enabled_ms:.3},\n  \
         \"enabled_overhead_pct\": {overhead_pct:.3},\n  \"overhead_target_pct\": 3.0,\n  \
         \"within_target\": {within_target},\n  \"bit_identical_results\": true,\n  \
         \"trace\": {{\"events\": {}, \"dropped\": 0, \
         \"breaker_transitions\": [\"open\", \"half_open\", \"closed\"], \
         \"own_routes\": {own_routes}, \"donor_routes\": {donor_routes}, \
         \"fallback_routes\": {fallback_routes}, \"counters_match_events\": true}},\n  \
         \"metrics\": {metrics_json}\n}}\n",
        events.len(),
    );
    let path = root.join("BENCH_obs.json");
    std::fs::write(&path, &json).expect("write BENCH_obs.json");
    println!("wrote {}", path.display());
}

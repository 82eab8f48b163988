//! Macro-benchmark: goodput under seeded fault injection, and recovery.
//!
//! Replays one fixed request stream through the [`FrontDoor`] →
//! [`ServingPool`] serving stack three times:
//!
//! * **fault-free** — a fresh pool with no [`FaultPlan`]: the goodput
//!   baseline (observed like the other passes, so the goodput ratios
//!   compare fault against no fault and nothing else);
//! * **chaos** — a fresh pool under [`FaultPlan::chaos`] with the horizon
//!   covering every request: workers panic and stall mid-task, the front door
//!   retries with a deadline, and the drain accounts for every offered
//!   request (the zero-loss invariant is asserted, not just reported);
//! * **recovered** — the *same* chaos pool past its fault horizon: every
//!   scheduled fault has fired, so goodput must return to the fault-free
//!   baseline with no worker restarts or pool rebuilds.
//!
//! Also measures **time-to-recovery** (the chaos pool serving one fault-free
//! probe batch per shard immediately after the chaos drain) and the
//! **telemetry quarantine** under a poisoned firehose (healthy records kept,
//! poisoned records logged, 1-thread vs N-thread quarantine sets
//! bit-identical).  Writes `BENCH_chaos.json` at the workspace root (also in
//! `--smoke` mode — CI asserts the file is fresh and well-formed) with honest
//! `cores` / `degraded` fields.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cleo_bench::context::BenchMeta;
use cleo_common::fault::FaultPlan;
use cleo_common::obs::Obs;
use cleo_common::Instruments;
use cleo_core::ingest::{parse_telemetry_quarantine, QuarantinePolicy, WireFormat};
use cleo_core::serving::{FrontDoor, FrontDoorConfig, OverloadPolicy};
use cleo_core::sharding::{ClusterRouter, ServingPool, ShardedRegistry};
use cleo_core::HoldoutMetrics;
use cleo_engine::telemetry::TelemetryLog;
use cleo_engine::telemetry_io::write_ndjson;
use cleo_engine::workload::generator::WorkloadProfile;
use cleo_engine::workload::JobSpec;
use cleo_engine::ClusterId;
use cleo_optimizer::{
    CostModel, CostModelProvider, HeuristicCostModel, OptimizerConfig, SharedOptimizer,
};

const SHARDS: usize = 4;
const WORKERS: usize = 4;
const FAULT_SEED: u64 = 0xC1E0;

fn metrics() -> HoldoutMetrics {
    HoldoutMetrics {
        correlation: 0.9,
        median_error_pct: 10.0,
        sample_count: 100,
    }
}

/// One pass of the fixed stream through a front door over `pool`.
/// Returns `(ok, expired, errored, retried, shed, elapsed)`.
fn run_pass(
    pool: &Arc<ServingPool>,
    requests: &[Arc<JobSpec>],
    config: FrontDoorConfig,
) -> (u64, u64, u64, u64, u64, Duration) {
    let mut door = FrontDoor::new(Arc::clone(pool), config);
    let start = Instant::now();
    for job in requests {
        door.offer(Arc::clone(job));
    }
    let report = door.drain_report();
    let elapsed = start.elapsed();
    let ok = report.completed.iter().filter(|c| c.result.is_ok()).count() as u64;
    let stats = report.stats;

    // The zero-loss invariant: every offered request resolved as exactly one
    // of shed, completed-ok, expired, or errored.  Asserted here so the CI
    // smoke run fails loudly if the accounting ever drifts.
    assert_eq!(
        stats.offered(),
        requests.len() as u64,
        "every request was offered exactly once"
    );
    assert_eq!(
        report.completed.len() as u64,
        stats.admitted + stats.delayed,
        "every admitted request resolved"
    );
    assert_eq!(
        ok + stats.expired + stats.errored + stats.shed,
        stats.offered(),
        "zero-loss accounting: ok + expired + errored + shed == offered"
    );

    (
        ok,
        stats.expired,
        stats.errored,
        stats.retried,
        stats.shed,
        elapsed,
    )
}

fn main() {
    // Injected worker panics are caught by the pool; keep their backtraces
    // out of the bench log (a real panic still prints).
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.starts_with("injected fault"));
        if !injected {
            default_hook(info);
        }
    }));

    let smoke = std::env::args().any(|a| a == "--smoke");
    let ctx = cleo_bench::ExperimentContext::quick().expect("context");
    let n_requests = if smoke { 60 } else { 240 };
    let meta = BenchMeta::capture(SHARDS);
    let (cores, degraded) = (meta.cores, meta.degraded);

    // One warm shard per cluster (the sharded_serving fleet shape).
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
    // Every pass serves through an observed router over the same shards, so
    // the fault plan is the only difference between the fault-free baseline
    // and the chaos and recovery passes.  The baseline observes into a
    // registry of its own; the chaos stack's router hits, pool survivability
    // counters and front-door latencies, plus the quarantine's ingest
    // counters, land in `obs` and are folded into the JSON result.
    let obs = Arc::new(Obs::new());
    let shared = |instruments: Instruments| {
        let router = ClusterRouter::new(Arc::clone(&registry), Arc::clone(&fallback), &profiles)
            .with_instruments(instruments);
        SharedOptimizer::new(
            Arc::new(router) as Arc<dyn CostModelProvider>,
            OptimizerConfig::resource_aware(),
        )
    };

    // The request stream: test-day jobs, round-robin across the four clusters.
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

    // coalesce_max=1 keeps the task-sequence fault keying 1:1 with requests;
    // the generous deadline bounds stalled tasks without spurious expiries.
    let config = FrontDoorConfig {
        max_queue_depth: 256,
        policy: OverloadPolicy::Shed,
        coalesce_max: 1,
        deadline: Some(Duration::from_secs(10)),
        max_retries: 2,
        retry_backoff: Duration::from_micros(500),
    };

    // Pass 1 — fault-free baseline on a fresh pool (warmup pass first so
    // model-snapshot caches don't bill to the baseline).
    let baseline_pool = Arc::new(ServingPool::new(
        shared(Instruments::observed(Arc::new(Obs::new()))),
        SHARDS,
        WORKERS,
    ));
    run_pass(&baseline_pool, &requests, config);
    let (base_ok, _, _, _, _, base_elapsed) = run_pass(&baseline_pool, &requests, config);
    let base_goodput = base_ok as f64 / base_elapsed.as_secs_f64().max(1e-9);

    // Pass 2 — chaos: every request's task sequence is inside the fault
    // horizon (retries run past it, which is what lets them succeed).
    let horizon = n_requests as u64;
    let chaos_pool = Arc::new(ServingPool::new(
        shared(Instruments {
            obs: Some(Arc::clone(&obs)),
            faults: Some(Arc::new(FaultPlan::chaos(FAULT_SEED, horizon))),
        }),
        SHARDS,
        WORKERS,
    ));
    let (chaos_ok, chaos_expired, chaos_errored, chaos_retried, chaos_shed, chaos_elapsed) =
        run_pass(&chaos_pool, &requests, config);
    let chaos_goodput = chaos_ok as f64 / chaos_elapsed.as_secs_f64().max(1e-9);

    // Time-to-recovery: the chaos pool has burned through its fault horizon;
    // one fault-free probe batch per shard measures how quickly it serves
    // again (panic isolation means no worker ever died, so this is the cost
    // of an ordinary round trip, not a restart).
    let t0 = Instant::now();
    let probes: Vec<_> = (0..SHARDS)
        .map(|s| chaos_pool.submit(s, vec![Arc::clone(&requests[s])]))
        .collect();
    for probe in probes {
        for result in probe.wait().results {
            result.expect("post-horizon probe serves fault-free");
        }
    }
    let time_to_recovery_ms = t0.elapsed().as_secs_f64() * 1000.0;

    // Pass 3 — recovered: the same chaos pool, same stream, all task
    // sequences now past the horizon.  Goodput must return to baseline.
    let (rec_ok, _, _, _, _, rec_elapsed) = run_pass(&chaos_pool, &requests, config);
    let rec_goodput = rec_ok as f64 / rec_elapsed.as_secs_f64().max(1e-9);
    assert_eq!(
        rec_ok, n_requests as u64,
        "past the horizon every request serves"
    );

    // Pool survivability counters (read after the probes, so the last caught
    // panic's bookkeeping has settled).
    let worker_panics = chaos_pool.worker_panics();
    let requeued = chaos_pool.requeued_tasks();
    let worker_errors = chaos_pool.worker_error_tasks();
    let respawned = chaos_pool.respawned_workers();

    // Telemetry quarantine under a poisoned firehose: day-interleaved fleet
    // telemetry with ~5% of records poisoned by the plan.  The quarantine set
    // must be bit-identical for 1 thread and N.
    let mut jobs: Vec<_> = ctx
        .clusters
        .iter()
        .flat_map(|c| c.telemetry.jobs().iter().cloned())
        .collect();
    jobs.sort_by_key(|j| j.day());
    let text = write_ndjson(&TelemetryLog::from_jobs(jobs));
    let n_records = text.lines().filter(|l| !l.trim().is_empty()).count();
    let poison_plan = FaultPlan {
        poison_record_rate: 0.05,
        ..FaultPlan::quiet(FAULT_SEED)
    };
    let policy = QuarantinePolicy {
        max_kept: 64,
        error_budget: 0.25,
    };
    let threads = cores.max(2);
    let poisoned = Instruments::faulted(poison_plan);
    let (log_1t, quarantine_1t) =
        parse_telemetry_quarantine(text.as_bytes(), WireFormat::Ndjson, 1, &policy, &poisoned)
            .expect("quarantine 1t");
    let (log_nt, quarantine_nt) = parse_telemetry_quarantine(
        text.as_bytes(),
        WireFormat::Ndjson,
        threads,
        &policy,
        &Instruments {
            obs: Some(Arc::clone(&obs)),
            ..poisoned
        },
    )
    .expect("quarantine nt");
    assert_eq!(log_1t.len(), log_nt.len(), "kept records match 1 vs N");
    assert_eq!(
        quarantine_1t.total, quarantine_nt.total,
        "quarantine totals match 1 vs N"
    );
    let set = |q: &cleo_core::ingest::QuarantineLog| -> Vec<(usize, String)> {
        q.kept.iter().map(|r| (r.record, r.msg.clone())).collect()
    };
    assert_eq!(
        set(&quarantine_1t),
        set(&quarantine_nt),
        "quarantine set is bit-identical 1 vs N threads"
    );
    assert_eq!(log_1t.len() + quarantine_1t.total, n_records);
    let quarantined = quarantine_1t.total;
    let healthy = log_1t.len();

    let goodput_ratio = chaos_goodput / base_goodput.max(1e-9);
    let recovery_ratio = rec_goodput / base_goodput.max(1e-9);
    println!(
        "\n== chaos ==\n{n_requests} requests over {SHARDS} shards / {WORKERS} workers on \
         {cores} core(s) (degraded={degraded}); fault seed {FAULT_SEED}, horizon {horizon}\n\
         fault-free: {base_goodput:.1} ok/sec ({base_ok} ok in {:.2}s)\n\
         chaos:      {chaos_goodput:.1} ok/sec ({chaos_ok} ok, {chaos_expired} expired, \
         {chaos_errored} errored, {chaos_shed} shed; {chaos_retried} retries) \
         [{:.2}x fault-free]\n\
         pool: {worker_panics} worker panics caught, {requeued} tasks requeued, \
         {worker_errors} tasks error-completed, {respawned} workers respawned\n\
         recovery: probe {time_to_recovery_ms:.2}ms; replay {rec_goodput:.1} ok/sec \
         [{recovery_ratio:.2}x fault-free]\n\
         quarantine: {quarantined}/{n_records} records quarantined, {healthy} healthy kept \
         (1 vs {threads} threads bit-identical)",
        base_elapsed.as_secs_f64(),
        goodput_ratio,
    );

    let meta_fields = meta.json_fields();
    let metrics_json = obs.metrics().snapshot().to_json();
    let json = format!(
        "{{\n  \"bench\": \"chaos\",\n  \"smoke\": {smoke},\n  {meta_fields},\n  \
         \"shards\": {SHARDS},\n  \"workers\": {WORKERS},\n  \
         \"requests\": {n_requests},\n  \"fault_seed\": {FAULT_SEED},\n  \
         \"fault_horizon\": {horizon},\n  \
         \"fault_free\": {{\"goodput_ok_per_sec\": {base_goodput:.1}, \"ok\": {base_ok}}},\n  \
         \"chaos\": {{\"goodput_ok_per_sec\": {chaos_goodput:.1}, \"ok\": {chaos_ok}, \
         \"expired\": {chaos_expired}, \"errored\": {chaos_errored}, \"shed\": {chaos_shed}, \
         \"retries\": {chaos_retried}, \"goodput_ratio_vs_fault_free\": {goodput_ratio:.3}, \
         \"zero_loss\": true}},\n  \
         \"pool\": {{\"worker_panics\": {worker_panics}, \"requeued_tasks\": {requeued}, \
         \"worker_error_tasks\": {worker_errors}, \"respawned_workers\": {respawned}}},\n  \
         \"recovery\": {{\"probe_ms\": {time_to_recovery_ms:.3}, \
         \"goodput_ok_per_sec\": {rec_goodput:.1}, \
         \"ratio_vs_fault_free\": {recovery_ratio:.3}}},\n  \
         \"quarantine\": {{\"records\": {n_records}, \"quarantined\": {quarantined}, \
         \"healthy_kept\": {healthy}, \"poison_rate\": 0.05, \
         \"bit_identical_1_vs_{threads}_threads\": true}},\n  \
         \"metrics\": {metrics_json}\n}}\n",
    );
    // Anchor the result file at the workspace root regardless of the bench cwd.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_chaos.json");
    std::fs::write(&path, &json).expect("write BENCH_chaos.json");
    println!("wrote {}", path.display());
}

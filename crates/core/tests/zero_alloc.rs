//! Proof that the steady-state candidate sweep is allocation-free.
//!
//! A counting global allocator wraps `System`; after a warm-up sweep has grown
//! the scratch buffers to their steady-state capacity, further sweeps through
//! [`PredictScratch`] must perform **zero** heap allocations — the acceptance
//! bar of the flat-matrix inference refactor.
//!
//! The same harness proves the observability seams: route resolution with no
//! [`Obs`] handle attached (the production default) stays allocation-free,
//! and with a handle attached the steady-state record path — striped counter
//! adds, gauge stores, histogram bins, trace pushes into preallocated stripe
//! capacity — never touches the allocator either.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use cleo_core::models::PredictScratch;
use cleo_core::{pipeline, TrainerConfig};
use cleo_engine::exec::{Simulator, SimulatorConfig};
use cleo_engine::workload::generator::{generate_cluster_workload, ClusterConfig};
use cleo_engine::ClusterId;
use cleo_optimizer::{HeuristicCostModel, OptimizerConfig};

/// Counts the allocations of an armed thread only: the harness runs tests on
/// parallel threads, and their allocations must not land in another test's
/// measured window.
struct CountingAllocator;

thread_local! {
    // `const`-initialised and drop-free, so the allocator can read them
    // without allocating or registering a destructor.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_if_armed() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

/// Start counting this thread's allocations from zero.
fn arm() {
    ALLOCATIONS.set(0);
    ARMED.set(true);
}

/// Stop counting and return how many allocations this thread made since
/// [`arm`].
fn disarm() -> usize {
    ARMED.set(false);
    ALLOCATIONS.get()
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_armed();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_armed();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_candidate_sweep_allocates_nothing() {
    let workload = generate_cluster_workload(&ClusterConfig::small(ClusterId(0)), 2);
    let model = HeuristicCostModel::default_model();
    let simulator = Simulator::new(SimulatorConfig::default());
    let jobs: Vec<_> = workload.jobs.iter().take(40).collect();
    let log = pipeline::run_jobs(&jobs, &model, OptimizerConfig::default(), &simulator).unwrap();
    let predictor = Arc::new(pipeline::train_predictor(&log, TrainerConfig::default()).unwrap());

    let candidates: Vec<usize> = (0..64).map(|i| 1 + 4 * i).collect();
    let mut scratch = PredictScratch::new();
    let plans: Vec<_> = log.jobs().iter().take(10).collect();

    // Warm-up: grows every scratch buffer to steady-state capacity.
    let mut warm = 0.0;
    for job in &plans {
        for node in job.plan.operators() {
            let b =
                predictor.predict_candidates_with(node, &candidates, &job.plan.meta, &mut scratch);
            warm += b.iter().map(|x| x.combined).sum::<f64>();
        }
    }
    assert!(warm.is_finite());

    // Steady state: re-sweep every operator; the scratch is reused across all
    // candidates and all sweeps, so the allocator must not be touched.
    let nodes: Vec<_> = plans
        .iter()
        .flat_map(|job| {
            job.plan
                .operators()
                .into_iter()
                .map(move |n| (n, &job.plan.meta))
        })
        .collect();
    let mut total_candidates = 0usize;
    arm();
    let mut acc = 0.0;
    for &(node, meta) in &nodes {
        let breakdowns = predictor.predict_candidates_with(node, &candidates, meta, &mut scratch);
        acc += breakdowns.iter().map(|b| b.combined).sum::<f64>();
        total_candidates += breakdowns.len();
    }
    let allocations = disarm();
    assert!(acc.is_finite());
    assert!(
        total_candidates > 1000,
        "swept {total_candidates} candidates"
    );
    assert_eq!(
        allocations, 0,
        "steady-state sweeps must not allocate (got {} allocations over {} candidates)",
        allocations, total_candidates
    );
}

/// The lane-blocked SIMD sweep stays allocation-free for ragged candidate
/// counts: 67 candidates is 8 full 8-row lane blocks plus a 3-row scalar
/// remainder, so both the vector arm and the tail arm run in the timed region.
/// The warm-up grows the lane-major transposed scratch to its high-water mark;
/// after that, neither arm may touch the allocator.
#[test]
fn ragged_simd_sweep_allocates_nothing() {
    let workload = generate_cluster_workload(&ClusterConfig::small(ClusterId(0)), 2);
    let model = HeuristicCostModel::default_model();
    let simulator = Simulator::new(SimulatorConfig::default());
    let jobs: Vec<_> = workload.jobs.iter().take(30).collect();
    let log = pipeline::run_jobs(&jobs, &model, OptimizerConfig::default(), &simulator).unwrap();
    let predictor = Arc::new(pipeline::train_predictor(&log, TrainerConfig::default()).unwrap());

    // Descending ragged sizes: the biggest first so the warm-up reaches the
    // high-water mark, then smaller sweeps reuse (never regrow) the scratch.
    let sizes = [67usize, 64, 9, 8, 7, 1];
    let candidate_sets: Vec<Vec<usize>> = sizes
        .iter()
        .map(|&n| (0..n).map(|i| 1 + 3 * i).collect())
        .collect();
    let mut scratch = PredictScratch::new();
    let plans: Vec<_> = log.jobs().iter().take(8).collect();

    let mut warm = 0.0;
    for job in &plans {
        for node in job.plan.operators() {
            let b = predictor.predict_candidates_with(
                node,
                &candidate_sets[0],
                &job.plan.meta,
                &mut scratch,
            );
            warm += b.iter().map(|x| x.combined).sum::<f64>();
        }
    }
    assert!(warm.is_finite());

    // Pre-collect the (node, meta) pairs: `operators()` materialises a Vec,
    // which must stay outside the timed region.
    let nodes: Vec<_> = plans
        .iter()
        .flat_map(|job| {
            job.plan
                .operators()
                .into_iter()
                .map(move |n| (n, &job.plan.meta))
        })
        .collect();
    arm();
    let mut acc = 0.0;
    let mut total_candidates = 0usize;
    for candidates in &candidate_sets {
        for &(node, meta) in &nodes {
            let b = predictor.predict_candidates_with(node, candidates, meta, &mut scratch);
            acc += b.iter().map(|x| x.combined).sum::<f64>();
            total_candidates += b.len();
        }
    }
    let allocations = disarm();
    assert!(acc.is_finite());
    assert!(
        total_candidates > 500,
        "swept {total_candidates} candidates"
    );
    assert_eq!(
        allocations, 0,
        "ragged SIMD sweeps must not allocate (got {} allocations over {} candidates)",
        allocations, total_candidates
    );
}

/// The steady-state ingest validation loop is allocation-free: a firehose
/// receiver re-scanning arriving NDJSON buffers ([`scan_ndjson`]) must never
/// touch the allocator — the scan validates structure, UTF-8, field order, and
/// day monotonicity through borrowed byte slices only.
#[test]
fn steady_state_ndjson_scan_allocates_nothing() {
    use cleo_engine::telemetry_io::{scan_ndjson, write_ndjson};

    let workload = generate_cluster_workload(&ClusterConfig::small(ClusterId(0)), 2);
    let model = HeuristicCostModel::default_model();
    let simulator = Simulator::new(SimulatorConfig::default());
    let jobs: Vec<_> = workload.jobs.iter().take(40).collect();
    let log = pipeline::run_jobs(&jobs, &model, OptimizerConfig::default(), &simulator).unwrap();
    let text = write_ndjson(&log);
    let buf = text.as_bytes();

    // Warm-up (also pins the expected totals the timed loop must reproduce).
    let expected = scan_ndjson(buf).expect("scan");
    assert_eq!(expected.jobs, log.len());

    arm();
    let mut jobs_seen = 0usize;
    let mut operators_seen = 0usize;
    for _ in 0..50 {
        let summary = scan_ndjson(buf).expect("scan");
        jobs_seen += summary.jobs;
        operators_seen += summary.operators;
    }
    let allocations = disarm();
    assert_eq!(jobs_seen, expected.jobs * 50);
    assert_eq!(operators_seen, expected.operators * 50);
    assert_eq!(
        allocations, 0,
        "the NDJSON validation scan must not allocate (got {} allocations over 50 scans)",
        allocations
    );
}

/// Route resolution with the obs seam *disabled* (`with_obs(None)`, the
/// production default) allocates nothing in steady state: the seam is one
/// `Option` branch, the routing counters are preallocated stripes, and the
/// served-model snapshot is Arc clones all the way down.
#[test]
fn disabled_obs_route_resolution_allocates_nothing() {
    use cleo_core::sharding::{ClusterRouter, ShardedRegistry};
    use cleo_core::HoldoutMetrics;
    use cleo_optimizer::CostModelProvider;

    let workload = generate_cluster_workload(&ClusterConfig::small(ClusterId(0)), 2);
    let model = HeuristicCostModel::default_model();
    let simulator = Simulator::new(SimulatorConfig::default());
    let jobs: Vec<_> = workload.jobs.iter().take(30).collect();
    let log = pipeline::run_jobs(&jobs, &model, OptimizerConfig::default(), &simulator).unwrap();
    let predictor = Arc::new(pipeline::train_predictor(&log, TrainerConfig::default()).unwrap());

    let registry = Arc::new(ShardedRegistry::new((0u8..2).map(ClusterId)));
    for c in 0u8..2 {
        registry.shard(ClusterId(c)).unwrap().publish(
            Arc::clone(&predictor),
            1,
            HoldoutMetrics {
                correlation: 0.9,
                median_error_pct: 10.0,
                sample_count: 24,
            },
        );
    }
    let router = ClusterRouter::with_uniform_similarity(
        registry,
        Arc::new(HeuristicCostModel::default_model()),
    )
    .with_obs(None);

    let meta = &workload.jobs[0].meta;
    // Warm-up: registers this thread's counter stripe.
    let warm = router.snapshot_for(meta);
    assert_eq!(warm.version, 1);

    arm();
    let mut versions = 0u64;
    for _ in 0..2000 {
        versions += router.snapshot_for(meta).version;
    }
    let allocations = disarm();
    assert_eq!(versions, 2000);
    assert_eq!(
        allocations, 0,
        "disabled-obs route resolution must not allocate (got {} allocations)",
        allocations
    );
}

/// With an [`Obs`] handle attached, the steady-state *record* path is also
/// allocation-free: counter adds and gauge stores are atomics, histogram
/// recording is a bin increment, and trace events push into each stripe's
/// preallocated capacity.  (Name lookups and snapshots allocate — they are
/// drain-time operations, not hot-path ones.)
#[test]
fn steady_state_obs_recording_allocates_nothing() {
    use cleo_common::obs::{AdmissionKind, Obs, TraceEvent};

    let obs = Obs::new();
    let counter = obs.metrics().counter("hot.counter");
    let gauge = obs.metrics().gauge("hot.gauge");
    let histogram = obs.metrics().histogram("hot.histogram");

    // Warm-up: registers this thread's stripe in the counter and the trace.
    counter.add(1);
    histogram.record_nanos(500);
    obs.emit(TraceEvent::Admission {
        seq: 0,
        shard: 0,
        verdict: AdmissionKind::Admitted,
    });

    arm();
    for i in 0..4000u64 {
        counter.add(1);
        gauge.set_max(i);
        histogram.record_nanos(1_000 + i * 37);
        obs.emit(TraceEvent::Admission {
            seq: i + 1,
            shard: (i % 4) as u16,
            verdict: AdmissionKind::Admitted,
        });
    }
    let allocations = disarm();
    assert_eq!(
        allocations, 0,
        "steady-state metric/trace recording must not allocate (got {} allocations)",
        allocations
    );
    assert_eq!(counter.sum(), 4001);
    assert_eq!(gauge.get(), 3999);
    assert_eq!(histogram.count(), 4001);
    assert_eq!(obs.trace().len(), 4001);
    assert_eq!(obs.trace().dropped(), 0);
}

//! The benchmark's own rules: the percentile rule, self time over child
//! spans, decorator transparency, and a gate that fails when a check breaks.

use std::sync::Arc;

use cleo_core::serving::{FrontDoor, FrontDoorConfig, FrontDoorStats};
use cleo_core::sharding::ServingPool;
use cleo_engine::workload::JobSpec;
use cleo_optimizer::{CostModelProvider, OptimizerConfig, SharedOptimizer};
use cleobench::common::{self, Host};
use cleobench::gate::{self, Gate};
use cleobench::stats::{self, tail_rank, windowed_percentile};
use cleobench::trace::{self, covered, self_time, Recorder, TracingProvider};
use cleobench::{END_TO_END, PER_LAYER};

#[test]
fn tail_rule_reports_the_highest_percentile_with_ten_samples_beyond() {
    assert_eq!(tail_rank(9), None, "even the median needs ten beyond it");
    assert_eq!(tail_rank(20), Some(50.0));
    assert_eq!(tail_rank(99), Some(50.0), "p90 of 99 has only 9 beyond");
    assert_eq!(tail_rank(100), Some(90.0));
    assert_eq!(tail_rank(999), Some(90.0));
    assert_eq!(tail_rank(1000), Some(99.0));
    assert_eq!(tail_rank(10_000), Some(99.9));

    let mut values: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
    assert_eq!(stats::percentile(&mut values, 50.0), 500.0);
    assert_eq!(
        stats::supported_percentile(&mut values, 99.0, "latency"),
        Ok(990.0)
    );

    let mut few: Vec<f64> = (0..500).map(f64::from).collect();
    let err = stats::supported_percentile(&mut few, 99.0, "latency").unwrap_err();
    assert!(err.contains("500 samples"), "{err}");
    assert!(stats::supported_percentile(&mut few, 90.0, "latency").is_ok());
}

#[test]
fn windowed_percentile_takes_the_median_window_and_needs_support_in_each() {
    // Three windows of 1000; one carries a stall in its top 2%.
    let mut values: Vec<f64> = (0..3000).map(|i| (i % 1000) as f64 / 1000.0).collect();
    for v in &mut values[1980..2000] {
        *v = 50.0;
    }
    let (p99, windows) = windowed_percentile(&values, 1000, 99.0).unwrap();
    assert_eq!(windows, 3);
    assert_eq!(p99, 0.989, "the stalled window is outvoted");
    assert!(windowed_percentile(&values[..1500], 1000, 99.0).is_ok());
    assert!(windowed_percentile(&values[..900], 1000, 99.0).is_err());
}

#[test]
fn self_time_counts_nested_and_overlapping_children_once() {
    // Parent [0, 100): a child [10, 40) with a grandchild [20, 30) listed as
    // a child too, and an overlapping sibling [35, 60).
    assert_eq!(covered(0, 100, &[(10, 40), (20, 30), (35, 60)]), 50);
    assert_eq!(self_time(0, 100, &[(10, 40), (20, 30), (35, 60)]), 50);
    // Children reaching outside the parent are clipped to it.
    assert_eq!(self_time(0, 100, &[(90, 150), (150, 200)]), 90);
    // Identical children (a coalesced call seen by several jobs).
    assert_eq!(self_time(0, 100, &[(10, 20), (10, 20), (10, 20)]), 90);
    // Empty and inverted intervals add nothing; full cover leaves nothing.
    assert_eq!(self_time(0, 100, &[(50, 50), (70, 60)]), 100);
    assert_eq!(self_time(0, 100, &[(0, 60), (40, 100)]), 0);
    assert_eq!(self_time(5, 5, &[]), 0);
}

const SUITE: &str = "\
suite decorator_check days=2 seed=5
cluster c0 scale=small families=3
cluster c1 scale=small families=3
";

#[test]
fn decorated_serving_is_bit_identical_and_counts_stay_exact() {
    let host = Host::detect();
    let (compiled, _) = common::compile(SUITE, &host);
    let mut fleet = common::fleet(&compiled, &host);
    fleet
        .run_epoch(&common::day_jobs(&compiled, 0))
        .expect("training epoch");
    let jobs: Vec<&JobSpec> = common::day_jobs(&compiled, 1);
    assert!(!jobs.is_empty());
    let router = Arc::clone(fleet.router()) as Arc<dyn CostModelProvider>;
    let rec = Arc::new(Recorder::default());
    let decorated: Arc<dyn CostModelProvider> =
        Arc::new(TracingProvider::new(Arc::clone(&router), Arc::clone(&rec)));

    let serve = |provider: Arc<dyn CostModelProvider>| {
        let before = fleet.router().routing_stats();
        let shared = SharedOptimizer::new(provider, OptimizerConfig::resource_aware());
        let plans = shared.optimize_all(&jobs, 1).expect("optimize");
        let routed = fleet.router().routing_stats().since(&before);
        let costs: Vec<f64> = plans.iter().map(|p| p.estimated_cost).collect();
        let versions: Vec<u64> = plans.iter().map(|p| p.stats.model_version).collect();
        (costs, versions, routed)
    };
    let (plain_costs, plain_versions, plain_routed) = serve(Arc::clone(&router));
    let (traced_costs, traced_versions, traced_routed) = serve(Arc::clone(&decorated));
    gate::bits_equal("decorated costs", &traced_costs, &plain_costs).unwrap();
    assert_eq!(traced_versions, plain_versions);
    assert_eq!(plain_routed.total(), jobs.len() as u64);
    assert_eq!(traced_routed, plain_routed, "router counters stay exact");

    let spans = rec.take();
    let cost_spans = spans
        .iter()
        .filter(|s| s.name == trace::names::COST)
        .count();
    let route_spans = spans.iter().filter(|s| trace::is_route(s.name)).count();
    assert!(cost_spans > jobs.len(), "{cost_spans} cost spans");
    assert!(route_spans >= jobs.len(), "{route_spans} route spans");

    // Through the pool and front door (coalesced final costing in a worker
    // thread), decorated plans still equal the serial reference.
    let pool = Arc::new(ServingPool::new(
        SharedOptimizer::new(decorated, OptimizerConfig::resource_aware()),
        2,
        1,
    ));
    let mut door = FrontDoor::new(Arc::clone(&pool), FrontDoorConfig::default());
    for job in &jobs {
        door.offer(Arc::new((*job).clone()));
    }
    let drained = door.drain_report();
    let pooled: Vec<f64> = drained
        .completed
        .iter()
        .map(|c| c.result.as_ref().expect("served").estimated_cost)
        .collect();
    gate::bits_equal("pooled decorated costs", &pooled, &plain_costs).unwrap();
    gate::zero_loss("pooled", &drained.stats, pooled.len() as u64, pooled.len()).unwrap();
    let here = trace::thread_no();
    assert!(
        rec.take()
            .iter()
            .any(|s| s.name == trace::names::COST && s.thread != here),
        "cost spans are recorded inside the pool's worker"
    );
}

#[test]
fn the_gate_fails_loudly_when_a_check_is_broken() {
    let stats = FrontDoorStats {
        admitted: 10,
        delayed: 0,
        shed: 2,
        batches: 3,
        retried: 0,
        expired: 1,
        errored: 0,
    };
    assert!(gate::zero_loss("phase", &stats, 9, 10).is_ok());
    assert!(
        gate::zero_loss("phase", &stats, 8, 10).is_err(),
        "a lost request"
    );
    assert!(
        gate::zero_loss("phase", &stats, 9, 9).is_err(),
        "a missing result"
    );

    let costs: [f64; 3] = [1.5, 2.25, 1e9];
    let mut flipped = costs;
    flipped[1] = f64::from_bits(flipped[1].to_bits() ^ 1);
    assert!(gate::bits_equal("costs", &costs, &costs).is_ok());
    assert!(
        gate::bits_equal("costs", &flipped, &costs).is_err(),
        "one ulp apart"
    );
    assert!(gate::bits_equal("costs", &costs[..2], &costs).is_err());
    assert!(
        gate::bits_equal("zeros", &[-0.0], &[0.0]).is_err(),
        "sign of zero"
    );

    let bytes = b"CMS1 snapshot".to_vec();
    let mut tampered = bytes.clone();
    tampered[7] ^= 0x20;
    assert!(gate::bytes_equal("snapshot", &bytes, &bytes).is_ok());
    let err = gate::bytes_equal("snapshot", &tampered, &bytes).unwrap_err();
    assert!(err.contains("byte 7"), "{err}");
    assert!(gate::count_equal("parsed", 843, 844).is_err());

    let mut g = Gate::default();
    g.check(Ok(()));
    assert!(g.passed());
    for _ in 0..100 {
        g.check(gate::count_equal("parsed", 843, 844));
    }
    assert!(!g.passed());
    assert_eq!(g.count(), 100);
    assert!(
        g.failures().len() < 100,
        "later failures are counted, not kept"
    );
}

/// The `(name, unit)` pairs of one metric list of `BENCHMARK.json`, in order
/// (the file keeps each metric's `name` before its `unit`).
fn manifest_metrics(manifest: &str, key: &str) -> Vec<(String, String)> {
    let start = manifest
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no {key} in the manifest"));
    let list = &manifest[start..];
    let list = &list[..list.find(']').expect("list end")];
    let field = |obj: &str, name: &str| -> String {
        let at = obj.find(&format!("\"{name}\"")).expect("field") + name.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("value") + 1;
        let close = open + rest[open..].find('"').expect("value end");
        rest[open..close].to_string()
    };
    list.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

#[test]
fn the_reported_metrics_are_the_manifests() {
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(
        manifest_metrics(&manifest, "end_to_end"),
        owned(&END_TO_END)
    );
    assert_eq!(manifest_metrics(&manifest, "per_layer"), owned(&PER_LAYER));

    // A run's metrics are brought into the manifest's set and order.
    let mut report = cleobench::common::Report::default();
    let mut g = Gate::default();
    report.metric("serve.p99_ms", 1.5, "ms");
    report.metric("serve.p50_ms", 0.5, "ms");
    report.conform(true, &mut g);
    assert!(g.passed(), "idle layers read 0");

    let mut report = cleobench::common::Report::default();
    let mut g = Gate::default();
    report.metric("jobs_s", 1.0, "jobs/s");
    report.conform(false, &mut g);
    assert_eq!(
        g.count(),
        END_TO_END.len() - 1,
        "missing end-to-end metrics"
    );

    let mut report = cleobench::common::Report::default();
    let mut g = Gate::default();
    for (name, unit) in END_TO_END {
        report.metric(name, 1.0, if name == "jobs_s" { "ms" } else { unit });
    }
    report.metric("not_a_metric", 1.0, "s");
    report.conform(false, &mut g);
    assert_eq!(g.count(), 2, "a wrong unit and an unknown name");
}

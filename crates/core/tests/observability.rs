//! Observability invariants: the obs layer is a *view* of the serving stack,
//! never an influence on it.
//!
//! * metric totals and trace-event streams are identical for 1 pool worker or
//!   N — logical sequence numbers, not wall clocks, order the trace;
//! * an attached [`Obs`] handle must not perturb a single served plan
//!   (bit-identical costs, clusters, and versions vs the disabled stack);
//! * a scripted breaker scenario pins the exact event story — publish, trip,
//!   donor routing, half-open, close — and the registry counters agree with
//!   the event multiset exactly;
//! * quarantine events are bit-identical across parse thread counts;
//! * the NDJSON trace export round-trips losslessly.

use std::sync::Arc;

use cleo_common::fault::FaultPlan;
use cleo_common::obs::{BreakerKind, Obs, PublishKind, RouteKind, TraceEvent};
use cleo_common::Instruments;
use cleo_core::ingest::{parse_telemetry_quarantine, QuarantinePolicy, WireFormat};
use cleo_core::models::{CleoPredictor, CombinedModel, ModelStore, OperatorSample};
use cleo_core::registry::HoldoutMetrics;
use cleo_core::serving::{FrontDoor, FrontDoorConfig, OverloadPolicy};
use cleo_core::sharding::{
    BreakerPolicy, BreakerState, ClusterRouter, ServingPool, ShardedRegistry,
};
use cleo_core::signature::ModelFamily;
use cleo_engine::catalog::{Catalog, ColumnDef, TableDef};
use cleo_engine::exec::{Simulator, SimulatorConfig};
use cleo_engine::logical::LogicalNode;
use cleo_engine::physical::{JobMeta, PhysicalNode, PhysicalOpKind, PhysicalPlan};
use cleo_engine::telemetry::{JobTelemetry, TelemetryLog};
use cleo_engine::telemetry_io::{read_events_ndjson, write_events_ndjson, write_ndjson};
use cleo_engine::types::{ClusterId, DayIndex, JobId, OpStats, TemplateId};
use cleo_engine::workload::JobSpec;
use cleo_optimizer::{CostModelProvider, HeuristicCostModel, OptimizerConfig, SharedOptimizer};

// ---------------------------------------------------------------------------
// Fixtures (mirrors the chaos suite: a warm four-shard router).
// ---------------------------------------------------------------------------

fn tiny_predictor(scale: f64) -> CleoPredictor {
    let meta = JobMeta {
        id: JobId(1),
        cluster: ClusterId(0),
        template: None,
        name: "obs".into(),
        normalized_inputs: vec!["t".into()],
        params: vec![],
        day: DayIndex(0),
        recurring: true,
    };
    let samples: Vec<OperatorSample> = (0..24)
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
            OperatorSample::from_node(&n, scale * rows * 1e-7 + 0.05, &meta)
        })
        .collect();
    CleoPredictor::new(
        vec![ModelStore::train(ModelFamily::Operator, &samples, 5).unwrap()],
        CombinedModel::default(),
    )
}

fn metrics() -> HoldoutMetrics {
    HoldoutMetrics {
        correlation: 0.9,
        median_error_pct: 10.0,
        sample_count: 24,
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

/// A job whose optimization fails on every route (missing table) — the
/// route-independent failure the breaker scenario needs.
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

/// A warm four-shard router with `instruments` (publishes happen *before*
/// the router is built, so the trace starts at the serving scenario, not the
/// warmup).
fn warm_router(instruments: Instruments) -> Arc<ClusterRouter> {
    let registry = Arc::new(ShardedRegistry::new((0u8..4).map(ClusterId)));
    for c in 0u8..4 {
        registry.shard(ClusterId(c)).unwrap().publish(
            Arc::new(tiny_predictor(1.0 + c as f64)),
            1,
            metrics(),
        );
    }
    Arc::new(
        ClusterRouter::with_uniform_similarity(
            registry,
            Arc::new(HeuristicCostModel::default_model()),
        )
        .with_instruments(instruments),
    )
}

/// A pool over `router`; it reads the router's instruments.
fn pool_over(router: &Arc<ClusterRouter>, workers: usize) -> ServingPool {
    let shared = SharedOptimizer::new(
        Arc::clone(router) as Arc<dyn CostModelProvider>,
        OptimizerConfig::resource_aware(),
    );
    ServingPool::new(shared, 4, workers)
}

/// The fixed request stream: distinct job ids, round-robin over the clusters.
fn stream(n: usize) -> Vec<Arc<JobSpec>> {
    (0..n)
        .map(|i| job(1000 + i as u64, (i % 4) as u8))
        .collect()
}

// ---------------------------------------------------------------------------
// Thread-count invariance.
// ---------------------------------------------------------------------------

#[test]
fn metric_totals_and_event_stream_are_identical_for_1_vs_n_workers() {
    let run = |workers: usize| -> (Vec<TraceEvent>, Vec<Option<u64>>, u64) {
        let obs = Arc::new(Obs::new());
        let router = warm_router(Instruments::observed(Arc::clone(&obs)));
        let pool = Arc::new(pool_over(&router, workers));
        let mut door = FrontDoor::new(
            Arc::clone(&pool),
            FrontDoorConfig {
                max_queue_depth: 1024,
                policy: OverloadPolicy::Shed,
                coalesce_max: 4,
                ..FrontDoorConfig::default()
            },
        );
        for request in stream(48) {
            door.offer(request);
        }
        let report = door.drain_report();
        assert_eq!(report.stats.shed, 0);
        assert_eq!(report.completed.len(), 48);
        // Per-shard queue high-water marks surface both in the report and as
        // registry gauges.
        let snapshot = obs.metrics().snapshot();
        for (shard, &mark) in report.queue_high_water.iter().enumerate() {
            assert!(mark >= 1, "every shard saw traffic");
            assert_eq!(
                snapshot.gauge(&format!("front_door.shard{shard}.queue_high_water")),
                Some(mark as u64),
                "drain gauges mirror the report"
            );
        }
        let counters = [
            "router.own_hits",
            "router.donor_hits",
            "router.fallback_hits",
            "pool.worker_panics",
            "pool.requeued_tasks",
            "pool.worker_error_tasks",
            "pool.respawned_workers",
        ]
        .iter()
        .map(|name| snapshot.counter(name))
        .collect();
        let latency_count = snapshot
            .histogram("front_door.latency")
            .map(|h| h.count)
            .unwrap_or(0);
        (obs.trace().drain_sorted(), counters, latency_count)
    };

    let (events_1, counters_1, latency_1) = run(1);
    let (events_n, counters_n, latency_n) = run(4);
    assert!(!events_1.is_empty(), "the stream must leave a trace");
    assert_eq!(
        events_1, events_n,
        "the sorted event stream must not depend on worker count"
    );
    assert_eq!(
        counters_1, counters_n,
        "metric totals must not depend on worker count"
    );
    assert_eq!(
        counters_1[0],
        Some(48),
        "every request routed to its own shard"
    );
    assert_eq!(latency_1, 48, "one latency sample per completed request");
    assert_eq!(latency_1, latency_n);
}

// ---------------------------------------------------------------------------
// Bit-identity of the observed serving path.
// ---------------------------------------------------------------------------

#[test]
fn obs_enabled_serving_is_bit_identical_to_disabled() {
    let serve = |instruments: Instruments| -> Vec<(u64, u64, Option<ClusterId>, u64)> {
        let router = warm_router(instruments);
        let pool = pool_over(&router, 2);
        stream(32)
            .into_iter()
            .map(|request| {
                let shard = usize::from(request.meta.cluster.0);
                let id = request.meta.id.0;
                let batch = pool.submit(shard, vec![request]).wait();
                let plan = batch.results[0].as_ref().expect("healthy job serves");
                (
                    id,
                    plan.estimated_cost.to_bits(),
                    plan.stats.model_cluster,
                    plan.stats.model_version,
                )
            })
            .collect()
    };

    let disabled = serve(Instruments::default());
    let enabled = serve(Instruments::observed(Arc::new(Obs::new())));
    assert_eq!(
        disabled, enabled,
        "an attached obs handle must not perturb a single served plan"
    );
}

// ---------------------------------------------------------------------------
// The breaker story, event by event.
// ---------------------------------------------------------------------------

#[test]
fn scripted_breaker_sequence_pins_publish_trip_donor_halfopen_close() {
    let obs = Arc::new(Obs::new());
    // Build the router over *empty* shards, then publish: with the router
    // already instrumented the publishes land in the trace too.
    let registry = Arc::new(ShardedRegistry::new((0u8..4).map(ClusterId)));
    let router = Arc::new(
        ClusterRouter::with_uniform_similarity(
            Arc::clone(&registry),
            Arc::new(HeuristicCostModel::default_model()),
        )
        .with_breaker_policy(BreakerPolicy {
            enabled: true,
            trip_after: 2,
            cooldown: 2,
        })
        .with_instruments(Instruments::observed(Arc::clone(&obs))),
    );
    for c in 0u8..4 {
        registry.shard(ClusterId(c)).unwrap().publish(
            Arc::new(tiny_predictor(1.0 + c as f64)),
            1,
            metrics(),
        );
    }
    let pool = pool_over(&router, 2);

    // Two failures trip shard 0; two donor-served outcomes drain the
    // cooldown; the healthy probe closes it again.
    for i in 0..2u64 {
        assert!(pool
            .submit(0, vec![failing_job(9000 + i, 0)])
            .wait()
            .results[0]
            .is_err());
    }
    assert_eq!(router.breaker_state(ClusterId(0)), Some(BreakerState::Open));
    for i in 0..2u64 {
        let batch = pool.submit(0, vec![job(9100 + i, 0)]).wait();
        let plan = batch.results[0].as_ref().expect("donor serves while open");
        assert_ne!(plan.stats.model_cluster, Some(ClusterId(0)));
    }
    assert_eq!(
        router.breaker_state(ClusterId(0)),
        Some(BreakerState::HalfOpen)
    );
    assert!(pool.submit(0, vec![job(9200, 0)]).wait().results[0].is_ok());
    assert_eq!(
        router.breaker_state(ClusterId(0)),
        Some(BreakerState::Closed)
    );

    let events = obs.trace().drain_sorted();

    // Four epoch publishes, one per shard, before any serving.
    let publishes: Vec<(u16, PublishKind, u64)> = events
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::Publish {
                cluster,
                lineage,
                version,
                ..
            } => Some((cluster, lineage, version)),
            _ => None,
        })
        .collect();
    assert_eq!(
        publishes,
        (0u16..4)
            .map(|c| (c, PublishKind::Epoch, 1))
            .collect::<Vec<_>>()
    );

    // The breaker transitions at exact folded-outcome indices.
    let breaker: Vec<(u64, u16, BreakerKind)> = events
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
        breaker,
        vec![
            (2, 0, BreakerKind::Open),
            (4, 0, BreakerKind::HalfOpen),
            (5, 0, BreakerKind::Closed),
        ]
    );

    // Route events and registry counters are two views of one stream.
    let route_count = |kind: RouteKind| -> u64 {
        events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Route { outcome, .. } if *outcome == kind))
            .count() as u64
    };
    let snapshot = obs.metrics().snapshot();
    assert_eq!(
        snapshot.counter("router.own_hits"),
        Some(route_count(RouteKind::Own))
    );
    assert_eq!(
        snapshot.counter("router.donor_hits"),
        Some(route_count(RouteKind::Donor))
    );
    assert_eq!(
        snapshot.counter("router.fallback_hits"),
        Some(route_count(RouteKind::Fallback))
    );
    assert_eq!(
        route_count(RouteKind::Donor),
        2,
        "both open-breaker serves routed to a donor"
    );

    // The NDJSON export of the trace round-trips losslessly.
    let ndjson = write_events_ndjson(&events);
    assert_eq!(
        read_events_ndjson(ndjson.as_bytes()).expect("trace parses"),
        events
    );
}

// ---------------------------------------------------------------------------
// Quarantine events across thread counts.
// ---------------------------------------------------------------------------

fn sample_job(job: u64, day: u32, cluster: u8) -> JobTelemetry {
    let mut extract = PhysicalNode::new(PhysicalOpKind::Extract, "events_{date}", vec![]);
    extract.act = OpStats {
        input_cardinality: 1e5 + job as f64 * 13.0,
        base_cardinality: 1e5,
        output_cardinality: 9e4,
        avg_row_bytes: 37.0,
    };
    extract.est = extract.act;
    extract.partition_count = 8;
    let mut agg = PhysicalNode::new(PhysicalOpKind::HashAggregate, "uid;count", vec![extract]);
    agg.partition_count = 8;
    agg.est.output_cardinality = 5e3;
    let mut out = PhysicalNode::new(PhysicalOpKind::Output, "sink", vec![agg]);
    out.partition_count = 1;
    let meta = JobMeta {
        id: JobId(job),
        cluster: ClusterId(cluster),
        template: Some(TemplateId(job % 5)),
        name: format!("hourly rollup {job}"),
        normalized_inputs: vec!["events_{date}".into()],
        params: vec![job as f64 * 0.5],
        day: DayIndex(day),
        recurring: true,
    };
    let plan = PhysicalPlan::new(meta, out);
    let run = Simulator::new(SimulatorConfig::default()).run(&plan);
    JobTelemetry::new(plan, run)
}

#[test]
fn quarantine_events_and_counters_are_identical_across_thread_counts() {
    let mut log = TelemetryLog::new();
    for i in 0..120u64 {
        log.push(sample_job(i, (i / 7) as u32, (i % 3) as u8));
    }
    let text = write_ndjson(&log);
    let plan = FaultPlan {
        poison_record_rate: 0.08,
        ..FaultPlan::quiet(42)
    };
    let policy = QuarantinePolicy {
        error_budget: 0.5,
        ..QuarantinePolicy::default()
    };

    let run = |threads: usize| -> (Vec<TraceEvent>, Option<u64>, Option<u64>, usize) {
        let obs = Arc::new(Obs::new());
        let instruments = Instruments {
            obs: Some(Arc::clone(&obs)),
            faults: Some(Arc::new(plan.clone())),
        };
        let (kept, quarantine) = parse_telemetry_quarantine(
            text.as_bytes(),
            WireFormat::Ndjson,
            threads,
            &policy,
            &instruments,
        )
        .expect("quarantine parse");
        let snapshot = obs.metrics().snapshot();
        assert_eq!(
            snapshot.counter("ingest.kept_records"),
            Some(kept.len() as u64)
        );
        assert_eq!(
            snapshot.counter("ingest.quarantined_records"),
            Some(quarantine.total as u64)
        );
        (
            obs.trace().drain_sorted(),
            snapshot.counter("ingest.kept_records"),
            snapshot.counter("ingest.quarantined_records"),
            quarantine.total,
        )
    };

    let (events_1, kept_1, quarantined_1, total_1) = run(1);
    assert!(total_1 > 0, "the poison schedule must quarantine records");
    assert_eq!(
        events_1.len(),
        total_1,
        "one quarantine event per refused record"
    );
    for threads in [2, 4, 8] {
        let (events_t, kept_t, quarantined_t, _) = run(threads);
        assert_eq!(
            events_1, events_t,
            "quarantine trace identical 1 vs {threads}"
        );
        assert_eq!(kept_1, kept_t);
        assert_eq!(quarantined_1, quarantined_t);
    }
}

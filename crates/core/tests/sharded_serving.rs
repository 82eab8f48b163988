//! Integration tests of the cross-cluster sharded serving tier: per-shard
//! publish-during-optimize consistency, deterministic cross-shard fallback
//! resolution (1 thread vs N bit-identical), the cold-shard → warm-shard
//! transition, and a one-shard fleet serving a foreign cluster from the
//! fallback.

mod common;

use std::sync::Arc;

use cleo_core::feedback::{FeedbackConfig, PublishDecision};
use cleo_core::models::{CleoPredictor, CombinedModel, ModelStore, OperatorSample};
use cleo_core::pipeline;
use cleo_core::registry::HoldoutMetrics;
use cleo_core::sharding::{ClusterRouter, ShardedRegistry};
use cleo_core::signature::ModelFamily;
use cleo_engine::catalog::{Catalog, ColumnDef, TableDef};
use cleo_engine::exec::{Simulator, SimulatorConfig};
use cleo_engine::logical::LogicalNode;
use cleo_engine::physical::{JobMeta, PhysicalNode, PhysicalOpKind};
use cleo_engine::types::{ClusterId, DayIndex, JobId, OpStats};
use cleo_engine::workload::generator::{generate_cluster_workload, interleave_jobs, ClusterConfig};
use cleo_engine::workload::JobSpec;
use cleo_optimizer::{CostModelProvider, HeuristicCostModel, OptimizerConfig, SharedOptimizer};

use common::{one_shard_loop, one_shard_router, shard_registry, shard_window};

/// A small trained predictor whose scale differs per seed, so different shard
/// versions produce observably different models.
fn tiny_predictor(scale: f64) -> CleoPredictor {
    let meta = JobMeta {
        id: JobId(1),
        cluster: ClusterId(0),
        template: None,
        name: "sharded".into(),
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

/// A small optimizable job on a given cluster.
fn job(id: u64, cluster: u8) -> JobSpec {
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
    let plan = LogicalNode::get("facts")
        .filter("v > 1", 0.3, 0.2)
        .aggregate(vec!["k".into()], 0.05, 0.02)
        .output("out");
    JobSpec {
        meta: JobMeta {
            id: JobId(id),
            cluster: ClusterId(cluster),
            template: None,
            name: format!("sharded_test_{id}_c{cluster}"),
            normalized_inputs: vec!["facts".into()],
            params: vec![],
            day: DayIndex(0),
            recurring: true,
        },
        plan,
        catalog,
    }
}

fn four_shard_router() -> Arc<ClusterRouter> {
    let registry = Arc::new(ShardedRegistry::new((0u8..4).map(ClusterId)));
    Arc::new(ClusterRouter::with_uniform_similarity(
        registry,
        Arc::new(HeuristicCostModel::default_model()),
    ))
}

#[test]
fn publish_during_optimize_stays_consistent_per_shard() {
    let router = four_shard_router();
    // Warm every shard with a v1 so readers always see a published model.
    for c in 0u8..4 {
        router
            .registry()
            .shard(ClusterId(c))
            .unwrap()
            .publish(tiny_predictor(1.0), 1, metrics());
    }
    let shared = SharedOptimizer::new(
        Arc::clone(&router) as Arc<dyn CostModelProvider>,
        OptimizerConfig::default(),
    );
    let jobs: Vec<JobSpec> = (0..8).map(|i| job(100 + i, (i % 4) as u8)).collect();

    std::thread::scope(|scope| {
        // One publisher per shard racing the readers.
        let mut writers = Vec::new();
        for c in 0u8..4 {
            let router = Arc::clone(&router);
            writers.push(scope.spawn(move || {
                let registry = Arc::clone(router.registry().shard(ClusterId(c)).unwrap());
                for epoch in 2..8u32 {
                    registry.publish(tiny_predictor(epoch as f64), epoch, metrics());
                }
            }));
        }
        for _ in 0..3 {
            let shared = &shared;
            let jobs = &jobs;
            scope.spawn(move || {
                for _ in 0..30 {
                    for j in jobs {
                        let plan = shared.optimize(j).expect("optimize");
                        // Every read sees one internally consistent shard
                        // snapshot: the plan is well-formed, its provenance is
                        // the job's own (warm) shard, and the version is one
                        // that shard actually published.
                        assert!(plan.estimated_cost > 0.0);
                        assert_eq!(plan.stats.model_cluster, Some(j.meta.cluster));
                        assert!((1..=7).contains(&plan.stats.model_version));
                    }
                }
            });
        }
        for w in writers {
            w.join().unwrap();
        }
    });

    // Each shard versioned independently: 7 versions per shard, v7 serving.
    for c in 0u8..4 {
        assert_eq!(router.registry().shard_version(ClusterId(c)), 7);
        assert_eq!(
            router
                .registry()
                .shard(ClusterId(c))
                .unwrap()
                .version_count(),
            7
        );
    }
    let stats = router.routing_stats();
    assert_eq!(stats.total(), stats.own_hits, "every job hit its own shard");
}

#[test]
fn fallback_chain_resolution_is_bit_identical_across_thread_counts() {
    let router = four_shard_router();
    // Two warm shards, two cold ones: jobs on clusters 1 and 3 must walk the
    // donor chain, deterministically.
    router
        .registry()
        .shard(ClusterId(0))
        .unwrap()
        .publish(tiny_predictor(1.0), 1, metrics());
    router
        .registry()
        .shard(ClusterId(2))
        .unwrap()
        .publish(tiny_predictor(3.0), 1, metrics());

    let shared = SharedOptimizer::new(
        Arc::clone(&router) as Arc<dyn CostModelProvider>,
        OptimizerConfig::resource_aware(),
    );
    let jobs: Vec<JobSpec> = (0..16).map(|i| job(200 + i, (i % 4) as u8)).collect();
    let refs: Vec<&JobSpec> = jobs.iter().collect();

    let serial = shared.optimize_all(&refs, 1).unwrap();
    let parallel = shared.optimize_all(&refs, 4).unwrap();
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.plan.meta.id, p.plan.meta.id);
        assert_eq!(s.estimated_cost.to_bits(), p.estimated_cost.to_bits());
        assert_eq!(s.stats.model_version, p.stats.model_version);
        assert_eq!(s.stats.model_cluster, p.stats.model_cluster);
        assert_eq!(s.plan.op_count(), p.plan.op_count());
    }
    // The routing outcomes themselves are the expected chain walks: warm
    // clusters serve themselves; cold cluster 1 borrows its first warm donor,
    // cold cluster 3 likewise (uniform similarity = cluster-id order).
    for plan in &serial {
        let own = plan.plan.meta.cluster;
        let expected = match own.0 {
            0 => ClusterId(0),
            2 => ClusterId(2),
            1 => ClusterId(0), // chain of 1: [0, 2, 3]; 0 is warm
            _ => ClusterId(0), // chain of 3: [0, 1, 2]; 0 is warm
        };
        assert_eq!(plan.stats.model_cluster, Some(expected), "cluster {own:?}");
        assert_eq!(plan.stats.model_version, 1);
    }
}

#[test]
fn cold_shard_transitions_to_warm_shard_serving() {
    let router = four_shard_router();
    let shared = SharedOptimizer::new(
        Arc::clone(&router) as Arc<dyn CostModelProvider>,
        OptimizerConfig::default(),
    );
    let j = job(300, 3);

    // Entirely cold fleet: the version-0 fallback serves.
    let plan = shared.optimize(&j).unwrap();
    assert_eq!(plan.stats.model_version, 0);
    assert_eq!(plan.stats.model_cluster, None);
    assert_eq!(router.routing_stats().fallback_hits, 1);

    // A donor warms up: cluster 3 borrows it (first warm shard on its chain).
    router
        .registry()
        .shard(ClusterId(1))
        .unwrap()
        .publish(tiny_predictor(2.0), 1, metrics());
    let plan = shared.optimize(&j).unwrap();
    assert_eq!(plan.stats.model_cluster, Some(ClusterId(1)));
    assert_eq!(plan.stats.model_version, 1);
    assert_eq!(router.routing_stats().donor_hits, 1);

    // The own shard warms up: routing snaps home, donors are left alone.
    router
        .registry()
        .shard(ClusterId(3))
        .unwrap()
        .publish(tiny_predictor(5.0), 1, metrics());
    let plan = shared.optimize(&j).unwrap();
    assert_eq!(plan.stats.model_cluster, Some(ClusterId(3)));
    assert_eq!(plan.stats.model_version, 1);
    let stats = router.routing_stats();
    assert_eq!(
        (stats.own_hits, stats.donor_hits, stats.fallback_hits),
        (1, 1, 1)
    );
    assert!(stats.miss_rate() > 0.6 && stats.miss_rate() < 0.7);

    // Rolling the shard back to empty re-opens the donor chain.
    router.registry().shard(ClusterId(3)).unwrap().rollback();
    let plan = shared.optimize(&j).unwrap();
    assert_eq!(plan.stats.model_cluster, Some(ClusterId(1)));
}

#[test]
fn one_shard_fleet_serves_a_foreign_cluster_from_the_fallback() {
    // A single-cluster deployment (one shard, cluster 0) fed a stream that
    // also carries cluster 1's jobs.
    let workloads: Vec<_> = (0u8..2)
        .map(|c| generate_cluster_workload(&ClusterConfig::small(ClusterId(c)), 1))
        .collect();
    let stream: Vec<&JobSpec> = interleave_jobs(&workloads);
    let foreign = stream
        .iter()
        .filter(|j| j.meta.cluster == ClusterId(1))
        .count();
    let own = stream.len() - foreign;
    assert!(own > 0 && foreign > 0);

    let router = one_shard_router();
    let mut fleet = one_shard_loop(
        FeedbackConfig {
            serving_threads: 2,
            ..FeedbackConfig::default()
        },
        Arc::clone(&router),
    );

    // Epoch 1: the shard is cold, so every job is served by the fallback;
    // the foreign jobs have no shard to learn in.
    let first = fleet.run_epoch(&stream).unwrap();
    assert_eq!(first.unrouted_jobs, foreign);
    assert_eq!(first.routing.fallback_hits, stream.len() as u64);
    assert!(matches!(
        first.shards[0].retrain.decision,
        PublishDecision::Published { version: 1 }
    ));
    assert_eq!(shard_registry(&fleet).current_version(), 1);

    // Epoch 2: the shard's v1 serves its own cluster; the foreign cluster
    // still gets the fallback (no donor exists in a one-shard fleet).
    let second = fleet.run_epoch(&stream).unwrap();
    assert_eq!(second.unrouted_jobs, foreign);
    assert_eq!(second.routing.own_hits, own as u64);
    assert_eq!(second.routing.donor_hits, 0);
    assert_eq!(second.routing.fallback_hits, foreign as u64);
    assert_eq!(second.shards[0].ingested_jobs, own);

    // Provenance: fallback-served records carry version 0 and no cluster.
    let served = pipeline::serve_jobs(
        &stream,
        Arc::clone(&router) as Arc<dyn CostModelProvider>,
        OptimizerConfig::resource_aware(),
        &Simulator::new(SimulatorConfig::default()),
        2,
    )
    .unwrap();
    for record in served.jobs() {
        if record.plan.meta.cluster == ClusterId(1) {
            assert_eq!(record.provenance.model_version, 0);
            assert_eq!(record.provenance.model_cluster, None);
        } else {
            assert!(record.provenance.model_version > 0);
            assert_eq!(record.provenance.model_cluster, Some(ClusterId(0)));
        }
    }

    // Offline ingest counts the foreign records as unrouted too.
    let report = fleet.observe(served).unwrap();
    assert_eq!(report.unrouted_jobs, foreign);
    assert_eq!(report.accepted_jobs, own);

    // The shard's window holds only its own cluster.
    let window = shard_window(&fleet);
    assert!(!window.is_empty());
    assert!(window
        .jobs()
        .iter()
        .all(|j| j.plan.meta.cluster == ClusterId(0)));
    assert!(fleet.window(ClusterId(1)).is_none());
}

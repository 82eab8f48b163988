//! The one-shard fleet shared by the integration suites: the paper's
//! single-cluster feedback loop (Section 5.1) is a fleet with one shard.

use std::sync::Arc;

use cleo_core::feedback::FeedbackConfig;
use cleo_core::registry::ModelRegistry;
use cleo_core::sharding::{
    ClusterRouter, ShardedFeedbackConfig, ShardedFeedbackLoop, ShardedRegistry,
};
use cleo_engine::exec::{Simulator, SimulatorConfig};
use cleo_engine::telemetry::TelemetryLog;
use cleo_engine::ClusterId;
use cleo_optimizer::HeuristicCostModel;

/// The one shard's cluster.
pub const CLUSTER: ClusterId = ClusterId(0);

/// A router over a one-shard registry, serving the default hand-written model
/// until the shard's first publish.
pub fn one_shard_router() -> Arc<ClusterRouter> {
    Arc::new(ClusterRouter::with_uniform_similarity(
        Arc::new(ShardedRegistry::new([CLUSTER])),
        Arc::new(HeuristicCostModel::default_model()),
    ))
}

/// A feedback loop over `router`'s one shard.  A fresh loop over an existing
/// router keeps the shard's incumbents and starts with an empty window.
pub fn one_shard_loop(config: FeedbackConfig, router: Arc<ClusterRouter>) -> ShardedFeedbackLoop {
    ShardedFeedbackLoop::new(
        ShardedFeedbackConfig {
            shard: config,
            ..ShardedFeedbackConfig::default()
        },
        Simulator::new(SimulatorConfig::default()),
        router,
    )
}

/// The shard's registry.
pub fn shard_registry(fl: &ShardedFeedbackLoop) -> &Arc<ModelRegistry> {
    fl.registry().shard(CLUSTER).expect("the one shard")
}

/// The shard's sliding window.
pub fn shard_window(fl: &ShardedFeedbackLoop) -> &TelemetryLog {
    fl.window(CLUSTER).expect("the one shard")
}

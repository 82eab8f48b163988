//! The versioned model registry: how trained models reach the serving path.
//!
//! The paper's deployment (Section 5.1) is a continuous loop — instrument runs,
//! train on a telemetry window, feed the models back to the optimizer.  The
//! "feed back" step is this module: a [`ModelRegistry`] holds immutable
//! [`ModelSnapshot`]s (predictor + cost model + the holdout metrics it was
//! published with) and swaps an atomic "current" pointer on publish.  Readers
//! clone an [`Arc`] under a briefly held lock and then never coordinate again:
//! an optimization in flight keeps its snapshot alive even if ten newer versions
//! are published before it finishes.
//!
//! Registries reach the optimizer's [`cleo_optimizer::CostModelProvider`] seam as
//! the shards of a [`crate::sharding::ShardedRegistry`], routed by
//! [`crate::sharding::ClusterRouter`], which serves a hand-written fallback model
//! (version 0) until a shard's first publish and after a full rollback.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use cleo_common::obs::{Obs, PublishKind, TraceEvent};
use cleo_common::{CleoError, Result};

use crate::integration::LearnedCostModel;
use crate::models::{CleoPredictor, ModelStore};
use crate::signature::ModelFamily;

/// Accuracy of a model version over its publish-time holdout slice, in the
/// vocabulary of Tables 5/7/8 (correlation + median relative error).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HoldoutMetrics {
    /// Pearson correlation between predictions and actual exclusive latencies.
    pub correlation: f64,
    /// Median relative error (%) over the holdout operators.
    pub median_error_pct: f64,
    /// Number of holdout operator samples the metrics were computed over.
    pub sample_count: usize,
}

impl HoldoutMetrics {
    /// True when `self` is a regression from `incumbent`: correlation dropped by
    /// more than `correlation_tolerance` or median error grew by more than
    /// `error_tolerance_pct` percentage points.  This is the guarded-rollout
    /// predicate — a candidate that regresses is never published.
    pub fn regresses_from(
        &self,
        incumbent: &HoldoutMetrics,
        correlation_tolerance: f64,
        error_tolerance_pct: f64,
    ) -> bool {
        self.correlation < incumbent.correlation - correlation_tolerance
            || self.median_error_pct > incumbent.median_error_pct + error_tolerance_pct
    }
}

/// How a published snapshot came to be: a full-epoch retrain, or a sub-epoch
/// delta applied copy-on-write over an incumbent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotLineage {
    /// A full retrain over the telemetry window (every signature refit or
    /// reused against the seed basis).
    FullEpoch,
    /// A sub-epoch delta: only `changed_signatures` per-signature models were
    /// refit; everything else shares the incumbent `base_version`'s `Arc`s
    /// bit-identically.
    Delta {
        /// The incumbent version the delta was applied over.
        base_version: u64,
        /// Number of per-signature models the delta replaced.
        changed_signatures: usize,
    },
}

impl SnapshotLineage {
    /// The delta's base version, if this snapshot is delta-published.
    pub fn delta_base(&self) -> Option<u64> {
        match self {
            SnapshotLineage::FullEpoch => None,
            SnapshotLineage::Delta { base_version, .. } => Some(*base_version),
        }
    }
}

/// A sub-epoch model delta: the dirty signatures' freshly fit models plus the
/// provenance needed to apply it safely over the incumbent it was computed
/// against.
#[derive(Debug)]
pub struct ModelDelta {
    /// The serving-chain version the dirty set was computed against; the delta
    /// applies only while this is still the current version (CAS semantics).
    pub base_version: u64,
    /// The feedback epoch the delta round ran under (the last *full* epoch —
    /// deltas do not advance the epoch counter).
    pub epoch: u32,
    /// Partial per-family stores holding only the dirty signatures' new models.
    pub payload: Vec<ModelStore>,
    /// The dirty-fingerprint set: for every changed signature, its family, the
    /// signature, and the fingerprint of the sample multiset it was refit on.
    pub changed: Vec<(ModelFamily, u64, u64)>,
    /// Dirty signatures whose refit regressed on the per-signature holdout and
    /// were dropped from the payload (the incumbent model keeps serving them).
    pub dropped_regressions: usize,
}

impl ModelDelta {
    /// Number of per-signature models this delta ships.
    pub fn changed_signatures(&self) -> usize {
        self.changed.len()
    }

    /// True when the delta carries no model changes (nothing to publish).
    pub fn is_empty(&self) -> bool {
        self.changed.is_empty()
    }
}

/// One immutable published model version.
#[derive(Debug)]
pub struct ModelSnapshot {
    version: u64,
    epoch: u32,
    model: Arc<LearnedCostModel>,
    holdout: HoldoutMetrics,
    /// Full-epoch or delta provenance of this version.
    lineage: SnapshotLineage,
    /// Version of the last full-epoch snapshot on this snapshot's lineage (its
    /// own version for full snapshots).  This is the warm-start **seed basis**
    /// of subsequent retrains: seeding from the basis rather than the delta
    /// chain keeps full epochs bit-independent of any deltas in between.
    base_full_version: u64,
}

impl ModelSnapshot {
    /// The registry version (1-based; 0 means "no published model").
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The feedback epoch that published this version.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// The served cost model (shares its prediction cache across all readers).
    pub fn cost_model(&self) -> &Arc<LearnedCostModel> {
        &self.model
    }

    /// The underlying predictor.
    pub fn predictor(&self) -> &CleoPredictor {
        self.model.predictor()
    }

    /// The holdout metrics this version was published with.
    pub fn holdout(&self) -> &HoldoutMetrics {
        &self.holdout
    }

    /// Full-epoch or delta lineage of this version.
    pub fn lineage(&self) -> SnapshotLineage {
        self.lineage
    }

    /// Version of the last full-epoch snapshot on this version's lineage.
    pub fn base_full_version(&self) -> u64 {
        self.base_full_version
    }

    /// Reconstruct a snapshot from its persisted parts (the `CMS1` restore
    /// path, [`crate::snapshot_io`]).  Fields are installed verbatim, so a
    /// restored registry reports exactly the provenance that was saved.
    pub(crate) fn restored(
        version: u64,
        epoch: u32,
        model: Arc<LearnedCostModel>,
        holdout: HoldoutMetrics,
        lineage: SnapshotLineage,
        base_full_version: u64,
    ) -> ModelSnapshot {
        ModelSnapshot {
            version,
            epoch,
            model,
            holdout,
            lineage,
            base_full_version,
        }
    }
}

/// Number of most-recent published versions retained in history beyond the
/// serving lineage.  Sub-epoch delta publishing produces versions at a much
/// higher cadence than full epochs, and every snapshot carries its own
/// signature maps — without a cap, history (and with it registry memory)
/// would grow linearly for the process lifetime.  Versions on the serving
/// stack are always retained regardless of age (rollback and the full-basis
/// lookup depend on them).
const HISTORY_RETENTION: usize = 64;

/// Published snapshots plus the serving lineage (under one lock so publish and
/// rollback see a consistent view of both).
#[derive(Debug, Default)]
struct RegistryHistory {
    /// Published snapshots, in version order (versions are never reused, so a
    /// rollback leaves history intact; snapshots older than
    /// [`HISTORY_RETENTION`] versions and off the serving lineage are pruned).
    published: Vec<Arc<ModelSnapshot>>,
    /// Stack of versions on the serving lineage: publish pushes, rollback pops.
    /// A rolled-back (bad) version leaves the stack for good, so a later
    /// rollback returns to what was actually serving — never to a version that
    /// was itself rolled back earlier.
    serving_stack: Vec<u64>,
}

impl RegistryHistory {
    /// Drop snapshots older than the retention window (readers holding their
    /// own `Arc`s are unaffected — pruning only makes old versions
    /// unaddressable by version lookup).  The serving lineage is bounded by
    /// the same window: rollback reaches at most [`HISTORY_RETENTION`]
    /// versions back, except that the current chain's **full basis** is always
    /// retained regardless of age (the warm-start seed of subsequent retrains
    /// and the final rollback stop of a long delta chain).
    fn prune(&mut self) {
        if self.published.len() <= HISTORY_RETENTION {
            return;
        }
        let basis = self
            .serving_stack
            .last()
            .and_then(|&top| self.published.iter().find(|s| s.version == top))
            .map(|s| s.base_full_version);
        if self.serving_stack.len() > HISTORY_RETENTION {
            let cut = self.serving_stack.len() - HISTORY_RETENTION;
            self.serving_stack.drain(..cut);
            if let Some(basis) = basis {
                if !self.serving_stack.contains(&basis) {
                    self.serving_stack.insert(0, basis);
                }
            }
        }
        let cutoff = self.published[self.published.len() - HISTORY_RETENTION].version;
        let serving: Vec<u64> = self.serving_stack.clone();
        self.published
            .retain(|s| s.version >= cutoff || serving.contains(&s.version));
    }
}

/// The versioned model registry.
#[derive(Debug)]
pub struct ModelRegistry {
    /// The snapshot served to new optimizations (`None` until the first publish).
    current: RwLock<Option<Arc<ModelSnapshot>>>,
    /// Publish/rollback bookkeeping.
    history: Mutex<RegistryHistory>,
    /// Version stamp mirror of `current`, readable without the lock.
    served_version: AtomicU64,
    /// Next version to assign (versions start at 1).
    next_version: AtomicU64,
    /// Observability binding: the handle plus the cluster label publish /
    /// rollback events carry ([`cleo_common::obs::NO_CLUSTER`] for unsharded
    /// registries).  `None` (production default) emits nothing; the serving
    /// hot path (`current` / `current_version`) never touches this.
    obs: Mutex<Option<(Arc<Obs>, u16)>>,
}

impl Default for ModelRegistry {
    // Not derived: a derived default would start `next_version` at 0, colliding
    // with the "no published model" sentinel.
    fn default() -> Self {
        Self::new()
    }
}

impl ModelRegistry {
    /// Create an empty registry (version 0 = nothing published).
    pub fn new() -> Self {
        ModelRegistry {
            current: RwLock::new(None),
            history: Mutex::new(RegistryHistory::default()),
            served_version: AtomicU64::new(0),
            next_version: AtomicU64::new(1),
            obs: Mutex::new(None),
        }
    }

    /// Attach an observability handle: publishes, delta publishes, and
    /// rollbacks emit [`TraceEvent::Publish`] events labelled with `cluster`
    /// (pass [`cleo_common::obs::NO_CLUSTER`] for unsharded registries).
    /// Event sequence numbers are registry versions, so traces are
    /// deterministic for any thread count.
    pub fn attach_obs(&self, obs: Arc<Obs>, cluster: u16) {
        *self.obs.lock().expect("registry obs poisoned") = Some((obs, cluster));
    }

    /// The attached observability binding, if any (for sibling modules that
    /// emit registry-labelled events, e.g. the publish watchdog).
    pub(crate) fn obs_binding(&self) -> Option<(Arc<Obs>, u16)> {
        self.obs.lock().expect("registry obs poisoned").clone()
    }

    /// Emit one publish-lineage event through the attached binding, if any.
    fn emit_publish(&self, seq: u64, lineage: PublishKind, version: u64) {
        if let Some((obs, cluster)) = self.obs_binding() {
            obs.emit(TraceEvent::Publish {
                seq,
                cluster,
                lineage,
                version,
            });
        }
    }

    /// Publish a trained predictor as the new current version and return its
    /// snapshot.  The swap is atomic: concurrent readers see either the old or
    /// the new snapshot, never a torn state, and snapshots already handed out
    /// stay valid (they are immutable and reference counted).
    pub fn publish(
        &self,
        predictor: impl Into<Arc<CleoPredictor>>,
        epoch: u32,
        holdout: HoldoutMetrics,
    ) -> Arc<ModelSnapshot> {
        let model = Arc::new(LearnedCostModel::new(predictor));
        // Assign the version while holding both locks (history first, matching
        // `rollback`): concurrent publishes must install in version order, or
        // the registry could end up serving an older version than the newest
        // and break rollback's predecessor scan.
        let mut history = self.history.lock().expect("registry history poisoned");
        let mut current = self.current.write().expect("registry pointer poisoned");
        let version = self.next_version.fetch_add(1, Ordering::Relaxed);
        let snapshot = Arc::new(ModelSnapshot {
            version,
            epoch,
            model,
            holdout,
            lineage: SnapshotLineage::FullEpoch,
            base_full_version: version,
        });
        history.published.push(Arc::clone(&snapshot));
        history.serving_stack.push(snapshot.version);
        history.prune();
        *current = Some(Arc::clone(&snapshot));
        self.served_version
            .store(snapshot.version, Ordering::Release);
        drop(current);
        drop(history);
        self.emit_publish(version, PublishKind::Epoch, version);
        snapshot
    }

    /// Publish a sub-epoch delta as the new current version: the incumbent's
    /// per-signature map is copied on write ([`CleoPredictor::apply_delta`]),
    /// unchanged signatures and the combined meta-model share the incumbent's
    /// `Arc`s bit-identically, and the successor model keeps serving the
    /// incumbent's prediction cache (identity-salted keys make that safe).
    ///
    /// The delta carries the version it was computed against; if the registry
    /// has moved on (or rolled back) since, the delta no longer describes the
    /// incumbent's dirty set and is rejected rather than applied blindly.
    pub fn publish_delta(
        &self,
        delta: &ModelDelta,
        holdout: HoldoutMetrics,
    ) -> Result<Arc<ModelSnapshot>> {
        let mut history = self.history.lock().expect("registry history poisoned");
        let mut current = self.current.write().expect("registry pointer poisoned");
        let incumbent = match current.as_ref() {
            Some(s) if s.version == delta.base_version => Arc::clone(s),
            Some(s) => {
                return Err(CleoError::Config(format!(
                    "delta computed against version {} but version {} is serving",
                    delta.base_version, s.version
                )))
            }
            None => {
                return Err(CleoError::Config(
                    "delta publish requires an incumbent version (registry is cold)".into(),
                ))
            }
        };

        let merged = incumbent.predictor().apply_delta(&delta.payload);
        let model = Arc::new(incumbent.model.delta_successor(merged));
        let version = self.next_version.fetch_add(1, Ordering::Relaxed);
        let snapshot = Arc::new(ModelSnapshot {
            version,
            epoch: delta.epoch,
            model,
            holdout,
            lineage: SnapshotLineage::Delta {
                base_version: delta.base_version,
                changed_signatures: delta.changed_signatures(),
            },
            base_full_version: incumbent.base_full_version,
        });
        history.published.push(Arc::clone(&snapshot));
        history.serving_stack.push(snapshot.version);
        history.prune();
        *current = Some(Arc::clone(&snapshot));
        self.served_version
            .store(snapshot.version, Ordering::Release);
        drop(current);
        drop(history);
        self.emit_publish(version, PublishKind::Delta, version);
        Ok(snapshot)
    }

    /// The warm-start seed basis of the current serving lineage: the last
    /// **full-epoch** snapshot at or below the current version (`None` while
    /// the registry is cold).  Retrains seed their fits from this basis — not
    /// from the delta chain — so a full epoch's result is bit-independent of
    /// how many deltas were published since the basis.
    pub fn current_full_basis(&self) -> Option<Arc<ModelSnapshot>> {
        let current = self.current()?;
        if current.lineage == SnapshotLineage::FullEpoch {
            return Some(current);
        }
        let basis = current.base_full_version;
        self.version(basis)
    }

    /// The currently served snapshot, if any.
    pub fn current(&self) -> Option<Arc<ModelSnapshot>> {
        self.current
            .read()
            .expect("registry pointer poisoned")
            .clone()
    }

    /// Version of the currently served snapshot (0 = none), without locking.
    pub fn current_version(&self) -> u64 {
        self.served_version.load(Ordering::Acquire)
    }

    /// Look up a published snapshot by version.
    pub fn version(&self, version: u64) -> Option<Arc<ModelSnapshot>> {
        self.history
            .lock()
            .expect("registry history poisoned")
            .published
            .iter()
            .find(|s| s.version == version)
            .cloned()
    }

    /// Retained published snapshots, oldest first (including rolled-back
    /// versions still inside the retention window).
    pub fn versions(&self) -> Vec<Arc<ModelSnapshot>> {
        self.history
            .lock()
            .expect("registry history poisoned")
            .published
            .clone()
    }

    /// Number of retained published versions (equals versions-ever-published
    /// until the retention window is exceeded).
    pub fn version_count(&self) -> usize {
        self.history
            .lock()
            .expect("registry history poisoned")
            .published
            .len()
    }

    /// True when nothing has been published yet.
    pub fn is_empty(&self) -> bool {
        self.version_count() == 0
    }

    /// Roll the served pointer back to the version that was serving before the
    /// current one, returning the snapshot now being served (`None` when the
    /// rollback leaves the registry serving the fallback model).  The rolled-back
    /// version leaves the serving lineage for good — a later rollback never
    /// returns to a version that was itself rolled back — but stays addressable
    /// in history.
    pub fn rollback(&self) -> Option<Arc<ModelSnapshot>> {
        let mut history = self.history.lock().expect("registry history poisoned");
        let mut current = self.current.write().expect("registry pointer poisoned");
        let abandoned = self.served_version.load(Ordering::Acquire);
        history.serving_stack.pop();
        let predecessor = history
            .serving_stack
            .last()
            .and_then(|&v| history.published.iter().find(|s| s.version == v).cloned());
        let now_serving = predecessor.as_ref().map(|s| s.version).unwrap_or(0);
        self.served_version.store(now_serving, Ordering::Release);
        *current = predecessor.clone();
        drop(current);
        drop(history);
        if abandoned != 0 {
            // seq = the version rolled back *from* (deterministic identity);
            // `version` = what is serving now (0 = back to the fallback).
            self.emit_publish(abandoned, PublishKind::Rollback, now_serving);
        }
        predecessor
    }

    // ----- durable snapshots (`CMS1`, see [`crate::snapshot_io`]) -----

    /// Serialize the serving chain — the current snapshot plus, when it is a
    /// delta, its full-epoch basis — to one `CMS1` frame.  Encoding is
    /// canonical (models in signature order, every `f64` bit-exact), so
    /// save→load→save round-trips byte-identically.  Errors if the registry
    /// is cold: there is no version to persist.
    pub fn snapshot_bytes(&self) -> Result<Vec<u8>> {
        let current = self.current().ok_or_else(|| {
            CleoError::Config("cannot snapshot a cold registry (no published version)".into())
        })?;
        let mut chain = Vec::with_capacity(2);
        if current.lineage != SnapshotLineage::FullEpoch {
            if let Some(basis) = self.current_full_basis() {
                chain.push(basis);
            }
        }
        chain.push(current);
        Ok(crate::snapshot_io::encode_snapshots(&chain))
    }

    /// Rebuild a registry from a `CMS1` frame.  The restored registry serves
    /// the saved current version immediately — same version number, same
    /// lineage and holdout provenance, bit-identical predictions — and the
    /// next publish is assigned version N+1, so version numbers keep
    /// advancing across a restart.  Corrupt bytes are rejected with a
    /// span-exact parse error, never a panic.
    pub fn from_snapshot_bytes(buf: &[u8]) -> Result<ModelRegistry> {
        Self::install_restored(crate::snapshot_io::decode_snapshots(buf)?)
    }

    /// Persist the serving chain to `path` (see [`Self::snapshot_bytes`]).
    pub fn save_snapshot(&self, path: impl AsRef<std::path::Path>) -> Result<()> {
        let bytes = self.snapshot_bytes()?;
        std::fs::write(path, bytes)?;
        Ok(())
    }

    /// Restore a registry from a file written by [`Self::save_snapshot`]
    /// (see [`Self::from_snapshot_bytes`]).
    pub fn load_snapshot(path: impl AsRef<std::path::Path>) -> Result<ModelRegistry> {
        Self::from_snapshot_bytes(&std::fs::read(path)?)
    }

    /// Install a decoded snapshot chain (oldest-first) as this registry's
    /// history and serving lineage.
    fn install_restored(snapshots: Vec<Arc<ModelSnapshot>>) -> Result<ModelRegistry> {
        let Some(last) = snapshots.last().cloned() else {
            return Err(CleoError::Config(
                "snapshot frame holds no model versions".into(),
            ));
        };
        for pair in snapshots.windows(2) {
            if pair[1].version <= pair[0].version {
                return Err(CleoError::Config(format!(
                    "snapshot chain out of order: version {} follows version {}",
                    pair[1].version, pair[0].version
                )));
            }
        }
        let registry = ModelRegistry::new();
        {
            let mut history = registry.history.lock().expect("registry history poisoned");
            let mut current = registry.current.write().expect("registry pointer poisoned");
            history.serving_stack = snapshots.iter().map(|s| s.version).collect();
            history.published = snapshots;
            *current = Some(Arc::clone(&last));
            registry
                .served_version
                .store(last.version, Ordering::Release);
            registry
                .next_version
                .store(last.version + 1, Ordering::Release);
        }
        Ok(registry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{CombinedModel, ModelStore, OperatorSample};
    use crate::signature::ModelFamily;
    use cleo_engine::physical::{JobMeta, PhysicalNode, PhysicalOpKind};
    use cleo_engine::types::{ClusterId, DayIndex, JobId, OpStats};
    use cleo_optimizer::HeuristicCostModel;

    fn job_meta() -> JobMeta {
        JobMeta {
            id: JobId(1),
            cluster: ClusterId(0),
            template: None,
            name: "registry".into(),
            normalized_inputs: vec!["t".into()],
            params: vec![],
            day: DayIndex(0),
            recurring: true,
        }
    }

    fn tiny_predictor(scale: f64) -> CleoPredictor {
        let meta = job_meta();
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

    fn metrics(correlation: f64, median_error_pct: f64) -> HoldoutMetrics {
        HoldoutMetrics {
            correlation,
            median_error_pct,
            sample_count: 100,
        }
    }

    #[test]
    fn default_registry_versions_from_one_like_new() {
        let registry = ModelRegistry::default();
        let v1 = registry.publish(tiny_predictor(1.0), 1, metrics(0.9, 10.0));
        assert_eq!(
            v1.version(),
            1,
            "version 0 is the 'nothing published' sentinel"
        );
        assert_eq!(registry.current_version(), 1);
    }

    #[test]
    fn publish_load_and_version_stamps() {
        let registry = ModelRegistry::new();
        assert!(registry.is_empty());
        assert_eq!(registry.current_version(), 0);
        assert!(registry.current().is_none());

        let v1 = registry.publish(tiny_predictor(1.0), 1, metrics(0.9, 10.0));
        assert_eq!(v1.version(), 1);
        assert_eq!(v1.epoch(), 1);
        assert_eq!(registry.current_version(), 1);

        let v2 = registry.publish(tiny_predictor(2.0), 2, metrics(0.92, 9.0));
        assert_eq!(v2.version(), 2);
        assert_eq!(registry.current_version(), 2);
        assert_eq!(registry.version_count(), 2);
        // Old snapshots stay addressable and immutable.
        let old = registry.version(1).unwrap();
        assert_eq!(old.version(), 1);
        assert_eq!(old.holdout().sample_count, 100);
        assert_eq!(registry.versions().len(), 2);
    }

    #[test]
    fn readers_keep_their_snapshot_across_publishes() {
        let registry = ModelRegistry::new();
        registry.publish(tiny_predictor(1.0), 1, metrics(0.9, 10.0));
        let held = registry.current().unwrap();
        registry.publish(tiny_predictor(2.0), 2, metrics(0.91, 9.5));
        // The held snapshot is unchanged even though the registry moved on.
        assert_eq!(held.version(), 1);
        assert_eq!(registry.current().unwrap().version(), 2);
    }

    #[test]
    fn rollback_restores_the_previous_version() {
        let registry = ModelRegistry::new();
        assert!(registry.rollback().is_none());
        registry.publish(tiny_predictor(1.0), 1, metrics(0.9, 10.0));
        registry.publish(tiny_predictor(2.0), 2, metrics(0.92, 9.0));
        let back = registry.rollback().unwrap();
        assert_eq!(back.version(), 1);
        assert_eq!(registry.current_version(), 1);
        // Rolling back past the first version falls back to "nothing served".
        assert!(registry.rollback().is_none());
        assert_eq!(registry.current_version(), 0);
        // History still remembers both versions.
        assert_eq!(registry.version_count(), 2);
    }

    #[test]
    fn rollback_never_returns_to_a_rolled_back_version() {
        let registry = ModelRegistry::new();
        registry.publish(tiny_predictor(1.0), 1, metrics(0.9, 10.0));
        registry.publish(tiny_predictor(2.0), 2, metrics(0.92, 9.0));
        // v2 turns out bad: back to v1.
        assert_eq!(registry.rollback().unwrap().version(), 1);
        registry.publish(tiny_predictor(3.0), 3, metrics(0.93, 8.5));
        // v3 is also bad: the escape hatch must land on v1 (what was serving),
        // not on v2 (already rolled back as bad).
        assert_eq!(registry.rollback().unwrap().version(), 1);
        assert_eq!(registry.current_version(), 1);
        // All three versions remain addressable in history.
        assert_eq!(registry.version_count(), 3);
    }

    #[test]
    fn provider_serves_fallback_then_published_versions() {
        use crate::sharding::{ClusterRouter, ShardedRegistry};
        use cleo_optimizer::CostModelProvider;

        let sharded = Arc::new(ShardedRegistry::new([ClusterId(0)]));
        let registry = Arc::clone(sharded.shard(ClusterId(0)).unwrap());
        let provider = ClusterRouter::with_uniform_similarity(
            sharded,
            Arc::new(HeuristicCostModel::default_model()),
        );
        let meta = job_meta();
        let served = provider.snapshot_for(&meta);
        assert_eq!(served.version, 0);
        assert_eq!(served.model.name(), "Default");

        registry.publish(tiny_predictor(1.0), 1, metrics(0.9, 10.0));
        let served = provider.snapshot_for(&meta);
        assert_eq!(served.version, 1);
        assert_eq!(served.model.name(), "CLEO (learned)");
        assert_eq!(provider.registry().shard_version(ClusterId(0)), 1);
        assert_eq!(provider.registry().total_version_count(), 1);
    }

    #[test]
    fn regression_predicate_guards_both_metrics() {
        let incumbent = metrics(0.90, 10.0);
        // Within tolerance on both axes: not a regression.
        assert!(!metrics(0.895, 10.4).regresses_from(&incumbent, 0.01, 0.5));
        // Correlation collapsed.
        assert!(metrics(0.70, 10.0).regresses_from(&incumbent, 0.01, 0.5));
        // Median error blew up.
        assert!(metrics(0.90, 25.0).regresses_from(&incumbent, 0.01, 0.5));
        // Strict improvement never regresses.
        assert!(!metrics(0.95, 5.0).regresses_from(&incumbent, 0.0, 0.0));
    }

    #[test]
    fn history_stays_bounded_at_delta_cadence() {
        let registry = ModelRegistry::new();
        registry.publish(tiny_predictor(1.0), 1, metrics(0.9, 10.0));
        // A long chain of sub-epoch deltas with no rollback: the scenario that
        // would previously retain every snapshot forever via the serving stack.
        for _ in 0..300 {
            let delta = ModelDelta {
                base_version: registry.current_version(),
                epoch: 1,
                payload: vec![],
                changed: vec![],
                dropped_regressions: 0,
            };
            registry.publish_delta(&delta, metrics(0.9, 10.0)).unwrap();
        }
        assert_eq!(registry.current_version(), 301);
        assert!(
            registry.version_count() <= 2 * 64 + 1,
            "history must stay bounded, got {} snapshots",
            registry.version_count()
        );
        // The chain's full basis (v1) outlives the retention window: it seeds
        // the next full epoch and remains addressable.
        assert_eq!(registry.current_full_basis().unwrap().version(), 1);
        // Rollback still walks the retained lineage.
        assert_eq!(registry.rollback().unwrap().version(), 300);
        // Versions outside the window (and off the lineage) are pruned.
        assert!(registry.version(2).is_none());
    }

    #[test]
    fn concurrent_publishes_and_reads_stay_consistent() {
        let registry = Arc::new(ModelRegistry::new());
        registry.publish(tiny_predictor(1.0), 1, metrics(0.9, 10.0));
        std::thread::scope(|scope| {
            let writer = {
                let registry = Arc::clone(&registry);
                scope.spawn(move || {
                    for epoch in 2..12u32 {
                        registry.publish(tiny_predictor(epoch as f64), epoch, metrics(0.9, 10.0));
                    }
                })
            };
            for _ in 0..4 {
                let registry = Arc::clone(&registry);
                scope.spawn(move || {
                    for _ in 0..200 {
                        let snapshot = registry.current().expect("always published");
                        // The snapshot is internally consistent no matter how the
                        // publishes interleave.
                        assert!(snapshot.version() >= 1);
                        assert!(snapshot.predictor().model_count() > 0);
                    }
                });
            }
            writer.join().unwrap();
        });
        assert_eq!(registry.current_version(), 11);
        assert_eq!(registry.version_count(), 11);
    }
}

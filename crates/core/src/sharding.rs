//! The cross-cluster sharded serving tier.
//!
//! The paper's deployment serves ~25K learned models *per cluster* across many
//! clusters (Section 5.1); one process-wide [`crate::registry::ModelRegistry`]
//! silently averages heterogeneous clusters into a single model.  This module
//! is the fleet-scale tier that fixes that:
//!
//! * [`ShardedRegistry`] — one registry shard per cluster behind a lock-free
//!   lookup table (cluster id → shard index, fixed at construction).  Each
//!   shard keeps its own atomic version stamp and publishes independently, so
//!   a retrain on cluster 3 never contends with serving on cluster 0.
//! * [`ClusterRouter`] — a [`CostModelProvider`] that resolves each job's
//!   cluster to its shard and, when that shard is cold (nothing published
//!   yet, or fully rolled back), walks a **deterministic cross-cluster
//!   fallback chain**: donor shards ordered by workload similarity
//!   ([`WorkloadProfile::distance`]), then the hand-written version-0 model.
//!   Routing outcomes are counted in [`RoutingSnapshot`].
//! * [`ShardedFeedbackLoop`] — the continuous loop at fleet scale: serve a
//!   multi-cluster stream through the router, partition the telemetry by
//!   cluster, and run one guarded retrain epoch **per shard in parallel**
//!   (each reusing the PR 2 holdout guard and the dirty-signature warm start),
//!   with optional drift-aware window eviction per cluster.  The paper's
//!   single-cluster loop is this fleet with one shard.  Every shard
//!   publishes atomically into its own registry; readers never see a torn
//!   fleet state because there is no cross-shard state to tear.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cleo_common::concurrency::StripedCounter;
use cleo_common::fault::{FaultPlan, FaultSite};
use cleo_common::obs::{self, Obs, TraceEvent};
use cleo_common::{CleoError, Result};
use cleo_engine::exec::Simulator;
use cleo_engine::physical::JobMeta;
use cleo_engine::telemetry::{JobTelemetry, TelemetryLog, WindowMoments};
use cleo_engine::types::ClusterId;
use cleo_engine::workload::generator::WorkloadProfile;
use cleo_engine::workload::JobSpec;
use cleo_optimizer::{
    CostModel, CostModelProvider, OptimizedPlan, ServedModel, SharedOptimizer, SnapshotCache,
};

use crate::feedback::{
    delta_round_window, retrain_window, DeltaOutcome, FeedbackConfig, PublishDecision,
    RetrainOutcome, WindowEviction,
};
use crate::registry::ModelRegistry;

/// Lock a mutex, recovering the data if a panicking holder poisoned it.
///
/// All the mutexes in this module guard data that stays consistent under
/// panic (queues of whole tasks, counters, a wake generation), so a poisoned
/// lock carries no torn state — and the graceful-degradation machinery must
/// keep completing tickets *after* a worker panic, which is exactly when the
/// standard `expect` would cascade.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Best-effort text of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.as_str()
    } else {
        "non-string panic payload"
    }
}

/// One cluster's registry shard.
#[derive(Debug)]
pub struct RegistryShard {
    cluster: ClusterId,
    registry: Arc<ModelRegistry>,
}

impl RegistryShard {
    /// The cluster this shard serves.
    pub fn cluster(&self) -> ClusterId {
        self.cluster
    }

    /// The shard's registry (publish/rollback through it as usual).
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }
}

/// Cluster-sharded model registries behind one lock-free lookup table.
///
/// The shard *map* is immutable after construction — looking up a cluster's
/// shard is a plain array index, no lock, no atomics.  All mutability lives
/// inside the per-shard [`ModelRegistry`]s, which were already built for
/// concurrent publish/load; their `served_version` stamps remain readable
/// without locks via [`ShardedRegistry::shard_version`].
#[derive(Debug)]
pub struct ShardedRegistry {
    /// Shards sorted by cluster id.
    shards: Vec<RegistryShard>,
    /// Cluster id → shard index (256 entries; `ClusterId` is a `u8`).
    lookup: Vec<Option<usize>>,
}

impl ShardedRegistry {
    /// Create one empty registry shard per (deduplicated) cluster.
    pub fn new(clusters: impl IntoIterator<Item = ClusterId>) -> Self {
        let mut ids: Vec<ClusterId> = clusters.into_iter().collect();
        ids.sort_unstable();
        ids.dedup();
        let shards: Vec<RegistryShard> = ids
            .into_iter()
            .map(|cluster| RegistryShard {
                cluster,
                registry: Arc::new(ModelRegistry::new()),
            })
            .collect();
        let mut lookup = vec![None; 256];
        for (i, shard) in shards.iter().enumerate() {
            lookup[shard.cluster.0 as usize] = Some(i);
        }
        ShardedRegistry { shards, lookup }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shards, sorted by cluster id.
    pub fn shards(&self) -> &[RegistryShard] {
        &self.shards
    }

    /// Index of a cluster's shard (lock-free).
    fn shard_index(&self, cluster: ClusterId) -> Option<usize> {
        self.lookup[cluster.0 as usize]
    }

    /// A cluster's registry shard, if the cluster is mapped.
    pub fn shard(&self, cluster: ClusterId) -> Option<&Arc<ModelRegistry>> {
        self.shard_index(cluster).map(|i| &self.shards[i].registry)
    }

    /// File name a cluster's snapshot is saved under inside a snapshot
    /// directory.
    pub fn snapshot_file_name(cluster: ClusterId) -> String {
        format!("shard_c{:03}.cms", cluster.0)
    }

    /// Persist every warm shard's serving chain to `dir` — one `CMS1` file
    /// per cluster ([`Self::snapshot_file_name`]); cold shards are skipped.
    /// Returns the clusters saved, in cluster order.
    pub fn save_snapshots(&self, dir: impl AsRef<std::path::Path>) -> Result<Vec<ClusterId>> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let mut saved = Vec::new();
        for shard in &self.shards {
            if shard.registry.current_version() == 0 {
                continue;
            }
            shard
                .registry
                .save_snapshot(dir.join(Self::snapshot_file_name(shard.cluster)))?;
            saved.push(shard.cluster);
        }
        Ok(saved)
    }

    /// Rebuild a fleet from a snapshot directory: clusters with a saved file
    /// come up serving their persisted version immediately (same version
    /// numbers, bit-identical predictions); clusters without one come up cold
    /// (fallback-served until their first publish), so a partial save
    /// restores what it can instead of failing the whole fleet.  A present
    /// but corrupt file is an error — restoring half a shard silently is
    /// worse than failing loudly.
    pub fn load_snapshots(
        clusters: impl IntoIterator<Item = ClusterId>,
        dir: impl AsRef<std::path::Path>,
    ) -> Result<ShardedRegistry> {
        let dir = dir.as_ref();
        let mut ids: Vec<ClusterId> = clusters.into_iter().collect();
        ids.sort_unstable();
        ids.dedup();
        let mut shards = Vec::with_capacity(ids.len());
        for cluster in ids {
            let path = dir.join(Self::snapshot_file_name(cluster));
            let registry = if path.exists() {
                ModelRegistry::load_snapshot(&path)?
            } else {
                ModelRegistry::new()
            };
            shards.push(RegistryShard {
                cluster,
                registry: Arc::new(registry),
            });
        }
        let mut lookup = vec![None; 256];
        for (i, shard) in shards.iter().enumerate() {
            lookup[shard.cluster.0 as usize] = Some(i);
        }
        Ok(ShardedRegistry { shards, lookup })
    }

    /// Currently served version of a cluster's shard (0 = cold shard or
    /// unmapped cluster), read from the shard's atomic stamp without locking.
    pub fn shard_version(&self, cluster: ClusterId) -> u64 {
        self.shard_index(cluster)
            .map(|i| self.shards[i].registry.current_version())
            .unwrap_or(0)
    }

    /// The mapped clusters, ascending.
    pub fn clusters(&self) -> impl Iterator<Item = ClusterId> + '_ {
        self.shards.iter().map(|s| s.cluster)
    }

    /// Versions ever published across all shards.
    pub fn total_version_count(&self) -> usize {
        self.shards.iter().map(|s| s.registry.version_count()).sum()
    }
}

/// Cumulative routing counters of a [`ClusterRouter`].  Striped: every served
/// job bumps exactly one of these, so shared atomics would put one hot
/// cacheline between all serving threads; stripes keep the increments local
/// and the totals exact once serving quiesces (the only time they are read).
/// `Arc`-held so [`ClusterRouter::with_obs`] can register the *same* counters
/// into the metrics registry — one source of truth, two readers.
#[derive(Debug, Default)]
struct RoutingStats {
    own: Arc<StripedCounter>,
    donor: Arc<StripedCounter>,
    fallback: Arc<StripedCounter>,
}

/// A point-in-time copy of a router's routing counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoutingSnapshot {
    /// Jobs served by their own cluster's shard.
    pub own_hits: u64,
    /// Jobs served by a donor cluster's shard (own shard cold).
    pub donor_hits: u64,
    /// Jobs served by the version-0 fallback model (entire chain cold).
    pub fallback_hits: u64,
}

impl RoutingSnapshot {
    /// Total routed jobs.
    pub fn total(&self) -> u64 {
        self.own_hits + self.donor_hits + self.fallback_hits
    }

    /// Fraction of jobs that left their own shard (donor or fallback).
    pub fn miss_rate(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            (self.donor_hits + self.fallback_hits) as f64 / total as f64
        }
    }

    /// Counter-wise difference vs an earlier snapshot of the same router —
    /// what happened *between* the two snapshots.
    pub fn since(&self, earlier: &RoutingSnapshot) -> RoutingSnapshot {
        RoutingSnapshot {
            own_hits: self.own_hits.saturating_sub(earlier.own_hits),
            donor_hits: self.donor_hits.saturating_sub(earlier.donor_hits),
            fallback_hits: self.fallback_hits.saturating_sub(earlier.fallback_hits),
        }
    }
}

/// State of one shard's circuit breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: the shard serves its own jobs.
    Closed,
    /// Tripped: the shard's jobs route to its donor chain for a cooldown.
    Open,
    /// Probing: the shard serves its own jobs again; the next folded outcome
    /// decides between closing and re-opening.
    HalfOpen,
}

/// Per-shard circuit-breaker policy of a [`ClusterRouter`] (off by default).
///
/// When enabled, the router asks serving pools for per-batch outcome reports
/// (via [`CostModelProvider::note_serving_outcomes`]) and folds them **in
/// batch-submission order**: `trip_after` consecutive failures on one shard
/// trips its breaker [`BreakerState::Open`], routing that shard's jobs down
/// the existing donor chain; after `cooldown` further outcomes for the shard
/// the breaker half-opens and one probe outcome decides between closing and
/// re-opening.  Because the fold order is the submission order — not the
/// completion order — trip decisions are a pure function of the outcome
/// stream, identical for 1 pool worker or N.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerPolicy {
    /// Whether breakers run at all.
    pub enabled: bool,
    /// Consecutive failures on a shard that trip its breaker.
    pub trip_after: u32,
    /// Folded outcomes for the shard an open breaker waits before half-opening
    /// (outcomes are the breaker's clock — deterministic, unlike wall time).
    pub cooldown: u32,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        BreakerPolicy {
            enabled: false,
            trip_after: 8,
            cooldown: 32,
        }
    }
}

/// One breaker state change, in fold order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerTransition {
    /// The shard whose breaker transitioned.
    pub cluster: ClusterId,
    /// How many outcomes had been folded (across all shards) when it did.
    pub outcome_index: u64,
    /// The state it transitioned into.
    pub state: BreakerState,
}

/// One shard's breaker counters (guarded by [`BreakerCore`]'s mutex).
#[derive(Debug, Clone, Copy, Default)]
struct ShardBreaker {
    consecutive_failures: u32,
    cooldown_left: u32,
}

/// The breaker fold: outcome batches arrive in completion order and are
/// re-sequenced into submission order through a reorder buffer before any
/// decision is made.
#[derive(Debug, Default)]
struct BreakerCore {
    /// Next batch sequence to fold (sequences are contiguous from 0).
    next_seq: u64,
    /// Outcomes folded so far, across all shards.
    outcomes_folded: u64,
    /// Completed batches waiting for an earlier sequence to complete.
    pending: BTreeMap<u64, Vec<(ClusterId, bool)>>,
    /// Per-shard counters, aligned with the registry's shard list.
    shards: Vec<ShardBreaker>,
    /// Every state change, in fold order.
    transitions: Vec<BreakerTransition>,
}

/// The routing front of the sharded tier: a [`CostModelProvider`] that resolves
/// a job's cluster to its registry shard and walks a deterministic
/// cross-cluster fallback chain on cold shards.
///
/// The chain per shard is fixed at construction (donors ordered by
/// [`WorkloadProfile::distance`], ties broken by cluster id), so routing is a
/// pure function of the shard *states* — two runs over the same registry states
/// route identically regardless of thread count or schedule.
pub struct ClusterRouter {
    registry: Arc<ShardedRegistry>,
    fallback: Arc<dyn CostModel>,
    /// `chains[i]`: donor shard indices for shard `i`, most similar first.
    chains: Vec<Vec<usize>>,
    stats: RoutingStats,
    /// Circuit-breaker policy (disabled by default — zero routing overhead
    /// beyond one branch, and stamps stay bit-identical to a breaker-less
    /// router).
    breaker_policy: BreakerPolicy,
    /// The breaker fold (reorder buffer + counters + transition log).
    breaker: Mutex<BreakerCore>,
    /// Per-shard breaker state, readable lock-free on the routing hot path
    /// (0 = closed, 1 = open, 2 = half-open), aligned with the shard list.
    breaker_states: Vec<AtomicU8>,
    /// Bumped on every breaker transition; folded into route stamps so
    /// worker-local snapshot caches revalidate when routing flips.
    breaker_epoch: AtomicU64,
    /// Observability handle (`None` in production: one branch per route).
    obs: Option<Arc<Obs>>,
}

impl ClusterRouter {
    /// Route over `registry` with donor order derived from workload profiles.
    /// Shards without a profile sort after profiled donors, by cluster id; an
    /// empty `profiles` slice degenerates to pure cluster-id order (see
    /// [`ClusterRouter::with_uniform_similarity`]).
    pub fn new(
        registry: Arc<ShardedRegistry>,
        fallback: Arc<dyn CostModel>,
        profiles: &[WorkloadProfile],
    ) -> Self {
        let profile_of =
            |c: ClusterId| -> Option<&WorkloadProfile> { profiles.iter().find(|p| p.cluster == c) };
        let shards = registry.shards();
        let chains: Vec<Vec<usize>> = shards
            .iter()
            .map(|own| {
                let own_profile = profile_of(own.cluster);
                let mut donors: Vec<(bool, f64, ClusterId, usize)> = shards
                    .iter()
                    .enumerate()
                    .filter(|(_, d)| d.cluster != own.cluster)
                    .map(|(j, d)| {
                        let distance = match (own_profile, profile_of(d.cluster)) {
                            (Some(a), Some(b)) => a.distance(b),
                            // Unprofiled pairs sort after profiled ones (the
                            // bool key), in cluster-id order.
                            _ => 0.0,
                        };
                        let unprofiled = own_profile.is_none() || profile_of(d.cluster).is_none();
                        (unprofiled, distance, d.cluster, j)
                    })
                    .collect();
                donors.sort_by(|a, b| {
                    (a.0, a.1, a.2)
                        .partial_cmp(&(b.0, b.1, b.2))
                        .expect("workload distances are finite")
                });
                donors.into_iter().map(|(_, _, _, j)| j).collect()
            })
            .collect();
        let shard_count = registry.shard_count();
        ClusterRouter {
            registry,
            fallback,
            chains,
            stats: RoutingStats::default(),
            breaker_policy: BreakerPolicy::default(),
            breaker: Mutex::new(BreakerCore {
                shards: vec![ShardBreaker::default(); shard_count],
                ..BreakerCore::default()
            }),
            breaker_states: (0..shard_count).map(|_| AtomicU8::new(0)).collect(),
            breaker_epoch: AtomicU64::new(0),
            obs: None,
        }
    }

    /// Route with donor order by cluster id only (no similarity information).
    pub fn with_uniform_similarity(
        registry: Arc<ShardedRegistry>,
        fallback: Arc<dyn CostModel>,
    ) -> Self {
        Self::new(registry, fallback, &[])
    }

    /// The sharded registry being routed over.
    pub fn registry(&self) -> &Arc<ShardedRegistry> {
        &self.registry
    }

    /// The version-0 fallback model at the end of every chain.
    pub fn fallback_model(&self) -> &Arc<dyn CostModel> {
        &self.fallback
    }

    /// The donor clusters a cold shard borrows from, in walk order.
    pub fn fallback_chain(&self, cluster: ClusterId) -> Vec<ClusterId> {
        self.registry
            .shard_index(cluster)
            .map(|i| {
                self.chains[i]
                    .iter()
                    .map(|&j| self.registry.shards()[j].cluster)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Cumulative routing counters.
    pub fn routing_stats(&self) -> RoutingSnapshot {
        RoutingSnapshot {
            own_hits: self.stats.own.sum(),
            donor_hits: self.stats.donor.sum(),
            fallback_hits: self.stats.fallback.sum(),
        }
    }

    /// Reset the routing counters (e.g. between benchmark phases).
    pub fn reset_routing_stats(&self) {
        self.stats.own.reset();
        self.stats.donor.reset();
        self.stats.fallback.reset();
    }

    /// Attach an observability handle: the routing counters register into the
    /// metrics registry (`router.own_hits` / `router.donor_hits` /
    /// `router.fallback_hits` — the same striped counters
    /// [`ClusterRouter::routing_stats`] reads), route resolutions and breaker
    /// transitions emit trace events, and every registry shard is bound so
    /// its publishes and rollbacks trace with their cluster label.  `None`
    /// (the default) is the zero-cost production path.
    pub fn with_obs(mut self, obs: Option<Arc<Obs>>) -> Self {
        if let Some(obs) = &obs {
            let metrics = obs.metrics();
            metrics.register_counter("router.own_hits", &self.stats.own);
            metrics.register_counter("router.donor_hits", &self.stats.donor);
            metrics.register_counter("router.fallback_hits", &self.stats.fallback);
            for shard in self.registry.shards() {
                shard
                    .registry
                    .attach_obs(Arc::clone(obs), u16::from(shard.cluster.0));
            }
        }
        self.obs = obs;
        self
    }

    /// The observability handle routing/breaker events flow into (`None` in
    /// production).
    pub fn obs(&self) -> Option<&Arc<Obs>> {
        self.obs.as_ref()
    }

    /// Emit one route-resolution event (`seq` = job id, deterministic for any
    /// worker count) when an observability handle is attached.
    #[inline]
    fn emit_route(&self, meta: &JobMeta, outcome: obs::RouteKind, version: u64) {
        if let Some(obs) = &self.obs {
            obs.emit(TraceEvent::Route {
                seq: meta.id.0,
                cluster: u16::from(meta.cluster.0),
                outcome,
                version,
            });
        }
    }

    /// Enable (or reconfigure) per-shard circuit breakers.
    pub fn with_breaker_policy(mut self, policy: BreakerPolicy) -> Self {
        self.breaker_policy = policy;
        self
    }

    /// The breaker policy in effect.
    pub fn breaker_policy(&self) -> BreakerPolicy {
        self.breaker_policy
    }

    /// Current breaker state of a cluster's shard (`None` for unmapped
    /// clusters).  With breakers disabled every shard reads `Closed`.
    pub fn breaker_state(&self, cluster: ClusterId) -> Option<BreakerState> {
        self.registry
            .shard_index(cluster)
            .map(|i| decode_breaker_state(self.breaker_states[i].load(Ordering::Acquire)))
    }

    /// Every breaker transition so far, in deterministic fold order.
    pub fn breaker_transitions(&self) -> Vec<BreakerTransition> {
        lock_unpoisoned(&self.breaker).transitions.clone()
    }

    /// Whether shard `i` may serve jobs right now (closed or half-open probe).
    fn breaker_allows(&self, shard_index: usize) -> bool {
        !self.breaker_policy.enabled
            || self.breaker_states[shard_index].load(Ordering::Acquire) != BREAKER_OPEN
    }

    /// Apply one breaker transition while holding the fold lock.
    fn breaker_transition(&self, core: &mut BreakerCore, shard_index: usize, state: BreakerState) {
        self.breaker_states[shard_index].store(encode_breaker_state(state), Ordering::Release);
        self.breaker_epoch.fetch_add(1, Ordering::AcqRel);
        let cluster = self.registry.shards()[shard_index].cluster;
        core.transitions.push(BreakerTransition {
            cluster,
            outcome_index: core.outcomes_folded,
            state,
        });
        if let Some(obs) = &self.obs {
            // seq = the fold's outcome index: the same deterministic clock the
            // transition log keeps, so traces match for any worker count.
            obs.emit(TraceEvent::Breaker {
                seq: core.outcomes_folded,
                cluster: u16::from(cluster.0),
                state: match state {
                    BreakerState::Closed => obs::BreakerKind::Closed,
                    BreakerState::Open => obs::BreakerKind::Open,
                    BreakerState::HalfOpen => obs::BreakerKind::HalfOpen,
                },
            });
        }
    }

    /// Fold one outcome for one shard (called in submission order).
    fn breaker_fold_outcome(&self, core: &mut BreakerCore, shard_index: usize, ok: bool) {
        core.outcomes_folded += 1;
        let state = decode_breaker_state(self.breaker_states[shard_index].load(Ordering::Acquire));
        match state {
            BreakerState::Closed => {
                let counters = &mut core.shards[shard_index];
                if ok {
                    counters.consecutive_failures = 0;
                } else {
                    counters.consecutive_failures += 1;
                    if counters.consecutive_failures >= self.breaker_policy.trip_after {
                        counters.consecutive_failures = 0;
                        counters.cooldown_left = self.breaker_policy.cooldown;
                        self.breaker_transition(core, shard_index, BreakerState::Open);
                    }
                }
            }
            BreakerState::Open => {
                // While open the shard's jobs are served by donors, so the
                // outcome says nothing about the shard's own model; it only
                // advances the (deterministic) cooldown clock.
                let counters = &mut core.shards[shard_index];
                counters.cooldown_left = counters.cooldown_left.saturating_sub(1);
                if counters.cooldown_left == 0 {
                    self.breaker_transition(core, shard_index, BreakerState::HalfOpen);
                }
            }
            BreakerState::HalfOpen => {
                // Probe outcome: the shard served this job itself.
                if ok {
                    core.shards[shard_index].consecutive_failures = 0;
                    self.breaker_transition(core, shard_index, BreakerState::Closed);
                } else {
                    core.shards[shard_index].cooldown_left = self.breaker_policy.cooldown;
                    self.breaker_transition(core, shard_index, BreakerState::Open);
                }
            }
        }
    }
}

/// [`BreakerState`] encoding of the per-shard hot-path atomics.
const BREAKER_CLOSED: u8 = 0;
const BREAKER_OPEN: u8 = 1;
const BREAKER_HALF_OPEN: u8 = 2;

fn encode_breaker_state(state: BreakerState) -> u8 {
    match state {
        BreakerState::Closed => BREAKER_CLOSED,
        BreakerState::Open => BREAKER_OPEN,
        BreakerState::HalfOpen => BREAKER_HALF_OPEN,
    }
}

fn decode_breaker_state(raw: u8) -> BreakerState {
    match raw {
        BREAKER_OPEN => BreakerState::Open,
        BREAKER_HALF_OPEN => BreakerState::HalfOpen,
        _ => BreakerState::Closed,
    }
}

/// Route-stamp tags of [`ClusterRouter::route_stamp`] (top two bits).
const STAMP_OWN: u64 = 1 << 62;
const STAMP_DONOR: u64 = 2 << 62;
const STAMP_FALLBACK: u64 = 3 << 62;

impl CostModelProvider for ClusterRouter {
    /// Job-agnostic callers (nothing to route on) get the fallback model; the
    /// serving path always goes through [`CostModelProvider::snapshot_for`].
    fn current(&self) -> Arc<dyn CostModel> {
        Arc::clone(&self.fallback)
    }

    /// The routing outcome fingerprint, computed from the shards' lock-free
    /// version stamps alone: `STAMP_OWN | version` for a warm own shard,
    /// `STAMP_DONOR | chain_position << 32 | version` for the first warm donor,
    /// `STAMP_FALLBACK` when the whole chain is cold.  Any event that would
    /// change where [`CostModelProvider::snapshot_for`] routes this job — a
    /// publish or rollback on the own shard, an earlier donor warming up, the
    /// serving donor republishing — changes the stamp, so worker-local snapshot
    /// caches revalidate with a few atomic loads and no registry lock.
    fn route_stamp(&self, meta: &JobMeta) -> u64 {
        // With breakers enabled, fold the transition epoch into every stamp
        // (bits 56..62) so a trip / half-open / close anywhere revalidates the
        // worker-local caches.  Disabled breakers contribute 0 — stamps stay
        // bit-identical to a breaker-less router.
        let breaker_bits = if self.breaker_policy.enabled {
            (self.breaker_epoch.load(Ordering::Acquire) & 0x3F) << 56
        } else {
            0
        };
        let Some(i) = self.registry.shard_index(meta.cluster) else {
            return STAMP_FALLBACK | breaker_bits;
        };
        let shards = self.registry.shards();
        let own = shards[i].registry.current_version();
        if own != 0 && self.breaker_allows(i) {
            return STAMP_OWN | breaker_bits | (own & 0x00FF_FFFF_FFFF_FFFF);
        }
        for (pos, &j) in self.chains[i].iter().enumerate() {
            let version = shards[j].registry.current_version();
            if version != 0 && self.breaker_allows(j) {
                return STAMP_DONOR | breaker_bits | ((pos as u64) << 32) | (version & 0xFFFF_FFFF);
            }
        }
        STAMP_FALLBACK | breaker_bits
    }

    /// A cached route reuse still counts as a routed job; classify the cached
    /// outcome from the served model's provenance so the counters stay exact.
    fn note_cached_route(&self, meta: &JobMeta, served: &ServedModel) {
        let outcome = match served.cluster {
            Some(c) if c == meta.cluster => {
                self.stats.own.add(1);
                obs::RouteKind::Own
            }
            Some(_) => {
                self.stats.donor.add(1);
                obs::RouteKind::Donor
            }
            None => {
                self.stats.fallback.add(1);
                obs::RouteKind::Fallback
            }
        };
        self.emit_route(meta, outcome, served.version);
    }

    fn snapshot_for(&self, meta: &JobMeta) -> ServedModel {
        let shards = self.registry.shards();
        if let Some(i) = self.registry.shard_index(meta.cluster) {
            // Own shard first (unless its breaker is open).  `current()` hands
            // back one consistent (model, version) snapshot, so a publish
            // racing this read can never mislabel the plan's provenance.
            if self.breaker_allows(i) {
                if let Some(snapshot) = shards[i].registry.current() {
                    self.stats.own.add(1);
                    self.emit_route(meta, obs::RouteKind::Own, snapshot.version());
                    return ServedModel {
                        model: Arc::clone(snapshot.cost_model()) as Arc<dyn CostModel>,
                        version: snapshot.version(),
                        cluster: Some(shards[i].cluster),
                        delta_base: snapshot.lineage().delta_base(),
                    };
                }
            }
            // Cold or tripped shard: walk the similarity-ordered donor chain,
            // skipping donors whose own breakers are open.
            for &j in &self.chains[i] {
                if !self.breaker_allows(j) {
                    continue;
                }
                if let Some(snapshot) = shards[j].registry.current() {
                    self.stats.donor.add(1);
                    self.emit_route(meta, obs::RouteKind::Donor, snapshot.version());
                    return ServedModel {
                        model: Arc::clone(snapshot.cost_model()) as Arc<dyn CostModel>,
                        version: snapshot.version(),
                        cluster: Some(shards[j].cluster),
                        delta_base: snapshot.lineage().delta_base(),
                    };
                }
            }
        }
        self.stats.fallback.add(1);
        self.emit_route(meta, obs::RouteKind::Fallback, 0);
        ServedModel {
            model: Arc::clone(&self.fallback),
            version: 0,
            cluster: None,
            delta_base: None,
        }
    }

    fn wants_serving_outcomes(&self) -> bool {
        self.breaker_policy.enabled
    }

    /// Fold one batch's outcomes through the reorder buffer: batches complete
    /// in worker order but fold strictly in submission-sequence order, so the
    /// transition log is deterministic for any worker count (given outcomes
    /// that don't depend on the route, e.g. job-inherent failures).
    fn note_serving_outcomes(&self, batch_seq: u64, outcomes: &[(ClusterId, bool)]) {
        if !self.breaker_policy.enabled {
            return;
        }
        let mut core = lock_unpoisoned(&self.breaker);
        core.pending.insert(batch_seq, outcomes.to_vec());
        while let Some(batch) = {
            let next = core.next_seq;
            core.pending.remove(&next)
        } {
            core.next_seq += 1;
            for (cluster, ok) in batch {
                if let Some(i) = self.registry.shard_index(cluster) {
                    self.breaker_fold_outcome(&mut core, i, ok);
                }
            }
        }
    }
}

/// One queued batch: the jobs plus the ticket its results are delivered on.
struct PoolTask {
    jobs: Vec<Arc<cleo_engine::workload::JobSpec>>,
    ticket: Arc<TicketState>,
    /// Home shard index (for requeue after a worker death).
    shard: usize,
    /// Submission sequence, contiguous from 0 — the deterministic identity
    /// fault injection and outcome folding key on.
    seq: u64,
    /// Executions started (0 = never claimed).  A task whose worker dies on
    /// attempt 0 is requeued once; on attempt 1 its ticket completes with
    /// per-job errors instead.
    attempts: u32,
}

/// One shard's admission queue.
struct ShardQueue {
    queue: Mutex<VecDeque<PoolTask>>,
    /// Jobs queued and not yet claimed by a worker — the shard's admission
    /// depth, readable without the queue lock.
    pending: AtomicUsize,
}

/// Everything the pool's worker threads share.
struct PoolShared {
    shared: SharedOptimizer,
    shards: Vec<ShardQueue>,
    /// Wake generation: bumped (under the mutex) by every submit / resume /
    /// shutdown so sleeping workers never miss a wakeup.
    sleep: Mutex<u64>,
    wake: Condvar,
    paused: AtomicBool,
    shutdown: AtomicBool,
    /// Fault-injection schedule (`None` in production: one branch per task).
    faults: Option<Arc<FaultPlan>>,
    /// Next submission sequence (task identities are contiguous from 0).
    task_seq: AtomicU64,
    /// Worker panics caught (injected or real).  These four are `Arc`-held
    /// striped counters so an attached metrics registry adopts the same
    /// objects (`pool.*` names) — one source of truth per count.
    panics: Arc<StripedCounter>,
    /// Tasks requeued after their first executing worker died.
    requeues: Arc<StripedCounter>,
    /// Tasks whose ticket completed with worker-death errors.
    worker_errors: Arc<StripedCounter>,
    /// Replacement workers spawned after a panic escaped a worker thread.
    respawns: Arc<StripedCounter>,
    /// Join handles of replacement workers (joined on pool drop).
    respawned: Mutex<Vec<JoinHandle<()>>>,
}

impl PoolShared {
    /// Claim the oldest batch from `home`, stealing FIFO from the other
    /// shards (scanning `home+1, home+2, …`) when the home queue is empty.
    fn claim(&self, home: usize) -> Option<PoolTask> {
        let n = self.shards.len();
        for k in 0..n {
            let shard = &self.shards[(home + k) % n];
            let task = lock_unpoisoned(&shard.queue).pop_front();
            if let Some(task) = task {
                shard.pending.fetch_sub(task.jobs.len(), Ordering::Release);
                return Some(task);
            }
        }
        None
    }

    /// Bump the wake generation and wake every sleeping worker.
    fn wake_all(&self) {
        let mut generation = lock_unpoisoned(&self.sleep);
        *generation = generation.wrapping_add(1);
        drop(generation);
        self.wake.notify_all();
    }
}

/// Completed results of one submitted batch.
pub struct BatchResult {
    /// One result per submitted job, in submission order.
    pub results: Vec<Result<OptimizedPlan>>,
    /// When the executing worker finished the batch.
    pub completed_at: Instant,
}

/// Internal completion slot of a [`Ticket`].
struct TicketState {
    done: Mutex<Option<BatchResult>>,
    cv: Condvar,
}

impl TicketState {
    fn new() -> Self {
        TicketState {
            done: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    /// First write wins: a batch reaches exactly one terminal outcome even if
    /// a requeued execution and a drop-guard error path race to deliver.
    fn complete(&self, results: Vec<Result<OptimizedPlan>>) {
        let mut slot = lock_unpoisoned(&self.done);
        if slot.is_some() {
            return;
        }
        *slot = Some(BatchResult {
            results,
            completed_at: Instant::now(),
        });
        drop(slot);
        self.cv.notify_all();
    }
}

/// A handle to one submitted batch's eventual results.
pub struct Ticket {
    state: Arc<TicketState>,
}

impl Ticket {
    /// Block until the batch has executed and take its results.
    ///
    /// With the pool's worker drop-guards in place, a dead worker completes
    /// its claimed ticket with per-job errors, so this no longer deadlocks on
    /// a worker death; deadline-driven callers should still prefer
    /// [`Ticket::wait_timeout`].
    pub fn wait(self) -> BatchResult {
        let mut slot = lock_unpoisoned(&self.state.done);
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self
                .state
                .cv
                .wait(slot)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// Block until the batch has executed or `timeout` elapses.  Returns
    /// `None` on timeout, leaving the ticket intact: the caller can keep
    /// waiting, or drop it (a later completion then delivers into an
    /// unobserved slot, harmlessly).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<BatchResult> {
        let deadline = Instant::now() + timeout;
        let mut slot = lock_unpoisoned(&self.state.done);
        loop {
            if let Some(result) = slot.take() {
                return Some(result);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            let (guard, _timed_out) = self
                .state
                .cv
                .wait_timeout(slot, left)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            slot = guard;
        }
    }

    /// Take the results if the batch has already executed.
    pub fn try_take(&self) -> Option<BatchResult> {
        lock_unpoisoned(&self.state.done).take()
    }
}

/// The shard worker pool: long-lived worker threads, each pinned to a home
/// shard (worker `w` → shard `w % shard_count`), executing coalesced job
/// batches through [`crate::serving::serve_batch`] and stealing FIFO from
/// other shards when their own queue runs dry.
///
/// Each worker owns one [`SnapshotCache`], so steady-state serving takes no
/// registry lock and clones no `Arc` on an unchanged route — the worker-local
/// structure the contention audit called for.  Determinism: a batch's results
/// are a pure function of its jobs and the registry state, and they are
/// delivered on the batch's own [`Ticket`], so results are identical and
/// identically ordered for 1 worker or N (pinned by the serving tests).
pub struct ServingPool {
    inner: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl ServingPool {
    /// Spawn a pool of `workers` threads over `shard_count` admission queues
    /// (both floored at 1), serving through `shared`.
    pub fn new(shared: SharedOptimizer, shard_count: usize, workers: usize) -> Self {
        Self::with_faults(shared, shard_count, workers, None)
    }

    /// [`ServingPool::new`] with a fault-injection schedule.  `None` is the
    /// production path (bit-identical to [`ServingPool::new`]); a plan injects
    /// worker panics and stalls keyed on each task's submission sequence.
    pub fn with_faults(
        shared: SharedOptimizer,
        shard_count: usize,
        workers: usize,
        faults: Option<Arc<FaultPlan>>,
    ) -> Self {
        let shard_count = shard_count.max(1);
        let inner = Arc::new(PoolShared {
            shards: (0..shard_count)
                .map(|_| ShardQueue {
                    queue: Mutex::new(VecDeque::new()),
                    pending: AtomicUsize::new(0),
                })
                .collect(),
            sleep: Mutex::new(0),
            wake: Condvar::new(),
            paused: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            faults,
            task_seq: AtomicU64::new(0),
            panics: Arc::new(StripedCounter::new()),
            requeues: Arc::new(StripedCounter::new()),
            worker_errors: Arc::new(StripedCounter::new()),
            respawns: Arc::new(StripedCounter::new()),
            respawned: Mutex::new(Vec::new()),
            shared,
        });
        if let Some(obs) = inner.shared.obs() {
            let metrics = obs.metrics();
            metrics.register_counter("pool.worker_panics", &inner.panics);
            metrics.register_counter("pool.requeued_tasks", &inner.requeues);
            metrics.register_counter("pool.worker_error_tasks", &inner.worker_errors);
            metrics.register_counter("pool.respawned_workers", &inner.respawns);
        }
        let workers = (0..workers.max(1))
            .map(|w| spawn_worker(Arc::clone(&inner), w))
            .collect();
        ServingPool { inner, workers }
    }

    /// Number of shard queues.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// The serving optimizer the workers execute through.
    pub fn shared(&self) -> &SharedOptimizer {
        &self.inner.shared
    }

    /// Jobs queued (not yet claimed) at one shard — the admission depth the
    /// front door bounds.
    pub fn pending_jobs(&self, shard: usize) -> usize {
        self.inner.shards[shard % self.inner.shards.len()]
            .pending
            .load(Ordering::Acquire)
    }

    /// Jobs queued across all shards.
    pub fn total_pending(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| s.pending.load(Ordering::Acquire))
            .sum()
    }

    /// Submit one batch to a shard's queue; the returned [`Ticket`] resolves
    /// once a worker has executed it (or its executing worker has died twice,
    /// in which case it resolves with per-job errors).  `shard` wraps onto the
    /// shard count.
    pub fn submit(&self, shard: usize, jobs: Vec<Arc<cleo_engine::workload::JobSpec>>) -> Ticket {
        let state = Arc::new(TicketState::new());
        let shard_index = shard % self.inner.shards.len();
        let seq = self.inner.task_seq.fetch_add(1, Ordering::Relaxed);
        let shard = &self.inner.shards[shard_index];
        shard.pending.fetch_add(jobs.len(), Ordering::Release);
        lock_unpoisoned(&shard.queue).push_back(PoolTask {
            jobs,
            ticket: Arc::clone(&state),
            shard: shard_index,
            seq,
            attempts: 0,
        });
        self.inner.wake_all();
        Ticket { state }
    }

    /// Worker panics caught so far (injected or real).
    pub fn worker_panics(&self) -> usize {
        self.inner.panics.sum() as usize
    }

    /// Tasks requeued after their first executing worker died.
    pub fn requeued_tasks(&self) -> usize {
        self.inner.requeues.sum() as usize
    }

    /// Tasks whose ticket completed with worker-death errors (both execution
    /// attempts lost).
    pub fn worker_error_tasks(&self) -> usize {
        self.inner.worker_errors.sum() as usize
    }

    /// Replacement workers spawned after a panic escaped a worker thread.
    pub fn respawned_workers(&self) -> usize {
        self.inner.respawns.sum() as usize
    }

    /// Stop claiming new batches (already-claimed batches finish).  Queues
    /// keep accumulating, which is what makes over-capacity admission tests
    /// deterministic: pause, offer a burst, assert exact queue/shed counts.
    pub fn pause(&self) {
        self.inner.paused.store(true, Ordering::Release);
    }

    /// Resume claiming batches.
    pub fn resume(&self) {
        self.inner.paused.store(false, Ordering::Release);
        self.inner.wake_all();
    }
}

impl Drop for ServingPool {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.wake_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Replacement workers may themselves have been replaced while we were
        // joining, so drain until the list stays empty.
        loop {
            let respawned: Vec<JoinHandle<()>> =
                lock_unpoisoned(&self.inner.respawned).drain(..).collect();
            if respawned.is_empty() {
                return;
            }
            for worker in respawned {
                let _ = worker.join();
            }
        }
    }
}

/// Spawn one pool worker thread, armed with a [`RespawnGuard`] so a panic
/// that somehow escapes the loop's `catch_unwind` replaces the thread instead
/// of silently shrinking the pool.
fn spawn_worker(inner: Arc<PoolShared>, worker: usize) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("cleo-serve-{worker}"))
        .spawn(move || {
            let _guard = RespawnGuard {
                inner: Arc::clone(&inner),
                worker,
            };
            worker_loop(&inner, worker);
        })
        .expect("failed to spawn serving worker")
}

/// Respawns a worker thread whose panic escaped the serve loop (drop-guard:
/// runs during the unwind, so even unforeseen panics keep the pool at full
/// strength).  Normal shutdown passes through without spawning.
struct RespawnGuard {
    inner: Arc<PoolShared>,
    worker: usize,
}

impl Drop for RespawnGuard {
    fn drop(&mut self) {
        if std::thread::panicking() && !self.inner.shutdown.load(Ordering::Acquire) {
            self.inner.respawns.add(1);
            let handle = spawn_worker(Arc::clone(&self.inner), self.worker);
            lock_unpoisoned(&self.inner.respawned).push(handle);
        }
    }
}

/// Requeues or error-completes a claimed task if the executing worker dies
/// mid-batch (drop-guard: runs during the unwind).  The success path disarms
/// it by taking the task out, so exactly one of {normal completion, requeue,
/// error completion} happens per execution.
struct TaskGuard<'a> {
    inner: &'a PoolShared,
    task: Option<PoolTask>,
}

impl Drop for TaskGuard<'_> {
    fn drop(&mut self) {
        let Some(mut task) = self.task.take() else {
            return;
        };
        if task.attempts == 0 && !self.inner.shutdown.load(Ordering::Acquire) {
            // First death: requeue at the front of the home shard once.  A
            // transient fault (a real panic in a worker) clears on the retry;
            // a deterministic one (fault injection keys on the task sequence)
            // fails again and takes the error path below.
            task.attempts = 1;
            let shard = &self.inner.shards[task.shard];
            shard.pending.fetch_add(task.jobs.len(), Ordering::Release);
            lock_unpoisoned(&shard.queue).push_front(task);
            self.inner.requeues.add(1);
            self.inner.wake_all();
        } else {
            // Second death (or pool shutdown): terminal per-job errors.  The
            // ticket resolves instead of deadlocking its waiter.
            self.inner.worker_errors.add(1);
            let results = task
                .jobs
                .iter()
                .map(|_| {
                    Err(CleoError::Unavailable(format!(
                        "serving worker died executing task {}",
                        task.seq
                    )))
                })
                .collect();
            finish_task(self.inner, &task, results);
        }
    }
}

/// Deliver one executed batch: report per-job outcomes to the provider (for
/// circuit breakers) and complete the ticket.  Called exactly once per task
/// sequence — from the success path or from the guard's error path, never
/// from the requeue path — so the provider's outcome fold sees a contiguous
/// sequence.
fn finish_task(inner: &PoolShared, task: &PoolTask, results: Vec<Result<OptimizedPlan>>) {
    let provider = inner.shared.provider();
    if provider.wants_serving_outcomes() {
        let outcomes: Vec<(ClusterId, bool)> = task
            .jobs
            .iter()
            .zip(&results)
            .map(|(job, result)| (job.meta.cluster, result.is_ok()))
            .collect();
        provider.note_serving_outcomes(task.seq, &outcomes);
    }
    task.ticket.complete(results);
}

/// Execute one claimed task under the [`TaskGuard`]: apply any scheduled
/// stall, panic if the plan says this task's worker dies, serve the batch,
/// deliver.  A panic anywhere in here (injected or real) unwinds through the
/// guard, which requeues or error-completes the task.
fn execute_task(inner: &PoolShared, task: PoolTask, cache: &mut SnapshotCache) {
    if let Some(faults) = &inner.faults {
        let stall = faults.stall_millis(task.seq);
        if stall > 0 {
            std::thread::sleep(Duration::from_millis(stall));
        }
    }
    let mut guard = TaskGuard {
        inner,
        task: Some(task),
    };
    let task = guard.task.as_ref().expect("just stored");
    if let Some(faults) = &inner.faults {
        if faults.fires(FaultSite::WorkerPanic, task.seq) {
            panic!("injected fault: serving worker panic (task {})", task.seq);
        }
    }
    let results = crate::serving::serve_batch(&inner.shared, &task.jobs, cache);
    let task = guard.task.take().expect("guard still armed");
    finish_task(inner, &task, results);
}

/// One worker's serve loop: claim from the home shard (stealing when dry),
/// execute through the worker-local snapshot cache, deliver on the ticket;
/// park on the wake condvar when there is nothing runnable.  Panics during
/// execution are caught here — the task's [`TaskGuard`] has already requeued
/// or error-completed it — so one poisoned batch never takes the worker down.
fn worker_loop(inner: &PoolShared, worker: usize) {
    let mut cache = SnapshotCache::new();
    let home = worker % inner.shards.len();
    loop {
        if inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        if !inner.paused.load(Ordering::Acquire) {
            if let Some(task) = inner.claim(home) {
                if catch_unwind(AssertUnwindSafe(|| execute_task(inner, task, &mut cache))).is_err()
                {
                    inner.panics.add(1);
                    // The unwound serve may have left the worker-local cache
                    // mid-update; start clean.
                    cache = SnapshotCache::new();
                }
                continue;
            }
        }
        let generation = lock_unpoisoned(&inner.sleep);
        if inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        let runnable = !inner.paused.load(Ordering::Acquire)
            && inner
                .shards
                .iter()
                .any(|s| s.pending.load(Ordering::Acquire) > 0);
        if !runnable {
            // Timed wait purely as a backstop; every submit/resume/shutdown
            // bumps the generation under this mutex, so wakeups can't be lost.
            let _ = inner
                .wake
                .wait_timeout(generation, Duration::from_millis(50))
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }
}

/// Drift-aware window eviction policy of the sharded loop (off by default).
///
/// When enabled, each shard compares its window's [`WindowMoments`] against the
/// snapshot taken when the shard last published; a score above `threshold`
/// (≈ one training-time standard deviation) drops the oldest half of the
/// window, so the next retrain fits the post-shift distribution instead of
/// averaging across the shift.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftPolicy {
    /// Whether drift-aware eviction runs at all.
    pub enabled: bool,
    /// Drift score above which the stale window tail is evicted.
    pub threshold: f64,
}

impl Default for DriftPolicy {
    fn default() -> Self {
        DriftPolicy {
            enabled: false,
            threshold: 1.0,
        }
    }
}

/// Post-publish live-error watchdog of the sharded loop (off by default).
///
/// When enabled, each shard round starts by measuring the *served* model's
/// live error on the freshly-arrived telemetry that carries its provenance
/// (same cluster, same version).  A version whose live error regresses more
/// than `max_error_regression_pct` past the previous version's measured live
/// error is rolled back before the round continues — the holdout guard
/// catches bad models at training time, the watchdog catches the ones that
/// only misbehave on live traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogPolicy {
    /// Whether the watchdog runs at all.
    pub enabled: bool,
    /// Live median-error regression (percentage points past the previous
    /// version's measured live error) that triggers a rollback.
    pub max_error_regression_pct: f64,
    /// Fresh records with matching provenance needed before the live error is
    /// considered measured (too few samples → [`WatchdogVerdict::NotChecked`]).
    pub min_samples: usize,
}

impl Default for WatchdogPolicy {
    fn default() -> Self {
        WatchdogPolicy {
            enabled: false,
            max_error_regression_pct: 15.0,
            min_samples: 8,
        }
    }
}

/// What the publish watchdog decided for one shard round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WatchdogVerdict {
    /// Disabled, shard cold, or too few fresh records with matching
    /// provenance to measure the served version's live error.
    NotChecked,
    /// Live error measured; within the regression guard.
    Healthy {
        /// The served version measured.
        version: u64,
        /// Its live median error (pct) on fresh matching telemetry.
        live_error_pct: f64,
    },
    /// Live error regressed past the guard; the version was rolled back.
    RolledBack {
        /// The regressing version that was rolled back.
        from_version: u64,
        /// The version now serving (0 = fallback model).
        to_version: u64,
        /// The regressing version's live median error (pct).
        live_error_pct: f64,
        /// The previous version's measured live error it regressed from.
        baseline_error_pct: f64,
    },
}

/// One shard's failure in a fleet round: the round errored or panicked, the
/// failure was isolated, and the shard's incumbent version kept serving.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardFailure {
    /// The shard that failed.
    pub cluster: ClusterId,
    /// What happened (panics surface as [`CleoError::Unavailable`]).
    pub error: CleoError,
}

/// Configuration of the sharded feedback loop.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ShardedFeedbackConfig {
    /// Per-shard feedback configuration (eviction, trainer, guard, optimizer,
    /// serving threads, warm start).  The trainer seed is re-derived per shard
    /// *and* per epoch, so clusters never train on identical shuffles.
    pub shard: FeedbackConfig,
    /// Drift-aware per-cluster window eviction (default off).
    pub drift: DriftPolicy,
    /// Post-publish live-error rollback watchdog (default off).
    pub watchdog: WatchdogPolicy,
    /// OS threads running the per-cluster retrain epochs (0 = all cores).
    /// Retraining is deterministic regardless: each shard's round is a pure
    /// function of its window, the epoch, and its own incumbent.
    pub shard_threads: usize,
}

/// One round's served stream, partitioned by shard (the output of
/// [`ShardedFeedbackLoop::serve_and_partition`]).
struct ServedPartition {
    jobs_run: usize,
    total_latency: f64,
    unrouted_jobs: usize,
    /// Per-shard telemetry slices, aligned with the loop's shard list.
    ingest: Vec<Option<TelemetryLog>>,
}

/// What [`ShardedFeedbackLoop::observe`] did with an externally-ingested log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObserveReport {
    /// Records accepted into some shard's window.
    pub accepted_jobs: usize,
    /// Records whose cluster has no registry shard (dropped).
    pub unrouted_jobs: usize,
    /// Records evicted by the standard window policy during this observe.
    pub evicted_jobs: usize,
    /// Shards whose ingest round failed (isolated; other shards ingested).
    pub failed_shards: usize,
}

/// Per-shard state of the sharded loop.
struct ShardState {
    cluster: ClusterId,
    registry: Arc<ModelRegistry>,
    window: TelemetryLog,
    /// Window moments at the shard's last publish (the training-time snapshot
    /// drift is measured against).
    baseline: Option<WindowMoments>,
    /// `(version, live_error_pct)` the watchdog last measured — the baseline a
    /// newly published version's live error is compared against.
    live_baseline: Option<(u64, f64)>,
}

impl ShardState {
    /// Extend the window with a round's telemetry, then apply the standard
    /// eviction policy.  Returns the number of evicted jobs.
    fn ingest(&mut self, log: Option<TelemetryLog>, eviction: WindowEviction) -> usize {
        if let Some(log) = log {
            self.window.extend(log);
        }
        match eviction {
            WindowEviction::JobCount(max_jobs) => self.window.drain_window(max_jobs).len(),
            WindowEviction::RecentDays(days) => self.window.retain_recent_days(days).len(),
        }
    }
}

/// What one epoch did on one shard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardEpochReport {
    /// The shard's cluster.
    pub cluster: ClusterId,
    /// Telemetry records ingested into this shard's window this epoch.
    pub ingested_jobs: usize,
    /// Window size after ingestion and eviction.
    pub window_jobs: usize,
    /// Jobs evicted by the standard window policy this epoch.
    pub evicted_jobs: usize,
    /// Drift score vs the shard's training-time snapshot (`None` when drift
    /// eviction is disabled or no snapshot exists yet).
    pub drift_score: Option<f64>,
    /// Jobs evicted because the drift score crossed the threshold.
    pub drift_evicted: usize,
    /// The shard's guarded retrain outcome.
    pub retrain: RetrainOutcome,
    /// Version the shard serves after this epoch's publish decision.
    pub served_version: u64,
    /// What the publish watchdog decided at the start of this round about the
    /// version published previously.
    pub watchdog: WatchdogVerdict,
    /// Wall-clock microseconds of this shard's retrain round.
    pub retrain_micros: u128,
}

/// Report of one fleet-wide epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedEpochReport {
    /// Epoch number (1-based, global across shards).
    pub epoch: u32,
    /// Jobs served through the router this epoch.
    pub jobs_run: usize,
    /// Jobs whose cluster has no shard (served by the fallback, not windowed).
    pub unrouted_jobs: usize,
    /// Cumulative end-to-end latency of the epoch's jobs (seconds).
    pub total_latency: f64,
    /// Per-shard outcomes, sorted by cluster id.
    pub shards: Vec<ShardEpochReport>,
    /// Shards whose round failed this epoch (isolated — the fleet round
    /// completed and each failed shard's incumbent kept serving).
    pub failed: Vec<ShardFailure>,
    /// Routing outcomes of *this epoch's* serving (like every other field
    /// here; the router's cumulative counters stay available via
    /// [`ClusterRouter::routing_stats`]).
    pub routing: RoutingSnapshot,
}

impl ShardedEpochReport {
    /// Shards that published a new version this epoch.
    pub fn published_count(&self) -> usize {
        self.shards
            .iter()
            .filter(|s| matches!(s.retrain.decision, PublishDecision::Published { .. }))
            .count()
    }
}

/// What one sub-epoch delta round did on one shard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardDeltaReport {
    /// The shard's cluster.
    pub cluster: ClusterId,
    /// Telemetry records ingested into this shard's window this round.
    pub ingested_jobs: usize,
    /// Window size after ingestion and eviction.
    pub window_jobs: usize,
    /// Jobs evicted by the standard window policy this round.
    pub evicted_jobs: usize,
    /// The shard's delta-round outcome.
    pub outcome: DeltaOutcome,
    /// Version the shard serves after this round's publish decision.
    pub served_version: u64,
    /// What the publish watchdog decided at the start of this round about the
    /// version published previously.
    pub watchdog: WatchdogVerdict,
    /// Wall-clock microseconds of this shard's dirty retrain + publish.
    pub round_micros: u128,
}

/// Report of one fleet-wide sub-epoch delta round.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedDeltaReport {
    /// Jobs served through the router this round.
    pub jobs_run: usize,
    /// Jobs whose cluster has no shard (served by the fallback, not windowed).
    pub unrouted_jobs: usize,
    /// Cumulative end-to-end latency of the round's jobs (seconds).
    pub total_latency: f64,
    /// Per-shard outcomes, sorted by cluster id.
    pub shards: Vec<ShardDeltaReport>,
    /// Shards whose round failed (isolated — incumbents kept serving).
    pub failed: Vec<ShardFailure>,
    /// Routing outcomes of this round's serving.
    pub routing: RoutingSnapshot,
}

impl ShardedDeltaReport {
    /// Shards that delta-published a new version this round.
    pub fn published_count(&self) -> usize {
        self.shards
            .iter()
            .filter(|s| {
                matches!(
                    s.outcome.decision,
                    crate::feedback::DeltaDecision::Published { .. }
                )
            })
            .count()
    }
}

/// The fleet-scale feedback loop: serve a multi-cluster stream through the
/// [`ClusterRouter`], partition telemetry by cluster, retrain every shard in
/// parallel under its own holdout guard, publish shard-atomically.
pub struct ShardedFeedbackLoop {
    config: ShardedFeedbackConfig,
    router: Arc<ClusterRouter>,
    simulator: Simulator,
    shards: Vec<ShardState>,
    epoch: u32,
    /// Fault-injection schedule for shard rounds (`None` in production).
    faults: Option<Arc<FaultPlan>>,
}

impl ShardedFeedbackLoop {
    /// Create a loop over a router's shards.
    pub fn new(
        config: ShardedFeedbackConfig,
        simulator: Simulator,
        router: Arc<ClusterRouter>,
    ) -> Self {
        let shards = router
            .registry()
            .shards()
            .iter()
            .map(|s| ShardState {
                cluster: s.cluster(),
                registry: Arc::clone(s.registry()),
                window: TelemetryLog::new(),
                baseline: None,
                live_baseline: None,
            })
            .collect();
        ShardedFeedbackLoop {
            config,
            router,
            simulator,
            shards,
            epoch: 0,
            faults: None,
        }
    }

    /// Install (or clear) a fault-injection schedule for subsequent epoch and
    /// delta rounds.  `None` is the production path.
    pub fn set_fault_plan(&mut self, faults: Option<Arc<FaultPlan>>) {
        self.faults = faults;
    }

    /// The router the loop serves through (shared with external serving paths,
    /// so per-shard publishes are immediately visible to them).
    pub fn router(&self) -> &Arc<ClusterRouter> {
        &self.router
    }

    /// The sharded registry the loop publishes into.
    pub fn registry(&self) -> &Arc<ShardedRegistry> {
        self.router.registry()
    }

    /// Epochs completed so far.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// One shard's current sliding window.
    pub fn window(&self, cluster: ClusterId) -> Option<&TelemetryLog> {
        self.shards
            .iter()
            .find(|s| s.cluster == cluster)
            .map(|s| &s.window)
    }

    /// Feed externally-ingested telemetry (a parsed firehose dump — see
    /// `cleo_engine::telemetry_io` and `crate::ingest`) into the per-cluster
    /// shard windows, applying each shard's standard eviction policy.
    ///
    /// This is the offline complement of [`ShardedFeedbackLoop::run_epoch`]'s
    /// serve-then-ingest path: records are partitioned by cluster (moved, not
    /// cloned), extended onto their shard's window, and the window bound is
    /// re-applied — in parallel across shards via the same
    /// [`std::thread::scope`] pool the retrain rounds use.  Records whose
    /// cluster has no shard are dropped and counted (the fallback model serves
    /// those clusters; nothing learns from them).  No training or publishing
    /// happens here; the next epoch or delta round trains on the fattened
    /// windows.
    pub fn observe(&mut self, log: TelemetryLog) -> Result<ObserveReport> {
        let mut ingest: Vec<Option<TelemetryLog>> = (0..self.shards.len()).map(|_| None).collect();
        let mut accepted_jobs = 0usize;
        let mut unrouted_jobs = 0usize;
        for (cluster, part) in log.into_cluster_partitions() {
            match self.router.registry().shard_index(cluster) {
                Some(i) => {
                    accepted_jobs += part.len();
                    ingest[i] = Some(part);
                }
                None => unrouted_jobs += part.len(),
            }
        }
        let eviction = self.config.shard.eviction;
        let (evictions, failed) =
            self.run_shard_rounds(ingest, |state, log| Ok(state.ingest(log, eviction)));
        Ok(ObserveReport {
            accepted_jobs,
            unrouted_jobs,
            evicted_jobs: evictions.iter().sum(),
            failed_shards: failed.len(),
        })
    }

    /// Run one fleet-wide epoch over a multi-cluster job stream: serve through
    /// the router, partition telemetry by cluster, run every shard's guarded
    /// retrain in parallel, publish shard-atomically.
    pub fn run_epoch(&mut self, jobs: &[&JobSpec]) -> Result<ShardedEpochReport> {
        self.epoch += 1;
        let epoch = self.epoch;
        let routing_before = self.router.routing_stats();
        let served = self.serve_and_partition(jobs, epoch)?;

        // Per-cluster epochs, in parallel across shards.  Each shard's round is
        // a pure function of (window, epoch, its own incumbent), so the thread
        // assignment cannot change any outcome — only the wall clock.  Rounds
        // are failure-isolated: a panicking or erroring shard lands in
        // `failed` and its incumbent keeps serving.
        let config = self.config;
        let fallback = Arc::clone(self.router.fallback_model());
        let faults = self.faults.clone();
        let (shards, failed) = self.run_shard_rounds(served.ingest, |state, log| {
            run_shard_epoch(state, log, &config, epoch, &fallback, faults.as_deref())
        });

        Ok(ShardedEpochReport {
            epoch,
            jobs_run: served.jobs_run,
            unrouted_jobs: served.unrouted_jobs,
            total_latency: served.total_latency,
            shards,
            failed,
            routing: self.router.routing_stats().since(&routing_before),
        })
    }

    /// Run one fleet-wide **sub-epoch delta round**: serve through the router,
    /// partition telemetry by cluster, and refit only each shard's dirty
    /// signatures in parallel, publishing per-shard copy-on-write deltas (see
    /// [`crate::feedback::DeltaOutcome`]).  Shards whose
    /// registry is still cold skip (deltas apply over an incumbent); the epoch
    /// counter does not advance, and the next full epoch's training is
    /// bit-independent of any deltas published here.
    pub fn run_delta_round(&mut self, jobs: &[&JobSpec]) -> Result<ShardedDeltaReport> {
        let epoch = self.epoch;
        let routing_before = self.router.routing_stats();
        let served = self.serve_and_partition(jobs, epoch)?;

        let config = self.config;
        let faults = self.faults.clone();
        let (shards, failed) = self.run_shard_rounds(served.ingest, |state, log| {
            run_shard_delta(state, log, &config, epoch, faults.as_deref())
        });

        Ok(ShardedDeltaReport {
            jobs_run: served.jobs_run,
            unrouted_jobs: served.unrouted_jobs,
            total_latency: served.total_latency,
            shards,
            failed,
            routing: self.router.routing_stats().since(&routing_before),
        })
    }

    /// Serve a job stream through the router and partition the telemetry by
    /// shard: the common prologue of full epochs and delta rounds.  All
    /// publishes of a round happen strictly after serving completes, so every
    /// job routes against the same shard states — which is what makes serving
    /// bit-deterministic across serving thread counts.  Jobs from unmapped
    /// clusters were served by the fallback but have no shard window to learn
    /// in; partitioning is consuming, so records move into the shard windows
    /// without cloning any plan.
    fn serve_and_partition(&self, jobs: &[&JobSpec], epoch: u32) -> Result<ServedPartition> {
        let served = crate::pipeline::serve_jobs_in_epoch(
            jobs,
            Arc::clone(&self.router) as Arc<dyn CostModelProvider>,
            self.config.shard.optimizer,
            &self.simulator,
            epoch,
            self.config.shard.serving_threads,
        )?;
        let jobs_run = served.len();
        let total_latency = served.total_latency();

        let mut unrouted_jobs = 0usize;
        let mut ingest: Vec<Option<TelemetryLog>> = (0..self.shards.len()).map(|_| None).collect();
        for (cluster, log) in served.into_cluster_partitions() {
            match self.router.registry().shard_index(cluster) {
                Some(i) => ingest[i] = Some(log),
                None => unrouted_jobs += log.len(),
            }
        }
        Ok(ServedPartition {
            jobs_run,
            total_latency,
            unrouted_jobs,
            ingest,
        })
    }

    /// Run one round function over every shard (with its ingest slice), spread
    /// across [`ShardedFeedbackConfig::shard_threads`] OS threads.  Each
    /// shard's round is a pure function of its own state, so the thread
    /// assignment cannot change any outcome — only the wall clock.
    ///
    /// Rounds are **failure-isolated**: each shard's round runs under
    /// `catch_unwind`, so an erroring or panicking shard becomes a
    /// [`ShardFailure`] while every other shard's report is returned normally
    /// — one bad shard can no longer abort a fleet round.  A failed shard's
    /// window may have partially ingested this round's telemetry; its
    /// registry is untouched (publishes are the last step of a round), so its
    /// incumbent version keeps serving.
    fn run_shard_rounds<R: Send>(
        &mut self,
        ingest: Vec<Option<TelemetryLog>>,
        round: impl Fn(&mut ShardState, Option<TelemetryLog>) -> Result<R> + Sync,
    ) -> (Vec<R>, Vec<ShardFailure>) {
        let threads = if self.config.shard_threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.config.shard_threads
        }
        .min(self.shards.len().max(1));

        let mut work: Vec<(&mut ShardState, Option<TelemetryLog>)> =
            self.shards.iter_mut().zip(ingest).collect();
        let mut outcomes: Vec<std::result::Result<R, ShardFailure>> =
            Vec::with_capacity(work.len());
        if threads <= 1 {
            for (state, log) in work.iter_mut() {
                outcomes.push(run_round_isolated(&round, state, log.take()));
            }
        } else {
            let chunk_size = work.len().div_ceil(threads);
            // Cluster lists per chunk, captured up front so that even a panic
            // escaping a chunk worker (not just a shard round) degrades to
            // per-shard failures instead of aborting the fleet.
            let chunk_clusters: Vec<Vec<ClusterId>> = work
                .chunks(chunk_size)
                .map(|chunk| chunk.iter().map(|(state, _)| state.cluster).collect())
                .collect();
            std::thread::scope(|scope| {
                let handles: Vec<_> = work
                    .chunks_mut(chunk_size)
                    .map(|chunk| {
                        let round = &round;
                        scope.spawn(move || {
                            chunk
                                .iter_mut()
                                .map(|(state, log)| run_round_isolated(round, state, log.take()))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                for (handle, clusters) in handles.into_iter().zip(chunk_clusters) {
                    match handle.join() {
                        Ok(chunk_outcomes) => outcomes.extend(chunk_outcomes),
                        Err(_) => outcomes.extend(clusters.into_iter().map(|cluster| {
                            Err(ShardFailure {
                                cluster,
                                error: CleoError::Unavailable("shard round worker panicked".into()),
                            })
                        })),
                    }
                }
            });
        }
        let mut reports = Vec::with_capacity(outcomes.len());
        let mut failed = Vec::new();
        for outcome in outcomes {
            match outcome {
                Ok(report) => reports.push(report),
                Err(failure) => failed.push(failure),
            }
        }
        (reports, failed)
    }
}

/// Run one shard's round under `catch_unwind`, converting an error or panic
/// into a [`ShardFailure`] (the isolation primitive of the fleet rounds).
fn run_round_isolated<R>(
    round: &(impl Fn(&mut ShardState, Option<TelemetryLog>) -> Result<R> + Sync),
    state: &mut ShardState,
    log: Option<TelemetryLog>,
) -> std::result::Result<R, ShardFailure> {
    let cluster = state.cluster;
    match catch_unwind(AssertUnwindSafe(|| round(state, log))) {
        Ok(Ok(report)) => Ok(report),
        Ok(Err(error)) => Err(ShardFailure { cluster, error }),
        Err(payload) => Err(ShardFailure {
            cluster,
            error: CleoError::Unavailable(format!(
                "shard round panicked: {}",
                panic_message(payload.as_ref())
            )),
        }),
    }
}

/// One shard's slice of a sub-epoch delta round: ingest, evict (standard
/// policy only — drift baselines belong to full publishes), dirty-only guarded
/// retrain, per-shard copy-on-write delta publish.
fn run_shard_delta(
    state: &mut ShardState,
    ingest: Option<TelemetryLog>,
    config: &ShardedFeedbackConfig,
    epoch: u32,
    faults: Option<&FaultPlan>,
) -> Result<ShardDeltaReport> {
    let watchdog = run_publish_watchdog(state, ingest.as_ref(), &config.watchdog, faults);
    if let Some(faults) = faults {
        let index = ((epoch as u64) << 8) | state.cluster.0 as u64;
        if faults.fires(FaultSite::CorruptDelta, index) {
            return Err(CleoError::Config(format!(
                "injected fault: corrupted delta (epoch {epoch}, cluster {})",
                state.cluster.0
            )));
        }
    }

    let ingested_jobs = ingest.as_ref().map_or(0, TelemetryLog::len);
    let evicted_jobs = state.ingest(ingest, config.shard.eviction);

    let started = Instant::now();
    let outcome = delta_round_window(&state.window, &config.shard, epoch, &state.registry)?;
    let round_micros = started.elapsed().as_micros();

    Ok(ShardDeltaReport {
        cluster: state.cluster,
        ingested_jobs,
        window_jobs: state.window.len(),
        evicted_jobs,
        outcome,
        served_version: state.registry.current_version(),
        watchdog,
        round_micros,
    })
}

/// One shard's slice of an epoch: ingest, evict (standard then drift-aware),
/// guarded retrain, shard-atomic publish.
fn run_shard_epoch(
    state: &mut ShardState,
    ingest: Option<TelemetryLog>,
    config: &ShardedFeedbackConfig,
    epoch: u32,
    fallback: &Arc<dyn CostModel>,
    faults: Option<&FaultPlan>,
) -> Result<ShardEpochReport> {
    let watchdog = run_publish_watchdog(state, ingest.as_ref(), &config.watchdog, faults);
    if let Some(faults) = faults {
        let index = ((epoch as u64) << 8) | state.cluster.0 as u64;
        if faults.fires(FaultSite::ShardRoundPanic, index) {
            panic!(
                "injected fault: shard round panic (epoch {epoch}, cluster {})",
                state.cluster.0
            );
        }
    }

    let ingested_jobs = ingest.as_ref().map_or(0, TelemetryLog::len);
    let evicted_jobs = state.ingest(ingest, config.shard.eviction);

    let mut drift_score = None;
    let mut drift_evicted = 0;
    if config.drift.enabled {
        if let Some(baseline) = &state.baseline {
            let score = state.window.feature_moments().drift_from(baseline);
            drift_score = Some(score);
            if score > config.drift.threshold {
                // The pre-shift tail no longer describes what the shard serves:
                // keep the newest half (but never starve the trainer) and take
                // a fresh snapshot at the next publish.
                let keep = (state.window.len() / 2).max(config.shard.min_training_jobs);
                drift_evicted = state.window.drain_window(keep).len();
                state.baseline = None;
            }
        }
    }

    // Re-derive the trainer seed per shard so no two clusters shuffle their
    // windows identically (retrain_window re-derives per epoch on top).
    let mut shard_config = config.shard;
    shard_config.trainer.seed ^= (state.cluster.0 as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407);

    let started = Instant::now();
    let retrain = retrain_window(
        &state.window,
        &shard_config,
        epoch,
        &state.registry,
        fallback,
    )?;
    let retrain_micros = started.elapsed().as_micros();
    if matches!(retrain.decision, PublishDecision::Published { .. }) {
        state.baseline = Some(state.window.feature_moments());
    }

    Ok(ShardEpochReport {
        cluster: state.cluster,
        ingested_jobs,
        window_jobs: state.window.len(),
        evicted_jobs,
        drift_score,
        drift_evicted,
        retrain,
        served_version: state.registry.current_version(),
        watchdog,
        retrain_micros,
    })
}

/// The publish watchdog: measure the *served* version's live error on the
/// round's freshly-arrived telemetry that carries its provenance, and roll it
/// back if it regressed past the guard relative to the previous version's
/// measured live error.  Runs at the start of each shard round, before the
/// fresh records merge into the training window.
fn run_publish_watchdog(
    state: &mut ShardState,
    ingest: Option<&TelemetryLog>,
    policy: &WatchdogPolicy,
    faults: Option<&FaultPlan>,
) -> WatchdogVerdict {
    if !policy.enabled {
        return WatchdogVerdict::NotChecked;
    }
    let Some(log) = ingest else {
        return WatchdogVerdict::NotChecked;
    };
    let served_version = state.registry.current_version();
    if served_version == 0 {
        return WatchdogVerdict::NotChecked;
    }
    let Some(snapshot) = state.registry.current() else {
        return WatchdogVerdict::NotChecked;
    };
    // Only records this version served for this cluster measure its live
    // error; donor-served and stale-version records say nothing about it.
    let fresh: Vec<&JobTelemetry> = log
        .jobs()
        .iter()
        .filter(|job| {
            job.provenance.model_cluster == Some(state.cluster)
                && job.provenance.model_version == served_version
        })
        .collect();
    if fresh.len() < policy.min_samples {
        return WatchdogVerdict::NotChecked;
    }
    let evaluation = crate::pipeline::evaluate_cost_model_jobs(
        snapshot.cost_model().as_ref(),
        fresh.iter().copied(),
    );
    let mut live_error_pct = evaluation.median_error_pct;
    if let Some(faults) = faults {
        live_error_pct *= faults.error_multiplier((served_version << 8) | state.cluster.0 as u64);
    }
    // Watchdog events carry a logical identity derived from the version under
    // measurement and the shard — both fixed by the round's inputs, so the
    // event multiset is thread-count-invariant.
    let obs_seq = (served_version << 8) | u64::from(state.cluster.0);
    match state.live_baseline {
        Some((baseline_version, baseline_error_pct))
            if baseline_version != served_version
                && live_error_pct > baseline_error_pct + policy.max_error_regression_pct =>
        {
            if let Some((obs, cluster)) = state.registry.obs_binding() {
                obs.emit(TraceEvent::Watchdog {
                    seq: obs_seq,
                    cluster,
                    verdict: obs::WatchdogKind::RolledBack,
                    version: served_version,
                });
            }
            let now_serving = state.registry.rollback();
            WatchdogVerdict::RolledBack {
                from_version: served_version,
                to_version: now_serving.map(|s| s.version()).unwrap_or(0),
                live_error_pct,
                baseline_error_pct,
            }
        }
        _ => {
            state.live_baseline = Some((served_version, live_error_pct));
            if let Some((obs, cluster)) = state.registry.obs_binding() {
                obs.emit(TraceEvent::Watchdog {
                    seq: obs_seq,
                    cluster,
                    verdict: obs::WatchdogKind::Healthy,
                    version: served_version,
                });
            }
            WatchdogVerdict::Healthy {
                version: served_version,
                live_error_pct,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cleo_engine::exec::SimulatorConfig;
    use cleo_engine::workload::generator::{
        generate_all_clusters, generate_cluster_workload, interleave_jobs, ClusterConfig,
    };
    use cleo_optimizer::HeuristicCostModel;

    fn four_shard_router() -> Arc<ClusterRouter> {
        let workloads = generate_all_clusters(1, false);
        let profiles: Vec<WorkloadProfile> = workloads.iter().map(WorkloadProfile::of).collect();
        let registry = Arc::new(ShardedRegistry::new(workloads.iter().map(|w| w.cluster)));
        Arc::new(ClusterRouter::new(
            registry,
            Arc::new(HeuristicCostModel::default_model()),
            &profiles,
        ))
    }

    #[test]
    fn shard_map_is_deduplicated_and_sorted() {
        let registry =
            ShardedRegistry::new([ClusterId(3), ClusterId(0), ClusterId(3), ClusterId(1)]);
        assert_eq!(registry.shard_count(), 3);
        let clusters: Vec<u8> = registry.clusters().map(|c| c.0).collect();
        assert_eq!(clusters, vec![0, 1, 3]);
        assert!(registry.shard(ClusterId(1)).is_some());
        assert!(registry.shard(ClusterId(2)).is_none());
        assert_eq!(registry.shard_version(ClusterId(0)), 0);
        assert_eq!(registry.shard_version(ClusterId(200)), 0);
        assert_eq!(registry.total_version_count(), 0);
    }

    #[test]
    fn fallback_chains_are_similarity_ordered_and_deterministic() {
        let router = four_shard_router();
        for cluster in router.registry().clusters().collect::<Vec<_>>() {
            let chain = router.fallback_chain(cluster);
            assert_eq!(chain.len(), 3, "every other shard appears once");
            assert!(!chain.contains(&cluster), "a shard never donates to itself");
        }
        // Rebuilding the router from the same inputs yields the same chains.
        let router2 = four_shard_router();
        for cluster in router.registry().clusters().collect::<Vec<_>>() {
            assert_eq!(
                router.fallback_chain(cluster),
                router2.fallback_chain(cluster)
            );
        }
        // Unknown clusters have no chain.
        assert!(router.fallback_chain(ClusterId(99)).is_empty());
    }

    #[test]
    fn sharded_loop_runs_per_cluster_epochs_and_publishes_per_shard() {
        let workloads = generate_all_clusters(1, false);
        let router = four_shard_router();
        let mut fleet = ShardedFeedbackLoop::new(
            ShardedFeedbackConfig {
                shard: FeedbackConfig {
                    serving_threads: 2,
                    ..FeedbackConfig::default()
                },
                shard_threads: 2,
                ..ShardedFeedbackConfig::default()
            },
            Simulator::new(SimulatorConfig::default()),
            Arc::clone(&router),
        );

        let stream = interleave_jobs(&workloads);
        let report = fleet.run_epoch(&stream).unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.jobs_run, stream.len());
        assert_eq!(report.unrouted_jobs, 0);
        assert_eq!(report.shards.len(), 4);
        // Every shard windowed its own cluster's telemetry and published v1.
        for shard in &report.shards {
            assert!(shard.ingested_jobs > 0, "{:?}", shard.cluster);
            assert_eq!(shard.served_version, 1, "{:?}", shard.cluster);
        }
        assert_eq!(report.published_count(), 4);
        assert_eq!(fleet.registry().total_version_count(), 4);
        // Epoch 1 served everything from the fallback (all shards cold).
        assert_eq!(report.routing.fallback_hits, stream.len() as u64);

        // Epoch 2: every job is served by its own cluster's v1.
        let report2 = fleet.run_epoch(&stream).unwrap();
        assert_eq!(report2.routing.own_hits, stream.len() as u64);
        assert_eq!(report2.routing.fallback_hits, 0);
        // Telemetry carries per-shard provenance: version and serving cluster.
        for shard in &report2.shards {
            let window = fleet.window(shard.cluster).unwrap();
            assert!(window.jobs().iter().any(|j| j.provenance.model_version == 1
                && j.provenance.model_cluster == Some(shard.cluster)));
        }
    }

    #[test]
    fn drift_eviction_flags_and_shrinks_a_shifted_window() {
        // One small cluster; drift checking on with a tight threshold.
        let config = ClusterConfig::small(ClusterId(0));
        let workload = generate_cluster_workload(&config, 1);
        let jobs: Vec<&JobSpec> = workload.jobs.iter().collect();
        let registry = Arc::new(ShardedRegistry::new([ClusterId(0)]));
        let router = Arc::new(ClusterRouter::with_uniform_similarity(
            registry,
            Arc::new(HeuristicCostModel::default_model()),
        ));
        let mut fleet = ShardedFeedbackLoop::new(
            ShardedFeedbackConfig {
                shard: FeedbackConfig {
                    // Bound the window to one epoch, so each epoch's drift
                    // check compares this epoch's population against the
                    // publish-time snapshot (no dilution by older epochs).
                    eviction: crate::feedback::WindowEviction::JobCount(jobs.len()),
                    ..FeedbackConfig::default()
                },
                drift: DriftPolicy {
                    enabled: true,
                    threshold: 0.35,
                },
                ..ShardedFeedbackConfig::default()
            },
            Simulator::new(SimulatorConfig::default()),
            router,
        );
        let first = fleet.run_epoch(&jobs).unwrap();
        assert_eq!(first.shards[0].drift_score, None, "no snapshot before v1");
        assert_eq!(first.published_count(), 1);

        // Re-serving the same distribution drifts ~nothing.
        let second = fleet.run_epoch(&jobs).unwrap();
        let same_score = second.shards[0].drift_score.expect("snapshot exists now");
        assert!(same_score < 0.35, "same distribution scored {same_score}");
        assert_eq!(second.shards[0].drift_evicted, 0);

        // A future heavy-drift day (tables grown 64x) crosses the threshold.
        let grown = generate_cluster_workload(
            &ClusterConfig {
                daily_growth: 64.0,
                ..config
            },
            2,
        );
        let heavy: Vec<&JobSpec> = grown.jobs.iter().filter(|j| j.meta.day.0 == 1).collect();
        let window_before = fleet.window(ClusterId(0)).unwrap().len();
        let third = fleet.run_epoch(&heavy).unwrap();
        let heavy_score = third.shards[0].drift_score.expect("snapshot exists");
        assert!(
            heavy_score > 0.35 && heavy_score > same_score,
            "grown inputs scored only {heavy_score} (same-distribution: {same_score})"
        );
        assert!(third.shards[0].drift_evicted > 0);
        assert!(fleet.window(ClusterId(0)).unwrap().len() < window_before + heavy.len());

        // Default policy is off: no score, no eviction.
        assert!(!ShardedFeedbackConfig::default().drift.enabled);
    }
}

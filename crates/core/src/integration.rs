//! Optimizer integration: the learned cost model.
//!
//! [`LearnedCostModel`] wraps a trained [`CleoPredictor`] behind the optimizer's
//! [`CostModel`] trait, so the learned models are invoked from the same
//! Optimize-Inputs step as the default cost model (Figure 8a, step 10) and can drive
//! the resource-aware partition exploration of Section 5.2 through
//! [`CostModel::partition_coefficients`].
//!
//! The predictor is held behind an [`Arc`], so one trained model version can be
//! shared by many concurrent optimizations (see [`crate::registry`]).  A
//! signature-keyed `PredictionCache` memoises combined predictions: recurring jobs
//! re-optimized across feedback epochs present the same `(signature, feature)` pairs
//! again and again, and a cache hit skips every per-family model lookup and the
//! FastTree ensemble walk.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, OnceLock};

use cleo_common::concurrency::{lock_unpoisoned, StripedCounter};
use cleo_common::hash::StableHasher;
use cleo_engine::physical::{JobMeta, PhysicalNode};
use cleo_optimizer::{CostModel, SweepSpec};

use crate::models::{CleoPredictor, PredictScratch};
use crate::signature::{signature_set, SignatureSet};

thread_local! {
    /// Per-thread inference scratch: every optimizer thread reuses one flat
    /// feature matrix (plus the predictor's intermediate buffers) across all
    /// candidate sweeps, so steady-state costing performs zero per-candidate
    /// heap allocations.  Thread-local (rather than a field) keeps
    /// [`LearnedCostModel`] `Sync` without a contended lock on the hot path.
    static SWEEP_SCRATCH: RefCell<PredictScratch> = RefCell::new(PredictScratch::new());
}

/// Floor applied to every cost returned to the optimizer, so that downstream
/// ratios/divisions stay finite even when a model extrapolates to ~0.  One shared
/// constant keeps the scalar and batched costing paths from drifting.
const COST_FLOOR_SECONDS: f64 = 1e-6;

/// Clamp a combined prediction to the cost floor (shared by the scalar and batch
/// paths — see [`COST_FLOOR_SECONDS`]).
#[inline]
fn clamp_cost(cost: f64) -> f64 {
    cost.max(COST_FLOOR_SECONDS)
}

/// Number of independently locked cache shards: derived from the machine's
/// available parallelism (8 lock stripes per core, clamped to a power of two
/// in `[16, 256]`), so the shard count scales with the number of optimizer
/// threads that can actually contend instead of being fixed at build time.
fn cache_shard_count() -> usize {
    static SHARDS: OnceLock<usize> = OnceLock::new();
    *SHARDS.get_or_init(|| {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        (cores * 8).next_power_of_two().clamp(16, 256)
    })
}

/// Default total cache capacity (entries across all shards).
const DEFAULT_CACHE_CAPACITY: usize = 1 << 16;

/// Hit/miss counters of a [`LearnedCostModel`]'s prediction cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: usize,
    /// Lookups that ran the full prediction stack.
    pub misses: usize,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache (0.0 when none were made).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A sharded, bounded memo of combined predictions for whole candidate sweeps,
/// keyed by `hash(signature set, root statistics, job params, candidate counts)`.
///
/// The feature rows of a sweep are a pure function of those inputs — the four
/// signatures pin the exact subtree template (and with it `node_count`/`depth`)
/// and the normalised input set, while the root's estimated statistics and the
/// job parameters contribute every remaining feature — so memoisation is exact:
/// a hit returns the bit-identical values the predictor would have computed.
/// Caching at sweep granularity is what makes hits cheap: one lookup replaces a
/// per-candidate feature extraction (each an O(subtree) walk) *and* the model
/// evaluations behind it.  When a shard outgrows its slice of the capacity it is
/// cleared wholesale — an epoch-style reset that bounds memory without per-entry
/// bookkeeping on the serving path.
#[derive(Debug)]
struct PredictionCache {
    /// Entries are shared slices: a hit clones one `Arc` inside the critical
    /// section instead of allocating and copying a `Vec` under the lock, so
    /// the per-shard mutexes are held for nanoseconds even on hot sweeps.
    shards: Vec<Mutex<HashMap<u64, Arc<[f64]>>>>,
    per_shard_capacity: usize,
    hits: StripedCounter,
    misses: StripedCounter,
}

impl PredictionCache {
    fn new(capacity: usize) -> Self {
        let shard_count = cache_shard_count();
        PredictionCache {
            shards: (0..shard_count)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            per_shard_capacity: capacity.div_ceil(shard_count).max(1),
            hits: StripedCounter::new(),
            misses: StripedCounter::new(),
        }
    }

    fn shard(&self, key: u64) -> &Mutex<HashMap<u64, Arc<[f64]>>> {
        // Multiplicative mix so every key bit influences the shard pick (the
        // shard count is a power of two, so a plain mask would only ever read
        // the low bits).
        let mixed = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(mixed >> 32) as usize & (self.shards.len() - 1)]
    }

    fn get(&self, key: u64) -> Option<Arc<[f64]>> {
        let found = lock_unpoisoned(self.shard(key)).get(&key).cloned();
        match found {
            Some(_) => self.hits.add(1),
            None => self.misses.add(1),
        };
        found
    }

    fn insert(&self, key: u64, costs: Arc<[f64]>) {
        let mut shard = lock_unpoisoned(self.shard(key));
        if shard.len() >= self.per_shard_capacity {
            shard.clear();
        }
        shard.insert(key, costs);
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.sum() as usize,
            misses: self.misses.sum() as usize,
        }
    }

    fn reset(&self) {
        for shard in &self.shards {
            lock_unpoisoned(shard).clear();
        }
        self.hits.reset();
        self.misses.reset();
    }
}

/// Stable cache key over everything one candidate sweep's cached costs depend
/// on (see [`PredictionCache`]): the feature-row inputs *plus* `model_salt`,
/// the identity hash of the per-signature models serving this signature set
/// ([`CleoPredictor::signature_salt`]).  The salt is what makes the cache safe
/// to share across delta publishes: a delta that refits a signature changes its
/// salt, so the successor model misses and recomputes, while unchanged
/// signatures keep hitting the incumbent's warm entries.
fn cache_key(
    model_salt: u64,
    signatures: &SignatureSet,
    node: &PhysicalNode,
    meta: &JobMeta,
    partitions: &[usize],
) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(model_salt);
    h.write_u64(signatures.op_subgraph)
        .write_u64(signatures.op_subgraph_approx)
        .write_u64(signatures.op_input)
        .write_u64(signatures.operator)
        .write_u64(node.est.input_cardinality.to_bits())
        .write_u64(node.est.base_cardinality.to_bits())
        .write_u64(node.est.output_cardinality.to_bits())
        .write_u64(node.est.avg_row_bytes.to_bits())
        .write_u64(meta.params.first().copied().unwrap_or(0.0).to_bits())
        .write_u64(meta.params.get(1).copied().unwrap_or(0.0).to_bits());
    // The signatures hash the *sorted, deduplicated* input set, but the IN
    // feature hashes the inputs in raw order — key on the raw list too, or two
    // jobs differing only in input order would share an entry.
    for input in &meta.normalized_inputs {
        h.write_str(input);
    }
    for &p in partitions {
        h.write_u64(p as u64);
    }
    h.finish()
}

/// The learned cost model plugged into the optimizer.
#[derive(Debug)]
pub struct LearnedCostModel {
    predictor: Arc<CleoPredictor>,
    /// Number of model invocations performed (reported in the overhead
    /// analysis).  Striped: the count is bumped on *every* cost evaluation, so
    /// a single shared atomic would be the hottest cacheline in a concurrent
    /// serve — each thread increments its own stripe instead and totals are
    /// summed on read.
    invocations: StripedCounter,
    /// Signature-keyed memo of combined predictions (`None` = caching disabled).
    /// Behind an [`Arc`] so a delta-published successor model can keep serving
    /// the incumbent's warm entries (keys are salted with per-signature model
    /// identity, so sharing is safe — see [`cache_key`]).
    cache: Option<Arc<PredictionCache>>,
}

impl LearnedCostModel {
    /// Wrap a trained predictor (accepts an owned predictor or an existing
    /// [`Arc`]), with the signature-keyed prediction cache enabled.
    pub fn new(predictor: impl Into<Arc<CleoPredictor>>) -> Self {
        Self::with_cache_capacity(predictor, DEFAULT_CACHE_CAPACITY)
    }

    /// Like [`LearnedCostModel::new`] with an explicit total cache capacity
    /// (`0` disables caching — every invocation runs the full prediction stack).
    pub fn with_cache_capacity(predictor: impl Into<Arc<CleoPredictor>>, capacity: usize) -> Self {
        LearnedCostModel {
            predictor: predictor.into(),
            invocations: StripedCounter::new(),
            cache: (capacity > 0).then(|| Arc::new(PredictionCache::new(capacity))),
        }
    }

    /// Wrap a predictor with the prediction cache disabled (baseline for the
    /// cache microbenchmarks).
    pub fn without_cache(predictor: impl Into<Arc<CleoPredictor>>) -> Self {
        Self::with_cache_capacity(predictor, 0)
    }

    /// The cost model of a delta-published successor version: wraps the merged
    /// predictor while **sharing this model's prediction cache**.  Unchanged
    /// signatures resolve to the same salted keys and keep hitting the warm
    /// entries; refit signatures change their salt and miss, so a delta can
    /// never serve a stale cached cost (pinned by the delta cache regression
    /// test).  Invocation counters start fresh.
    pub fn delta_successor(&self, predictor: impl Into<Arc<CleoPredictor>>) -> LearnedCostModel {
        LearnedCostModel {
            predictor: predictor.into(),
            invocations: StripedCounter::new(),
            cache: self.cache.clone(),
        }
    }

    /// True when `other` serves predictions through the same shared cache
    /// allocation (deltas share; full publishes do not).
    pub fn shares_cache_with(&self, other: &LearnedCostModel) -> bool {
        match (&self.cache, &other.cache) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// The wrapped predictor.
    pub fn predictor(&self) -> &CleoPredictor {
        &self.predictor
    }

    /// A shareable handle to the wrapped predictor.
    pub fn shared_predictor(&self) -> Arc<CleoPredictor> {
        Arc::clone(&self.predictor)
    }

    /// Number of cost-model invocations so far.  Exact once the threads doing
    /// the costing have quiesced (the only time anyone reads it).
    pub fn invocation_count(&self) -> usize {
        self.invocations.sum() as usize
    }

    /// Reset the invocation counter.
    pub fn reset_invocation_count(&self) {
        self.invocations.reset();
    }

    /// Hit/miss counters of the prediction cache (zeros when caching is disabled).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.as_ref().map(|c| c.stats()).unwrap_or_default()
    }

    /// Drop all cached predictions and reset the hit/miss counters.
    pub fn clear_cache(&self) {
        if let Some(cache) = &self.cache {
            cache.reset();
        }
    }
}

impl LearnedCostModel {
    /// Run the full prediction stack for one candidate sweep (no cache).
    ///
    /// Feature rows are extracted straight into the thread-local scratch matrix
    /// and every model evaluation reuses the scratch's buffers; the only
    /// allocation left per sweep is the returned cost vector itself (which the
    /// cache retains on a miss).
    fn predict_sweep(
        &self,
        signatures: &SignatureSet,
        node: &PhysicalNode,
        partitions: &[usize],
        meta: &JobMeta,
    ) -> Vec<f64> {
        SWEEP_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            scratch.fill_features(node, partitions, meta);
            self.predictor
                .predict_scratch(signatures, scratch)
                .iter()
                .map(|b| clamp_cost(b.combined))
                .collect()
        })
    }

    /// Cost a candidate sweep through the cache (one lookup per sweep).
    fn cost_sweep(&self, node: &PhysicalNode, partitions: &[usize], meta: &JobMeta) -> Arc<[f64]> {
        let signatures = signature_set(node, meta);
        let Some(cache) = &self.cache else {
            return self
                .predict_sweep(&signatures, node, partitions, meta)
                .into();
        };
        let salt = self.predictor.signature_salt(&signatures);
        let key = cache_key(salt, &signatures, node, meta, partitions);
        if let Some(costs) = cache.get(key) {
            return costs;
        }
        let costs: Arc<[f64]> = self
            .predict_sweep(&signatures, node, partitions, meta)
            .into();
        cache.insert(key, Arc::clone(&costs));
        costs
    }
}

impl CostModel for LearnedCostModel {
    fn exclusive_cost(&self, node: &PhysicalNode, partitions: usize, meta: &JobMeta) -> f64 {
        self.invocations.add(1);
        self.cost_sweep(node, &[partitions], meta)[0]
    }

    fn exclusive_cost_batch(
        &self,
        node: &PhysicalNode,
        partitions: &[usize],
        meta: &JobMeta,
    ) -> Vec<f64> {
        // One signature computation + one model lookup per family for the whole
        // candidate set (the batched invocation path of resource-aware planning),
        // and on a repeat sweep of a recurring operator a single cache lookup.
        self.invocations.add(partitions.len() as u64);
        self.cost_sweep(node, partitions, meta).to_vec()
    }

    fn exclusive_cost_sweeps(&self, sweeps: &[SweepSpec]) -> Vec<Vec<f64>> {
        // The coalescing seam: sweeps from many concurrent jobs arrive in one
        // call.  Cache hits resolve individually; the misses are grouped by
        // signature set and each group's feature rows are extracted into ONE
        // shared matrix and pushed through the predictor in a single pass, so a
        // batch of J jobs sweeping the same recurring operator pays one model
        // resolution instead of J.  Bit-identity with the per-sweep path holds
        // because prediction is row-independent (pinned by the inference
        // equivalence tests) and each sweep's rows stay contiguous in order.
        let total: usize = sweeps.iter().map(|s| s.partitions.len()).sum();
        self.invocations.add(total as u64);

        let mut results: Vec<Option<Vec<f64>>> = (0..sweeps.len()).map(|_| None).collect();
        // Misses grouped by signature set; BTreeMap for deterministic group
        // order.  Values are sweep indices (rows are appended in index order).
        let mut groups: BTreeMap<SignatureSet, Vec<usize>> = BTreeMap::new();
        let mut keys: Vec<u64> = vec![0; sweeps.len()];

        for (i, sweep) in sweeps.iter().enumerate() {
            let signatures = signature_set(sweep.node, sweep.meta);
            if let Some(cache) = &self.cache {
                let salt = self.predictor.signature_salt(&signatures);
                let key = cache_key(salt, &signatures, sweep.node, sweep.meta, sweep.partitions);
                keys[i] = key;
                if let Some(costs) = cache.get(key) {
                    results[i] = Some(costs.to_vec());
                    continue;
                }
            }
            groups.entry(signatures).or_default().push(i);
        }

        for (signatures, members) in &groups {
            SWEEP_SCRATCH.with(|cell| {
                let scratch = &mut *cell.borrow_mut();
                scratch.reset_features();
                for &i in members {
                    scratch.append_features(sweeps[i].node, sweeps[i].partitions, sweeps[i].meta);
                }
                let breakdowns = self.predictor.predict_scratch(signatures, scratch);
                let mut offset = 0;
                for &i in members {
                    let n = sweeps[i].partitions.len();
                    let costs: Vec<f64> = breakdowns[offset..offset + n]
                        .iter()
                        .map(|b| clamp_cost(b.combined))
                        .collect();
                    offset += n;
                    if let Some(cache) = &self.cache {
                        cache.insert(keys[i], costs.clone().into());
                    }
                    results[i] = Some(costs);
                }
            });
        }

        results
            .into_iter()
            .map(|r| r.expect("every sweep costed"))
            .collect()
    }

    fn partition_coefficients(&self, node: &PhysicalNode, meta: &JobMeta) -> Option<(f64, f64)> {
        // Section 5.3: express cost(P) ≈ θ_P / P + θ_C · P by probing the learned model
        // at two partition counts and solving the 2×2 system.  This keeps the number of
        // model look-ups per operator constant (2), which is what makes the analytical
        // strategy ~20× cheaper than sampling.
        let p1 = 1.0f64;
        let p2 = 256.0f64;
        let c1 = self.exclusive_cost(node, p1 as usize, meta);
        let c2 = self.exclusive_cost(node, p2 as usize, meta);
        // c1 = θp/p1 + θc·p1 ; c2 = θp/p2 + θc·p2
        let det = p2 / p1 - p1 / p2;
        if det.abs() < 1e-12 {
            return None;
        }
        let theta_c = (c2 / p1 - c1 / p2) / det;
        let theta_p = (c1 - theta_c * p1) * p1;
        Some((theta_p, theta_c))
    }

    fn name(&self) -> &str {
        "CLEO (learned)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{CleoPredictor, CombinedModel, ModelStore, OperatorSample};
    use crate::signature::ModelFamily;
    use cleo_engine::physical::{PhysicalNode, PhysicalOpKind};
    use cleo_engine::types::{ClusterId, DayIndex, JobId, OpStats};

    fn meta() -> JobMeta {
        JobMeta {
            id: JobId(1),
            cluster: ClusterId(0),
            template: None,
            name: "integ".into(),
            normalized_inputs: vec!["t".into()],
            params: vec![0.5, 0.5],
            day: DayIndex(0),
            recurring: true,
        }
    }

    fn exchange_node(rows: f64, partitions: usize) -> PhysicalNode {
        let mut child = PhysicalNode::new(PhysicalOpKind::Extract, "t", vec![]);
        child.est = OpStats {
            input_cardinality: rows,
            base_cardinality: rows,
            output_cardinality: rows,
            avg_row_bytes: 100.0,
        };
        child.partition_count = partitions;
        let mut n = PhysicalNode::new(PhysicalOpKind::Exchange, "k", vec![child]);
        n.est = OpStats {
            input_cardinality: rows,
            base_cardinality: rows,
            output_cardinality: rows,
            avg_row_bytes: 100.0,
        };
        n.partition_count = partitions;
        n
    }

    /// Train a tiny predictor whose exchange cost follows work/P + overhead·P.
    fn u_shape_predictor() -> CleoPredictor {
        let m = meta();
        let samples: Vec<OperatorSample> = (0..80)
            .map(|i| {
                let rows = 1e6 + 1e5 * (i % 10) as f64;
                let parts = 1 + (i % 16) * 16;
                let node = exchange_node(rows, parts);
                let latency = rows * 2e-6 / parts as f64 + 0.05 * parts as f64;
                OperatorSample::from_node(&node, latency, &m)
            })
            .collect();
        let stores = vec![
            ModelStore::train(ModelFamily::OpSubgraph, &samples, 5).unwrap(),
            ModelStore::train(ModelFamily::Operator, &samples, 5).unwrap(),
        ];
        CleoPredictor::new(stores, CombinedModel::default())
    }

    #[test]
    fn learned_cost_model_counts_invocations_and_predicts_positive() {
        let model = LearnedCostModel::new(u_shape_predictor());
        let node = exchange_node(1e6, 8);
        let c = model.exclusive_cost(&node, 8, &meta());
        assert!(c > 0.0);
        assert_eq!(model.invocation_count(), 1);
        model.reset_invocation_count();
        assert_eq!(model.invocation_count(), 0);
        assert_eq!(model.name(), "CLEO (learned)");
    }

    #[test]
    fn cached_predictions_are_bit_identical_to_uncached() {
        let predictor = std::sync::Arc::new(u_shape_predictor());
        let cached = LearnedCostModel::new(std::sync::Arc::clone(&predictor));
        let uncached = LearnedCostModel::without_cache(predictor);
        let m = meta();
        let candidates: Vec<usize> = (0..32).map(|i| 1 + 8 * i).collect();
        for rows in [1e5, 1e6, 3e6] {
            let node = exchange_node(rows, 8);
            for &p in &candidates {
                // Scalar path: first call misses, second call hits; all equal the
                // uncached model bit for bit.
                let cold = cached.exclusive_cost(&node, p, &m);
                let warm = cached.exclusive_cost(&node, p, &m);
                let reference = uncached.exclusive_cost(&node, p, &m);
                assert_eq!(cold.to_bits(), reference.to_bits());
                assert_eq!(warm.to_bits(), reference.to_bits());
            }
            // Batch path over a mix of cached and new partition counts.
            let batch = cached.exclusive_cost_batch(&node, &candidates, &m);
            let reference = uncached.exclusive_cost_batch(&node, &candidates, &m);
            for (a, b) in batch.iter().zip(&reference) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        let stats = cached.cache_stats();
        assert!(stats.hits > 0, "repeat costing must hit: {stats:?}");
        assert!(stats.misses > 0);
        // Per rows value: 32 scalar sweeps miss cold and hit warm, plus one
        // batch-sweep miss — 32 hits / 65 lookups.
        assert!(stats.hit_rate() > 0.4, "hit rate {}", stats.hit_rate());
        assert_eq!(uncached.cache_stats(), CacheStats::default());

        cached.clear_cache();
        assert_eq!(cached.cache_stats(), CacheStats::default());
    }

    #[test]
    fn cache_capacity_is_bounded() {
        let model = LearnedCostModel::with_cache_capacity(u_shape_predictor(), 64);
        let m = meta();
        // Far more distinct (rows, partitions) combinations than capacity: the
        // sharded reset must keep this from growing unboundedly, and every
        // prediction must stay correct (spot-checked against a fresh model).
        for i in 0..400 {
            let node = exchange_node(1e5 + 1e3 * i as f64, 4);
            let c = model.exclusive_cost(&node, 4 + (i % 13), &m);
            assert!(c > 0.0);
        }
        let stats = model.cache_stats();
        assert_eq!(stats.hits + stats.misses, 400);
    }

    #[test]
    fn coalesced_sweeps_are_bit_identical_to_per_sweep_batches() {
        let predictor = std::sync::Arc::new(u_shape_predictor());
        let coalesced = LearnedCostModel::new(std::sync::Arc::clone(&predictor));
        let reference = LearnedCostModel::without_cache(std::sync::Arc::clone(&predictor));
        let m = meta();

        // Several sweeps over distinct nodes (distinct statistics → several
        // rows per merged matrix) plus a repeated sweep (cache-hit path inside
        // the coalesced call).
        let nodes: Vec<PhysicalNode> = (0..5)
            .map(|i| exchange_node(1e5 * (i + 1) as f64, 8))
            .collect();
        let candidates: Vec<Vec<usize>> = (0..5).map(|i| vec![1 + i, 8, 64 + i]).collect();
        let build = |dup: bool| {
            let mut sweeps: Vec<SweepSpec> = nodes
                .iter()
                .zip(&candidates)
                .map(|(node, partitions)| SweepSpec {
                    node,
                    partitions,
                    meta: &m,
                })
                .collect();
            if dup {
                sweeps.push(SweepSpec {
                    node: &nodes[0],
                    partitions: &candidates[0],
                    meta: &m,
                });
            }
            sweeps
        };

        // Cold pass (every sweep misses → merged matrix) and a warm pass with
        // a duplicate (hits + a recompute) must both match the per-sweep path.
        for dup in [false, true] {
            let sweeps = build(dup);
            let merged = coalesced.exclusive_cost_sweeps(&sweeps);
            let individual = reference.exclusive_cost_sweeps(&sweeps);
            assert_eq!(merged.len(), individual.len());
            for (sweep, (a, b)) in sweeps.iter().zip(merged.iter().zip(&individual)) {
                assert_eq!(a.len(), sweep.partitions.len());
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.to_bits(), y.to_bits(), "node {:?}", sweep.node.kind);
                }
            }
        }
        // Invocation accounting matches the per-candidate convention.
        let total: usize = candidates.iter().map(Vec::len).sum();
        assert_eq!(
            coalesced.invocation_count(),
            2 * total + candidates[0].len()
        );
        let stats = coalesced.cache_stats();
        assert!(stats.misses >= 5, "cold sweeps must miss: {stats:?}");
        assert!(stats.hits >= 5, "warm sweeps must hit: {stats:?}");
    }

    #[test]
    fn partition_coefficients_recover_u_shape() {
        let model = LearnedCostModel::new(u_shape_predictor());
        let node = exchange_node(1e6, 8);
        let (theta_p, theta_c) = model.partition_coefficients(&node, &meta()).unwrap();
        // Positive work term and positive per-partition term.
        assert!(theta_p > 0.0, "theta_p = {theta_p}");
        assert!(theta_c > 0.0, "theta_c = {theta_c}");
        // The implied optimum should be in a plausible mid range, not 1 or max.
        let optimum = (theta_p / theta_c).sqrt();
        assert!(optimum > 2.0 && optimum < 2500.0, "optimum {optimum}");
    }

    #[test]
    fn a_poisoned_cache_stripe_keeps_serving() {
        let cache = PredictionCache::new(64);
        let key = 42u64;
        cache.insert(key, Arc::from(vec![1.0, 2.0]));
        // A thread panics while holding the key's stripe lock.
        let poisoner = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _stripe = cache.shard(key).lock();
                    panic!("poison the cache stripe");
                })
                .join()
        });
        assert!(poisoner.is_err());
        assert!(cache.shard(key).is_poisoned());
        // Entries survive, lookups and inserts keep working.
        assert_eq!(cache.get(key).as_deref(), Some(&[1.0, 2.0][..]));
        cache.insert(key, Arc::from(vec![3.0]));
        assert_eq!(cache.get(key).as_deref(), Some(&[3.0][..]));
        assert_eq!(cache.get(key + 1), None);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
    }
}

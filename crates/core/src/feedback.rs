//! The guarded-retrain cores of Cleo's continuous deployment story.
//!
//! Section 5.1 describes a *continuous* cycle — instrument runs, train on a sliding
//! telemetry window, feed the models back to the optimizer — where the one-shot
//! helpers of [`crate::pipeline`] only cover a single turn.  The cycle is driven by
//! [`crate::sharding::ShardedFeedbackLoop`]; the paper's single-cluster loop is that
//! fleet with one shard.  This module holds what every shard round shares:
//!
//! 1. **Window** — telemetry accumulates in a bounded sliding window
//!    ([`WindowEviction`]: job-count FIFO or trailing-days retention), so training
//!    cost and drift sensitivity stay constant as the deployment ages.
//! 2. **Retrain** — a full epoch retrains the per-signature models over the window
//!    with the parallel [`CleoTrainer`], under an epoch-derived seed that keeps the
//!    loop bit-deterministic across thread counts.
//! 3. **Guarded publish** — the candidate is evaluated against the *incumbent* on a
//!    deterministic holdout slice of the window; it is published to the
//!    [`ModelRegistry`] only when it does not regress, otherwise the previous
//!    version keeps serving (and the rejection is reported).
//! 4. **Delta rounds** — between epochs, only the dirty signatures are refit and
//!    published as a copy-on-write delta over the incumbent.

use std::sync::Arc;

use cleo_common::Result;
use cleo_engine::telemetry::{JobTelemetry, TelemetryLog};
use cleo_optimizer::{CostModel, OptimizerConfig};

use crate::integration::LearnedCostModel;
use crate::models::WarmStartStats;
use crate::pipeline::evaluate_cost_model_jobs;
use crate::registry::{HoldoutMetrics, ModelRegistry};
use crate::trainer::{CleoTrainer, TrainerConfig};

/// How the sliding telemetry window evicts old records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowEviction {
    /// Keep at most this many jobs, evicting the oldest first.
    JobCount(usize),
    /// Keep only the trailing N days of telemetry.
    RecentDays(u32),
}

/// Feedback-loop configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeedbackConfig {
    /// Sliding-window bound and eviction policy.
    pub eviction: WindowEviction,
    /// Trainer hyper-parameters; the seed is re-derived per epoch
    /// ([`TrainerConfig::for_epoch`]).
    pub trainer: TrainerConfig,
    /// Fraction of window jobs held out from training and used for the publish
    /// guard (clamped to at least one job).
    pub holdout_fraction: f64,
    /// Minimum window jobs before a retrain is attempted.
    pub min_training_jobs: usize,
    /// Publish guard: how much correlation loss vs. the incumbent is tolerated.
    pub correlation_tolerance: f64,
    /// Publish guard: how many percentage points of median-error growth vs. the
    /// incumbent are tolerated.
    pub error_tolerance_pct: f64,
    /// Optimizer configuration used for serving.
    pub optimizer: OptimizerConfig,
    /// OS threads used to optimize an epoch's jobs (0 = all cores).  Serving is
    /// deterministic regardless: plans depend only on the model version.
    pub serving_threads: usize,
    /// Dirty-signature warm start: skip refitting signatures whose window
    /// sample set is unchanged since the incumbent version and seed changed
    /// signatures' elastic-net fits from the incumbent's weights (see
    /// [`crate::models::ModelStore::train_all_seeded`]).
    pub warm_start: bool,
    /// Hot-signature threshold of sub-epoch delta rounds: a dirty signature is
    /// refit (and shipped in the delta) only when at least this fraction of
    /// its window samples is new since its serving fit; below it, the refit is
    /// deferred to the next full epoch ([`crate::models::ModelStore::train_dirty`]).
    /// 0.0 ships every dirty signature.  Full epochs ignore this.
    pub delta_min_dirty_share: f64,
}

impl Default for FeedbackConfig {
    fn default() -> Self {
        FeedbackConfig {
            eviction: WindowEviction::JobCount(512),
            trainer: TrainerConfig::default(),
            holdout_fraction: 0.2,
            min_training_jobs: 12,
            correlation_tolerance: 0.02,
            error_tolerance_pct: 2.0,
            optimizer: OptimizerConfig::resource_aware(),
            serving_threads: 0,
            warm_start: true,
            delta_min_dirty_share: 0.1,
        }
    }
}

impl FeedbackConfig {
    /// The holdout stride the publish guard uses: every `stride`-th window job
    /// (by stable window order) is held out from training and scored instead.
    pub fn holdout_stride(&self) -> usize {
        (1.0 / self.holdout_fraction.clamp(0.05, 0.5)).round() as usize
    }
}

/// What a sub-epoch delta round decided.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeltaDecision {
    /// The delta was applied copy-on-write over the incumbent and published.
    Published {
        /// The delta-published registry version.
        version: u64,
        /// The incumbent version the delta was applied over.
        base_version: u64,
        /// Per-signature models the delta shipped (after the guard).
        changed_signatures: usize,
    },
    /// The registry is cold (or fully rolled back): deltas apply over an
    /// incumbent, so there is nothing to delta against yet.
    SkippedNoBase,
    /// No signature's window sample multiset moved since the incumbent (or
    /// every dirty refit regressed and was dropped): nothing to publish.
    SkippedNothingDirty,
    /// The window held too few jobs to retrain anything.
    SkippedTooFewJobs,
}

/// Outcome of one sub-epoch delta round: the dirty-set accounting and the
/// publish decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaOutcome {
    /// The decision taken.
    pub decision: DeltaDecision,
    /// Signatures whose window sample multiset was unchanged (skipped —
    /// neither refit nor shipped).
    pub unchanged_signatures: usize,
    /// Signatures found dirty and refit this round (before the guard).
    pub dirty_signatures: usize,
    /// Dirty signatures whose new-evidence share fell below the hot-signature
    /// threshold ([`FeedbackConfig::delta_min_dirty_share`]): not refit, the
    /// incumbent keeps serving them until the next full epoch.
    pub deferred_signatures: usize,
    /// Dirty refits that regressed on their per-signature holdout slice and
    /// were dropped from the delta (the incumbent model keeps serving them).
    pub dropped_regressions: usize,
    /// Holdout metrics of the merged (incumbent ⊕ delta) candidate, when a
    /// delta was published.
    pub candidate: Option<HoldoutMetrics>,
}

impl DeltaOutcome {
    fn skipped(decision: DeltaDecision) -> Self {
        DeltaOutcome {
            decision,
            unchanged_signatures: 0,
            dirty_signatures: 0,
            deferred_signatures: 0,
            dropped_regressions: 0,
            candidate: None,
        }
    }
}

/// What happened to the candidate model of one epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PublishDecision {
    /// The candidate did not regress and became the new current version.
    Published {
        /// The newly published registry version.
        version: u64,
    },
    /// The candidate regressed on the holdout; the previous version keeps serving.
    RejectedRegression,
    /// The window held too few jobs to train (no candidate was produced).
    SkippedTooFewJobs,
}

/// Retraining outcome of one epoch: the guard's inputs and its decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetrainOutcome {
    /// The decision taken.
    pub decision: PublishDecision,
    /// Candidate holdout metrics (absent when training was skipped).
    pub candidate: Option<HoldoutMetrics>,
    /// Incumbent metrics over the same holdout (absent when training was skipped).
    pub incumbent: Option<HoldoutMetrics>,
    /// Dirty-signature warm-start counters of the shipped stores (all zero when
    /// training was skipped or [`FeedbackConfig::warm_start`] is off and no
    /// fits ran; cold-only counts when warm start is disabled).
    pub warm: WarmStartStats,
}

/// Deterministic holdout: every k-th window job (by stable window order) is
/// held out, the rest train.  The split depends only on the window contents —
/// never on thread count — and borrows: nothing in the window is cloned.
/// `None` when either side would be empty.
fn split_holdout<'a>(
    window: &'a TelemetryLog,
    config: &FeedbackConfig,
) -> Option<(Vec<&'a JobTelemetry>, Vec<&'a JobTelemetry>)> {
    let stride = config.holdout_stride();
    let (holdout, train): (Vec<_>, Vec<_>) = window
        .jobs()
        .iter()
        .enumerate()
        .partition(|(i, _)| i % stride == 0);
    let holdout: Vec<&JobTelemetry> = holdout.into_iter().map(|(_, j)| j).collect();
    let train: Vec<&JobTelemetry> = train.into_iter().map(|(_, j)| j).collect();
    (!holdout.is_empty() && !train.is_empty()).then_some((holdout, train))
}

/// One guarded retrain round over a telemetry window, publishing into
/// `registry` on success: the epoch core of every shard round of
/// [`crate::sharding::ShardedFeedbackLoop::run_epoch`].  The
/// incumbent is the registry's current version (or `fallback` while the
/// registry is cold); with [`FeedbackConfig::warm_start`] the shipped stores
/// reuse or warm-start from the incumbent's per-signature models.
pub(crate) fn retrain_window(
    window: &TelemetryLog,
    config: &FeedbackConfig,
    epoch: u32,
    registry: &ModelRegistry,
    fallback: &Arc<dyn CostModel>,
) -> Result<RetrainOutcome> {
    let skipped = RetrainOutcome {
        decision: PublishDecision::SkippedTooFewJobs,
        candidate: None,
        incumbent: None,
        warm: WarmStartStats::default(),
    };
    if window.len() < config.min_training_jobs.max(2) {
        return Ok(skipped);
    }

    let Some((holdout, train)) = split_holdout(window, config) else {
        return Ok(skipped);
    };

    // The incumbent (serving chain) is the guard's baseline and the reuse
    // source; the warm-start *seed* comes from the last full-epoch basis, so a
    // full epoch's fits are bit-independent of any sub-epoch deltas published
    // since that basis (the delta-equivalence property).  With no deltas the
    // basis IS the incumbent.  Keeping the snapshot `Arc`s alive pins all of
    // it for the whole round.
    let incumbent_snapshot = registry.current();
    let basis_snapshot = registry.current_full_basis();
    let incumbent_model: Arc<dyn CostModel> = match &incumbent_snapshot {
        Some(s) => Arc::clone(s.cost_model()) as Arc<dyn CostModel>,
        None => Arc::clone(fallback),
    };
    let chain_predictor = incumbent_snapshot
        .as_ref()
        .filter(|_| config.warm_start)
        .map(|s| s.predictor());
    let basis_predictor = basis_snapshot
        .as_ref()
        .filter(|_| config.warm_start)
        .map(|s| s.predictor());

    let trainer = CleoTrainer::new(config.trainer.for_epoch(epoch));
    let samples = CleoTrainer::collect_samples_from(train.iter().copied());
    let (predictor, warm) =
        trainer.train_from_samples_seeded(samples, chain_predictor, basis_predictor)?;
    let predictor = Arc::new(predictor);

    // Guard: candidate and incumbent are measured by the same instrument (the
    // CostModel seam over the holdout jobs), so the comparison is apples to
    // apples even when the incumbent is the hand-written fallback.
    let candidate_model = LearnedCostModel::without_cache(Arc::clone(&predictor));
    let candidate = holdout_metrics(&candidate_model, &holdout);
    let incumbent = holdout_metrics(incumbent_model.as_ref(), &holdout);

    if candidate.regresses_from(
        &incumbent,
        config.correlation_tolerance,
        config.error_tolerance_pct,
    ) {
        return Ok(RetrainOutcome {
            decision: PublishDecision::RejectedRegression,
            candidate: Some(candidate),
            incumbent: Some(incumbent),
            warm,
        });
    }

    let snapshot = registry.publish(predictor, epoch, candidate);
    Ok(RetrainOutcome {
        decision: PublishDecision::Published {
            version: snapshot.version(),
        },
        candidate: Some(candidate),
        incumbent: Some(incumbent),
        warm,
    })
}

/// One sub-epoch delta round over a telemetry window, publishing a
/// copy-on-write delta into `registry`: the core of every shard round of
/// [`crate::sharding::ShardedFeedbackLoop::run_delta_round`].
///
/// The round refits only signatures whose window sample multiset moved since
/// the incumbent ([`ModelStore::train_dirty`]'s dirty predicate), seeds every
/// refit from the last **full-epoch basis** (so the next full epoch is
/// bit-independent of this delta), guards each refit with the existing
/// per-signature holdout predicate — a regressing signature is dropped from
/// the delta rather than vetoing it wholesale — and publishes the survivors
/// via [`ModelRegistry::publish_delta`].
pub(crate) fn delta_round_window(
    window: &TelemetryLog,
    config: &FeedbackConfig,
    epoch: u32,
    registry: &ModelRegistry,
) -> Result<DeltaOutcome> {
    use crate::models::{ModelStore, OperatorSample};
    use crate::registry::ModelDelta;
    use crate::signature::ModelFamily;

    // Deltas apply over an incumbent; a cold registry has nothing to patch.
    let Some(incumbent) = registry.current() else {
        return Ok(DeltaOutcome::skipped(DeltaDecision::SkippedNoBase));
    };
    if window.len() < config.min_training_jobs.max(2) {
        return Ok(DeltaOutcome::skipped(DeltaDecision::SkippedTooFewJobs));
    }

    // The same deterministic holdout split as the full epoch, so the guard
    // judges candidates on jobs their fits never saw.
    let Some((holdout, train)) = split_holdout(window, config) else {
        return Ok(DeltaOutcome::skipped(DeltaDecision::SkippedTooFewJobs));
    };

    let basis = registry
        .current_full_basis()
        .expect("an incumbent implies a full basis on its lineage");
    let families = ModelFamily::all();
    let chain_stores: Vec<Option<&ModelStore>> = families
        .iter()
        .map(|&f| incumbent.predictor().store(f))
        .collect();
    let basis_stores: Vec<Option<&ModelStore>> = families
        .iter()
        .map(|&f| {
            if config.warm_start {
                basis.predictor().store(f)
            } else {
                None
            }
        })
        .collect();

    // Refit the dirty set only.  No shuffle, no meta retrain: groups are
    // canonically ordered, so each fit is the bit-exact model the next full
    // epoch would produce for the same group.
    let samples = CleoTrainer::collect_samples_from(train.iter().copied());
    let (mut payload, stats) = ModelStore::train_dirty(
        &families,
        &samples,
        config.trainer.min_samples_per_model,
        config.trainer.effective_threads(),
        &chain_stores,
        &basis_stores,
        config.delta_min_dirty_share,
    )?;
    let dirty_signatures = stats.warm_fits + stats.cold_fits;
    if dirty_signatures == 0 {
        return Ok(DeltaOutcome {
            decision: DeltaDecision::SkippedNothingDirty,
            unchanged_signatures: stats.reused,
            dirty_signatures: 0,
            deferred_signatures: stats.deferred,
            dropped_regressions: 0,
            candidate: None,
        });
    }

    // Per-signature guard: judge every refit against the incumbent's model for
    // the same signature on the signature's own holdout samples, with the same
    // regression predicate the epoch-level guard uses.  A regressing signature
    // is dropped from the delta; the rest still ship.  Holdout samples are
    // grouped by family signature once (not rescanned per dirty signature),
    // and the surviving refits' holdout pairs double as the published
    // snapshot's metrics — a delta's holdout record describes what changed.
    let holdout_samples: Vec<OperatorSample> =
        CleoTrainer::collect_samples_from(holdout.iter().copied());
    let mut holdout_by_sig: Vec<std::collections::HashMap<u64, Vec<&OperatorSample>>> =
        families.iter().map(|_| Default::default()).collect();
    for s in &holdout_samples {
        for (family_index, &family) in families.iter().enumerate() {
            holdout_by_sig[family_index]
                .entry(s.signatures.for_family(family))
                .or_default()
                .push(s);
        }
    }
    let mut dropped = 0usize;
    let mut candidate_pairs: Vec<(f64, f64)> = Vec::new();
    for (family_index, _) in families.iter().enumerate() {
        let candidate_store = &payload[family_index];
        let chain = chain_stores[family_index];
        let mut regressing: Vec<u64> = Vec::new();
        for signature in candidate_store.signatures() {
            let slice = match holdout_by_sig[family_index].get(&signature) {
                Some(slice) if !slice.is_empty() => slice.as_slice(),
                _ => continue, // no holdout evidence: keep the fresher fit
            };
            let candidate = signature_holdout_metrics(candidate_store, signature, slice);
            // A signature the incumbent does not cover has nothing to regress
            // from; covered ones are judged with the epoch guard's predicate.
            if let Some(chain) = chain.filter(|c| c.covers(signature)) {
                let incumbent_metrics = signature_holdout_metrics(chain, signature, slice);
                if candidate.regresses_from(
                    &incumbent_metrics,
                    config.correlation_tolerance,
                    config.error_tolerance_pct,
                ) {
                    regressing.push(signature);
                    continue;
                }
            }
            for s in slice {
                if let Some(p) = candidate_store.predict(signature, &s.features) {
                    candidate_pairs.push((p, s.exclusive_seconds));
                }
            }
        }
        if !regressing.is_empty() {
            dropped += regressing.len();
            payload[family_index].retain(|sig| !regressing.contains(&sig));
        }
    }

    let mut changed: Vec<(ModelFamily, u64, u64)> = Vec::new();
    for (family_index, &family) in families.iter().enumerate() {
        for signature in payload[family_index].signatures() {
            let fingerprint = payload[family_index]
                .fingerprint_of(signature)
                .expect("signature enumerated from this store");
            changed.push((family, signature, fingerprint));
        }
    }
    if changed.is_empty() {
        return Ok(DeltaOutcome {
            decision: DeltaDecision::SkippedNothingDirty,
            unchanged_signatures: stats.reused,
            dirty_signatures,
            deferred_signatures: stats.deferred,
            dropped_regressions: dropped,
            candidate: None,
        });
    }

    let delta = ModelDelta {
        base_version: incumbent.version(),
        epoch,
        payload,
        changed,
        dropped_regressions: dropped,
    };
    // The published snapshot's holdout metrics describe the delta's changed
    // signatures over their holdout slice (unchanged signatures are exactly
    // the incumbent's, whose metrics its own snapshot already records).  With
    // no holdout evidence for any survivor, the incumbent's record carries
    // over unchanged.
    let candidate = if candidate_pairs.is_empty() {
        *incumbent.holdout()
    } else {
        use cleo_common::stats;
        let preds: Vec<f64> = candidate_pairs.iter().map(|p| p.0).collect();
        let actuals: Vec<f64> = candidate_pairs.iter().map(|p| p.1).collect();
        HoldoutMetrics {
            correlation: stats::pearson(&preds, &actuals),
            median_error_pct: stats::median_error_pct(&preds, &actuals),
            sample_count: preds.len(),
        }
    };
    let changed_signatures = delta.changed_signatures();
    let snapshot = registry.publish_delta(&delta, candidate)?;
    Ok(DeltaOutcome {
        decision: DeltaDecision::Published {
            version: snapshot.version(),
            base_version: delta.base_version,
            changed_signatures,
        },
        unchanged_signatures: stats.reused,
        dirty_signatures,
        deferred_signatures: stats.deferred,
        dropped_regressions: dropped,
        candidate: Some(candidate),
    })
}

/// [`HoldoutMetrics`] of one family store's model for one signature over that
/// signature's holdout samples (the per-signature guard's instrument).
fn signature_holdout_metrics(
    store: &crate::models::ModelStore,
    signature: u64,
    samples: &[&crate::models::OperatorSample],
) -> HoldoutMetrics {
    use cleo_common::stats;
    let mut preds = Vec::with_capacity(samples.len());
    let mut actuals = Vec::with_capacity(samples.len());
    for s in samples {
        if let Some(p) = store.predict(signature, &s.features) {
            preds.push(p);
            actuals.push(s.exclusive_seconds);
        }
    }
    HoldoutMetrics {
        correlation: stats::pearson(&preds, &actuals),
        median_error_pct: stats::median_error_pct(&preds, &actuals),
        sample_count: preds.len(),
    }
}

/// Evaluate a cost model over the borrowed holdout slice in the guard's
/// vocabulary.
fn holdout_metrics(model: &dyn CostModel, holdout: &[&JobTelemetry]) -> HoldoutMetrics {
    let eval = evaluate_cost_model_jobs(model, holdout.iter().copied());
    HoldoutMetrics {
        correlation: eval.correlation,
        median_error_pct: eval.median_error_pct,
        sample_count: eval.pairs.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharding::{
        ClusterRouter, ShardedEpochReport, ShardedFeedbackConfig, ShardedFeedbackLoop,
        ShardedRegistry,
    };
    use cleo_engine::exec::{Simulator, SimulatorConfig};
    use cleo_engine::workload::generator::{generate_cluster_workload, ClusterConfig};
    use cleo_engine::workload::JobSpec;
    use cleo_engine::ClusterId;
    use cleo_optimizer::HeuristicCostModel;

    /// The single-cluster loop of Section 5.1: a fleet with one shard.
    fn one_shard_loop(config: FeedbackConfig) -> ShardedFeedbackLoop {
        let registry = Arc::new(ShardedRegistry::new([ClusterId(0)]));
        let router = Arc::new(ClusterRouter::with_uniform_similarity(
            registry,
            Arc::new(HeuristicCostModel::default_model()),
        ));
        ShardedFeedbackLoop::new(
            ShardedFeedbackConfig {
                shard: config,
                ..ShardedFeedbackConfig::default()
            },
            Simulator::new(SimulatorConfig::default()),
            router,
        )
    }

    fn loop_with_small_window() -> (ShardedFeedbackLoop, Vec<JobSpec>) {
        let workload = generate_cluster_workload(&ClusterConfig::small(ClusterId(0)), 2);
        let config = FeedbackConfig {
            eviction: WindowEviction::JobCount(64),
            serving_threads: 2,
            ..FeedbackConfig::default()
        };
        (one_shard_loop(config), workload.jobs)
    }

    fn retrain(report: &ShardedEpochReport) -> RetrainOutcome {
        report.shards[0].retrain
    }

    #[test]
    fn epochs_publish_and_stamp_provenance() {
        let (mut fl, jobs) = loop_with_small_window();
        let refs: Vec<&JobSpec> = jobs.iter().take(40).collect();

        let first = fl.run_epoch(&refs).unwrap();
        assert_eq!(first.epoch, 1);
        assert_eq!(
            first.routing.fallback_hits, 40,
            "epoch 1 serves the fallback"
        );
        assert_eq!(first.jobs_run, 40);
        assert!(matches!(
            retrain(&first).decision,
            PublishDecision::Published { version: 1 }
        ));

        let second = fl.run_epoch(&refs).unwrap();
        assert_eq!(
            second.routing.own_hits, 40,
            "epoch 2 serves the learned model"
        );
        // Window respects the job-count bound and carries provenance stamps.
        let window = fl.window(ClusterId(0)).unwrap();
        assert!(second.shards[0].window_jobs <= 64);
        assert!(window
            .jobs()
            .iter()
            .any(|j| j.provenance.model_version == 1 && j.provenance.epoch == 2));
        assert!(fl.epoch() == 2);
        assert!(fl.registry().total_version_count() >= 1);
    }

    #[test]
    fn second_epoch_warm_starts_from_the_incumbent() {
        let (mut fl, jobs) = loop_with_small_window();
        let refs: Vec<&JobSpec> = jobs.iter().take(40).collect();

        let first = retrain(&fl.run_epoch(&refs).unwrap());
        assert_eq!(
            first.warm.reused + first.warm.warm_fits,
            0,
            "no incumbent exists at epoch 1"
        );
        assert!(first.warm.cold_fits > 0);

        let second = retrain(&fl.run_epoch(&refs).unwrap());
        assert!(
            second.warm.reused + second.warm.warm_fits > 0,
            "epoch 2 should reuse or warm-start from v1: {:?}",
            second.warm
        );

        // With warm start disabled every fit is cold, every epoch.
        let workload = generate_cluster_workload(&ClusterConfig::small(ClusterId(0)), 2);
        let mut cold_loop = one_shard_loop(FeedbackConfig {
            eviction: WindowEviction::JobCount(64),
            warm_start: false,
            ..FeedbackConfig::default()
        });
        let cold_refs: Vec<&JobSpec> = workload.jobs.iter().take(40).collect();
        cold_loop.run_epoch(&cold_refs).unwrap();
        let report = retrain(&cold_loop.run_epoch(&cold_refs).unwrap());
        assert_eq!(report.warm.reused, 0);
        assert_eq!(report.warm.warm_fits, 0);
        assert!(report.warm.cold_fits > 0);
    }

    #[test]
    fn too_small_window_skips_training() {
        let (mut fl, jobs) = loop_with_small_window();
        let refs: Vec<&JobSpec> = jobs.iter().take(3).collect();
        let report = fl.run_epoch(&refs).unwrap();
        assert_eq!(
            retrain(&report).decision,
            PublishDecision::SkippedTooFewJobs
        );
        assert_eq!(fl.registry().shard_version(ClusterId(0)), 0);
    }

    #[test]
    fn observe_applies_eviction_policy() {
        let (mut fl, jobs) = loop_with_small_window();
        let refs: Vec<&JobSpec> = jobs.iter().take(10).collect();
        fl.run_epoch(&refs).unwrap();
        let window = fl.window(ClusterId(0)).unwrap();
        let window_before = window.len();
        // Re-observing the same telemetry pushes the window over its bound only
        // once it exceeds 64 jobs.
        let copy = window.clone();
        let report = fl.observe(copy).unwrap();
        assert_eq!(report.evicted_jobs, (window_before * 2).saturating_sub(64));
    }
}

//! The async serving front end: admission, backpressure, and cross-job batch
//! coalescing in front of the shard worker pools.
//!
//! The sharded tier of [`crate::sharding`] made *where* a job is served
//! contention-free; this module makes *how* requests reach the workers
//! realistic.  An open-loop arrival process (requests arrive on their own
//! schedule, whether or not the system keeps up — see [`open_loop_arrivals`])
//! feeds a [`FrontDoor`]: each request is admitted against a bounded per-shard
//! queue ([`FrontDoorConfig::max_queue_depth`]), shed or flagged as delayed
//! past the bound ([`OverloadPolicy`]), and staged for **cross-job batch
//! coalescing** — concurrent requests routed to the same shard are merged into
//! one batch and executed by [`serve_batch`], which runs every job's deferred
//! final costing as a *single* merged [`cleo_optimizer::SweepSpec`] pass per
//! served model, so a burst of J concurrent jobs sweeping the same recurring
//! operators pays one feature-matrix pass instead of J.
//!
//! Everything stays bit-deterministic: batches produce results identical to
//! optimizing each job alone (pinned by the serving tests), and the arrival
//! schedule is a pure function of its seed.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cleo_common::obs::{self, Obs, TraceEvent};
use cleo_common::rng::DetRng;
use cleo_common::{CleoError, Result};
use cleo_engine::workload::JobSpec;
use cleo_optimizer::{
    CostModel, OptimizedPlan, Optimizer, SharedOptimizer, SnapshotCache, SweepSpec,
};

use crate::sharding::{ServingPool, Ticket};

/// Optimize a batch of jobs against one [`SharedOptimizer`], coalescing the
/// deferred final plan costing of all jobs that were served by the **same
/// model snapshot** into one merged [`CostModel::exclusive_cost_sweeps`] call.
///
/// Per job this runs enumeration + partition optimization exactly as
/// [`SharedOptimizer::optimize`] would (through the worker-local `cache`, so
/// an unchanged route takes no registry lock); what is coalesced is the final
/// whole-plan costing pass, which [`Optimizer::optimize_deferred`] leaves
/// pending.  Results are returned in job order and are bit-identical to
/// optimizing each job alone: sweeps are appended in each plan's operator
/// order and summed per plan in that same order, and prediction itself is
/// row-independent.
pub fn serve_batch(
    shared: &SharedOptimizer,
    jobs: &[Arc<JobSpec>],
    cache: &mut SnapshotCache,
) -> Vec<Result<OptimizedPlan>> {
    struct Staged {
        optimized: OptimizedPlan,
        final_cost_pending: bool,
        model: Arc<dyn CostModel>,
    }

    let config = *shared.config();
    let provider = shared.provider();
    let mut staged: Vec<Result<Staged>> = Vec::with_capacity(jobs.len());
    for job in jobs {
        let served = cache.get(provider.as_ref(), &job.meta).clone();
        let result = Optimizer::new(served.model.as_ref(), config)
            .optimize_deferred(job)
            .map(|(mut optimized, final_cost_pending)| {
                optimized.stats.model_version = served.version;
                optimized.stats.model_cluster = served.cluster;
                optimized.stats.model_delta_base = served.delta_base;
                Staged {
                    optimized,
                    final_cost_pending,
                    model: served.model,
                }
            });
        staged.push(result);
    }

    // Group the plans still awaiting their final costing by served-model
    // identity (same `Arc` allocation = same snapshot), in first-seen order so
    // the grouping is a pure function of the job order.
    let mut groups: Vec<(*const (), Vec<usize>)> = Vec::new();
    for (i, s) in staged.iter().enumerate() {
        if let Ok(s) = s {
            if s.final_cost_pending {
                let ptr = Arc::as_ptr(&s.model) as *const ();
                match groups.iter_mut().find(|(p, _)| *p == ptr) {
                    Some((_, members)) => members.push(i),
                    None => groups.push((ptr, vec![i])),
                }
            }
        }
    }

    for (_, members) in &groups {
        let model = match &staged[members[0]] {
            Ok(s) => Arc::clone(&s.model),
            Err(_) => unreachable!("groups only hold Ok entries"),
        };
        // Arena of candidate partition counts: every sweep is the plan
        // operator at its chosen count, and the slices must outlive the merged
        // call below.
        let mut arena: Vec<usize> = Vec::new();
        for &i in members.iter() {
            if let Ok(s) = &staged[i] {
                for op in s.optimized.plan.operators() {
                    arena.push(op.partition_count);
                }
            }
        }
        let mut sweeps: Vec<SweepSpec> = Vec::with_capacity(arena.len());
        let mut k = 0;
        for &i in members.iter() {
            if let Ok(s) = &staged[i] {
                for op in s.optimized.plan.operators() {
                    sweeps.push(SweepSpec {
                        node: op,
                        partitions: &arena[k..k + 1],
                        meta: &s.optimized.plan.meta,
                    });
                    k += 1;
                }
            }
        }
        let costs = model.exclusive_cost_sweeps(&sweeps);
        drop(sweeps);

        // Scatter: each plan's estimated cost is the sum of its operators'
        // costs in operator order — the exact fold `total_plan_cost` performs.
        let mut offset = 0;
        for &i in members.iter() {
            if let Ok(s) = staged[i].as_mut() {
                let ops = s.optimized.plan.op_count();
                s.optimized.estimated_cost = costs[offset..offset + ops].iter().map(|c| c[0]).sum();
                s.optimized.stats.model_invocations += ops;
                s.final_cost_pending = false;
                offset += ops;
            }
        }
    }

    staged.into_iter().map(|r| r.map(|s| s.optimized)).collect()
}

/// What the front door does with a request that arrives past the admission
/// bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Drop the request (counted in [`FrontDoorStats::shed`]); the caller gets
    /// [`Admission::Shed`] and no result.
    Shed,
    /// Queue the request anyway, flagging it as delayed (counted in
    /// [`FrontDoorStats::delayed`]) — latency absorbs the backlog.
    Delay,
}

/// Admission and coalescing knobs of a [`FrontDoor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontDoorConfig {
    /// Per-shard admission bound: jobs queued at the pool plus jobs staged for
    /// coalescing.  A request arriving at a shard at or past this depth is
    /// shed or delayed per `policy`.
    pub max_queue_depth: usize,
    /// What to do past the bound.
    pub policy: OverloadPolicy,
    /// Coalescing flush threshold: a shard's staged batch is submitted to the
    /// pool once it reaches this many jobs (1 = no coalescing).
    pub coalesce_max: usize,
    /// Per-request deadline, measured from the request's offer.  A request
    /// whose batch has not completed by its deadline resolves as expired
    /// ([`FrontDoorStats::expired`]) instead of blocking [`FrontDoor::drain`]
    /// forever.  `None` (the default) waits indefinitely — bit-identical to
    /// the pre-deadline front door.
    pub deadline: Option<Duration>,
    /// Bounded retries for requests whose job came back with an error: the
    /// request is resubmitted as a fresh single-job batch up to this many
    /// times (within its deadline), then resolves with the error
    /// ([`FrontDoorStats::errored`]).  0 (the default) never retries.
    pub max_retries: u32,
    /// Backoff slept before retry `k` (scaled linearly: `k * retry_backoff`).
    pub retry_backoff: Duration,
}

impl Default for FrontDoorConfig {
    fn default() -> Self {
        FrontDoorConfig {
            max_queue_depth: 64,
            policy: OverloadPolicy::Shed,
            coalesce_max: 8,
            deadline: None,
            max_retries: 0,
            retry_backoff: Duration::ZERO,
        }
    }
}

/// The front door's verdict on one offered request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Queued below the bound.
    Admitted,
    /// Queued past the bound under [`OverloadPolicy::Delay`].
    Delayed,
    /// Dropped past the bound under [`OverloadPolicy::Shed`].
    Shed,
}

/// Cumulative admission counters of a [`FrontDoor`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontDoorStats {
    /// Requests queued below the admission bound.
    pub admitted: u64,
    /// Requests queued past the bound (delay policy).
    pub delayed: u64,
    /// Requests dropped past the bound (shed policy).
    pub shed: u64,
    /// Coalesced batches submitted to the pool (including retry resubmits).
    pub batches: u64,
    /// Retry resubmits of errored requests (events, not terminal outcomes —
    /// a retried request still ends completed, expired, or errored).
    pub retried: u64,
    /// Requests that expired at their deadline before their batch completed.
    pub expired: u64,
    /// Requests that resolved with a job error after exhausting retries.
    pub errored: u64,
}

impl FrontDoorStats {
    /// Requests offered in total.
    pub fn offered(&self) -> u64 {
        self.admitted + self.delayed + self.shed
    }

    /// Fraction of offered requests dropped (0.0 when none were offered).
    pub fn shed_rate(&self) -> f64 {
        let offered = self.offered();
        if offered == 0 {
            0.0
        } else {
            self.shed as f64 / offered as f64
        }
    }
}

/// One request's outcome after [`FrontDoor::drain`].
pub struct CompletedRequest {
    /// The request's arrival sequence number (assigned by offer order).
    pub request: usize,
    /// When the request's batch finished executing (or when it expired).
    pub completed_at: Instant,
    /// The optimized plan, or the terminal error: the per-job optimization
    /// error (retries exhausted) or [`CleoError::Unavailable`] for an expired
    /// deadline / dead worker.
    pub result: Result<OptimizedPlan>,
}

/// Everything [`FrontDoor::drain_report`] accounts for: the completed
/// requests plus the final counters (which retries and expiries mutate during
/// the drain itself).  The zero-loss invariant — every offered request is
/// exactly one of shed, completed-ok, expired, or errored — is checkable from
/// these fields alone and pinned by the chaos tests.
pub struct DrainReport {
    /// All non-shed requests, sorted by arrival sequence.
    pub completed: Vec<CompletedRequest>,
    /// Final admission/outcome counters.
    pub stats: FrontDoorStats,
    /// Per-shard queue-depth high-water marks observed at admission (pool
    /// backlog plus staged requests), aligned with the pool's shards.  Also
    /// published as `front_door.shard{N}.queue_high_water` gauges when the
    /// pool carries an [`Obs`] registry.
    pub queue_high_water: Vec<usize>,
}

/// One admitted request riding a pool ticket.
struct InFlightRequest {
    /// Arrival sequence number.
    request: usize,
    /// The job, kept for deadline-bounded retry resubmission.
    job: Arc<JobSpec>,
    /// Executions so far (0 = first).
    attempt: u32,
    /// When the request was offered — deadlines measure from here.
    offered_at: Instant,
}

/// The single-driver serving front end: an open-loop request loop calls
/// [`FrontDoor::offer`] per arriving request; the front door admits against
/// bounded per-shard queues, coalesces same-shard requests into batches, and
/// submits them to the [`ServingPool`].  `&mut self` throughout — one driver
/// thread owns admission (matching an event-loop front end), while all
/// optimization work happens on the pool's workers.
pub struct FrontDoor {
    pool: Arc<ServingPool>,
    config: FrontDoorConfig,
    /// Per-shard staged requests awaiting a coalesced flush.
    staging: Vec<Vec<InFlightRequest>>,
    /// In-flight batches: the pool ticket plus the requests riding it, in
    /// batch order.
    in_flight: Vec<(Ticket, Vec<InFlightRequest>)>,
    next_request: usize,
    stats: FrontDoorStats,
    /// Per-shard queue-depth high-water marks (admission-time backlog).
    high_water: Vec<usize>,
    /// Observability handle, from the pool's [`SharedOptimizer`] instruments
    /// (`None` = production path, no events, no metrics).
    obs: Option<Arc<Obs>>,
}

impl FrontDoor {
    /// A front door over a pool.  The front door reads the observability
    /// handle from the pool's instruments (see
    /// [`crate::sharding::ClusterRouter::with_instruments`]), so admission
    /// and batch-formation events flow into the same registry as the pool's
    /// worker counters.
    pub fn new(pool: Arc<ServingPool>, config: FrontDoorConfig) -> Self {
        let shards = pool.shard_count();
        let obs = pool.shared().instruments().obs.clone();
        FrontDoor {
            pool,
            config,
            staging: (0..shards).map(|_| Vec::new()).collect(),
            in_flight: Vec::new(),
            next_request: 0,
            stats: FrontDoorStats::default(),
            high_water: vec![0; shards],
            obs,
        }
    }

    /// Emit one admission trace event (no-op without an [`Obs`] handle).  The
    /// sequence is the request's arrival number — admission is single-driver,
    /// so the event stream is identical however many workers serve the pool.
    fn emit_admission(&self, request: usize, shard: usize, verdict: obs::AdmissionKind) {
        if let Some(obs) = &self.obs {
            obs.emit(TraceEvent::Admission {
                seq: request as u64,
                shard: shard as u16,
                verdict,
            });
        }
    }

    /// The pool shard a job is admitted to (its cluster id, wrapped onto the
    /// pool's shards — the same pinning the pool's workers use).
    fn shard_of(&self, job: &JobSpec) -> usize {
        job.meta.cluster.0 as usize % self.staging.len().max(1)
    }

    /// Offer one arriving request.  Returns what happened to it; shed requests
    /// never produce a [`CompletedRequest`].
    pub fn offer(&mut self, job: Arc<JobSpec>) -> Admission {
        let shard = self.shard_of(&job);
        let request = self.next_request;
        self.next_request += 1;

        let depth = self.pool.pending_jobs(shard) + self.staging[shard].len();
        let over = depth >= self.config.max_queue_depth;
        if over && self.config.policy == OverloadPolicy::Shed {
            self.stats.shed += 1;
            self.emit_admission(request, shard, obs::AdmissionKind::Shed);
            return Admission::Shed;
        }
        self.high_water[shard] = self.high_water[shard].max(depth + 1);
        self.staging[shard].push(InFlightRequest {
            request,
            job,
            attempt: 0,
            offered_at: Instant::now(),
        });
        if self.staging[shard].len() >= self.config.coalesce_max.max(1) {
            self.flush_shard(shard);
        }
        if over {
            self.stats.delayed += 1;
            self.emit_admission(request, shard, obs::AdmissionKind::Delayed);
            Admission::Delayed
        } else {
            self.stats.admitted += 1;
            self.emit_admission(request, shard, obs::AdmissionKind::Admitted);
            Admission::Admitted
        }
    }

    /// Submit one shard's staged batch to the pool (no-op when empty).
    fn flush_shard(&mut self, shard: usize) {
        if self.staging[shard].is_empty() {
            return;
        }
        let members = std::mem::take(&mut self.staging[shard]);
        if let Some(obs) = &self.obs {
            // Batch identity = its first member's request number: coalescing
            // is single-driver, so batch membership (and therefore the event)
            // does not depend on worker count.
            obs.emit(TraceEvent::Batch {
                seq: members[0].request as u64,
                shard: shard as u16,
                jobs: members.len() as u32,
            });
        }
        let jobs: Vec<Arc<JobSpec>> = members.iter().map(|m| Arc::clone(&m.job)).collect();
        let ticket = self.pool.submit(shard, jobs);
        self.in_flight.push((ticket, members));
        self.stats.batches += 1;
    }

    /// Flush every shard's staged batch (end of the arrival stream, or a
    /// latency-bound tick).
    pub fn flush(&mut self) {
        for shard in 0..self.staging.len() {
            self.flush_shard(shard);
        }
    }

    /// Admission counters so far.
    pub fn stats(&self) -> FrontDoorStats {
        self.stats
    }

    /// Requests staged or in flight (i.e. offered, not shed, not yet waited).
    pub fn outstanding(&self) -> usize {
        self.staging.iter().map(Vec::len).sum::<usize>()
            + self.in_flight.iter().map(|(_, r)| r.len()).sum::<usize>()
    }

    /// Flush everything still staged, wait for every in-flight batch, and
    /// return all completed requests sorted by arrival sequence.  See
    /// [`FrontDoor::drain_report`] for the version that also returns the
    /// final counters.
    pub fn drain(self) -> Vec<CompletedRequest> {
        self.drain_report().completed
    }

    /// Flush everything still staged and resolve every non-shed request to
    /// exactly one terminal outcome:
    ///
    /// * a batch that completes delivers its results; per-job errors are
    ///   retried up to [`FrontDoorConfig::max_retries`] times (with linear
    ///   backoff, as fresh single-job batches) while the request's deadline
    ///   allows, then resolve as errored;
    /// * with a [`FrontDoorConfig::deadline`], a batch that has not completed
    ///   by its last member's deadline resolves every member as expired
    ///   ([`CleoError::Unavailable`]) — the drain never blocks indefinitely
    ///   on a stalled or dead worker.
    pub fn drain_report(mut self) -> DrainReport {
        self.flush();
        // Offer-to-completion latency, recorded per resolved request (wall
        // clock, so a metric rather than a pinned trace event).
        let latency_hist = self
            .obs
            .as_ref()
            .map(|obs| obs.metrics().histogram("front_door.latency"));
        let mut completed: Vec<CompletedRequest> = Vec::new();
        let mut queue: VecDeque<(Ticket, Vec<InFlightRequest>)> =
            self.in_flight.drain(..).collect();
        while let Some((ticket, members)) = queue.pop_front() {
            let batch = match self.config.deadline {
                None => Some(ticket.wait()),
                Some(deadline) => {
                    // Wait as long as any member might still make its
                    // deadline (floored so a past-due wait still polls once).
                    let latest = members
                        .iter()
                        .map(|m| m.offered_at + deadline)
                        .max()
                        .expect("batches are never empty");
                    let timeout = latest
                        .saturating_duration_since(Instant::now())
                        .max(Duration::from_millis(1));
                    ticket.wait_timeout(timeout)
                }
            };
            let Some(batch) = batch else {
                let now = Instant::now();
                for member in members {
                    self.stats.expired += 1;
                    if let Some(hist) = &latency_hist {
                        hist.record(now.saturating_duration_since(member.offered_at));
                    }
                    completed.push(CompletedRequest {
                        request: member.request,
                        completed_at: now,
                        result: Err(CleoError::Unavailable(format!(
                            "request {} expired at its deadline",
                            member.request
                        ))),
                    });
                }
                continue;
            };
            debug_assert_eq!(batch.results.len(), members.len());
            for (member, result) in members.into_iter().zip(batch.results) {
                match result {
                    Ok(plan) => {
                        if let Some(hist) = &latency_hist {
                            hist.record(
                                batch
                                    .completed_at
                                    .saturating_duration_since(member.offered_at),
                            );
                        }
                        completed.push(CompletedRequest {
                            request: member.request,
                            completed_at: batch.completed_at,
                            result: Ok(plan),
                        })
                    }
                    Err(error) => {
                        let within_deadline = self
                            .config
                            .deadline
                            .is_none_or(|d| Instant::now() < member.offered_at + d);
                        if member.attempt < self.config.max_retries && within_deadline {
                            self.stats.retried += 1;
                            if !self.config.retry_backoff.is_zero() {
                                std::thread::sleep(
                                    self.config.retry_backoff * (member.attempt + 1),
                                );
                            }
                            let shard = self.shard_of(&member.job);
                            let ticket = self.pool.submit(shard, vec![Arc::clone(&member.job)]);
                            self.stats.batches += 1;
                            queue.push_back((
                                ticket,
                                vec![InFlightRequest {
                                    attempt: member.attempt + 1,
                                    ..member
                                }],
                            ));
                        } else {
                            self.stats.errored += 1;
                            if let Some(hist) = &latency_hist {
                                hist.record(
                                    batch
                                        .completed_at
                                        .saturating_duration_since(member.offered_at),
                                );
                            }
                            completed.push(CompletedRequest {
                                request: member.request,
                                completed_at: batch.completed_at,
                                result: Err(error),
                            });
                        }
                    }
                }
            }
        }
        completed.sort_by_key(|c| c.request);
        if let Some(obs) = &self.obs {
            // Surface the admission-time backlog peaks: one gauge per shard,
            // monotone across repeated drains via `set_max`.
            let metrics = obs.metrics();
            for (shard, &mark) in self.high_water.iter().enumerate() {
                metrics
                    .gauge(&format!("front_door.shard{shard}.queue_high_water"))
                    .set_max(mark as u64);
            }
        }
        DrainReport {
            completed,
            stats: self.stats,
            queue_high_water: self.high_water,
        }
    }
}

/// Deterministic open-loop arrival schedule: `n` absolute arrival offsets (in
/// seconds from the stream start) with exponentially distributed
/// inter-arrival times at `rate_per_sec` — a Poisson arrival process, the
/// standard open-loop load model.  A pure function of the seed, so two bench
/// runs (or two machines) replay the identical schedule.
pub fn open_loop_arrivals(seed: u64, rate_per_sec: f64, n: usize) -> Vec<f64> {
    assert!(rate_per_sec > 0.0, "arrival rate must be positive");
    let mut rng = DetRng::new(seed);
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            // 1 - unit() is in (0, 1]: ln never sees zero.
            t += -(1.0 - rng.unit()).ln() / rate_per_sec;
            t
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_deterministic_increasing_and_rate_scaled() {
        let a = open_loop_arrivals(7, 100.0, 500);
        let b = open_loop_arrivals(7, 100.0, 500);
        assert_eq!(a.len(), 500);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits(), "same seed, same schedule");
        }
        assert!(a.windows(2).all(|w| w[1] > w[0]), "strictly increasing");
        // Mean inter-arrival ≈ 1/rate: the 500-sample mean should land within
        // a loose factor-of-2 band.
        let mean = a.last().unwrap() / 500.0;
        assert!(
            (0.005..0.02).contains(&mean),
            "mean inter-arrival {mean} at rate 100"
        );
        // A different seed produces a different schedule.
        let c = open_loop_arrivals(8, 100.0, 500);
        assert!(a.iter().zip(&c).any(|(x, y)| x != y));
    }

    #[test]
    fn front_door_stats_rates() {
        let stats = FrontDoorStats {
            admitted: 6,
            delayed: 2,
            shed: 2,
            batches: 3,
            retried: 1,
            expired: 0,
            errored: 0,
        };
        assert_eq!(stats.offered(), 10);
        assert!((stats.shed_rate() - 0.2).abs() < 1e-12);
        assert_eq!(FrontDoorStats::default().shed_rate(), 0.0);
    }
}

//! `serve_recurring`: a warm four-shard fleet serves the last day's recurring
//! jobs in an open loop, `FrontDoor` → `ServingPool` → `ClusterRouter` →
//! `SharedOptimizer` → `LearnedCostModel`.
//!
//! Load is offered at absolute rates frozen here, never calibrated from the
//! run's own capacity, so a parent and a change receive the same load:
//! a nominal rate near half of this host shape's capacity, a fine ladder of
//! rates to find the highest one that meets the p99 limit, and an overload
//! rate near twice capacity under `OverloadPolicy::Delay`.  Every request is
//! timed from the moment it was due, so a stalled generator shows up as
//! latency, and the generator's own lateness is reported.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cleo_common::rng::DetRng;
use cleo_core::serving::{
    open_loop_arrivals, FrontDoor, FrontDoorConfig, FrontDoorStats, OverloadPolicy,
};
use cleo_core::sharding::{ClusterRouter, RoutingSnapshot, ServingPool};
use cleo_engine::telemetry::TelemetryLog;
use cleo_engine::types::JobId;
use cleo_engine::workload::JobSpec;
use cleo_optimizer::{CostModelProvider, OptimizerConfig, SharedOptimizer};

use crate::common::{self, Host, Report};
use crate::gate::{self, Gate};
use crate::stats;
use crate::trace::{self, names, Recorder, Span};

/// Nominal offered rate (jobs/s): about half of what one pool worker serves
/// on the reference host (2 cores: one generator, one worker).
pub const NOMINAL_RATE: f64 = 5_000.0;
/// Ladder of offered rates (jobs/s), ascending in about 5% steps across the
/// capacity range seen on the reference host.
pub const LADDER: [f64; 17] = [
    7_000.0, 7_500.0, 8_000.0, 8_500.0, 9_000.0, 9_500.0, 10_000.0, 10_500.0, 11_000.0, 11_500.0,
    12_000.0, 12_600.0, 13_200.0, 13_900.0, 14_600.0, 15_300.0, 16_000.0,
];
/// Overload offered rate (jobs/s): about twice capacity.
pub const OVERLOAD_RATE: f64 = 24_000.0;
/// p99 latency limit a ladder rate must meet (ms).  Host stalls on the
/// reference host (a shared 2-vCPU VM) reach several ms, so a tighter limit
/// would test the host; at 20 ms a step fails once queueing builds.
pub const P99_LIMIT_MS: f64 = 20.0;
/// Backlog left when a ladder step's offered stream ends (ms) beyond which
/// the backlog counts as growing: above capacity it grows with the step's
/// length (tens of ms and more), while a host stall leaves a few ms.
pub const BACKLOG_LIMIT_MS: f64 = 40.0;
/// Requests per window of the nominal phase's p99 (see
/// [`stats::windowed_percentile`]).
const P99_WINDOW: usize = 2000;
/// Requests per window of a ladder step's p99.
const LADDER_WINDOW: usize = 1000;
/// Fewest request slots.  Request `r` is slot `r % slots`, a copy of one
/// recurring job with its own job id, so spans recorded inside the pool can
/// be matched to requests.
const MIN_SLOTS: usize = 2048;
/// First job id of the request slots (far above any generated job id).
const RING_BASE: u64 = 1 << 40;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Offered seconds of each overload phase of an untraced run; the backlog
/// takes about as long again to drain.  `jobs_s` is the median over the
/// run's phases, so a slow stretch of the host moves a few phases rather
/// than the metric.
const OVERLOAD_SECONDS: f64 = 0.5;
/// Fewest overload phases a run measures, however short its time.
const MIN_OVERLOADS: usize = 5;
/// Shares of a traced run's time offered by each nominal phase, the whole
/// ladder and the traced overload phase.  The traced phases' spans stay in
/// memory, a few hundred thousand of them.
const NOMINAL_SHARE: f64 = 0.1;
const LADDER_SHARE: f64 = 0.3;
const OVERLOAD_SHARE: f64 = 0.03;
/// Days in the suite: all but the last train the fleet, the last is served.
const DAYS: u32 = 4;
/// Pool admission queues: one per cluster.
const SHARDS: usize = 4;

fn suite(seed: u64) -> String {
    format!(
        "# Recurring serving: four steady tenants, no floods.\n\
         suite serve_recurring days={DAYS} seed={seed}\n\
         cluster c0 scale=small instances=3 families=24\n\
         cluster c1 scale=small instances=3 families=24\n\
         cluster c2 scale=small instances=3 families=24 adhoc=0.05\n\
         cluster c3 scale=small instances=3 families=24 tables=16\n"
    )
}

/// The warm fleet and the request slots it serves.
struct Warm {
    fleet: cleo_core::sharding::ShardedFeedbackLoop,
    /// Request slots (see [`MIN_SLOTS`]).
    ring: Vec<Arc<JobSpec>>,
    /// Serial `SharedOptimizer::optimize` reference per slot: plan cost bits
    /// and serving model version.
    reference: Vec<(u64, u64)>,
    /// The served jobs, from a day the fleet never trained on.
    held_out: Vec<JobSpec>,
    /// The served jobs under the default model's plans, to score against.
    baseline: TelemetryLog,
}

fn setup(seed: u64, host: &Host, gate: &mut Gate, report: &mut Report) -> (Warm, f64) {
    let (compiled, compile_ms) = common::compile(&suite(seed), host);
    let mut fleet = common::fleet(&compiled, host);
    for day in 0..DAYS - 1 {
        let jobs = common::day_jobs(&compiled, day);
        let epoch = fleet.run_epoch(&jobs).expect("training epoch");
        report.ops(epoch.shards.len() as u64, epoch.failed.len() as u64);
        gate.check(gate::ensure(epoch.failed.is_empty(), || {
            format!("set-up epoch {day}: shard failures {:?}", epoch.failed)
        }));
    }
    let distinct: Vec<&JobSpec> = common::day_jobs(&compiled, DAYS - 1)
        .into_iter()
        .filter(|j| j.meta.recurring)
        .collect();
    let baseline = common::holdout(&distinct, host);
    let router = Arc::clone(fleet.router()) as Arc<dyn CostModelProvider>;
    let serial = SharedOptimizer::new(router, OptimizerConfig::resource_aware());
    let per_job: Vec<(u64, u64)> = distinct
        .iter()
        .map(|job| {
            let plan = serial.optimize(job).expect("reference optimize");
            (plan.estimated_cost.to_bits(), plan.stats.model_version)
        })
        .collect();
    // Every distinct job fills the same number of slots, in a seeded order.
    let mut order: Vec<usize> = (0..distinct.len()).collect();
    DetRng::new(seed ^ 0x5e7e_5107).shuffle(&mut order);
    let slots = distinct.len() * MIN_SLOTS.div_ceil(distinct.len());
    let mut ring = Vec::with_capacity(slots);
    let mut reference = Vec::with_capacity(slots);
    for slot in 0..slots {
        let i = order[slot % order.len()];
        let mut job = distinct[i].clone();
        job.meta.id = JobId(RING_BASE + slot as u64);
        ring.push(Arc::new(job));
        reference.push(per_job[i]);
    }
    (
        Warm {
            fleet,
            ring,
            reference,
            held_out: distinct.into_iter().cloned().collect(),
            baseline,
        },
        compile_ms,
    )
}

/// One open-loop phase: a rate and a request count.
#[derive(Clone, Copy)]
struct Phase {
    name: &'static str,
    rate: f64,
    requests: usize,
    /// Arrival-schedule seed.
    schedule: u64,
}

/// What one phase produced, per request in offer order.
struct PhaseOut {
    stats: FrontDoorStats,
    high_water: usize,
    due: Vec<u64>,
    offer_start: Vec<u64>,
    offer_end: Vec<u64>,
    /// Completion (ns), `None` when shed.
    done: Vec<Option<u64>>,
    /// `optimization_micros` of OK plans.
    optimize_us: Vec<Option<f64>>,
    alternatives: Vec<f64>,
    invocations: Vec<f64>,
    ok: u64,
    routing: RoutingSnapshot,
    cache: (u64, u64),
}

impl PhaseOut {
    /// Latency of each request from its due time (ms); shed requests miss
    /// every limit and count as infinitely late.
    fn latencies_ms(&self) -> Vec<f64> {
        self.due
            .iter()
            .zip(&self.done)
            .map(|(due, done)| done.map_or(f64::INFINITY, |d| d.saturating_sub(*due) as f64 / 1e6))
            .collect()
    }

    /// Completed OK requests per second from the first due time to the last
    /// completion.
    fn goodput(&self) -> f64 {
        let first = self.due.first().copied().unwrap_or(0);
        let last = self.done.iter().flatten().max().copied().unwrap_or(first);
        self.ok as f64 / ((last.saturating_sub(first)) as f64 / 1e9).max(1e-9)
    }

    /// Time from the last due time to the last completion (ms): how much
    /// backlog was left when the offered stream ended.
    fn drain_tail_ms(&self) -> f64 {
        let last_due = self.due.last().copied().unwrap_or(0);
        let last = self
            .done
            .iter()
            .flatten()
            .max()
            .copied()
            .unwrap_or(last_due);
        last.saturating_sub(last_due) as f64 / 1e6
    }
}

fn cache_totals(router: &ClusterRouter) -> (u64, u64) {
    let mut hits = 0;
    let mut misses = 0;
    for shard in router.registry().shards() {
        if let Some(snapshot) = shard.registry().current() {
            let s = snapshot.cost_model().cache_stats();
            hits += s.hits as u64;
            misses += s.misses as u64;
        }
    }
    (hits, misses)
}

/// The last stretch of a wait is spun: a sleep wakes tens of µs late.
const SPIN_US: u64 = 200;
/// Wait until `due`: sleep while far from it, spin for the last stretch.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(SPIN_US + 100) {
            std::thread::sleep(left - Duration::from_micros(SPIN_US));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Offer one phase's requests on schedule and drain the front door.  Staged
/// requests are flushed to the pool whenever the generator is ahead of the
/// schedule (an event loop submits what has arrived before it waits) or when
/// a shard's batch reaches the front door's coalescing bound.
fn run_phase(
    pool: &Arc<ServingPool>,
    warm: &Warm,
    phase: &Phase,
    gate: &mut Gate,
    report: &mut Report,
) -> PhaseOut {
    let router = warm.fleet.router();
    let routing_before = router.routing_stats();
    let cache_before = cache_totals(router);
    let arrivals = open_loop_arrivals(phase.schedule, phase.rate, phase.requests);
    let n = phase.requests;
    let mut door = FrontDoor::new(Arc::clone(pool), door_config());
    let mut due = Vec::with_capacity(n);
    let mut offer_start = Vec::with_capacity(n);
    let mut offer_end = Vec::with_capacity(n);
    let start = Instant::now() + Duration::from_millis(2);
    for (r, offset) in arrivals.iter().enumerate() {
        let at = start + Duration::from_secs_f64(*offset);
        if Instant::now() < at {
            door.flush();
            wait_until(at);
        }
        let t0 = trace::now_ns();
        door.offer(Arc::clone(&warm.ring[r % warm.ring.len()]));
        offer_end.push(trace::now_ns());
        offer_start.push(t0);
        due.push(trace::to_ns(at));
    }
    let drained = door.drain_report();
    let mut done = vec![None; n];
    let mut optimize_us = vec![None; n];
    let mut alternatives = Vec::new();
    let mut invocations = Vec::new();
    let mut ok = 0u64;
    for c in &drained.completed {
        done[c.request] = Some(trace::to_ns(c.completed_at));
        if let Ok(plan) = &c.result {
            ok += 1;
            let (cost, version) = warm.reference[c.request % warm.ring.len()];
            gate.check(gate::ensure(
                plan.estimated_cost.to_bits() == cost && plan.stats.model_version == version,
                || {
                    format!(
                        "{}: request {} cost {:e} v{} differs from the serial reference {:e} v{}",
                        phase.name,
                        c.request,
                        plan.estimated_cost,
                        plan.stats.model_version,
                        f64::from_bits(cost),
                        version
                    )
                },
            ));
            optimize_us[c.request] = Some(plan.stats.optimization_micros as f64);
            alternatives.push(plan.stats.alternatives_generated as f64);
            invocations.push(plan.stats.model_invocations as f64);
        }
    }
    let stats = drained.stats;
    gate.check(gate::zero_loss(
        phase.name,
        &stats,
        ok,
        drained.completed.len(),
    ));
    let routing = router.routing_stats().since(&routing_before);
    gate.check(gate::count_equal(
        &format!("{}: routed jobs", phase.name),
        routing.total(),
        ok + stats.errored,
    ));
    report.ops(stats.offered(), stats.offered() - ok);
    let cache_after = cache_totals(router);
    PhaseOut {
        stats,
        high_water: drained.queue_high_water.iter().copied().max().unwrap_or(0),
        due,
        offer_start,
        offer_end,
        done,
        optimize_us,
        alternatives,
        invocations,
        ok,
        routing,
        cache: (
            cache_after.0 - cache_before.0,
            cache_after.1 - cache_before.1,
        ),
    }
}

/// The front door of every phase: the default knobs, but past the queue
/// bound it delays instead of shedding.  A host stall of about 13 ms fills the
/// default 64-deep queue at the nominal rate, and a shed request would count
/// as a failed operation; under overload nothing may be shed at all.
fn door_config() -> FrontDoorConfig {
    FrontDoorConfig {
        policy: OverloadPolicy::Delay,
        ..FrontDoorConfig::default()
    }
}

/// The nominal phase, offered for `seconds`.
fn nominal(seconds: f64, seed: u64) -> Phase {
    Phase {
        name: "nominal",
        rate: NOMINAL_RATE,
        requests: (NOMINAL_RATE * seconds) as usize,
        schedule: seed ^ 0x401,
    }
}

/// The overload phase of `round`, offered for `seconds` (its backlog takes
/// about as long again to drain).
fn overload(seconds: f64, seed: u64, round: u64) -> Phase {
    Phase {
        name: "overload",
        rate: OVERLOAD_RATE,
        requests: (OVERLOAD_RATE * seconds) as usize,
        schedule: seed ^ 0x0f1 ^ (round << 20),
    }
}

/// The ladder: equal time per rate, `seconds` in all.  A host stall can
/// fail a step below capacity and a quiet stretch can pass one above it, so
/// the boundary is read from the number of passing steps (pass or fail is
/// monotone in the rate but for such flips): with `k` passes, the highest
/// rate meeting the limit is step `k`'s, and the result is the rate that
/// step completed, with the pass pattern.
fn ladder(
    pool: &Arc<ServingPool>,
    warm: &Warm,
    seconds: f64,
    seed: u64,
    gate: &mut Gate,
    report: &mut Report,
) -> (f64, String) {
    let step_seconds = seconds / LADDER.len() as f64;
    let mut achieved = Vec::with_capacity(LADDER.len());
    let mut passes = String::new();
    for (i, &rate) in LADDER.iter().enumerate() {
        let phase = Phase {
            name: "ladder",
            rate,
            requests: ((rate * step_seconds) as usize).max(2 * LADDER_WINDOW),
            schedule: seed ^ (0x1add << 16) ^ i as u64,
        };
        let out = run_phase(pool, warm, &phase, gate, report);
        let p99 = stats::windowed_percentile(&out.latencies_ms(), LADDER_WINDOW, 99.0)
            .map_or(f64::INFINITY, |(v, _)| v);
        let pass = p99 <= P99_LIMIT_MS && out.drain_tail_ms() <= BACKLOG_LIMIT_MS;
        achieved.push(out.goodput());
        passes.push(if pass { '+' } else { '-' });
    }
    let k = passes.chars().filter(|&c| c == '+').count();
    (if k == 0 { 0.0 } else { achieved[k - 1] }, passes)
}

fn pool_over(provider: Arc<dyn CostModelProvider>, host: &Host) -> Arc<ServingPool> {
    Arc::new(ServingPool::new(
        SharedOptimizer::new(provider, OptimizerConfig::resource_aware()),
        SHARDS,
        host.pool_workers,
    ))
}

/// Run the workload.
pub fn run(
    seed: u64,
    seconds: f64,
    traced: bool,
    host: &Host,
    report: &mut Report,
    gate: &mut Gate,
) {
    let mut setups = Vec::new();
    let mut compile_ms = Vec::new();
    let mut warm = None;
    let mut first_reference: Option<Vec<(u64, u64)>> = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let (w, c) = setup(seed, host, gate, report);
        setups.push(t.elapsed().as_secs_f64());
        compile_ms.push(c);
        match &first_reference {
            None => first_reference = Some(w.reference.clone()),
            Some(r) => gate.check(gate::ensure(*r == w.reference, || {
                "set-up is not deterministic: reference plans differ between set-ups".to_string()
            })),
        }
        warm = Some(w);
    }
    let warm = warm.expect("at least one set-up");
    if !traced {
        report.metric("setup_s", stats::median(&mut setups), "s");
    }
    report.info("nominal_rate_jobs_s", common::json_num(NOMINAL_RATE));
    report.info("overload_rate_jobs_s", common::json_num(OVERLOAD_RATE));
    report.info("p99_limit_ms", common::json_num(P99_LIMIT_MS));
    report.info("request_slots", warm.ring.len().to_string());

    let router = Arc::clone(warm.fleet.router()) as Arc<dyn CostModelProvider>;
    if traced {
        run_traced(seed, seconds, host, &warm, router, report, gate);
        report.metric("scenario.compile_ms", stats::median(&mut compile_ms), "ms");
    } else {
        run_overloads(seed, seconds, host, &warm, router, report, gate);
    }
    let held_out: Vec<&JobSpec> = warm.held_out.iter().collect();
    let quality = common::score(&warm.fleet, &held_out, &warm.baseline, gate);
    if traced {
        quality.report_layers(report);
    } else {
        quality.report(report);
    }
}

/// The untraced run: overload phases back to back until the time is up;
/// `jobs_s` is their median goodput.
fn run_overloads(
    seed: u64,
    seconds: f64,
    host: &Host,
    warm: &Warm,
    router: Arc<dyn CostModelProvider>,
    report: &mut Report,
    gate: &mut Gate,
) {
    let pool = pool_over(router, host);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut goodputs = Vec::new();
    while goodputs.len() < MIN_OVERLOADS || Instant::now() < deadline {
        let phase = overload(OVERLOAD_SECONDS, seed, goodputs.len() as u64);
        goodputs.push(run_phase(&pool, warm, &phase, gate, report).goodput());
    }
    report.info("overload_phases", goodputs.len().to_string());
    report.metric("jobs_s", stats::median(&mut goodputs), "jobs/s");
}

/// The traced run: the nominal phase untraced, the ladder, then the nominal
/// phase traced (its difference from the untraced one is the tracing
/// overhead) and the overload phase traced.  Per-layer figures come from the
/// traced phases, and the nominal latencies and the ladder's boundary from
/// the untraced ones.
fn run_traced(
    seed: u64,
    seconds: f64,
    host: &Host,
    warm: &Warm,
    router: Arc<dyn CostModelProvider>,
    report: &mut Report,
    gate: &mut Gate,
) {
    let plain_pool = pool_over(Arc::clone(&router), host);
    let plain = run_phase(
        &plain_pool,
        warm,
        &nominal(seconds * NOMINAL_SHARE, seed),
        gate,
        report,
    );
    let (max_rate, passes) = ladder(
        &plain_pool,
        warm,
        seconds * LADDER_SHARE,
        seed,
        gate,
        report,
    );
    report.metric("serve.max_rate_jobs_s", max_rate, "jobs/s");
    report.info("ladder_passes", format!("\"{passes}\""));
    drop(plain_pool);
    // The nominal latencies are per-layer figures: on the reference host the
    // p50 moves with the cost of waking an idle vCPU and the p99 with host
    // stalls of a few ms, run to run, too widely to bound a change.
    report.metric(
        "serve.p50_ms",
        stats::percentile(&mut plain.latencies_ms(), 50.0),
        "ms",
    );
    match stats::windowed_percentile(&plain.latencies_ms(), P99_WINDOW, 99.0) {
        Ok((v, windows)) => {
            report.metric("serve.p99_ms", v, "ms");
            report.info("p99_windows", windows.to_string());
        }
        Err(e) => gate.check(Err(format!("serve.p99_ms: {e}"))),
    }

    let rec = Arc::new(Recorder::default());
    let provider = Arc::new(trace::TracingProvider::new(router, Arc::clone(&rec)));
    let pool = pool_over(provider, host);
    let traced = run_phase(
        &pool,
        warm,
        &nominal(seconds * NOMINAL_SHARE, seed),
        gate,
        report,
    );
    let nominal_spans = rec.take();
    let over = run_phase(
        &pool,
        warm,
        &overload(seconds * OVERLOAD_SHARE, seed, 0),
        gate,
        report,
    );
    let over_spans = rec.take();
    report.metric("pool.worker_panics", pool.worker_panics() as f64, "count");
    report.metric("pool.requeued", pool.requeued_tasks() as f64, "count");
    report.metric("pool.errors", pool.worker_error_tasks() as f64, "count");
    drop(pool);

    // Decorators are transparent: the traced phase served the same plans.
    // (Both phases were already checked against the serial reference; this
    // pins the request-for-request identity of the two runs as well.)
    gate.check(gate::count_equal("traced nominal ok", traced.ok, plain.ok));

    let p50 = |out: &PhaseOut| stats::percentile(&mut out.latencies_ms(), 50.0);
    report.metric(
        "trace.overhead_pct",
        (p50(&traced) / p50(&plain) - 1.0) * 100.0,
        "%",
    );

    let attribution = attribute(&traced, nominal_spans, warm.ring.len(), gate);
    attribution.report(report);
    let over_attr = attribute(&over, over_spans, warm.ring.len(), gate);

    // serving.*
    let mut offer_ns: Vec<f64> = traced
        .offer_start
        .iter()
        .zip(&traced.offer_end)
        .map(|(s, e)| (e - s) as f64)
        .collect();
    report.metric(
        "serving.offer_ns.p50",
        stats::percentile(&mut offer_ns, 50.0),
        "ns",
    );
    report.metric(
        "serving.offer_ns.p99",
        stats::percentile(&mut offer_ns, 99.0),
        "ns",
    );
    let mut queue = attribution.queue_ms.clone();
    report.metric(
        "serving.queue_wait_ms.p50",
        stats::percentile(&mut queue, 50.0),
        "ms",
    );
    report.metric(
        "serving.queue_wait_ms.p99",
        stats::percentile(&mut queue, 99.0),
        "ms",
    );
    let admitted = traced.stats.offered() - traced.stats.shed;
    report.metric(
        "serving.batch_jobs.mean",
        admitted as f64 / traced.stats.batches.max(1) as f64,
        "jobs",
    );
    report.metric(
        "serving.queue_high_water",
        traced.high_water.max(over.high_water) as f64,
        "jobs",
    );
    let mut lag: Vec<f64> = traced
        .offer_start
        .iter()
        .zip(&traced.due)
        .map(|(s, d)| s.saturating_sub(*d) as f64 / 1e6)
        .collect();
    report.metric(
        "serving.gen_lag_ms.p99",
        stats::percentile(&mut lag, 99.0),
        "ms",
    );
    let both = |f: fn(&FrontDoorStats) -> u64| (f(&traced.stats) + f(&over.stats)) as f64;
    report.metric("serving.shed", both(|s| s.shed), "count");
    report.metric("serving.delayed", both(|s| s.delayed), "count");
    report.metric("serving.expired", both(|s| s.expired), "count");
    report.metric("serving.errored", both(|s| s.errored), "count");

    // router.*
    let r = traced.routing;
    report.metric("router.own_hits", r.own_hits as f64, "count");
    report.metric("router.donor_hits", r.donor_hits as f64, "count");
    report.metric("router.fallback_hits", r.fallback_hits as f64, "count");
    report.metric(
        "router.own_share",
        r.own_hits as f64 / r.total().max(1) as f64,
        "ratio",
    );
    let mut route_ns = attribution.route_ns.clone();
    report.metric(
        "router.route_ns.p50",
        stats::percentile(&mut route_ns, 50.0),
        "ns",
    );
    report.metric(
        "router.snapshot_calls_per_job",
        attribution.snapshot_calls as f64 / traced.ok.max(1) as f64,
        "calls/job",
    );

    // optimizer.*
    let mut opt: Vec<f64> = traced.optimize_us.iter().flatten().copied().collect();
    report.metric(
        "optimizer.optimize_us.p50",
        stats::percentile(&mut opt, 50.0),
        "us",
    );
    report.metric(
        "optimizer.optimize_us.p99",
        stats::percentile(&mut opt, 99.0),
        "us",
    );
    let mut enumerate = attribution.enumerate_us.clone();
    report.metric(
        "optimizer.enumerate_self_us.p50",
        stats::percentile(&mut enumerate, 50.0),
        "us",
    );
    report.metric(
        "optimizer.alternatives_per_job",
        stats::mean(&traced.alternatives),
        "count/job",
    );
    report.metric(
        "optimizer.invocations_per_job",
        stats::mean(&traced.invocations),
        "count/job",
    );

    // integration.*
    let (hits, misses) = traced.cache;
    report.metric(
        "integration.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    let mut cost_ns = attribution.cost_call_ns.clone();
    report.metric(
        "integration.cost_call_ns.p50",
        stats::percentile(&mut cost_ns, 50.0),
        "ns",
    );
    report.metric(
        "integration.cost_call_ns.p99",
        stats::percentile(&mut cost_ns, 99.0),
        "ns",
    );
    report.metric(
        "integration.cost_ns_per_row",
        attribution.cost_call_ns.iter().sum::<f64>() / attribution.cost_rows.max(1) as f64,
        "ns/row",
    );
    report.metric(
        "integration.calls_per_job",
        attribution.cost_call_ns.len() as f64 / traced.ok.max(1) as f64,
        "calls/job",
    );
    report.info(
        "trace_unmatched_requests",
        (attribution.unmatched + over_attr.unmatched).to_string(),
    );
    crate::write_spans("serve_recurring", seed, &attribution.spans);
}

/// Per-request decomposition of a traced phase's latency.
#[derive(Default)]
struct Attribution {
    /// Spans linked into per-request trees.
    spans: Vec<Span>,
    /// Queue wait per attributed request (ms).
    queue_ms: Vec<f64>,
    /// Route resolution per attributed request (ns).
    route_ns: Vec<f64>,
    /// Enumeration self time per attributed request (µs).
    enumerate_us: Vec<f64>,
    /// Duration of each cost-model call (ns).
    cost_call_ns: Vec<f64>,
    /// Candidate rows costed.
    cost_rows: u64,
    /// `snapshot_for` calls.
    snapshot_calls: u64,
    /// Requests whose worker spans could not be matched.
    unmatched: u64,
    /// Summed self time per component (ns): admission, queue wait, route,
    /// enumerate, cost, unattributed.
    totals: [f64; 6],
    /// Summed request latency (ns).
    latency_total: f64,
}

impl Attribution {
    fn report(&self, report: &mut Report) {
        let names = [
            "trace.attr.admission_pct",
            "trace.attr.queue_wait_pct",
            "trace.attr.route_pct",
            "trace.attr.enumerate_pct",
            "trace.attr.cost_pct",
            "trace.attr.unattributed_pct",
        ];
        for (name, total) in names.iter().zip(self.totals) {
            report.metric(name, total / self.latency_total.max(1.0) * 100.0, "%");
        }
    }
}

/// Link a traced phase's worker spans to its requests and split each
/// request's latency into self times.
///
/// Request `r` is served as job id `RING_BASE + r % slots`.  On a worker, a
/// job's service starts with the provider's routing calls; the `k`-th such
/// start for a slot belongs to the `k`-th admitted request of that slot
/// (each shard queue is FIFO).  The tree per request:
///
/// * `request` — due time to completion;
///   * `admission` — due time to the end of `FrontDoor::offer` (generator
///     lateness plus the offer call);
///   * `queue_wait` — end of the offer to the first routing call;
///   * routing calls (`route_stamp`, `snapshot_for`, `note_cached_route`);
///   * `optimize` — from the end of routing for `optimization_micros`, the
///     optimizer's own figure (derived), with the cost calls inside it as
///     children; its self time is plan enumeration;
///   * cost calls after it (the coalesced final costing of the batch).
///
/// Whatever no child covers is the unattributed remainder.
fn attribute(out: &PhaseOut, spans: Vec<Span>, slots: usize, gate: &mut Gate) -> Attribution {
    let mut a = Attribution::default();
    let mut by_job: HashMap<u64, Vec<Span>> = HashMap::new();
    for span in spans {
        if span.name == names::COST {
            a.cost_call_ns.push(span.len() as f64);
            a.cost_rows += span.rows as u64;
        }
        if span.name == names::SNAPSHOT {
            a.snapshot_calls += 1;
        }
        if span.request != trace::NO_REQUEST {
            by_job.entry(span.request).or_default().push(span);
        }
    }
    // Occurrences per slot: runs of spans starting at a routing call that
    // follows a non-routing span (or nothing).
    let mut occurrences: HashMap<u64, Vec<Vec<Span>>> = HashMap::new();
    for (job, spans) in by_job {
        let mut occ: Vec<Vec<Span>> = Vec::new();
        let mut prev_route = false;
        for span in spans {
            let route = trace::is_route(span.name);
            if route && !prev_route {
                occ.push(Vec::new());
            }
            prev_route = route;
            match occ.last_mut() {
                Some(o) => o.push(span),
                None => a.unmatched += 1,
            }
        }
        occurrences.insert(job, occ);
    }
    let mut next: HashMap<u64, usize> = HashMap::new();
    for r in 0..out.due.len() {
        let Some(done) = out.done[r] else { continue };
        let job = RING_BASE + (r % slots) as u64;
        let k = next.entry(job).or_insert(0);
        let Some(occ) = occurrences.get(&job).and_then(|o| o.get(*k)) else {
            a.unmatched += 1;
            continue;
        };
        *k += 1;
        let request_idx = a.spans.len();
        let (due, offer_end) = (out.due[r], out.offer_end[r]);
        let mut request = Span::timed("request", due, done, r as u64);
        request.thread = 0;
        a.spans.push(request);
        let mut children: Vec<(u64, u64)> = Vec::new();
        let child = |a: &mut Attribution, mut s: Span, parent: usize| {
            s.parent = Some(parent);
            s.request = r as u64;
            a.spans.push(s);
            a.spans.len() - 1
        };

        let mut admission = Span::timed("admission", due, offer_end, r as u64);
        admission.thread = 0;
        children.push((due, offer_end));
        child(&mut a, admission, request_idx);

        let routes: Vec<&Span> = occ.iter().take_while(|s| trace::is_route(s.name)).collect();
        let route_start = routes.first().map_or(offer_end, |s| s.start);
        let route_end = routes.last().map_or(route_start, |s| s.end);
        let mut queue = Span::timed(
            "queue_wait",
            offer_end,
            route_start.max(offer_end),
            r as u64,
        );
        queue.derived = true;
        children.push((queue.start, queue.end));
        a.queue_ms.push(queue.len() as f64 / 1e6);
        child(&mut a, queue, request_idx);
        a.route_ns
            .push(route_end.saturating_sub(route_start) as f64);
        for s in &routes {
            children.push((s.start, s.end));
            child(&mut a, (*s).clone(), request_idx);
        }
        let route_self: u64 = covered_len(&routes);

        let opt_ns = (out.optimize_us[r].unwrap_or(0.0) * 1e3) as u64;
        let mut optimize = Span::timed("optimize", route_end, route_end + opt_ns, r as u64);
        optimize.derived = true;
        optimize.thread = routes.first().map_or(0, |s| s.thread);
        let costs: Vec<&Span> = occ.iter().filter(|s| !trace::is_route(s.name)).collect();
        let inside: Vec<(u64, u64)> = costs
            .iter()
            .filter(|s| s.start >= optimize.start && s.end <= optimize.end)
            .map(|s| (s.start, s.end))
            .collect();
        let enumerate_self = trace::self_time(optimize.start, optimize.end, &inside);
        a.enumerate_us.push(enumerate_self as f64 / 1e3);
        children.push((optimize.start, optimize.end));
        let (opt_start, opt_end) = (optimize.start, optimize.end);
        let optimize_idx = child(&mut a, optimize, request_idx);
        let cost_intervals: Vec<(u64, u64)> = costs.iter().map(|s| (s.start, s.end)).collect();
        for s in &costs {
            children.push((s.start, s.end));
            let parent = if s.start >= opt_start && s.end <= opt_end {
                optimize_idx
            } else {
                request_idx
            };
            child(&mut a, (*s).clone(), parent);
        }
        let cost_self = trace::covered(due, done, &cost_intervals);

        let unattributed = trace::self_time(due, done, &children);
        let admission_ns = offer_end.saturating_sub(due);
        let queue_ns = route_start.saturating_sub(offer_end);
        for (total, v) in a.totals.iter_mut().zip([
            admission_ns,
            queue_ns,
            route_self,
            enumerate_self,
            cost_self,
            unattributed,
        ]) {
            *total += v as f64;
        }
        a.latency_total += done.saturating_sub(due) as f64;
    }
    gate.check(gate::ensure(a.unmatched * 100 <= out.ok.max(1), || {
        format!(
            "trace attribution: {} of {} requests unmatched",
            a.unmatched, out.ok
        )
    }));
    a
}

fn covered_len(spans: &[&Span]) -> u64 {
    match (spans.first(), spans.last()) {
        (Some(f), Some(l)) => {
            let iv: Vec<(u64, u64)> = spans.iter().map(|s| (s.start, s.end)).collect();
            trace::covered(f.start, l.end, &iv)
        }
        _ => 0,
    }
}

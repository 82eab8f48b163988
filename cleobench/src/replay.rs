//! `fleet_replay`: a multi-day suite with drift, flash, flood and cold-start
//! tenants replayed in a closed loop through `ShardedFeedbackLoop`.  Each day
//! runs one `run_delta_round` over its first half and ends with a `run_epoch`
//! over its second half; quality is scored on a held-out final day.
//!
//! Each job is costed once, soon after a publish, so cache misses,
//! featurization, the kernels, the simulator, windowing, fitting and
//! publishing dominate.  Reads interleave with writes, so a serving change
//! that costs freshness or cache reuse shows here.
//!
//! A run replays the suite from a cold fleet again and again until its time
//! is up; every cycle must reproduce the first one bit for bit.

use std::sync::Arc;
use std::time::Instant;

use cleo_core::feedback::{DeltaDecision, PublishDecision};
use cleo_core::integration::LearnedCostModel;
use cleo_core::sharding::{ShardedDeltaReport, ShardedEpochReport, ShardedFeedbackLoop};
use cleo_engine::telemetry::TelemetryLog;
use cleo_engine::workload::JobSpec;

use crate::common::{self, Host, Quality, Report};
use crate::gate::{self, Gate};
use crate::stats;
use crate::trace::{self, Recorder, Span, NO_REQUEST};

/// Days in the suite: all but the last are replayed, the last is held out.
const DAYS: u32 = 5;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Fewest cycles a run measures, however short its time.
const MIN_CYCLES: usize = 3;

fn suite(seed: u64) -> String {
    format!(
        "# Fleet replay: drift, a flash crowd, a flood and a cold-start tenant.\n\
         suite fleet_replay days={DAYS} seed={seed}\n\
         cluster c0 scale=small instances=3 families=16\n\
         cluster c1 scale=small instances=3 families=16 adhoc=0.2\n\
         cluster c2 scale=small instances=3 families=12 tables=8\n\
         cluster c3 scale=small instances=3 families=12\n\
         cluster c4 scale=small instances=3 families=16\n\
         cluster c5 scale=small instances=3 families=16 tables=16\n\
         drift c0 from=2 rate=1.25\n\
         flash c1 day=2 mult=3\n\
         flood c2 day=3 count=24\n\
         coldstart c9 day=2 count=16\n"
    )
}

/// Counters of one cycle's feedback rounds.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Rounds {
    /// `run_epoch` wall times (ms).
    pub epoch_ms: Vec<f64>,
    /// `run_delta_round` wall times (ms).
    pub delta_ms: Vec<f64>,
    /// Per-shard round times summed over the cycle (ms).
    pub retrain_sum_ms: f64,
    /// Longest single shard round (ms).
    pub retrain_max_ms: f64,
    /// Signatures fit from the incumbent's weights.
    pub fits_warm: usize,
    /// Signatures fit from scratch.
    pub fits_cold: usize,
    /// Signatures whose incumbent model was reused.
    pub fits_reused: usize,
    /// Versions published (epochs and deltas).
    pub published: usize,
    /// Candidates the holdout guard rejected.
    pub rejected: usize,
    /// Dirty signatures refit by delta rounds.
    pub delta_refit: usize,
    /// Dirty signatures deferred to the next epoch.
    pub delta_deferred: usize,
    /// Delta refits dropped as regressions.
    pub delta_dropped: usize,
    /// Shard rounds run and failed.
    pub shard_rounds: u64,
    /// Shard rounds that failed.
    pub shard_failures: u64,
}

impl Rounds {
    /// Fold in one epoch report.
    pub fn epoch(&mut self, ms: f64, r: &ShardedEpochReport) {
        self.epoch_ms.push(ms);
        let mut max = 0.0f64;
        for s in &r.shards {
            let t = s.retrain_micros as f64 / 1e3;
            self.retrain_sum_ms += t;
            max = max.max(t);
            self.fits_warm += s.retrain.warm.warm_fits;
            self.fits_cold += s.retrain.warm.cold_fits;
            self.fits_reused += s.retrain.warm.reused;
            match s.retrain.decision {
                PublishDecision::Published { .. } => self.published += 1,
                PublishDecision::RejectedRegression => self.rejected += 1,
                PublishDecision::SkippedTooFewJobs => {}
            }
        }
        self.retrain_max_ms = self.retrain_max_ms.max(max);
        self.shard_rounds += (r.shards.len() + r.failed.len()) as u64;
        self.shard_failures += r.failed.len() as u64;
    }

    /// Fold in one delta report.
    pub fn delta(&mut self, ms: f64, r: &ShardedDeltaReport) {
        self.delta_ms.push(ms);
        for s in &r.shards {
            let t = s.round_micros as f64 / 1e3;
            self.retrain_sum_ms += t;
            self.retrain_max_ms = self.retrain_max_ms.max(t);
            self.delta_refit += s.outcome.dirty_signatures;
            self.delta_deferred += s.outcome.deferred_signatures;
            self.delta_dropped += s.outcome.dropped_regressions;
            if let DeltaDecision::Published { .. } = s.outcome.decision {
                self.published += 1;
            }
        }
        self.shard_rounds += (r.shards.len() + r.failed.len()) as u64;
        self.shard_failures += r.failed.len() as u64;
    }

    /// Everything but the wall times, which legitimately differ per cycle.
    pub fn counts(&self) -> Vec<usize> {
        vec![
            self.fits_warm,
            self.fits_cold,
            self.fits_reused,
            self.published,
            self.rejected,
            self.delta_refit,
            self.delta_deferred,
            self.delta_dropped,
        ]
    }

    /// Report the `feedback.*` and `trainer.*` metrics.
    pub fn report(&self, report: &mut Report) {
        report.metric(
            "feedback.epoch_call_ms",
            stats::median(&mut self.epoch_ms.clone()),
            "ms",
        );
        if !self.delta_ms.is_empty() {
            report.metric(
                "feedback.delta_call_ms",
                stats::median(&mut self.delta_ms.clone()),
                "ms",
            );
        }
        report.metric("trainer.retrain_ms.sum", self.retrain_sum_ms, "ms");
        report.metric("trainer.retrain_ms.max", self.retrain_max_ms, "ms");
        report.metric("trainer.fits_warm", self.fits_warm as f64, "count");
        report.metric("trainer.fits_cold", self.fits_cold as f64, "count");
        report.metric("trainer.fits_reused", self.fits_reused as f64, "count");
        report.metric("feedback.published", self.published as f64, "count");
        report.metric("feedback.rejected", self.rejected as f64, "count");
        report.metric("feedback.delta_refit", self.delta_refit as f64, "count");
        report.metric(
            "feedback.delta_deferred",
            self.delta_deferred as f64,
            "count",
        );
        report.metric("feedback.delta_dropped", self.delta_dropped as f64, "count");
    }
}

/// Derived child spans of one entry-point call: each shard's reported round
/// time, placed at the end of the call (rounds run after serving) and
/// labelled as derived.
pub fn round_spans(rec: &Recorder, call: &Span, round_micros: &[u128]) {
    for &micros in round_micros {
        let len = (micros as u64 * 1_000).min(call.len());
        let mut s = Span::timed("shard_round", call.end - len, call.end, NO_REQUEST);
        s.derived = true;
        s.thread = call.thread;
        rec.record(s);
    }
}

/// Prediction-cache hits and misses of the fleet's serving models across
/// one call (the models current when it starts serve its jobs).
struct CacheProbe(Vec<(Arc<LearnedCostModel>, u64, u64)>);

impl CacheProbe {
    fn start(fleet: &ShardedFeedbackLoop) -> CacheProbe {
        CacheProbe(
            fleet
                .registry()
                .shards()
                .iter()
                .filter_map(|s| s.registry().current())
                .map(|snap| {
                    let model = Arc::clone(snap.cost_model());
                    let st = model.cache_stats();
                    (model, st.hits as u64, st.misses as u64)
                })
                .collect(),
        )
    }

    fn finish(self, totals: &mut (u64, u64)) {
        for (model, hits, misses) in self.0 {
            let st = model.cache_stats();
            totals.0 += st.hits as u64 - hits;
            totals.1 += st.misses as u64 - misses;
        }
    }
}

/// One replay of the whole suite from a cold fleet.
pub struct Cycle {
    /// Jobs served by the rounds.
    pub jobs: usize,
    /// Wall time of the rounds (s).
    pub seconds: f64,
    /// Round counters.
    pub rounds: Rounds,
    /// Served version per shard after every call, then the quality bits.
    pub fingerprint: Vec<u64>,
    /// Held-out quality.
    pub quality: Quality,
    /// Routing outcomes over the rounds: own, donor, fallback.
    pub routing: [u64; 3],
    /// Prediction-cache hits and misses over the rounds.
    pub cache: (u64, u64),
}

fn cycle(
    compiled: &cleo_core::scenario::CompiledSuite,
    baseline: &TelemetryLog,
    host: &Host,
    rec: Option<&Recorder>,
    gate: &mut Gate,
) -> Cycle {
    let mut fleet = common::fleet(compiled, host);
    let mut rounds = Rounds::default();
    let mut fingerprint = Vec::new();
    let mut routing = [0u64; 3];
    let mut cache = (0, 0);
    let mut jobs_total = 0;
    let started = Instant::now();
    for day in 0..DAYS - 1 {
        let jobs: Vec<&JobSpec> = common::day_jobs(compiled, day);
        let (first, second) = jobs.split_at(jobs.len() / 2);
        jobs_total += jobs.len();

        let probe = CacheProbe::start(&fleet);
        let t = trace::now_ns();
        let delta = fleet.run_delta_round(first).expect("delta round");
        let end = trace::now_ns();
        probe.finish(&mut cache);
        rounds.delta((end - t) as f64 / 1e6, &delta);
        gate.check(gate::count_equal(
            "delta round routed jobs",
            delta.routing.total(),
            first.len() as u64,
        ));
        gate.check(gate::count_equal(
            "delta round jobs",
            delta.jobs_run as u64,
            first.len() as u64,
        ));
        routing[0] += delta.routing.own_hits;
        routing[1] += delta.routing.donor_hits;
        routing[2] += delta.routing.fallback_hits;
        fingerprint.extend(delta.shards.iter().map(|s| s.served_version));
        if let Some(rec) = rec {
            let call = Span::timed("run_delta_round", t, end, NO_REQUEST);
            let micros: Vec<u128> = delta.shards.iter().map(|s| s.round_micros).collect();
            round_spans(rec, &call, &micros);
            rec.record(call);
        }

        let probe = CacheProbe::start(&fleet);
        let t = trace::now_ns();
        let epoch = fleet.run_epoch(second).expect("epoch");
        let end = trace::now_ns();
        probe.finish(&mut cache);
        rounds.epoch((end - t) as f64 / 1e6, &epoch);
        gate.check(gate::count_equal(
            "epoch routed jobs",
            epoch.routing.total(),
            second.len() as u64,
        ));
        gate.check(gate::count_equal(
            "epoch jobs",
            epoch.jobs_run as u64,
            second.len() as u64,
        ));
        routing[0] += epoch.routing.own_hits;
        routing[1] += epoch.routing.donor_hits;
        routing[2] += epoch.routing.fallback_hits;
        fingerprint.extend(epoch.shards.iter().map(|s| s.served_version));
        if let Some(rec) = rec {
            let call = Span::timed("run_epoch", t, end, NO_REQUEST);
            let micros: Vec<u128> = epoch.shards.iter().map(|s| s.retrain_micros).collect();
            round_spans(rec, &call, &micros);
            rec.record(call);
        }
    }
    let seconds = started.elapsed().as_secs_f64();
    gate.check(gate::ensure(rounds.shard_failures == 0, || {
        format!("{} shard rounds failed", rounds.shard_failures)
    }));
    let held_out = common::day_jobs(compiled, DAYS - 1);
    let quality = common::score(&fleet, &held_out, baseline, gate);
    fingerprint.extend(quality.bits());
    Cycle {
        jobs: jobs_total,
        seconds,
        rounds,
        fingerprint,
        quality,
        routing,
        cache,
    }
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
    let mut compiled: Option<cleo_core::scenario::CompiledSuite> = None;
    let mut baseline = TelemetryLog::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        let (c, ms) = common::compile(&suite(seed), host);
        baseline = common::holdout(&common::day_jobs(&c, DAYS - 1), host);
        setups.push(t.elapsed().as_secs_f64());
        compile_ms.push(ms);
        if let Some(prev) = &compiled {
            gate.check(gate::ensure(prev.workloads == c.workloads, || {
                "suite compilation is not deterministic".to_string()
            }));
        }
        compiled = Some(c);
    }
    let compiled = compiled.expect("at least one set-up");
    if !traced {
        report.metric("setup_s", stats::median(&mut setups), "s");
    }
    report.info("suite_jobs", compiled.total_jobs().to_string());

    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let mut plain: Vec<Cycle> = Vec::new();
    let mut traced_cycles: Vec<Cycle> = Vec::new();
    let rec = Recorder::default();
    let mut spans: Vec<Span> = Vec::new();
    while plain.len() < MIN_CYCLES || Instant::now() < deadline {
        plain.push(cycle(&compiled, &baseline, host, None, gate));
        if traced {
            let t = trace::now_ns();
            let c = cycle(&compiled, &baseline, host, Some(&rec), gate);
            let mut s = Span::timed("cycle", t, trace::now_ns(), NO_REQUEST);
            s.rows = c.jobs as u32;
            rec.record(s);
            traced_cycles.push(c);
            spans = link(rec.take());
        }
    }
    let first = &plain[0];
    for c in plain.iter().chain(&traced_cycles) {
        gate.check(gate::ensure(c.fingerprint == first.fingerprint, || {
            "a replay cycle published different versions or scored different quality".to_string()
        }));
        gate.check(gate::ensure(
            c.rounds.counts() == first.rounds.counts(),
            || "a replay cycle's round counters differ".to_string(),
        ));
        report.ops(
            c.jobs as u64 + c.rounds.shard_rounds,
            c.rounds.shard_failures,
        );
    }
    report.info("cycles", plain.len().to_string());
    let cycle_s: Vec<String> = plain.iter().map(|c| common::json_num(c.seconds)).collect();
    report.info("cycle_s", format!("[{}]", cycle_s.join(", ")));
    report.info("jobs_per_cycle", first.jobs.to_string());
    let mut rates: Vec<f64> = plain.iter().map(|c| c.jobs as f64 / c.seconds).collect();

    if !traced {
        report.metric("jobs_s", stats::median(&mut rates), "jobs/s");
        first.quality.report(report);
        return;
    }
    let mut plain_s: Vec<f64> = plain.iter().map(|c| c.seconds).collect();
    let mut traced_s: Vec<f64> = traced_cycles.iter().map(|c| c.seconds).collect();
    report.metric(
        "trace.overhead_pct",
        (stats::median(&mut traced_s) / stats::median(&mut plain_s) - 1.0) * 100.0,
        "%",
    );
    let last = traced_cycles.last().expect("a traced cycle");
    let mut rounds = last.rounds.clone();
    rounds.epoch_ms = traced_cycles
        .iter()
        .flat_map(|c| c.rounds.epoch_ms.clone())
        .collect();
    rounds.delta_ms = traced_cycles
        .iter()
        .flat_map(|c| c.rounds.delta_ms.clone())
        .collect();
    rounds.report(report);
    last.quality.report_layers(report);
    let [own, donor, fallback] = last.routing;
    report.metric("router.own_hits", own as f64, "count");
    report.metric("router.donor_hits", donor as f64, "count");
    report.metric("router.fallback_hits", fallback as f64, "count");
    report.metric(
        "router.own_share",
        own as f64 / (own + donor + fallback).max(1) as f64,
        "ratio",
    );
    let (hits, misses) = last.cache;
    report.metric(
        "integration.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    report.metric(
        "feedback.entry_self_ms.derived",
        entry_self_ms(&spans),
        "ms",
    );
    report.metric("scenario.compile_ms", stats::median(&mut compile_ms), "ms");
    crate::write_spans("fleet_replay", seed, &spans);
}

/// Link recorded spans: each derived span to the call that contains it on
/// the same thread, each call to the cycle that contains it.
pub fn link(mut spans: Vec<Span>) -> Vec<Span> {
    let parents: Vec<Option<usize>> = spans
        .iter()
        .map(|s| {
            spans
                .iter()
                .enumerate()
                .filter(|(_, p)| {
                    p.name != s.name
                        && p.start <= s.start
                        && s.end <= p.end
                        && (p.len() > s.len() || s.derived)
                        && !p.derived
                        && p.thread == s.thread
                })
                .min_by_key(|(_, p)| p.len())
                .map(|(i, _)| i)
        })
        .collect();
    for (s, p) in spans.iter_mut().zip(parents) {
        s.parent = p;
    }
    spans
}

/// Median self time of the entry-point calls once their derived shard
/// rounds are taken out: serving, simulation and partitioning (derived).
pub fn entry_self_ms(spans: &[Span]) -> f64 {
    let mut selfs: Vec<f64> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "run_epoch" || s.name == "run_delta_round")
        .map(|(i, s)| {
            let kids: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| c.parent == Some(i))
                .map(|c| (c.start, c.end))
                .collect();
            trace::self_time(s.start, s.end, &kids) as f64 / 1e6
        })
        .collect();
    stats::median(&mut selfs)
}

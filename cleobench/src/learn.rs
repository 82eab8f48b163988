//! `ingest_train`: set-up encodes a multi-day telemetry firehose as NDJSON
//! and `CLT1` bytes; the run ingests the NDJSON backfill into a cold fleet's
//! windows (`ingest_firehose`), retrains over the filled windows
//! (`run_epoch(&[])`), feeds the live tail in `CLT1` chunks each followed by
//! a delta round (`run_delta_round(&[])`), and restores the fleet through
//! `save_snapshots` / `load_snapshots`.  Nothing is served apart from the
//! final quality scoring, so this isolates telemetry decode, windowing, the
//! trainer, the registry and snapshot I/O; serving changes should leave it
//! unchanged.  Its timed steps run on one thread (see [`Host::serial`]); the
//! parse timings are also taken at every core.

use std::path::PathBuf;
use std::time::Instant;

use cleo_core::ingest::{ingest_firehose, parse_telemetry, WireFormat};
use cleo_core::scenario::CompiledSuite;
use cleo_core::sharding::{ShardedFeedbackLoop, ShardedRegistry};
use cleo_engine::telemetry::TelemetryLog;
use cleo_engine::telemetry_io::{scan_ndjson, write_binary, write_ndjson};
use cleo_engine::workload::JobSpec;
use cleo_engine::DayIndex;

use crate::common::{self, Host, Quality, Report};
use crate::gate::{self, Gate};
use crate::replay::{link, round_spans, Rounds};
use crate::stats;
use crate::trace::{self, Recorder, Span, NO_REQUEST};

/// Days in the suite: the backfill, one live-tail day, one held-out day.
const DAYS: u32 = 6;
/// `CLT1` chunks the live-tail day arrives in (one delta round each).
const TAIL_CHUNKS: usize = 4;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 11;
/// Fewest cycles a run measures, however short its time.
const MIN_CYCLES: usize = 3;

fn suite(seed: u64) -> String {
    format!(
        "# Ingest and train: six tenants' telemetry history, one drifting.\n\
         suite ingest_train days={DAYS} seed={seed}\n\
         cluster c0 scale=small instances=3 families=16\n\
         cluster c1 scale=small instances=3 families=16\n\
         cluster c2 scale=small instances=3 families=16 tables=8\n\
         cluster c3 scale=small instances=3 families=12\n\
         cluster c4 scale=small instances=3 families=16\n\
         cluster c5 scale=small instances=3 families=16 tables=16\n\
         drift c0 from=3 rate=1.2\n"
    )
}

/// The encoded firehose.
struct Firehose {
    /// Backfill days as NDJSON.
    ndjson: String,
    /// The same backfill as `CLT1`.
    clt1: Vec<u8>,
    /// Records in the backfill.
    backfill_jobs: usize,
    /// The live-tail day as `CLT1` chunks, with their record counts.
    tail: Vec<(Vec<u8>, usize)>,
    /// The held-out day under the default model's plans.
    baseline: TelemetryLog,
}

fn setup(compiled: &CompiledSuite, host: &Host) -> Firehose {
    let jobs: Vec<&JobSpec> = compiled
        .stream()
        .into_iter()
        .filter(|j| j.meta.day.0 < DAYS - 1)
        .collect();
    let log = common::holdout(&jobs, host);
    let backfill = log.slice_days(DayIndex(0), DayIndex(DAYS - 3));
    let tail_day: Vec<_> = log
        .jobs()
        .iter()
        .filter(|j| j.day() == DayIndex(DAYS - 2))
        .cloned()
        .collect();
    let per_chunk = tail_day.len().div_ceil(TAIL_CHUNKS).max(1);
    let tail = tail_day
        .chunks(per_chunk)
        .map(|c| (write_binary(&TelemetryLog::from_jobs(c.to_vec())), c.len()))
        .collect();
    Firehose {
        ndjson: write_ndjson(&backfill),
        clt1: write_binary(&backfill),
        backfill_jobs: backfill.len(),
        tail,
        baseline: common::holdout(&common::day_jobs(compiled, DAYS - 1), host),
    }
}

/// One pass over the firehose into a cold fleet.
struct Cycle {
    ingest_ms: f64,
    epoch_s: f64,
    delta_ms: Vec<f64>,
    save_ms: f64,
    load_ms: f64,
    bytes: u64,
    rounds: Rounds,
    records: u64,
    fingerprint: Vec<u64>,
    quality: Quality,
    seconds: f64,
}

fn scratch_dir() -> PathBuf {
    PathBuf::from(".bench_build")
        .join("cleobench")
        .join(format!("snapshots-{}", std::process::id()))
}

fn ingest(
    fleet: &mut ShardedFeedbackLoop,
    buf: &[u8],
    format: WireFormat,
    expected: usize,
    host: &Host,
    gate: &mut Gate,
) -> f64 {
    let t = Instant::now();
    let r = ingest_firehose(fleet, buf, format, host.parse_threads).expect("firehose ingest");
    let ms = common::ms(t);
    gate.check(gate::count_equal(
        "parsed records",
        r.parsed_jobs as u64,
        expected as u64,
    ));
    gate.check(gate::count_equal(
        "windowed records",
        r.accepted_jobs as u64,
        expected as u64,
    ));
    ms
}

fn cycle(
    compiled: &CompiledSuite,
    fire: &Firehose,
    host: &Host,
    rec: Option<&Recorder>,
    gate: &mut Gate,
) -> Cycle {
    let started = Instant::now();
    let mut fleet = common::fleet(compiled, host);
    let mut rounds = Rounds::default();
    let mut fingerprint = Vec::new();
    let span = |name: &'static str, t: u64| {
        if let Some(rec) = rec {
            rec.record(Span::timed(name, t, trace::now_ns(), NO_REQUEST));
        }
    };

    let t = trace::now_ns();
    let ingest_ms = ingest(
        &mut fleet,
        fire.ndjson.as_bytes(),
        WireFormat::Ndjson,
        fire.backfill_jobs,
        host,
        gate,
    );
    span("ingest_firehose", t);
    let mut records = fire.backfill_jobs as u64;

    let t = trace::now_ns();
    let epoch = fleet.run_epoch(&[]).expect("epoch over filled windows");
    let end = trace::now_ns();
    let epoch_s = (end - t) as f64 / 1e9;
    rounds.epoch(epoch_s * 1e3, &epoch);
    fingerprint.extend(epoch.shards.iter().map(|s| s.served_version));
    if let Some(rec) = rec {
        let call = Span::timed("run_epoch", t, end, NO_REQUEST);
        let micros: Vec<u128> = epoch.shards.iter().map(|s| s.retrain_micros).collect();
        round_spans(rec, &call, &micros);
        rec.record(call);
    }

    let mut delta_ms = Vec::new();
    for (chunk, n) in &fire.tail {
        let t = trace::now_ns();
        ingest(&mut fleet, chunk, WireFormat::Binary, *n, host, gate);
        span("ingest_firehose", t);
        records += *n as u64;
        let t = trace::now_ns();
        let delta = fleet.run_delta_round(&[]).expect("delta round");
        let end = trace::now_ns();
        delta_ms.push((end - t) as f64 / 1e6);
        rounds.delta((end - t) as f64 / 1e6, &delta);
        fingerprint.extend(delta.shards.iter().map(|s| s.served_version));
        if let Some(rec) = rec {
            let call = Span::timed("run_delta_round", t, end, NO_REQUEST);
            let micros: Vec<u128> = delta.shards.iter().map(|s| s.round_micros).collect();
            round_spans(rec, &call, &micros);
            rec.record(call);
        }
    }
    gate.check(gate::ensure(rounds.shard_failures == 0, || {
        format!("{} shard rounds failed", rounds.shard_failures)
    }));

    // Restore: save every warm shard, load into a new registry, and check
    // that re-encoding the loaded shards reproduces the files byte for byte.
    let dir = scratch_dir();
    let _ = std::fs::remove_dir_all(&dir);
    let registry = fleet.registry();
    let t = trace::now_ns();
    let saved = registry.save_snapshots(&dir).expect("save snapshots");
    span("save_snapshots", t);
    let save_ms = (trace::now_ns() - t) as f64 / 1e6;
    let t = trace::now_ns();
    let restored =
        ShardedRegistry::load_snapshots(compiled.clusters(), &dir).expect("load snapshots");
    span("load_snapshots", t);
    let load_ms = (trace::now_ns() - t) as f64 / 1e6;
    gate.check(gate::ensure(!saved.is_empty(), || {
        "no shard was warm to save".to_string()
    }));
    let mut bytes = 0u64;
    for cluster in &saved {
        let on_disk = std::fs::read(dir.join(ShardedRegistry::snapshot_file_name(*cluster)))
            .expect("read saved snapshot");
        bytes += on_disk.len() as u64;
        let again = restored
            .shard(*cluster)
            .expect("restored shard")
            .snapshot_bytes()
            .expect("re-encode restored shard");
        gate.check(gate::bytes_equal(
            &format!("CMS1 save-load-save of c{}", cluster.0),
            &again,
            &on_disk,
        ));
        gate.check(gate::count_equal(
            &format!("restored version of c{}", cluster.0),
            restored.shard_version(*cluster),
            registry.shard_version(*cluster),
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);
    let seconds = started.elapsed().as_secs_f64();

    let held_out = common::day_jobs(compiled, DAYS - 1);
    let quality = common::score(&fleet, &held_out, &fire.baseline, gate);
    fingerprint.extend(quality.bits());
    fingerprint.push(bytes);
    Cycle {
        ingest_ms,
        epoch_s,
        delta_ms,
        save_ms,
        load_ms,
        bytes,
        rounds,
        records,
        fingerprint,
        quality,
        seconds,
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
    let mut state: Option<(CompiledSuite, Firehose)> = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let (compiled, ms) = common::compile(&suite(seed), host);
        let fire = setup(&compiled, host);
        setups.push(t.elapsed().as_secs_f64());
        compile_ms.push(ms);
        if let Some((_, prev)) = &state {
            gate.check(gate::ensure(
                prev.ndjson == fire.ndjson && prev.clt1 == fire.clt1 && prev.tail == fire.tail,
                || "firehose encoding is not deterministic".to_string(),
            ));
        }
        state = Some((compiled, fire));
    }
    let (compiled, fire) = state.expect("at least one set-up");
    if !traced {
        report.metric("setup_s", stats::median(&mut setups), "s");
    }
    report.info("backfill_records", fire.backfill_jobs.to_string());
    report.info("ndjson_bytes", fire.ndjson.len().to_string());
    report.info("clt1_bytes", fire.clt1.len().to_string());

    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let rec = Recorder::default();
    let mut plain: Vec<Cycle> = Vec::new();
    let mut traced_cycles: Vec<Cycle> = Vec::new();
    let mut layers = Layers::default();
    let mut spans = Vec::new();
    while plain.len() < MIN_CYCLES || Instant::now() < deadline {
        plain.push(cycle(&compiled, &fire, host, None, gate));
        if traced {
            traced_cycles.push(cycle(&compiled, &fire, host, Some(&rec), gate));
            spans = link(rec.take());
            layers.measure(&compiled, &fire, host, gate);
        }
    }
    let first = &plain[0];
    for c in plain.iter().chain(&traced_cycles) {
        gate.check(gate::ensure(c.fingerprint == first.fingerprint, || {
            "an ingest-train cycle published different versions or scored different quality"
                .to_string()
        }));
        gate.check(gate::ensure(
            c.rounds.counts() == first.rounds.counts(),
            || "an ingest-train cycle's round counters differ".to_string(),
        ));
        report.ops(c.records + c.rounds.shard_rounds, c.rounds.shard_failures);
    }
    report.info("cycles", plain.len().to_string());
    let cycle_s: Vec<String> = plain.iter().map(|c| common::json_num(c.seconds)).collect();
    report.info("cycle_s", format!("[{}]", cycle_s.join(", ")));

    if !traced {
        // The headline rate: records carried through a whole cycle (ingest,
        // retrain, delta rounds, restore) per second.  The steps' own
        // medians are info fields.
        let mut rates: Vec<f64> = plain.iter().map(|c| c.records as f64 / c.seconds).collect();
        report.metric("jobs_s", stats::median(&mut rates), "jobs/s");
        let med = |f: &dyn Fn(&Cycle) -> Vec<f64>| {
            let mut v: Vec<f64> = plain.iter().flat_map(f).collect();
            common::json_num(stats::median(&mut v))
        };
        report.info(
            "ingest_jobs_s",
            med(&|c| vec![fire.backfill_jobs as f64 / (c.ingest_ms / 1e3)]),
        );
        report.info("epoch_s", med(&|c| vec![c.epoch_s]));
        report.info("delta_ms", med(&|c| c.delta_ms.clone()));
        report.info("restore_ms", med(&|c| vec![c.save_ms + c.load_ms]));
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
    report.metric(
        "feedback.entry_self_ms.derived",
        crate::replay::entry_self_ms(&spans),
        "ms",
    );
    let mut ingest_ms: Vec<f64> = traced_cycles.iter().map(|c| c.ingest_ms).collect();
    report.metric(
        "ingest.mb_s",
        fire.ndjson.len() as f64 / 1e6 / (stats::median(&mut ingest_ms) / 1e3),
        "MB/s",
    );
    layers.report(report, host);
    let mut save: Vec<f64> = traced_cycles.iter().map(|c| c.save_ms).collect();
    let mut load: Vec<f64> = traced_cycles.iter().map(|c| c.load_ms).collect();
    report.metric("snapshot.save_ms", stats::median(&mut save), "ms");
    report.metric("snapshot.load_ms", stats::median(&mut load), "ms");
    report.metric("snapshot.bytes", last.bytes as f64, "bytes");
    report.metric("scenario.compile_ms", stats::median(&mut compile_ms), "ms");
    crate::write_spans("ingest_train", seed, &spans);
}

/// Isolated timings of the ingest layer's parts: the allocation-free scan,
/// the materializing parse of each wire format at one thread and at every
/// core, and windowing an already-parsed log.
#[derive(Default)]
struct Layers {
    scan_ms: Vec<f64>,
    ndjson_1: Vec<f64>,
    ndjson_n: Vec<f64>,
    clt1_1: Vec<f64>,
    clt1_n: Vec<f64>,
    observe_ms: Vec<f64>,
}

impl Layers {
    fn measure(&mut self, compiled: &CompiledSuite, fire: &Firehose, host: &Host, gate: &mut Gate) {
        let t = Instant::now();
        let scan = scan_ndjson(fire.ndjson.as_bytes()).expect("scan backfill");
        self.scan_ms.push(common::ms(t));
        gate.check(gate::count_equal(
            "scanned records",
            scan.jobs as u64,
            fire.backfill_jobs as u64,
        ));
        let mut parse = |buf: &[u8], format: WireFormat, threads: usize, out: &mut Vec<f64>| {
            let t = Instant::now();
            let log = parse_telemetry(buf, format, threads).expect("parse backfill");
            out.push(common::ms(t));
            gate.check(gate::count_equal(
                &format!("{} records parsed at {threads} threads", format.name()),
                log.len() as u64,
                fire.backfill_jobs as u64,
            ));
            log
        };
        parse(
            fire.ndjson.as_bytes(),
            WireFormat::Ndjson,
            1,
            &mut self.ndjson_1,
        );
        parse(
            fire.ndjson.as_bytes(),
            WireFormat::Ndjson,
            host.cores,
            &mut self.ndjson_n,
        );
        parse(&fire.clt1, WireFormat::Binary, 1, &mut self.clt1_1);
        let log = parse(&fire.clt1, WireFormat::Binary, host.cores, &mut self.clt1_n);
        let mut fleet = common::fleet(compiled, host);
        let t = Instant::now();
        let observed = fleet.observe(log).expect("observe backfill");
        self.observe_ms.push(common::ms(t));
        gate.check(gate::count_equal(
            "observed records",
            observed.accepted_jobs as u64,
            fire.backfill_jobs as u64,
        ));
    }

    fn report(&self, report: &mut Report, host: &Host) {
        let n = host.cores;
        let med = |v: &Vec<f64>| stats::median(&mut v.clone());
        report.metric("ingest.scan_ms", med(&self.scan_ms), "ms");
        report.metric("ingest.parse_ndjson_ms.t1", med(&self.ndjson_1), "ms");
        report.metric("ingest.parse_ndjson_ms.tn", med(&self.ndjson_n), "ms");
        report.metric("ingest.parse_clt1_ms.t1", med(&self.clt1_1), "ms");
        report.metric("ingest.parse_clt1_ms.tn", med(&self.clt1_n), "ms");
        report.metric("ingest.observe_ms", med(&self.observe_ms), "ms");
        report.info("parse_threads_tn", n.to_string());
    }
}

//! Streaming parallel telemetry ingestion: firehose bytes → shard windows.
//!
//! The serving tier's training data arrives as telemetry dumps — NDJSON or
//! compact binary (see `cleo_engine::telemetry_io`).  Parsing a day of
//! telemetry is embarrassingly parallel *if* the split points respect record
//! boundaries, so [`parse_telemetry`] cuts the buffer into newline-aligned
//! chunks (via [`cleo_common::scan::split_at_newline`]) or record-aligned
//! payload ranges, parses them on [`std::thread::scope`] workers, and merges
//! the per-chunk logs back **in byte order** — making the parallel parse
//! bit-identical to the serial one, for any thread count.
//!
//! Error reporting stays serial-exact too: workers number lines/records from
//! their chunk's absolute offset, and the merge re-checks day order across
//! chunk boundaries (each worker can only see order violations *within* its
//! chunk), probing the offending record so the span points at the same day
//! token a serial read would have flagged.
//!
//! [`ingest_firehose`] is the end-to-end path: parallel parse, then
//! [`ShardedFeedbackLoop::observe`] — partition by cluster and window on the
//! loop's shard thread pool.  [`parse_telemetry_quarantine`] is the resilient
//! parse for live feeds: it refuses bad records one at a time instead of
//! aborting, and reports into the caller's [`Instruments`].

use cleo_common::fault::{FaultPlan, FaultSite};
use cleo_common::obs::TraceEvent;
use cleo_common::scan::{split_at_newline, Lines};
use cleo_common::{CleoError, Instruments, Result};
use cleo_engine::telemetry::TelemetryLog;
use cleo_engine::telemetry_io::{
    binary_record_payloads, decode_binary_record, ndjson_line_day, read_binary, read_ndjson,
    read_ndjson_at, BINARY_DAY_SPAN,
};

use crate::sharding::ShardedFeedbackLoop;

/// Which telemetry wire format a buffer holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFormat {
    /// One JSON record per newline-terminated line (canonical field order).
    Ndjson,
    /// Length-prefixed little-endian records behind the `CLT1` magic.
    Binary,
}

impl WireFormat {
    /// Stable lowercase name (used in bench/report output).
    pub fn name(&self) -> &'static str {
        match self {
            WireFormat::Ndjson => "ndjson",
            WireFormat::Binary => "binary",
        }
    }
}

/// Chunks smaller than this aren't worth a thread: the scope spawn plus the
/// cross-boundary probe would cost more than the parse.
const MIN_CHUNK_BYTES: usize = 16 * 1024;

/// Parse a telemetry buffer with up to `threads` worker threads.
///
/// `threads <= 1` (or a buffer too small to split) parses serially.  The
/// parallel result is **bit-identical** to the serial one — chunk boundaries
/// land on record boundaries, workers parse disjoint ranges, and the merge
/// concatenates in byte order — and malformed input fails with the same
/// line/record number and byte span a serial parse reports.
pub fn parse_telemetry(buf: &[u8], format: WireFormat, threads: usize) -> Result<TelemetryLog> {
    match format {
        WireFormat::Ndjson => parse_ndjson_parallel(buf, threads),
        WireFormat::Binary => parse_binary_parallel(buf, threads),
    }
}

fn parse_ndjson_parallel(buf: &[u8], threads: usize) -> Result<TelemetryLog> {
    let threads = threads.max(1).min(buf.len() / MIN_CHUNK_BYTES.max(1));
    if threads <= 1 {
        return read_ndjson(buf);
    }

    let chunks = ndjson_chunks(buf, threads);
    let results = fan_out(chunks.iter().copied(), |(first_line, chunk)| {
        read_ndjson_at(chunk, first_line)
    });

    // Byte-order merge with cross-boundary day-order checks.  A worker error
    // in chunk i surfaces only after the boundary probe at the *start* of
    // chunk i — exactly the order a serial read discovers problems in.
    let mut merged = TelemetryLog::new();
    let mut prev_day: Option<u32> = None;
    for (result, &(first_line, chunk)) in results.into_iter().zip(&chunks) {
        if let Some(prev) = prev_day {
            let first = cleo_common::scan::Lines::new(chunk).find(|(_, _, l)| !l.is_empty());
            if let Some((local, _, line)) = first {
                if let Ok((day, span)) = ndjson_line_day(first_line + local - 1, line) {
                    if day.0 < prev {
                        return Err(cleo_common::CleoError::Parse {
                            line: first_line + local - 1,
                            start: span.0,
                            end: span.1,
                            msg: format!(
                                "out-of-order day {}: an earlier record already reached day {prev}",
                                day.0
                            ),
                        });
                    }
                }
                // A malformed probe line falls through: the worker's own error
                // for the same line surfaces just below.
            }
        }
        let log = result?;
        if let Some(last) = log.jobs().last() {
            prev_day = Some(last.day().0);
        }
        merged.extend(log);
    }
    Ok(merged)
}

fn parse_binary_parallel(buf: &[u8], threads: usize) -> Result<TelemetryLog> {
    let threads = threads.max(1).min(buf.len() / MIN_CHUNK_BYTES.max(1));
    if threads <= 1 {
        return read_binary(buf);
    }
    // The framing walk is a cheap serial pass (length prefixes only); the
    // per-record decode is the expensive part that fans out.
    let payloads = binary_record_payloads(buf)?;
    if payloads.len() < 2 {
        return read_binary(buf);
    }
    let threads = threads.min(payloads.len());
    let per = payloads.len().div_ceil(threads);

    let results = fan_out(payloads.chunks(per).enumerate(), |(i, range)| {
        let base = i * per;
        let mut jobs = Vec::with_capacity(range.len());
        let mut prev_day: Option<u32> = None;
        for (k, payload) in range.iter().enumerate() {
            let record = base + k + 1;
            let job = decode_binary_record(record, payload)?;
            let day = job.day().0;
            if let Some(prev) = prev_day {
                if day < prev {
                    return Err(cleo_common::CleoError::Parse {
                        line: record,
                        start: BINARY_DAY_SPAN.0,
                        end: BINARY_DAY_SPAN.1,
                        msg: format!(
                            "out-of-order day {day}: an earlier record already reached day {prev}"
                        ),
                    });
                }
            }
            prev_day = Some(day);
            jobs.push(job);
        }
        Ok(TelemetryLog::from_jobs(jobs))
    });

    let mut merged = TelemetryLog::new();
    let mut prev_day: Option<u32> = None;
    for (i, result) in results.into_iter().enumerate() {
        let base = i * per;
        if let Some(prev) = prev_day {
            if let Ok(job) = decode_binary_record(base + 1, payloads[base]) {
                if job.day().0 < prev {
                    return Err(cleo_common::CleoError::Parse {
                        line: base + 1,
                        start: BINARY_DAY_SPAN.0,
                        end: BINARY_DAY_SPAN.1,
                        msg: format!(
                            "out-of-order day {}: an earlier record already reached day {prev}",
                            job.day().0
                        ),
                    });
                }
            }
        }
        let log = result?;
        if let Some(last) = log.jobs().last() {
            prev_day = Some(last.day().0);
        }
        merged.extend(log);
    }
    Ok(merged)
}

/// Newline-aligned chunk plan: `buf` cut into at most `threads` chunks at
/// line boundaries, each paired with its first line's 1-based number (one
/// past the newlines before it).
fn ndjson_chunks(buf: &[u8], threads: usize) -> Vec<(usize, &[u8])> {
    let mut bounds = vec![0usize];
    for t in 1..threads {
        let target = buf.len() * t / threads;
        let cut = split_at_newline(buf, target).max(*bounds.last().expect("non-empty"));
        if cut > *bounds.last().expect("non-empty") {
            bounds.push(cut);
        }
    }
    bounds.push(buf.len());
    let mut first_line = 1usize;
    bounds
        .windows(2)
        .map(|w| {
            let chunk = &buf[w[0]..w[1]];
            let entry = (first_line, chunk);
            first_line += chunk.iter().filter(|&&b| b == b'\n').count();
            entry
        })
        .collect()
}

/// Run `work` on every item, one scoped thread per item, returning the
/// results in item order (so a byte-order merge sees chunks in byte order).
fn fan_out<I: Send, R: Send>(
    items: impl IntoIterator<Item = I>,
    work: impl Fn(I) -> R + Sync,
) -> Vec<R> {
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .into_iter()
            .map(|item| scope.spawn(move || work(item)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("ingest parse worker panicked"))
            .collect()
    })
}

/// What one firehose ingest did, end to end.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Records parsed out of the buffer.
    pub parsed_jobs: usize,
    /// Records accepted into some shard's window.
    pub accepted_jobs: usize,
    /// Records whose cluster has no registry shard (dropped).
    pub unrouted_jobs: usize,
    /// Records evicted by the standard window policy during the observe.
    pub evicted_jobs: usize,
    /// Shards whose observe round was lost to an isolated failure.
    pub failed_shards: usize,
    /// Parse worker threads requested.
    pub threads: usize,
}

/// Parse a telemetry buffer in parallel and feed it into a sharded feedback
/// loop's per-cluster windows: the full firehose-to-training-window path.
pub fn ingest_firehose(
    fleet: &mut ShardedFeedbackLoop,
    buf: &[u8],
    format: WireFormat,
    threads: usize,
) -> Result<IngestReport> {
    let log = parse_telemetry(buf, format, threads)?;
    let parsed_jobs = log.len();
    let observed = fleet.observe(log)?;
    Ok(IngestReport {
        parsed_jobs,
        accepted_jobs: observed.accepted_jobs,
        unrouted_jobs: observed.unrouted_jobs,
        evicted_jobs: observed.evicted_jobs,
        failed_shards: observed.failed_shards,
        threads,
    })
}

/// How the quarantine parse handles bad records.
///
/// The strict path ([`parse_telemetry`]) aborts on the first malformed record
/// — correct for trusted dumps, wrong for a live firehose where one poisoned
/// record would starve every healthy shard of training data.  The resilient
/// path quarantines bad records instead, up to an error budget beyond which
/// the feed itself is presumed broken.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuarantinePolicy {
    /// Quarantined record details kept for inspection (older entries beyond
    /// this are counted but dropped — the log stays bounded no matter how bad
    /// the feed gets).
    pub max_kept: usize,
    /// Abort the whole parse when more than this fraction of records
    /// quarantine: a feed that corrupt is a pipeline bug, not line noise.
    pub error_budget: f64,
}

impl Default for QuarantinePolicy {
    fn default() -> Self {
        QuarantinePolicy {
            max_kept: 64,
            error_budget: 0.05,
        }
    }
}

/// One record the resilient parse refused, with enough context to find it in
/// the original buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedRecord {
    /// 1-based record number (NDJSON line / binary record index) — the same
    /// numbering the strict path's [`CleoError::Parse`] uses.
    pub record: usize,
    /// Byte span of the offending token within the record, `(0, 0)` when no
    /// span applies (injected poison, out-of-order day caught at merge).
    pub span: (usize, usize),
    /// Why the record was refused.
    pub msg: String,
}

/// The quarantine side of a resilient parse: what was refused and why.
///
/// Bit-identical for any worker thread count under the same input and
/// [`FaultPlan`]: per-record decisions are pure functions of the record, and
/// the day-order fence runs on the serial byte-order merge.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QuarantineLog {
    /// Refused records in record order, truncated to the policy's `max_kept`.
    pub kept: Vec<QuarantinedRecord>,
    /// Total records refused (including any beyond `max_kept`).
    pub total: usize,
}

impl QuarantineLog {
    /// True when nothing was quarantined.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }
}

fn quarantine_from_error(record: usize, err: CleoError) -> QuarantinedRecord {
    match err {
        CleoError::Parse {
            line,
            start,
            end,
            msg,
        } => QuarantinedRecord {
            record: line,
            span: (start, end),
            msg,
        },
        other => QuarantinedRecord {
            record,
            span: (0, 0),
            msg: other.to_string(),
        },
    }
}

/// Parse one NDJSON chunk record-by-record, quarantining instead of aborting.
/// Pure in the chunk bytes, absolute line numbers, and the fault plan — so the
/// parallel merge is bit-identical to the serial pass.
fn quarantine_ndjson_chunk(
    chunk: &[u8],
    first_line: usize,
    faults: Option<&FaultPlan>,
) -> (
    Vec<(usize, cleo_engine::telemetry::JobTelemetry)>,
    Vec<QuarantinedRecord>,
) {
    let mut parsed = Vec::new();
    let mut quarantined = Vec::new();
    for (local, _, line) in Lines::new(chunk) {
        if line.is_empty() {
            continue;
        }
        let record = first_line + local - 1;
        if faults.is_some_and(|f| f.fires(FaultSite::PoisonRecord, record as u64)) {
            quarantined.push(QuarantinedRecord {
                record,
                span: (0, 0),
                msg: "injected fault: poisoned telemetry record".into(),
            });
            continue;
        }
        // One line at a time: a malformed record quarantines itself without
        // taking its neighbors down, and day order is deferred to the merge.
        match read_ndjson_at(line, record) {
            Ok(log) => parsed.extend(log.into_jobs().into_iter().map(|j| (record, j))),
            Err(e) => quarantined.push(quarantine_from_error(record, e)),
        }
    }
    (parsed, quarantined)
}

/// Decode one binary payload range record-by-record, quarantining decode
/// failures.  Framing errors don't reach here — without trustworthy length
/// prefixes there is no record boundary to resynchronize on.
fn quarantine_binary_chunk(
    range: &[&[u8]],
    base: usize,
    faults: Option<&FaultPlan>,
) -> (
    Vec<(usize, cleo_engine::telemetry::JobTelemetry)>,
    Vec<QuarantinedRecord>,
) {
    let mut parsed = Vec::new();
    let mut quarantined = Vec::new();
    for (k, payload) in range.iter().enumerate() {
        let record = base + k + 1;
        if faults.is_some_and(|f| f.fires(FaultSite::PoisonRecord, record as u64)) {
            quarantined.push(QuarantinedRecord {
                record,
                span: (0, 0),
                msg: "injected fault: poisoned telemetry record".into(),
            });
            continue;
        }
        match decode_binary_record(record, payload) {
            Ok(job) => parsed.push((record, job)),
            Err(e) => quarantined.push(quarantine_from_error(record, e)),
        }
    }
    (parsed, quarantined)
}

type ChunkOutcome = (
    Vec<(usize, cleo_engine::telemetry::JobTelemetry)>,
    Vec<QuarantinedRecord>,
);

/// Parse a telemetry buffer with per-record quarantine instead of first-error
/// abort.
///
/// Malformed records (and records the instruments' [`FaultPlan`] poisons) land
/// in the returned [`QuarantineLog`]; day-order regressions are fenced at the
/// serial merge, quarantining the regressing record rather than failing the
/// parse.  The kept log and the quarantine set are **bit-identical for any
/// `threads`** under the same buffer, policy, and fault plan.  The only hard
/// failures left are unrecoverable ones: broken binary framing (no boundary
/// to resync on) and a blown error budget.
///
/// With an observability handle in `instruments`, every refused record also
/// emits a [`TraceEvent::Quarantine`] (sequenced by its absolute record
/// number, so the event multiset is thread-count-invariant) and the
/// `ingest.kept_records` / `ingest.quarantined_records` counters are bumped.
/// To feed a fleet, pass its router's instruments and hand the kept log to
/// [`ShardedFeedbackLoop::observe`].
pub fn parse_telemetry_quarantine(
    buf: &[u8],
    format: WireFormat,
    threads: usize,
    policy: &QuarantinePolicy,
    instruments: &Instruments,
) -> Result<(TelemetryLog, QuarantineLog)> {
    let faults = instruments.faults.as_deref();
    let outcomes: Vec<ChunkOutcome> = match format {
        WireFormat::Ndjson => {
            let threads = threads.max(1).min(buf.len() / MIN_CHUNK_BYTES.max(1));
            if threads <= 1 {
                vec![quarantine_ndjson_chunk(buf, 1, faults)]
            } else {
                fan_out(ndjson_chunks(buf, threads), |(first_line, chunk)| {
                    quarantine_ndjson_chunk(chunk, first_line, faults)
                })
            }
        }
        WireFormat::Binary => {
            let payloads = binary_record_payloads(buf)?;
            let threads = threads.max(1).min(payloads.len().max(1));
            let per = payloads.len().div_ceil(threads).max(1);
            if threads <= 1 {
                vec![quarantine_binary_chunk(&payloads, 0, faults)]
            } else {
                fan_out(payloads.chunks(per).enumerate(), |(i, range)| {
                    quarantine_binary_chunk(range, i * per, faults)
                })
            }
        }
    };

    // Serial byte-order merge with the day-order fence: a record whose day
    // regresses below the high-water mark quarantines instead of aborting.
    let mut kept = Vec::new();
    let mut quarantined = Vec::new();
    let mut high_water: Option<u32> = None;
    for (records, chunk_quarantined) in outcomes {
        quarantined.extend(chunk_quarantined);
        for (record, job) in records {
            let day = job.day().0;
            match high_water {
                Some(prev) if day < prev => quarantined.push(QuarantinedRecord {
                    record,
                    span: (0, 0),
                    msg: format!(
                        "out-of-order day {day}: an earlier record already reached day {prev}"
                    ),
                }),
                _ => {
                    high_water = Some(day);
                    kept.push(job);
                }
            }
        }
    }
    quarantined.sort_by_key(|q| q.record);

    if let Some(obs) = &instruments.obs {
        // One event per refused record (before `max_kept` truncation — the
        // trace sees everything the budget counted), plus the aggregate
        // counters.  Emitted from the serial merge, so the stream is ordered
        // and thread-count-invariant.
        for q in &quarantined {
            obs.emit(TraceEvent::Quarantine {
                seq: q.record as u64,
                record: q.record as u64,
                line: q.record as u64,
            });
        }
        let metrics = obs.metrics();
        metrics
            .counter("ingest.kept_records")
            .add(kept.len() as u64);
        metrics
            .counter("ingest.quarantined_records")
            .add(quarantined.len() as u64);
    }

    let total_records = kept.len() + quarantined.len();
    let total_quarantined = quarantined.len();
    if total_records > 0 && total_quarantined as f64 > policy.error_budget * total_records as f64 {
        return Err(CleoError::Config(format!(
            "telemetry error budget exceeded: {total_quarantined} of {total_records} records \
             quarantined (budget {:.1}%) — refusing the whole feed",
            policy.error_budget * 100.0
        )));
    }
    let mut log = QuarantineLog {
        kept: quarantined,
        total: total_quarantined,
    };
    log.kept.truncate(policy.max_kept);
    Ok((TelemetryLog::from_jobs(kept), log))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use cleo_common::CleoError;
    use cleo_engine::exec::{Simulator, SimulatorConfig};
    use cleo_engine::physical::{JobMeta, PhysicalNode, PhysicalOpKind, PhysicalPlan};
    use cleo_engine::telemetry::JobTelemetry;
    use cleo_engine::telemetry_io::{write_binary, write_ndjson};
    use cleo_engine::types::{ClusterId, DayIndex, JobId, OpStats};

    use cleo_optimizer::HeuristicCostModel;

    use crate::feedback::{FeedbackConfig, WindowEviction};
    use crate::sharding::{
        ClusterRouter, ShardedFeedbackConfig, ShardedFeedbackLoop, ShardedRegistry,
    };

    fn sample_job(job: u64, day: u32, cluster: u8) -> JobTelemetry {
        let mut extract = PhysicalNode::new(PhysicalOpKind::Extract, "events_{date}", vec![]);
        extract.act = OpStats {
            input_cardinality: 1e5 + job as f64 * 13.0,
            base_cardinality: 1e5,
            output_cardinality: 9e4,
            avg_row_bytes: 37.0,
        };
        extract.est = extract.act;
        extract.partition_count = 8;
        let mut agg = PhysicalNode::new(PhysicalOpKind::HashAggregate, "uid;count", vec![extract]);
        agg.partition_count = 8;
        agg.est.output_cardinality = 5e3;
        let mut out = PhysicalNode::new(PhysicalOpKind::Output, "sink", vec![agg]);
        out.partition_count = 1;
        let meta = JobMeta {
            id: JobId(job),
            cluster: ClusterId(cluster),
            template: Some(cleo_engine::types::TemplateId(job % 5)),
            name: format!("hourly rollup {job}"),
            normalized_inputs: vec!["events_{date}".into()],
            params: vec![job as f64 * 0.5],
            day: DayIndex(day),
            recurring: true,
        };
        let plan = PhysicalPlan::new(meta, out);
        let run = Simulator::new(SimulatorConfig::default()).run(&plan);
        JobTelemetry::new(plan, run)
    }

    fn sample_log(jobs: usize) -> TelemetryLog {
        let mut log = TelemetryLog::new();
        for i in 0..jobs as u64 {
            log.push(sample_job(i, (i / 7) as u32, (i % 3) as u8));
        }
        log
    }

    #[test]
    fn parallel_parse_is_bit_identical_to_serial() {
        let log = sample_log(120);
        let text = write_ndjson(&log);
        let bytes = write_binary(&log);
        let serial_nd = parse_telemetry(text.as_bytes(), WireFormat::Ndjson, 1).unwrap();
        let serial_bin = parse_telemetry(&bytes, WireFormat::Binary, 1).unwrap();
        assert_eq!(serial_nd, log);
        assert_eq!(serial_bin, log);
        for threads in [2, 3, 5, 8] {
            let par = parse_telemetry(text.as_bytes(), WireFormat::Ndjson, threads).unwrap();
            assert_eq!(par, serial_nd, "ndjson x{threads}");
            assert!(par.is_day_sorted());
            let par = parse_telemetry(&bytes, WireFormat::Binary, threads).unwrap();
            assert_eq!(par, serial_bin, "binary x{threads}");
        }
    }

    #[test]
    fn parallel_errors_match_serial_line_numbers() {
        let log = sample_log(120);
        let text = write_ndjson(&log);
        // Corrupt a record deep in the buffer (forces it into a late chunk).
        let mut corrupted = text.clone().into_bytes();
        let line_starts: Vec<usize> = std::iter::once(0)
            .chain(
                corrupted
                    .iter()
                    .enumerate()
                    .filter(|(_, &b)| b == b'\n')
                    .map(|(i, _)| i + 1),
            )
            .collect();
        corrupted[line_starts[90]] = b'X';
        let serial = parse_telemetry(&corrupted, WireFormat::Ndjson, 1).unwrap_err();
        let parallel = parse_telemetry(&corrupted, WireFormat::Ndjson, 4).unwrap_err();
        assert_eq!(serial, parallel);
        assert!(
            matches!(serial, CleoError::Parse { line: 91, .. }),
            "{serial:?}"
        );

        // A day regression mid-buffer fails identically too, serial or not.
        let mut jobs = log.into_jobs();
        jobs[60].plan.meta.day = DayIndex(0);
        let regressed = TelemetryLog::from_jobs(jobs);
        let text = write_ndjson(&regressed);
        let serial = parse_telemetry(text.as_bytes(), WireFormat::Ndjson, 1).unwrap_err();
        let parallel = parse_telemetry(text.as_bytes(), WireFormat::Ndjson, 4).unwrap_err();
        assert_eq!(serial, parallel);
        assert!(
            matches!(serial, CleoError::Parse { line: 61, .. }),
            "{serial:?}"
        );
        let bytes = write_binary(&regressed);
        let serial = parse_telemetry(&bytes, WireFormat::Binary, 1).unwrap_err();
        let parallel = parse_telemetry(&bytes, WireFormat::Binary, 4).unwrap_err();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn ingest_firehose_fills_shard_windows() {
        let registry = Arc::new(ShardedRegistry::new([ClusterId(0), ClusterId(1)]));
        let router = Arc::new(ClusterRouter::with_uniform_similarity(
            registry,
            Arc::new(HeuristicCostModel::default_model()),
        ));
        let mut fleet = ShardedFeedbackLoop::new(
            ShardedFeedbackConfig {
                shard: FeedbackConfig {
                    eviction: WindowEviction::JobCount(25),
                    ..FeedbackConfig::default()
                },
                shard_threads: 2,
                ..ShardedFeedbackConfig::default()
            },
            Simulator::new(SimulatorConfig::default()),
            Arc::clone(&router),
        );

        // Clusters 0/1 have shards; cluster 2's records are unrouted.
        let log = sample_log(90);
        let per_cluster = |c: u8| log.jobs().iter().filter(|j| j.cluster().0 == c).count();
        let (c0, c1, c2) = (per_cluster(0), per_cluster(1), per_cluster(2));
        let text = write_ndjson(&log);
        let report = ingest_firehose(&mut fleet, text.as_bytes(), WireFormat::Ndjson, 4).unwrap();
        assert_eq!(report.parsed_jobs, 90);
        assert_eq!(report.accepted_jobs, c0 + c1);
        assert_eq!(report.unrouted_jobs, c2);
        // The 25-job bound already evicted the overflow.
        assert_eq!(report.evicted_jobs, (c0 + c1).saturating_sub(50));
        assert_eq!(fleet.window(ClusterId(0)).unwrap().len(), c0.min(25));
        assert_eq!(fleet.window(ClusterId(1)).unwrap().len(), c1.min(25));
        assert!(fleet.window(ClusterId(2)).is_none());
        // Windows stay day-sorted, so retrains keep the binary-search slicing.
        assert!(fleet.window(ClusterId(0)).unwrap().is_day_sorted());

        // A second ingest keeps honoring the bound.
        let report2 = ingest_firehose(&mut fleet, text.as_bytes(), WireFormat::Ndjson, 2).unwrap();
        assert_eq!(fleet.window(ClusterId(0)).unwrap().len(), 25);
        assert_eq!(report2.accepted_jobs, c0 + c1);
    }
}

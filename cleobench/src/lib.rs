//! The Cleo benchmark: end-to-end metrics of three workloads measured with
//! tracing off, and per-layer metrics from a separate traced run.
//!
//! The benchmark drives the workspace only through public functions.  Each
//! workload compiles a seeded scenario suite (`suite … seed=N`), hands the
//! program nothing but the compiled jobs or encoded telemetry, times each
//! layer from outside, and checks the program's outputs (see [`gate`]).

pub mod common;
pub mod gate;
pub mod learn;
pub mod replay;
pub mod serve;
pub mod stats;
pub mod trace;

/// The workloads, by the names `--workload` accepts.
pub const WORKLOADS: [&str; 3] = ["serve_recurring", "fleet_replay", "ingest_train"];

/// The end-to-end metrics with their units, in `BENCHMARK.json` order.  An
/// untraced run of every workload reports each of them: the set-up time, the
/// peak memory, the workload's throughput (its headline rate, see each
/// workload's module) and the held-out model accuracy.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("jobs_s", "jobs/s"),
    ("quality.corr", "ratio"),
];

/// The per-layer metrics with their units, in `BENCHMARK.json` order.  A
/// traced run reports each of them; a layer the workload does not run reads
/// 0, and the run's info line names those metrics (`idle_metrics`).
pub const PER_LAYER: [(&str, &str); 67] = [
    ("serve.p50_ms", "ms"),
    ("serve.p99_ms", "ms"),
    ("serve.max_rate_jobs_s", "jobs/s"),
    ("serving.offer_ns.p50", "ns"),
    ("serving.offer_ns.p99", "ns"),
    ("serving.queue_wait_ms.p50", "ms"),
    ("serving.queue_wait_ms.p99", "ms"),
    ("serving.batch_jobs.mean", "jobs"),
    ("serving.queue_high_water", "jobs"),
    ("serving.gen_lag_ms.p99", "ms"),
    ("serving.shed", "count"),
    ("serving.delayed", "count"),
    ("serving.expired", "count"),
    ("serving.errored", "count"),
    ("pool.worker_panics", "count"),
    ("pool.requeued", "count"),
    ("pool.errors", "count"),
    ("router.own_hits", "count"),
    ("router.donor_hits", "count"),
    ("router.fallback_hits", "count"),
    ("router.own_share", "ratio"),
    ("router.route_ns.p50", "ns"),
    ("router.snapshot_calls_per_job", "calls/job"),
    ("optimizer.optimize_us.p50", "us"),
    ("optimizer.optimize_us.p99", "us"),
    ("optimizer.enumerate_self_us.p50", "us"),
    ("optimizer.alternatives_per_job", "count/job"),
    ("optimizer.invocations_per_job", "count/job"),
    ("integration.cache_hit_ratio", "ratio"),
    ("integration.cost_call_ns.p50", "ns"),
    ("integration.cost_call_ns.p99", "ns"),
    ("integration.cost_ns_per_row", "ns/row"),
    ("integration.calls_per_job", "calls/job"),
    ("feedback.epoch_call_ms", "ms"),
    ("feedback.delta_call_ms", "ms"),
    ("feedback.entry_self_ms.derived", "ms"),
    ("feedback.published", "count"),
    ("feedback.rejected", "count"),
    ("feedback.delta_refit", "count"),
    ("feedback.delta_deferred", "count"),
    ("feedback.delta_dropped", "count"),
    ("trainer.retrain_ms.sum", "ms"),
    ("trainer.retrain_ms.max", "ms"),
    ("trainer.fits_warm", "count"),
    ("trainer.fits_cold", "count"),
    ("trainer.fits_reused", "count"),
    ("ingest.parse_ndjson_ms.t1", "ms"),
    ("ingest.parse_ndjson_ms.tn", "ms"),
    ("ingest.parse_clt1_ms.t1", "ms"),
    ("ingest.parse_clt1_ms.tn", "ms"),
    ("ingest.scan_ms", "ms"),
    ("ingest.observe_ms", "ms"),
    ("ingest.mb_s", "MB/s"),
    ("snapshot.save_ms", "ms"),
    ("snapshot.load_ms", "ms"),
    ("snapshot.bytes", "bytes"),
    ("scenario.compile_ms", "ms"),
    ("quality.median_err_pct", "%"),
    ("quality.default_err_pct", "%"),
    ("quality.sim_latency_ratio", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.attr.admission_pct", "%"),
    ("trace.attr.queue_wait_pct", "%"),
    ("trace.attr.route_pct", "%"),
    ("trace.attr.enumerate_pct", "%"),
    ("trace.attr.cost_pct", "%"),
    ("trace.attr.unattributed_pct", "%"),
];

/// Spans written per traced run; the rest are summarised by the metrics.
pub const MAX_WRITTEN_SPANS: usize = 50_000;

/// Write a traced run's first [`MAX_WRITTEN_SPANS`] spans, one JSON object
/// per line, to `.bench_build/cleobench/trace-<workload>-<seed>.ndjson`
/// under the working directory.  Parents precede their children, so the
/// prefix is self-contained.  A failure to write is reported and otherwise
/// ignored: the spans are a by-product, the metrics are the result.
pub fn write_spans(workload: &str, seed: u64, spans: &[trace::Span]) {
    let spans = &spans[..spans.len().min(MAX_WRITTEN_SPANS)];
    let dir = std::path::Path::new(".bench_build").join("cleobench");
    let path = dir.join(format!("trace-{workload}-{seed}.ndjson"));
    let mut out = String::with_capacity(spans.len() * 120);
    for span in spans {
        out.push_str(&span.to_json());
        out.push('\n');
    }
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, out)) {
        eprintln!("could not write {}: {e}", path.display());
    }
}

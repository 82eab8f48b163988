//! Micro-benchmark: streaming telemetry ingestion.
//!
//! Measures the firehose path that turns serialized telemetry back into
//! training windows:
//!
//! * **NDJSON validation scan** (`scan_ndjson`) — the allocation-free
//!   structural pass, in MB/s;
//! * **parse throughput**, single-thread vs all-core, for both wire formats
//!   (`parse_telemetry` with 1 and N `std::thread::scope` workers — the
//!   parallel result is bit-identical to the serial one, so the speedup is
//!   free of semantics);
//! * **end-to-end ingest** (`ingest_firehose`): parallel parse, partition by
//!   cluster, window into a sharded feedback loop.
//!
//! Writes `BENCH_telemetry_ingest.json` at the workspace root — in `--smoke`
//! mode too (CI smoke asserts the file is fresh), just with a tiny sample
//! count.  Honest environment fields: `cores`, `degraded` (N-thread numbers on
//! a starved builder measure scheduling, not parsing), and the dispatched
//! `simd` arm.

use std::sync::Arc;

use cleo_bench::{BenchGroup, BenchMeta};
use cleo_core::feedback::{FeedbackConfig, WindowEviction};
use cleo_core::ingest::{ingest_firehose, parse_telemetry, WireFormat};
use cleo_core::{ClusterRouter, ShardedFeedbackConfig, ShardedFeedbackLoop, ShardedRegistry};
use cleo_engine::exec::{Simulator, SimulatorConfig};
use cleo_engine::telemetry::TelemetryLog;
use cleo_engine::telemetry_io::{scan_ndjson, write_binary, write_ndjson};
use cleo_engine::types::ClusterId;
use cleo_optimizer::HeuristicCostModel;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let ctx = cleo_bench::ExperimentContext::quick().expect("context");
    let mut group = BenchGroup::new("telemetry_ingest");
    group.sample_size(if smoke { 2 } else { 11 });

    // The firehose: every cluster's telemetry, interleaved day-by-day so the
    // stream is day-sorted across clusters (the wire-format contract).
    let mut jobs: Vec<_> = ctx
        .clusters
        .iter()
        .flat_map(|c| c.telemetry.jobs().iter().cloned())
        .collect();
    jobs.sort_by_key(|j| j.day());
    let log = TelemetryLog::from_jobs(jobs);
    let text = write_ndjson(&log);
    let bytes = write_binary(&log);
    let n_jobs = log.len();
    let meta = BenchMeta::capture(4);
    let cores = meta.cores;
    let threads = cores.max(2);

    // (a) Allocation-free validation scan.
    let scan_sample = group.bench_function("ndjson_scan", || {
        scan_ndjson(text.as_bytes()).expect("scan").jobs
    });
    let scan_mb_per_sec = text.len() as f64 / 1e6 / scan_sample.median.as_secs_f64().max(1e-12);

    // (b) Materializing parse, 1 thread vs N threads, both formats.
    let nd_1t = group.bench_function("ndjson_parse_1t", || {
        parse_telemetry(text.as_bytes(), WireFormat::Ndjson, 1)
            .expect("parse")
            .len()
    });
    let nd_nt = group.bench_function("ndjson_parse_nt", || {
        parse_telemetry(text.as_bytes(), WireFormat::Ndjson, threads)
            .expect("parse")
            .len()
    });
    let bin_1t = group.bench_function("binary_parse_1t", || {
        parse_telemetry(&bytes, WireFormat::Binary, 1)
            .expect("parse")
            .len()
    });
    let bin_nt = group.bench_function("binary_parse_nt", || {
        parse_telemetry(&bytes, WireFormat::Binary, threads)
            .expect("parse")
            .len()
    });
    let jobs_per_sec = |s: &cleo_bench::Sample| n_jobs as f64 / s.median.as_secs_f64().max(1e-12);
    let nd_1t_jps = jobs_per_sec(&nd_1t);
    let nd_nt_jps = jobs_per_sec(&nd_nt);
    let bin_1t_jps = jobs_per_sec(&bin_1t);
    let bin_nt_jps = jobs_per_sec(&bin_nt);

    // (c) End-to-end: parse + partition + window into per-cluster shards.
    let clusters: Vec<ClusterId> = (0..ctx.clusters.len())
        .map(|i| ClusterId(i as u8))
        .collect();
    let registry = Arc::new(ShardedRegistry::new(clusters));
    let router = Arc::new(ClusterRouter::with_uniform_similarity(
        registry,
        Arc::new(HeuristicCostModel::default_model()),
    ));
    let mut fleet = ShardedFeedbackLoop::new(
        ShardedFeedbackConfig {
            shard: FeedbackConfig {
                eviction: WindowEviction::JobCount(n_jobs),
                ..FeedbackConfig::default()
            },
            shard_threads: threads,
            ..ShardedFeedbackConfig::default()
        },
        Simulator::new(SimulatorConfig::default()),
        router,
    );
    let ingest_sample = group.bench_function("ingest_firehose_ndjson", || {
        let report = ingest_firehose(&mut fleet, text.as_bytes(), WireFormat::Ndjson, threads)
            .expect("ingest");
        assert_eq!(report.parsed_jobs, n_jobs);
        report.accepted_jobs
    });
    let ingest_jps = jobs_per_sec(&ingest_sample);
    group.finish();

    let simd = meta.simd;
    println!(
        "\n{n_jobs} jobs, {:.1} KB ndjson / {:.1} KB binary.  scan: {scan_mb_per_sec:.0} MB/s  \
         ndjson parse: {nd_1t_jps:.0}/s x1 -> {nd_nt_jps:.0}/s x{threads}  \
         binary parse: {bin_1t_jps:.0}/s x1 -> {bin_nt_jps:.0}/s x{threads}  \
         ingest+window: {ingest_jps:.0}/s  [{simd}, {cores} cores]",
        text.len() as f64 / 1e3,
        bytes.len() as f64 / 1e3,
    );

    let meta_fields = meta.json_fields();
    let json = format!(
        "{{\n  \"bench\": \"telemetry_ingest\",\n  {meta_fields},\n  \
         \"jobs\": {n_jobs},\n  \"ndjson_bytes\": {},\n  \"binary_bytes\": {},\n  \
         \"parse_threads\": {threads},\n  \
         \"ndjson_scan_mb_per_sec\": {scan_mb_per_sec:.1},\n  \
         \"ndjson_parse_jobs_per_sec_1t\": {nd_1t_jps:.1},\n  \
         \"ndjson_parse_jobs_per_sec_nt\": {nd_nt_jps:.1},\n  \
         \"ndjson_parallel_speedup\": {:.3},\n  \
         \"binary_parse_jobs_per_sec_1t\": {bin_1t_jps:.1},\n  \
         \"binary_parse_jobs_per_sec_nt\": {bin_nt_jps:.1},\n  \
         \"binary_parallel_speedup\": {:.3},\n  \
         \"ingest_window_jobs_per_sec\": {ingest_jps:.1}\n}}\n",
        text.len(),
        bytes.len(),
        nd_nt_jps / nd_1t_jps.max(1e-12),
        bin_nt_jps / bin_1t_jps.max(1e-12),
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_telemetry_ingest.json");
    std::fs::write(&path, &json).expect("write BENCH_telemetry_ingest.json");
    println!("wrote {}", path.display());
}

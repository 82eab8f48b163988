//! `cleobench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one JSON result object as the last line of standard output and
//! exits non-zero when any correctness check failed.

use cleobench::common::{Host, Report};
use cleobench::gate::Gate;
use cleobench::{learn, replay, serve, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}`; one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cleobench: {e}");
            std::process::exit(2);
        }
    };
    let host = match args.workload.as_str() {
        "fleet_replay" | "ingest_train" => Host::detect().serial(),
        _ => Host::detect(),
    };
    let mut report = Report::default();
    let mut gate = Gate::default();
    report.info("workload", format!("\"{}\"", args.workload));
    report.info("seed", args.seed.to_string());
    report.info("trace", args.trace.to_string());
    host.info(&mut report);
    let ticks_before = cleobench::common::cpu_ticks();
    match args.workload.as_str() {
        "serve_recurring" => serve::run(
            args.seed,
            args.seconds,
            args.trace,
            &host,
            &mut report,
            &mut gate,
        ),
        "fleet_replay" => replay::run(
            args.seed,
            args.seconds,
            args.trace,
            &host,
            &mut report,
            &mut gate,
        ),
        _ => learn::run(
            args.seed,
            args.seconds,
            args.trace,
            &host,
            &mut report,
            &mut gate,
        ),
    }
    if !args.trace {
        report.metric("peak_rss_mb", cleobench::common::peak_rss_mb(), "MB");
    }
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks_before, cleobench::common::cpu_ticks()) {
        let steal = (s1 - s0) as f64 / (t1 - t0).max(1) as f64 * 100.0;
        report.info("cpu_steal_pct", cleobench::common::json_num(steal));
    }
    report.conform(args.trace, &mut gate);
    report.check_finite(&mut gate);
    let correct = gate.passed();
    report.print(correct);
    if !correct {
        eprintln!("cleobench: {} correctness checks failed", gate.count());
        std::process::exit(1);
    }
}

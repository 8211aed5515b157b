//! The CADEL home-server benchmark.
//!
//! ```text
//! perfbench --workload <fanout_ingest|dense_home|authoring_churn> --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload against an in-process `ApiServer` over a durable
//! fleet, closed loop from this thread over one keep-alive connection
//! and one event stream, checks every output against the benchmark's own
//! reference models, and prints one JSON result line last. With
//! `--trace 0` the result holds the end-to-end metrics (the program's
//! metrics stay off); with `--trace 1` it holds the per-layer metrics.
//! Tenant stores live under `.perfbench-run/` in the working directory
//! and are deleted at the end.

mod authoring;
mod common;
mod dense;
mod direct;
mod fanout;
mod home;
mod layers;
mod model;
mod rig;

use common::RunReport;
use std::path::PathBuf;
use std::process::ExitCode;

/// What every workload receives.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Store root of this run.
    pub base: PathBuf,
}

/// Every end-to-end metric, in `BENCHMARK.json` order, with its unit.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("readings_per_s", "readings/s"),
    ("admit_p50_us", "us"),
    ("actuation_p50_us", "us"),
    ("rule_submit_p50_us", "us"),
    ("recovery_s", "s"),
    ("peak_rss_mb", "MB"),
];

fn usage(message: &str) -> ExitCode {
    eprintln!("perfbench: {message}");
    eprintln!(
        "usage: perfbench --workload <fanout_ingest|dense_home|authoring_churn> --seed N --seconds S --trace 0|1"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are all required");
    };
    let base = PathBuf::from(".perfbench-run").join(format!("{workload}-{}", std::process::id()));
    let ctx = Ctx {
        seed,
        seconds,
        trace,
        base: base.clone(),
    };
    let mut report = match workload.as_str() {
        "fanout_ingest" => fanout::run(&ctx),
        "dense_home" => dense::run(&ctx),
        "authoring_churn" => authoring::run(&ctx),
        other => return usage(&format!("unknown workload {other}")),
    };
    let _ = std::fs::remove_dir_all(&base);
    let _ = std::fs::remove_dir(".perfbench-run");
    // A workload that reads its peak resident set at a fixed point of
    // its work has reported it already.
    if !trace && !report.metrics.contains_key("peak_rss_mb") {
        report.metric("peak_rss_mb", common::peak_rss_mb(), "MB");
    }
    print(
        &report,
        if trace {
            layers::LAYER_METRICS
        } else {
            END_TO_END
        },
    )
}

fn print(report: &RunReport, wanted: &[(&str, &str)]) -> ExitCode {
    for note in &report.notes {
        println!("{note}");
    }
    for (name, unit) in wanted {
        let (value, _) = report
            .metrics
            .get(name)
            .copied()
            .unwrap_or((f64::NAN, unit));
        println!("{name:>26} {value:>16.4} {unit}");
    }
    for error in report.errors.iter().take(20) {
        println!("ERROR: {error}");
    }
    if report.errors.len() > 20 {
        println!("ERROR: … {} more", report.errors.len() - 20);
    }
    let missing: Vec<&str> = wanted
        .iter()
        .filter(|(name, _)| !report.metrics.get(name).is_some_and(|(v, _)| v.is_finite()))
        .map(|(name, _)| *name)
        .collect();
    if !missing.is_empty() {
        eprintln!("perfbench: metrics not measured: {missing:?}");
        return ExitCode::from(1);
    }
    let metrics: Vec<String> = wanted
        .iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                report.metrics[name].0
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.errors.is_empty(),
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

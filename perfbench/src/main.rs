//! The repository benchmark: one command, two workloads, every output
//! checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload campaign_yield|serve_small --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the run measures the workload's end-to-end metrics
//! with tracing off. With `--trace 1` it measures the same workload
//! twice — untraced, then with an `adc-trace` collector installed and
//! benchmark-side spans around each layer call — reports the tracing
//! overhead, writes a Chrome trace plus a per-span self-time table, and
//! times each layer's public functions on the workload's own inputs.
//! The last stdout line is one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`); the process exits
//! non-zero when any output fails its check. `perfbench/README.md`
//! lists the workloads, metrics and the layer → metric predictions.

mod campaign;
mod layers;
mod serve;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The workloads, by the name `--workload` takes.
const WORKLOADS: [&str; 2] = ["campaign_yield", "serve_small"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// Measurement budget of the run.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end run.
    pub trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <u64> --seconds <n> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                seconds = value.parse().unwrap_or_else(|_| usage());
                if !(seconds.is_finite() && seconds > 0.0) {
                    usage();
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage()),
        seed,
        seconds,
        trace,
    }
}

/// Metrics and verdicts a workload run accumulates.
#[derive(Debug, Default)]
pub struct Report {
    /// A traced run emits the per-layer rows; an untraced one the
    /// end-to-end metrics. Both print everything they measure.
    pub trace: bool,
    metrics: Vec<(String, f64, &'static str)>,
    /// Operations attempted (jobs, requests, replay comparisons).
    pub attempted: u64,
    /// Operations that failed, were shed at the nominal rate, or did
    /// not match their reference.
    pub failed: u64,
    /// Descriptions of every correctness mismatch.
    pub mismatches: Vec<String>,
}

impl Report {
    /// Records an end-to-end metric (emitted by untraced runs).
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        println!("  {name:<40} {value:>14.4} {unit}");
        if !self.trace {
            self.metrics.push((name.to_string(), value, unit));
        }
    }

    /// Records a per-layer metric (emitted by traced runs).
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        println!("  {name:<40} {value:>14.4} {unit}");
        if self.trace {
            self.metrics.push((name.to_string(), value, unit));
        }
    }

    /// Records a failed correctness check; the run exits non-zero.
    pub fn mismatch(&mut self, what: String) {
        self.failed += 1;
        self.incorrect(what);
    }

    /// Records a failed correctness check whose operations the caller
    /// counts in `failed` itself, as a serving rung does with its
    /// failed requests; the run exits non-zero.
    pub fn incorrect(&mut self, what: String) {
        eprintln!("MISMATCH: {what}");
        self.mismatches.push(what);
    }

    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.mismatches.is_empty(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Median of a sample set (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nearest-rank quantile `q` of a sample set (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Runs `setup` five times, keeping the last result, and records the
/// median duration as `setup_s`, so one slow start does not read as a
/// regression.
pub fn timed_setup<T>(report: &mut Report, mut setup: impl FnMut(&mut Report) -> T) -> T {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..5 {
        drop(kept.take());
        let start = Instant::now();
        kept = Some(setup(report));
        times.push(start.elapsed().as_secs_f64());
    }
    println!("set-up runs: {times:.4?} s");
    report.e2e("setup_s", median(&times), "s");
    kept.expect("five set-up runs")
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Drains the trace collector into `<target>/perfbench/<stem>.trace.json`
/// (Chrome format) and `<stem>.summary.txt` (per-span self time), where
/// `<target>` is the build directory, which is never committed.
pub fn write_trace(session: adc_trace::ActiveTrace, stem: &str) {
    let trace = session.finish();
    let summary = adc_trace::Summary::compute(&trace);
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| "target".into(), PathBuf::from)
        .join("perfbench");
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::write(
            dir.join(format!("{stem}.trace.json")),
            adc_trace::chrome_json(&trace),
        )?;
        std::fs::write(dir.join(format!("{stem}.summary.txt")), summary.render())
    });
    match written {
        Ok(()) => println!(
            "trace: {} events -> {}/{stem}.trace.json",
            trace.len(),
            dir.display()
        ),
        Err(e) => eprintln!("trace: could not write to {}: {e}", dir.display()),
    }
    println!("per-span self time (traced phase):\n{}", summary.render());
}

/// Worker threads for in-process campaigns: every hardware thread.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn main() {
    let args = parse_args();
    let started = Instant::now();
    println!(
        "perfbench {} seed={} seconds={} trace={} ({} hardware threads)",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc()
    );
    let budget = Duration::from_secs_f64(args.seconds);
    let mut report = Report {
        trace: args.trace,
        ..Report::default()
    };
    match args.workload.as_str() {
        "campaign_yield" => campaign::run(&args, budget, &mut report),
        "serve_small" => serve::run(&serve::Shape::small(), &args, budget, &mut report),
        _ => unreachable!("parse_args accepts only known workloads"),
    }
    report.e2e("peak_rss_mib", peak_rss_mib(), "MiB");
    println!(
        "fail_ratio = {} ({} failed / {} attempted)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted.max(1)
    );
    println!("wall {:.2} s", started.elapsed().as_secs_f64());
    println!("{}", report.json());
    if !report.mismatches.is_empty() {
        std::process::exit(1);
    }
}

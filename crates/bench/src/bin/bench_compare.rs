//! Perf-regression gate: diffs freshly generated `BENCH_*.json`
//! reports against committed baselines, row by row.
//!
//! ```text
//! bench_compare [--baseline-dir DIR] [--fresh-dir DIR]
//!               [--tolerance PCT] [--deny-perf]
//! ```
//!
//! Every report of [`REPORTS`] is read from both directories under the
//! ledger's row schema ([`adc_bench::ledger`]), and every baseline row
//! is looked up by name in the fresh report of the same file. A row
//! regresses when it is worse than its baseline by more than the
//! tolerance (default 30%) in the row's `better` direction;
//! improvements always pass. A baseline row the fresh report lacks
//! fails: a renamed or dropped figure is a gate that silently stopped
//! holding. Fresh rows the baseline lacks are listed as new.
//!
//! Absolute rows are comparable only between hosts with the same CPU
//! count: when the `provenance.host_cpus` stamps differ they are
//! printed but exempt. `host_relative` rows are ratios of two rows of
//! one run, so they are gated on any host.
//!
//! Exit status: `0` when nothing fails, or failures are found without
//! `--deny-perf`; `1` on failures under `--deny-perf`; `2` on usage,
//! read, or schema errors. CI runs the gate non-fatally by default
//! (`./ci.sh perf`) and hardens it with `./ci.sh --deny-perf perf`.

use std::fmt::Write as _;
use std::process::ExitCode;

use adc_bench::ledger::{Better, Report, REPORTS};

/// Default regression tolerance, percent.
const DEFAULT_TOLERANCE_PCT: f64 = 30.0;

struct Options {
    baseline_dir: String,
    fresh_dir: String,
    tolerance_pct: f64,
    deny_perf: bool,
}

fn usage() -> String {
    "usage: bench_compare [--baseline-dir DIR] [--fresh-dir DIR] \
     [--tolerance PCT] [--deny-perf]"
        .to_string()
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        baseline_dir: "baseline".to_string(),
        fresh_dir: ".".to_string(),
        tolerance_pct: DEFAULT_TOLERANCE_PCT,
        deny_perf: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value\n{}", usage()))
        };
        match arg.as_str() {
            "--baseline-dir" => opts.baseline_dir = value("--baseline-dir")?,
            "--fresh-dir" => opts.fresh_dir = value("--fresh-dir")?,
            "--tolerance" => {
                let raw = value("--tolerance")?;
                opts.tolerance_pct = raw
                    .parse::<f64>()
                    .ok()
                    .filter(|t| t.is_finite() && *t >= 0.0)
                    .ok_or_else(|| {
                        format!("--tolerance wants a non-negative percent, got {raw}")
                    })?;
            }
            "--deny-perf" => opts.deny_perf = true,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    Ok(opts)
}

/// What the gate makes of one baseline row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// Within tolerance, or better.
    Ok,
    /// Worse than tolerance: fails.
    Regressed,
    /// Worse than tolerance, but an absolute row from a host with a
    /// different CPU count: printed, does not fail.
    Exempt,
    /// The fresh report lacks the row: fails.
    Missing,
    /// A fresh row with no baseline: printed, does not fail.
    New,
}

struct Line {
    label: String,
    baseline: Option<f64>,
    fresh: Option<f64>,
    verdict: Verdict,
}

/// Diffs one report: a line per baseline row, then one per new row.
fn diff(file: &str, baseline: &Report, fresh: &Report, tolerance_pct: f64) -> Vec<Line> {
    let same_host = baseline.provenance.host_cpus == fresh.provenance.host_cpus;
    let label = |name: &str| format!("{file} {name}");
    let mut lines: Vec<Line> = baseline
        .rows
        .iter()
        .map(|b| {
            let fresh = fresh.row(&b.name).map(|f| f.value);
            let verdict = match fresh {
                None => Verdict::Missing,
                Some(f) => {
                    let delta_pct = (f - b.value) / b.value * 100.0;
                    let worse_pct = match b.better {
                        Better::Higher => -delta_pct,
                        Better::Lower => delta_pct,
                    };
                    if worse_pct <= tolerance_pct {
                        Verdict::Ok
                    } else if same_host || b.host_relative {
                        Verdict::Regressed
                    } else {
                        Verdict::Exempt
                    }
                }
            };
            Line {
                label: label(&b.name),
                baseline: Some(b.value),
                fresh,
                verdict,
            }
        })
        .collect();
    lines.extend(
        fresh
            .rows
            .iter()
            .filter(|f| baseline.row(&f.name).is_none())
            .map(|f| Line {
                label: label(&f.name),
                baseline: None,
                fresh: Some(f.value),
                verdict: Verdict::New,
            }),
    );
    lines
}

fn failures(lines: &[Line]) -> usize {
    lines
        .iter()
        .filter(|l| matches!(l.verdict, Verdict::Regressed | Verdict::Missing))
        .count()
}

fn render(lines: &[Line]) -> String {
    let mut out = String::new();
    let width = lines.iter().map(|l| l.label.len()).max().unwrap_or(0);
    let cell = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |v| format!("{v:.4}"));
    for l in lines {
        let delta = match (l.baseline, l.fresh) {
            (Some(b), Some(f)) => format!("{:+.1}%", (f - b) / b * 100.0),
            _ => String::new(),
        };
        let verdict = match l.verdict {
            Verdict::Ok => "ok",
            Verdict::Regressed => "REGRESSED",
            Verdict::Exempt => "exempt (host_cpus differ)",
            Verdict::Missing => "MISSING from fresh report",
            Verdict::New => "new",
        };
        let _ = writeln!(
            out,
            "  {:<width$}  baseline {:>14}  fresh {:>14}  {delta:>8}  {verdict}",
            l.label,
            cell(l.baseline),
            cell(l.fresh),
        );
    }
    out
}

fn load(dir: &str, file: &str) -> Result<Report, String> {
    let path = format!("{}/{file}", dir.trim_end_matches('/'));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Report::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_options(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    let mut lines = Vec::new();
    for file in REPORTS {
        let loaded = load(&opts.baseline_dir, file)
            .and_then(|baseline| Ok((baseline, load(&opts.fresh_dir, file)?)));
        let (baseline, fresh) = match loaded {
            Ok(pair) => pair,
            Err(e) => {
                eprintln!("bench_compare: {e}");
                return ExitCode::from(2);
            }
        };
        let (b_cpus, f_cpus) = (baseline.provenance.host_cpus, fresh.provenance.host_cpus);
        if b_cpus != f_cpus {
            println!(
                "{file}: host_cpus differ (baseline {b_cpus}, fresh {f_cpus}) -- \
                 absolute rows exempt, host-relative rows gated"
            );
        }
        lines.extend(diff(file, &baseline, &fresh, opts.tolerance_pct));
    }

    println!(
        "perf diff vs baseline ({}% tolerance):\n{}",
        opts.tolerance_pct,
        render(&lines)
    );
    let failed = failures(&lines);
    if failed == 0 {
        println!("no perf regressions");
        return ExitCode::SUCCESS;
    }
    if opts.deny_perf {
        println!("{failed} perf failure(s) beyond tolerance (--deny-perf)");
        return ExitCode::FAILURE;
    }
    println!("{failed} perf failure(s) beyond tolerance (advisory; pass --deny-perf to fail)");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic report on a `cpus`-CPU host: one absolute row in each
    /// direction and one host-relative row.
    fn report(cpus: usize, throughput: f64, latency: f64, speedup: f64) -> Report {
        Report::parse(&format!(
            r#"{{"provenance":{{"git_commit":"abc","host_cpus":{cpus},"os":"linux"}},"rows":[
              {{"name":"throughput","unit":"samples/s","value":{throughput},"n":30,"better":"higher","host_relative":false}},
              {{"name":"latency","unit":"us","value":{latency},"n":30,"better":"lower","host_relative":false}},
              {{"name":"speedup","unit":"x","value":{speedup},"n":9,"better":"higher","host_relative":true}}]}}"#
        ))
        .expect("synthetic report parses")
    }

    /// The fresh report is `baseline` with row `name` made 2x worse.
    fn slowed(baseline: &Report, name: &str) -> Report {
        let mut fresh = baseline.clone();
        let row = fresh.rows.iter_mut().find(|r| r.name == name).expect("row");
        row.value = match row.better {
            Better::Higher => row.value / 2.0,
            Better::Lower => row.value * 2.0,
        };
        fresh
    }

    #[test]
    fn a_2x_slowdown_in_any_single_row_fails_when_host_cpus_match() {
        let baseline = report(2, 1.0e6, 3000.0, 2.2);
        for row in &baseline.rows {
            let lines = diff(
                "BENCH_x.json",
                &baseline,
                &slowed(&baseline, &row.name),
                DEFAULT_TOLERANCE_PCT,
            );
            assert_eq!(failures(&lines), 1, "{}", row.name);
            let hit = lines.iter().find(|l| l.verdict == Verdict::Regressed);
            assert_eq!(
                hit.map(|l| l.label.as_str()),
                Some(format!("BENCH_x.json {}", row.name).as_str())
            );
        }
    }

    #[test]
    fn a_2x_change_in_a_host_relative_row_fails_when_host_cpus_differ() {
        let baseline = report(1, 1.0e6, 3000.0, 2.2);
        let fresh = slowed(&report(2, 1.0e6, 3000.0, 2.2), "speedup");
        let lines = diff("BENCH_x.json", &baseline, &fresh, DEFAULT_TOLERANCE_PCT);
        assert_eq!(failures(&lines), 1);
        assert_eq!(lines[2].label, "BENCH_x.json speedup");
        assert_eq!(lines[2].verdict, Verdict::Regressed);
    }

    #[test]
    fn absolute_rows_on_a_mismatched_host_are_printed_but_do_not_fail() {
        let baseline = report(1, 1.0e6, 3000.0, 2.2);
        let fresh = report(2, 0.5e6, 6000.0, 2.2);
        let lines = diff("BENCH_x.json", &baseline, &fresh, DEFAULT_TOLERANCE_PCT);
        assert_eq!(failures(&lines), 0);
        let shown: Vec<Verdict> = lines.iter().map(|l| l.verdict).collect();
        assert_eq!(shown, [Verdict::Exempt, Verdict::Exempt, Verdict::Ok]);
        let table = render(&lines);
        assert!(table.contains("BENCH_x.json throughput") && table.contains("-50.0%"));
        assert!(table.contains("exempt (host_cpus differ)"));
    }

    #[test]
    fn a_baseline_row_absent_from_the_fresh_report_fails() {
        let baseline = report(2, 1.0e6, 3000.0, 2.2);
        for host_cpus in [2, 3] {
            let mut fresh = report(host_cpus, 1.0e6, 3000.0, 2.2);
            fresh.rows.retain(|r| r.name != "latency");
            fresh.rows[0].name = "throughput_renamed".into();
            let lines = diff("BENCH_x.json", &baseline, &fresh, DEFAULT_TOLERANCE_PCT);
            assert_eq!(failures(&lines), 2, "host_cpus {host_cpus}");
            let missing: Vec<&str> = lines
                .iter()
                .filter(|l| l.verdict == Verdict::Missing)
                .map(|l| l.label.as_str())
                .collect();
            assert_eq!(missing, ["BENCH_x.json throughput", "BENCH_x.json latency"]);
            assert_eq!(lines.last().map(|l| l.verdict), Some(Verdict::New));
        }
    }

    #[test]
    fn improvements_pass() {
        let baseline = report(2, 1.0e6, 3000.0, 2.2);
        let fresh = report(2, 5.0e6, 100.0, 9.0);
        let lines = diff("BENCH_x.json", &baseline, &fresh, DEFAULT_TOLERANCE_PCT);
        assert_eq!(failures(&lines), 0);
        assert!(lines.iter().all(|l| l.verdict == Verdict::Ok));
    }

    #[test]
    fn options_parse_and_reject_bad_tolerance_and_retired_flags() {
        let opts = parse_options(&[
            "--baseline-dir".into(),
            "b".into(),
            "--tolerance".into(),
            "12.5".into(),
            "--deny-perf".into(),
        ])
        .expect("parses");
        assert_eq!(opts.baseline_dir, "b");
        assert_eq!(opts.tolerance_pct, 12.5);
        assert!(opts.deny_perf);
        assert!(parse_options(&["--tolerance".into(), "-3".into()]).is_err());
        assert!(parse_options(&["--lanes".into()]).is_err());
    }
}

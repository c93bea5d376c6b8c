//! The bench ledger: one timing harness and one row schema for every
//! `BENCH_*.json` the `bench_*` emitters write and `bench_compare`
//! diffs.
//!
//! A report is a [`Provenance`] stamp plus a flat list of [`Row`]s:
//!
//! ```text
//! { "provenance": { "git_commit": "…", "host_cpus": 2, "os": "linux" },
//!   "rows": [ { "name": "conversion.nominal", "unit": "samples/s",
//!               "value": 1010000, "n": 30, "better": "higher",
//!               "host_relative": false }, … ] }
//! ```
//!
//! `n` is how many windows (or requests) stand behind the value.
//! `host_relative` rows are ratios of two rows of the same report
//! (lane speedup over scalar, say), so they mean the same thing on
//! any machine and `bench_compare` gates them even across hosts;
//! every other row is an absolute figure, gated only against a
//! baseline from a host with the same CPU count.

use std::time::Instant;

use adc_trace::json::{self, Json};

use crate::Provenance;

/// The reports `./ci.sh perf` regenerates and `bench_compare` diffs.
pub const REPORTS: [&str; 5] = [
    "BENCH_runtime.json",
    "BENCH_service.json",
    "BENCH_dsp.json",
    "BENCH_interleave.json",
    "BENCH_cluster.json",
];

/// Minimum wall time per window timed by [`best_windows`], seconds.
pub const MIN_WALL_S: f64 = 1.0;

/// Minimum number of timed rounds of [`best_windows`].
pub const MIN_WINDOWS: usize = 8;

/// The fastest of a run of timing windows.
#[derive(Debug, Clone, Copy)]
pub struct BestWindow {
    /// Wall time of the fastest window, seconds.
    pub secs: f64,
    /// Timed windows run.
    pub windows: usize,
}

/// Times `windows` with the minimum-time estimator, interleaved: one
/// untimed warm-up call each, then round-robin rounds of one timed
/// call each, at least [`MIN_WINDOWS`] rounds and at least
/// [`MIN_WALL_S`] per window in total, keeping each window's fastest
/// call. The fastest call is the kernel's own cost; slower ones carry
/// scheduler preemption and noisy-neighbour stalls, which on a shared
/// host inflate a single-window mean by 2-4x. Interleaving spreads
/// every window's calls over the whole measurement, so a contended
/// stretch of a few hundred milliseconds slows every figure a little
/// instead of one figure a lot, and ratios between them hold.
pub fn best_windows<F: FnMut()>(windows: &mut [F]) -> Vec<BestWindow> {
    windows.iter_mut().for_each(|w| w());
    let mut best = vec![f64::INFINITY; windows.len()];
    let mut rounds = 0;
    let wall_s = MIN_WALL_S * windows.len() as f64;
    let start = Instant::now();
    while rounds < MIN_WINDOWS || start.elapsed().as_secs_f64() < wall_s {
        for (w, best) in windows.iter_mut().zip(&mut best) {
            let t = Instant::now();
            w();
            *best = best.min(t.elapsed().as_secs_f64());
        }
        rounds += 1;
    }
    best.into_iter()
        .map(|secs| BestWindow {
            secs: secs.max(1e-12),
            windows: rounds,
        })
        .collect()
}

/// [`best_windows`] for one window.
pub fn best_window(mut window: impl FnMut()) -> BestWindow {
    best_windows(&mut [&mut window])[0]
}

/// One window of an interleaved group and the row it becomes.
pub struct Timed<'a> {
    name: String,
    unit: &'static str,
    better: Better,
    per_window: usize,
    window: Box<dyn FnMut() + 'a>,
}

impl<'a> Timed<'a> {
    /// A throughput row: `items` per window over the fastest window, in
    /// `unit` (e.g. `samples/s`), higher is better.
    pub fn rate(name: &str, unit: &'static str, items: usize, window: impl FnMut() + 'a) -> Self {
        Self::new(name, unit, Better::Higher, items, window)
    }

    /// A cost row: microseconds per one of `items` calls per window, in
    /// `unit` (e.g. `us/call`), lower is better.
    pub fn micros(name: &str, unit: &'static str, items: usize, window: impl FnMut() + 'a) -> Self {
        Self::new(name, unit, Better::Lower, items, window)
    }

    fn new(
        name: &str,
        unit: &'static str,
        better: Better,
        per_window: usize,
        window: impl FnMut() + 'a,
    ) -> Self {
        Self {
            name: name.to_string(),
            unit,
            better,
            per_window,
            window: Box::new(window),
        }
    }
}

impl std::fmt::Debug for Timed<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Timed")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

/// Which way "worse" points for a row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Bigger is better (throughput, speedup): a drop regresses.
    Higher,
    /// Smaller is better (latency, time per call): a rise regresses.
    Lower,
}

/// One figure of a report.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Unique within its report; `bench_compare` keys on it.
    pub name: String,
    /// Unit of `value`, e.g. `samples/s`, `us`, `x`.
    pub unit: String,
    /// The figure; finite and positive.
    pub value: f64,
    /// Windows or requests behind the figure.
    pub n: u64,
    /// Direction of improvement.
    pub better: Better,
    /// A ratio of two rows of the same run, comparable across hosts.
    pub host_relative: bool,
}

/// One `BENCH_*.json`: a provenance stamp and its rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Where the figures were measured.
    pub provenance: Provenance,
    /// The figures, in emission order.
    pub rows: Vec<Row>,
}

impl Report {
    /// An empty report stamped with this process's provenance.
    pub fn capture() -> Self {
        Self {
            provenance: Provenance::capture(),
            rows: Vec::new(),
        }
    }

    /// The row called `name`.
    pub fn row(&self, name: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.name == name)
    }

    /// Adds an absolute figure.
    ///
    /// # Panics
    /// On a duplicate name or a value that is not finite and positive:
    /// both are emitter bugs the diff could not survive.
    pub fn push(&mut self, name: &str, unit: &str, value: f64, n: usize, better: Better) {
        self.insert(Row {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            n: n as u64,
            better,
            host_relative: false,
        });
    }

    /// Times `group` interleaved ([`best_windows`]) and adds one row
    /// per window, in order.
    pub fn time(&mut self, group: Vec<Timed<'_>>) {
        let (specs, mut windows): (Vec<_>, Vec<_>) = group
            .into_iter()
            .map(|t| ((t.name, t.unit, t.better, t.per_window), t.window))
            .unzip();
        for ((name, unit, better, items), best) in specs.into_iter().zip(best_windows(&mut windows))
        {
            let value = match better {
                Better::Higher => items as f64 / best.secs,
                Better::Lower => best.secs * 1e6 / items as f64,
            };
            self.push(&name, unit, value, best.windows, better);
        }
    }

    /// Adds the host-relative row `name` = `num / den` over two rows
    /// already pushed. `n` is the smaller of the two rows' counts.
    ///
    /// # Panics
    /// When either operand row is missing, or as [`Report::push`].
    pub fn ratio(&mut self, name: &str, num: &str, den: &str, better: Better) {
        let operand = |row: &str| {
            self.row(row)
                .unwrap_or_else(|| panic!("ratio {name}: no row {row}"))
        };
        let (num, den) = (operand(num), operand(den));
        let row = Row {
            name: name.to_string(),
            unit: "x".to_string(),
            value: num.value / den.value,
            n: num.n.min(den.n),
            better,
            host_relative: true,
        };
        self.insert(row);
    }

    fn insert(&mut self, row: Row) {
        self.try_insert(row).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Appends `row` unless its value is not finite and positive or its
    /// name is taken.
    fn try_insert(&mut self, row: Row) -> Result<(), String> {
        if !(row.value.is_finite() && row.value > 0.0) {
            return Err(format!("row {} has value {}", row.name, row.value));
        }
        if self.row(&row.name).is_some() {
            return Err(format!("duplicate row {}", row.name));
        }
        self.rows.push(row);
        Ok(())
    }

    /// The report as JSON text, one row per line.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                let better = match r.better {
                    Better::Higher => "higher",
                    Better::Lower => "lower",
                };
                let row = Json::Obj(vec![
                    ("name".into(), Json::Str(r.name.clone())),
                    ("unit".into(), Json::Str(r.unit.clone())),
                    ("value".into(), Json::Num(round_sig(r.value))),
                    ("n".into(), Json::Num(r.n as f64)),
                    ("better".into(), Json::Str(better.into())),
                    ("host_relative".into(), Json::Bool(r.host_relative)),
                ]);
                format!("    {row}")
            })
            .collect();
        format!(
            "{{\n  \"provenance\": {},\n  \"rows\": [\n{}\n  ]\n}}\n",
            self.provenance.to_json(),
            rows.join(",\n")
        )
    }

    /// Parses a report, checking the whole row schema: every field
    /// present and typed, values finite and positive, names unique.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let provenance = doc
            .get("provenance")
            .and_then(Provenance::from_json)
            .ok_or("missing or malformed provenance")?;
        let rows = doc
            .get("rows")
            .and_then(Json::as_arr)
            .ok_or("missing rows array")?;
        let mut report = Self {
            provenance,
            rows: Vec::with_capacity(rows.len()),
        };
        for (i, row) in rows.iter().enumerate() {
            report.try_insert(parse_row(row).ok_or_else(|| format!("row {i} is malformed"))?)?;
        }
        Ok(report)
    }

    /// Prints the rows as a table and writes the report to `path`.
    ///
    /// # Panics
    /// When the file cannot be written.
    pub fn write(&self, path: &str) {
        let width = self.rows.iter().map(|r| r.name.len()).max().unwrap_or(0);
        println!();
        for r in &self.rows {
            let tag = if r.host_relative {
                "  host-relative"
            } else {
                ""
            };
            println!(
                "  {:<width$} {:>14.4} {:<10} (n={}){tag}",
                r.name, r.value, r.unit, r.n
            );
        }
        std::fs::write(path, self.to_json()).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("\nwrote {path}");
    }
}

fn parse_row(row: &Json) -> Option<Row> {
    Some(Row {
        name: row.get("name")?.as_str()?.to_string(),
        unit: row.get("unit")?.as_str()?.to_string(),
        value: row.get("value")?.as_f64()?,
        n: whole(row.get("n")?.as_f64()?)?,
        better: match row.get("better")?.as_str()? {
            "higher" => Better::Higher,
            "lower" => Better::Lower,
            _ => return None,
        },
        host_relative: match row.get("host_relative")? {
            Json::Bool(b) => *b,
            _ => return None,
        },
    })
}

/// `v` as a count, when it is a non-negative whole number.
pub(crate) fn whole(v: f64) -> Option<u64> {
    let n = v as u64;
    (v >= 0.0 && (n as f64).to_bits() == v.to_bits()).then_some(n)
}

/// `v` to six significant digits, so committed reports carry no
/// timer-resolution noise digits.
fn round_sig(v: f64) -> f64 {
    format!("{v:.5e}").parse().unwrap_or(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut report = Report {
            provenance: Provenance {
                git_commit: "abc".into(),
                host_cpus: 2,
                os: "linux".into(),
            },
            rows: Vec::new(),
        };
        report.push("scalar", "samples/s", 1_000_000.0, 30, Better::Higher);
        report.push("lanes", "samples/s", 2_345_678.9, 9, Better::Higher);
        report
    }

    #[test]
    fn reports_round_trip_through_json() {
        let mut report = sample();
        report.ratio("lanes.speedup", "lanes", "scalar", Better::Higher);
        let speedup = report.row("lanes.speedup").expect("ratio row").value;
        assert!((speedup - 2.3456789).abs() < 1e-12);
        let parsed = Report::parse(&report.to_json()).expect("parses");
        assert_eq!(parsed.provenance, report.provenance);
        assert_eq!(parsed.rows.len(), 3);
        let ratio = parsed.row("lanes.speedup").expect("ratio row");
        assert!(ratio.host_relative && ratio.n == 9 && ratio.unit == "x");
        assert_eq!(ratio.value, 2.34568, "six significant digits");
        assert!(!parsed.row("scalar").expect("scalar row").host_relative);
    }

    #[test]
    fn parse_rejects_schema_violations() {
        let good = sample().to_json();
        assert!(Report::parse(&good).is_ok());
        for (from, to) in [
            ("\"better\":\"higher\"", "\"better\":\"up\""),
            ("\"host_relative\":false", "\"host_relative\":0"),
            ("\"value\":1000000", "\"value\":0"),
            ("\"lanes\"", "\"scalar\""),
            ("\"n\":30", "\"n\":-1"),
            ("\"rows\"", "\"figures\""),
        ] {
            let bad = good.replacen(from, to, 1);
            assert_ne!(bad, good, "{from} must occur in the sample");
            assert!(Report::parse(&bad).is_err(), "{from} -> {to} must fail");
        }
    }

    #[test]
    #[should_panic(expected = "duplicate row")]
    fn duplicate_rows_are_emitter_bugs() {
        sample().push("scalar", "samples/s", 1.0, 1, Better::Higher);
    }

    #[test]
    fn best_window_keeps_the_fastest_of_enough_windows() {
        let mut calls = 0;
        let timing = best_window(|| {
            calls += 1;
            // The first timed window (call 2) is the slow one.
            if calls == 2 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
        });
        assert_eq!(calls, timing.windows + 1, "one untimed warm-up call");
        assert!(timing.windows >= MIN_WINDOWS);
        assert!(timing.secs < 0.02, "slow window discarded: {}", timing.secs);
    }
}

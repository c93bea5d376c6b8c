//! Benchmarks the `adc-runtime` campaign engine: serial versus parallel
//! versus warm-cache wall time on the workloads the engine was built
//! for, written to `BENCH_runtime.json`.
//!
//! Two campaigns — a 16-die Monte-Carlo yield run (4096-point records)
//! and the Fig. 5 rate sweep (9 points, 8192-point records) — each
//! timed two ways, all four windows as one interleaved group
//! ([`adc_bench::ledger::best_windows`]), one campaign run per window:
//!
//! * `<campaign>.serial` — 1 worker thread, no cache (samples/s);
//! * `<campaign>.parallel` — all cores (`--threads`/`ADC_THREADS`
//!   overrides), no cache (samples/s).
//!
//! Each campaign is also rerun over a warm content-hash point cache
//! (the figure-regeneration path when no point changed), timed on its
//! own and printed, not a row: a cache-served run takes tens of
//! microseconds, and its best window moved 16-44% between runs on a
//! 2-vCPU host, more than the gate's 30% tolerance can hold. The
//! parallel speedup is printed too; it follows the host's cores. Every
//! run is asserted bit-identical to a serial reference.

use std::rc::Rc;
use std::sync::Arc;

use adc_bench::ledger::{best_window, Report, Timed};
use adc_pipeline::config::AdcConfig;
use adc_runtime::{default_threads, CollectingObserver, ResultCache};
use adc_testbench::montecarlo::run_monte_carlo_with;
use adc_testbench::sweep::SweepRunner;
use adc_testbench::RunPolicy;

/// The serial and parallel windows of one campaign, each asserting its
/// run equals a serial reference, after timing and printing the
/// warm-cache path.
fn campaign<'a, T: PartialEq + std::fmt::Debug + 'a>(
    name: &str,
    threads: usize,
    run: impl Fn(RunPolicy) -> T + 'a,
) -> Vec<Timed<'a>> {
    let observer = Arc::new(CollectingObserver::default());
    let reference = run(RunPolicy::serial().observe(observer.clone()));
    let samples = observer.summaries.lock().expect("observer lock")[0].samples as usize;
    let check = Rc::new(move |policy: RunPolicy, what: &str| {
        assert_eq!(run(policy), reference, "{what}");
    });
    // The harness's untimed warm-up call fills the cache, so every
    // timed window is all hits.
    let cache = Arc::new(ResultCache::in_memory());
    let warm = best_window(|| {
        check(
            RunPolicy::parallel(threads).cached(Arc::clone(&cache)),
            "cache determinism violated",
        );
    });
    println!(
        "{name}: warm cache {:.1} us per run (best of {})",
        warm.secs * 1e6,
        warm.windows
    );
    let serial = Rc::clone(&check);
    vec![
        Timed::rate(&format!("{name}.serial"), "samples/s", samples, move || {
            serial(RunPolicy::serial(), "serial rerun drifted");
        }),
        Timed::rate(
            &format!("{name}.parallel"),
            "samples/s",
            samples,
            move || {
                check(RunPolicy::parallel(threads), "thread determinism violated");
            },
        ),
    ]
}

fn main() {
    let args = adc_bench::CampaignArgs::parse();
    let threads = if args.threads == 0 {
        default_threads()
    } else {
        args.threads
    };
    adc_bench::banner(
        "Runtime -- serial vs parallel vs warm-cache campaign execution",
        "adc-runtime engine benchmark (results asserted bit-identical)",
    );
    println!(
        "host cores: {}, parallel worker threads: {threads}",
        default_threads()
    );

    const DIES: usize = 16;
    let config = AdcConfig::nominal_110ms();
    let mut group = campaign("montecarlo_yield_16die", threads, move |policy| {
        run_monte_carlo_with(&config, DIES, 10e6, 4096, &policy).expect("campaign runs")
    });
    let rates: Vec<f64> = [20.0, 40.0, 60.0, 80.0, 100.0, 110.0, 120.0, 140.0, 200.0]
        .iter()
        .map(|m| m * 1e6)
        .collect();
    group.extend(campaign("fig5_rate_sweep", threads, move |policy| {
        let runner = SweepRunner {
            policy,
            ..SweepRunner::nominal()
        };
        runner.rate_sweep(&rates, 10e6).expect("all rates build")
    }));

    let mut report = Report::capture();
    report.time(group);
    for name in ["montecarlo_yield_16die", "fig5_rate_sweep"] {
        let value = |kind: &str| {
            report
                .row(&format!("{name}.{kind}"))
                .map_or(f64::NAN, |r| r.value)
        };
        println!(
            "{name}: parallel {:.2}x over serial",
            value("parallel") / value("serial")
        );
    }
    report.write("BENCH_runtime.json");
}

//! `campaign_yield`: a closed batch, in process — what the figure
//! binaries do. Each round is a cold Monte-Carlo yield campaign run by
//! `run_monte_carlo_with`, as the yield binary runs it, plus the Fig. 6
//! f_in sweep, at the session's default 8192-point records, under the
//! default `RunPolicy` (every hardware thread, the default lane width)
//! with an empty in-memory `ResultCache`. `run_monte_carlo_with`
//! fabricates dies `1..=32`; the workload seed picks the test tone.
//! Rounds repeat until the budget is spent; every round must be
//! bit-identical to a `RunPolicy::serial()` reference computed during
//! set-up.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use adc_pipeline::AdcConfig;
use adc_runtime::{split_mix64, CampaignSummary, JobId, JobReport, ResultCache, RunObserver};
use adc_spectral::metrics::{analyze_tone_with, ToneAnalysisConfig};
use adc_spectral::plan::SpectralScratch;
use adc_testbench::experiments::{run_fig6_with, Fig6Result};
use adc_testbench::montecarlo::run_monte_carlo_with;
use adc_testbench::{DieResult, MeasurementSession, MonteCarloResult, RunPolicy};

use crate::{layers, median, nproc, quantile, serve, timed_setup, Args, Report};

/// Dies per campaign round.
const DIES: usize = 32;
/// Session default record length.
const RECORD_LEN: usize = 8192;
/// Lowest test-tone target the workload seed may pick, Hz.
const F_IN_MIN_HZ: f64 = 5e6;
/// Width of the test-tone range above [`F_IN_MIN_HZ`], Hz.
const F_IN_SPAN_HZ: f64 = 15e6;
/// Points in the Fig. 6 sweep `run_fig6_with` measures.
const FIG6_POINTS: usize = 4;

/// Runtime-layer counters gathered through the public observer hooks.
#[derive(Debug, Default)]
pub struct RuntimeStats(Mutex<RuntimeCounts>);

#[derive(Debug, Default)]
struct RuntimeCounts {
    /// Wall time of every finished job.
    job_walls: Vec<Duration>,
    /// Jobs that ended in an error.
    failed: u64,
    /// Extra attempts beyond the first.
    retried: u64,
    /// Σ busy and Σ wall over finished campaigns.
    busy: Duration,
    wall: Duration,
}

impl RunObserver for RuntimeStats {
    fn on_job_finish(&self, _id: JobId, report: &JobReport) {
        let mut c = self.counts();
        c.job_walls.push(report.wall);
        c.failed += u64::from(report.error.is_some());
        c.retried += u64::from(report.attempts.saturating_sub(1));
    }

    fn on_campaign_finish(&self, summary: &CampaignSummary) {
        let mut c = self.counts();
        c.busy += summary.busy;
        c.wall += summary.wall;
    }
}

impl RuntimeStats {
    fn counts(&self) -> std::sync::MutexGuard<'_, RuntimeCounts> {
        self.0.lock().expect("stats lock")
    }

    /// Wall time of every finished job, milliseconds.
    fn job_walls_ms(&self) -> Vec<f64> {
        self.counts()
            .job_walls
            .iter()
            .map(|w| w.as_secs_f64() * 1e3)
            .collect()
    }

    /// Emits the runtime-layer rows.
    pub fn report(&self, report: &mut Report) {
        let c = self.counts();
        let concurrency = c.busy.as_secs_f64() / c.wall.as_secs_f64().max(1e-12);
        report.layer("runtime.concurrency", concurrency, "1");
        report.layer("runtime.jobs_failed", c.failed as f64, "count");
        report.layer("runtime.jobs_retried", c.retried as f64, "count");
    }
}

/// One campaign round's results, compared by their exact rendering.
struct Outcome {
    yield_run: MonteCarloResult,
    fig6: Fig6Result,
}

impl Outcome {
    fn fingerprint(&self) -> String {
        format!("{:?}{:?}", self.yield_run, self.fig6)
    }
}

/// The per-die computation of `measure_die`, with benchmark spans
/// around each layer call (`campaign.job` covering session build,
/// conversion and analysis). A traced run replays the campaign's dies
/// through it and holds each to the campaign's own result.
fn traced_die(config: &AdcConfig, seed: u64, f_in_hz: f64) -> DieResult {
    let _job = adc_trace::span_with("campaign.job", seed);
    let mut session = {
        let _s = adc_trace::span_with("testbench.session_new", seed);
        MeasurementSession::new(config.clone(), seed).expect("the nominal design fabricates")
    };
    session.record_len = RECORD_LEN;
    let (codes, _) = {
        let _s = adc_trace::span_with("pipeline.convert", seed);
        session.capture_tone(f_in_hz)
    };
    let analysis = {
        let _s = adc_trace::span_with("spectral.analyze", seed);
        let cfg = ToneAnalysisConfig::coherent().with_full_scale(config.v_ref_v);
        analyze_tone_with(
            &session.reconstruct(&codes),
            &cfg,
            &mut SpectralScratch::new(),
        )
        .expect("record length is a power of two")
    };
    DieResult {
        seed,
        snr_db: analysis.snr_db,
        sndr_db: analysis.sndr_db,
        sfdr_db: analysis.sfdr_db,
        enob: analysis.enob,
        power_w: session.adc().power_w(),
    }
}

/// The campaign a run repeats: the nominal design and the test tone
/// the workload seed picks.
struct Plan {
    config: AdcConfig,
    f_in_hz: f64,
}

/// Per-round figures of one phase.
#[derive(Default)]
struct Phase {
    samples_per_s: Vec<f64>,
    jobs_per_s: Vec<f64>,
}

impl Plan {
    fn new(seed: u64) -> Self {
        let unit = (split_mix64(seed) >> 11) as f64 / (1u64 << 53) as f64;
        Self {
            config: AdcConfig::nominal_110ms(),
            f_in_hz: F_IN_MIN_HZ + F_IN_SPAN_HZ * unit,
        }
    }

    fn run(&self, policy: &RunPolicy) -> Outcome {
        let yield_run = {
            let _s = adc_trace::span("campaign.monte_carlo");
            run_monte_carlo_with(&self.config, DIES, self.f_in_hz, RECORD_LEN, policy)
                .expect("the nominal design fabricates")
        };
        let fig6 = {
            let _s = adc_trace::span("campaign.fig6");
            run_fig6_with(RECORD_LEN, policy).expect("the nominal design fabricates")
        };
        Outcome { yield_run, fig6 }
    }

    /// Runs cold rounds until `budget` is spent (at least three),
    /// checking each against `reference`.
    fn rounds(
        &self,
        report: &mut Report,
        reference: &str,
        stats: &Arc<RuntimeStats>,
        budget: Duration,
    ) -> Phase {
        let jobs = (DIES + FIG6_POINTS) as u64;
        let mut phase = Phase::default();
        let deadline = Instant::now() + budget;
        while phase.samples_per_s.len() < 3 || Instant::now() < deadline {
            let policy = RunPolicy::default()
                .observe(Arc::clone(stats) as Arc<dyn RunObserver>)
                .cached(Arc::new(ResultCache::in_memory()));
            let start = Instant::now();
            let outcome = self.run(&policy);
            let wall = start.elapsed().as_secs_f64();
            report.attempted += jobs;
            if outcome.fingerprint() != reference {
                report.mismatch(format!(
                    "campaign round {} differs from the serial reference",
                    phase.samples_per_s.len()
                ));
            }
            phase
                .samples_per_s
                .push((jobs * RECORD_LEN as u64) as f64 / wall);
            phase.jobs_per_s.push(jobs as f64 / wall);
        }
        phase
    }
}

/// Runs the workload.
pub fn run(args: &Args, budget: Duration, report: &mut Report) {
    let plan = Plan::new(args.seed);
    let reference = timed_setup(report, |_| plan.run(&RunPolicy::serial()));
    let fingerprint = reference.fingerprint();
    println!(
        "{DIES} dies at {:.3} MHz + {FIG6_POINTS} Fig. 6 points per round, \
         {RECORD_LEN}-point records, {} threads",
        plan.f_in_hz / 1e6,
        nproc()
    );

    let stats = Arc::new(RuntimeStats::default());
    // A traced run compares an untraced and a traced phase of equal
    // length, capped so the Chrome trace stays near 10 MB.
    let phase_budget = if args.trace {
        (budget / 2).min(Duration::from_secs(2))
    } else {
        budget
    };
    let plain = plan.rounds(report, &fingerprint, &stats, phase_budget);
    let walls_ms = stats.job_walls_ms();
    println!(
        "{} rounds, {} jobs; per-round samples/s min {:.0} median {:.0} max {:.0}",
        plain.samples_per_s.len(),
        walls_ms.len(),
        quantile(&plain.samples_per_s, 0.0),
        median(&plain.samples_per_s),
        quantile(&plain.samples_per_s, 1.0)
    );
    report.e2e("samples_per_s", median(&plain.samples_per_s), "1/s");
    report.layer("bench.p50_ms", quantile(&walls_ms, 0.50), "ms");
    report.layer("bench.p99_ms", quantile(&walls_ms, 0.99), "ms");
    // A closed batch has no ladder: every job it completes is goodput.
    report.layer("bench.goodput_rps", median(&plain.jobs_per_s), "req/s");
    if !args.trace {
        return;
    }

    stats.report(report);
    let session = adc_trace::Collector::install().expect("no other trace collector is installed");
    let traced = plan.rounds(report, &fingerprint, &Arc::default(), phase_budget);
    write_overhead(
        report,
        median(&plain.samples_per_s),
        median(&traced.samples_per_s),
    );
    // Per-layer spans: the campaign's dies again, one `campaign.job`
    // each, every one held to the campaign's own result.
    for die in &reference.yield_run.dies {
        report.attempted += 1;
        let replayed = traced_die(&plan.config, die.seed, plan.f_in_hz);
        if format!("{replayed:?}") != format!("{die:?}") {
            report.mismatch(format!("die {} differs from its campaign result", die.seed));
        }
    }
    crate::write_trace(session, &format!("campaign_yield-seed{}", args.seed));

    let dies: Vec<u64> = reference.yield_run.dies.iter().map(|d| d.seed).collect();
    let mut die = MeasurementSession::new(plan.config.clone(), dies[0])
        .expect("the nominal design fabricates");
    let wave = layers::tone_stimulus(&die, plan.f_in_hz);
    layers::conversion(report, die.adc(), &wave, RECORD_LEN, dies[0]);
    layers::lanes(report, &die, &dies[..8], &wave);
    layers::build(report, &plan.config, &dies[..8]);
    let (codes, _) = die.capture_tone(plan.f_in_hz);
    layers::spectral(report, &die, &codes);
    // The serving-edge rows on this workload price serving records of
    // its shape; no server runs on the timed path.
    serve::campaign_serving_rows(report, args.seed, plan.f_in_hz, RECORD_LEN as u32);
}

/// Reports the tracing overhead on a throughput figure: the extra time
/// per sample the traced phase took, in percent of the untraced time.
fn write_overhead(report: &mut Report, untraced_per_s: f64, traced_per_s: f64) {
    println!("untraced {untraced_per_s:.0} samples/s, traced {traced_per_s:.0} samples/s");
    report.layer(
        "bench.trace_overhead_pct",
        100.0 * (untraced_per_s / traced_per_s - 1.0),
        "%",
    );
}

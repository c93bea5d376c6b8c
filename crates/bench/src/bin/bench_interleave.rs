//! Interleaved-array hot-path benchmark, written to `BENCH_interleave.json`.
//!
//! Two row families (DESIGN.md §13):
//!
//! * `convert.<array>` — single-thread interleaved `convert_waveform`
//!   samples/s through an M-way array, one row per path the ganged
//!   server can exercise: the matched array (zero-sigma fast paths),
//!   the mismatched raw array (per-channel bandwidth filtering active),
//!   and the corrected array (fractional-delay resampler active), plus
//!   the host-relative `convert.corrected_over_matched` — what the
//!   resampler costs, on any host;
//! * `calib.<array>` — background-calibration µs per epoch (convert +
//!   observe + apply), the recurring cost a ganged service pays while
//!   the loop is in Adapt.
//!
//! All six windows are timed as one interleaved group
//! ([`adc_bench::ledger::best_windows`]).

use adc_bench::ledger::{Better, Report, Timed};
use adc_calib::{BackgroundCalibrator, CalibConfig};
use adc_pipeline::config::AdcConfig;
use adc_pipeline::interleave::{InterleaveMismatch, InterleavedAdc};
use adc_testbench::GOLDEN_SEED;

/// Record length per conversion window.
const RECORD_LEN: usize = 4096;

/// Builds an M-way array on the nominal config at `M x` the core rate.
fn build_array(m: usize, mismatch: &InterleaveMismatch) -> InterleavedAdc {
    let config = AdcConfig::nominal_110ms();
    let rate = config.f_cr_hz * m as f64;
    InterleavedAdc::build_with_mismatch(&config, m, rate, GOLDEN_SEED, mismatch)
        .expect("benchmark array builds")
}

/// A mismatched array with the fractional-delay corrector engaged:
/// cancel the drawn skews exactly, so every output lane resamples.
fn corrected_array(m: usize) -> InterleavedAdc {
    let mut ilv = build_array(m, &InterleaveMismatch::typical());
    let delays: Vec<f64> = ilv.channel_skews_s().iter().map(|&s| -s).collect();
    let zeros = vec![0.0; m];
    let ones = vec![1.0; m];
    ilv.set_corrections(&zeros, &ones, &delays);
    ilv
}

/// The coherent-ish benchmark stimulus for an array at `rate`.
fn tone(rate: f64) -> impl Fn(f64) -> f64 {
    let (f_in, _) = adc_spectral::window::coherent_frequency(rate, RECORD_LEN, 20e6);
    move |t: f64| 0.9 * (2.0 * std::f64::consts::PI * f_in * t).sin()
}

/// The interleaved conversion path of one array, one record per
/// window.
fn convert(name: &str, mut ilv: InterleavedAdc) -> Timed<'static> {
    let wave = tone(ilv.sample_rate_hz());
    Timed::rate(
        &format!("convert.{name}"),
        "samples/s",
        RECORD_LEN,
        move || {
            ilv.reset();
            assert_eq!(ilv.convert_waveform(&wave, RECORD_LEN).len(), RECORD_LEN);
        },
    )
}

/// Full background-calibration epochs on a mismatched M-way array, one
/// epoch per window.
fn calib(m: usize) -> Timed<'static> {
    let mut ilv = build_array(m, &InterleaveMismatch::typical());
    let rate = ilv.sample_rate_hz();
    let wave = tone(rate);
    let mut cal = BackgroundCalibrator::new(m, rate, CalibConfig::default());
    Timed::micros(&format!("calib.m{m}"), "us/epoch", 1, move || {
        let record = ilv.convert_waveform(&wave, RECORD_LEN);
        cal.observe(&record).expect("epoch record is long enough");
        cal.apply_to(&mut ilv);
    })
}

fn main() {
    adc_bench::banner(
        "Interleaved array -- conversion and background-calibration hot paths",
        "single-thread ganged-array throughput (BENCH_interleave.json)",
    );
    let mut report = Report::capture();
    report.time(vec![
        convert("m2_matched", build_array(2, &InterleaveMismatch::none())),
        convert(
            "m2_mismatch_raw",
            build_array(2, &InterleaveMismatch::typical()),
        ),
        convert("m2_mismatch_corrected", corrected_array(2)),
        convert("m4_mismatch_corrected", corrected_array(4)),
        calib(2),
        calib(4),
    ]);
    report.ratio(
        "convert.corrected_over_matched",
        "convert.m2_mismatch_corrected",
        "convert.m2_matched",
        Better::Higher,
    );
    report.write("BENCH_interleave.json");
}

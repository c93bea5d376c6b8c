//! DSP hot-path kernel benchmark, written to `BENCH_dsp.json`.
//!
//! Three row families (DESIGN.md §12.5, §16.5):
//!
//! * `conversion.<config>` — single-thread `convert_waveform_into`
//!   samples/s on the capture path (RF generator → band-pass filter →
//!   ADC) with each non-ideality toggled, so a regression in any
//!   specialized path (jitter-off, thermal-off, ripple-on) shows on its
//!   own row;
//! * `lanes<N>` — the lane-parallel SoA kernel (`LaneBatch`) at 1, 4
//!   and 8 lanes on the same capture path, samples/s across all lanes,
//!   plus the host-relative `lanes<N>.speedup_vs_scalar` over the
//!   scalar `conversion.nominal` row of the same run;
//! * `fft.n<N>` — `fft_real_into` µs/call at the record lengths the
//!   testbench uses (1k..16k), plus the host-relative
//!   `fft.n16384_over_n1024` (16.0 would be a flat µs/point).
//!
//! Every loop is single-threaded and runs through the allocation-free
//! `_into` APIs; all twelve are timed as one interleaved group
//! ([`adc_bench::ledger::best_windows`]).

use adc_bench::ledger::{Better, Report, Timed};
use adc_pipeline::config::AdcConfig;
use adc_pipeline::converter::PipelineAdc;
use adc_pipeline::lanes::LaneBatch;
use adc_spectral::fft::fft_real_into;
use adc_spectral::plan::SpectralScratch;
use adc_spectral::window::coherent_frequency_clear;
use adc_testbench::filter::BandpassFilter;
use adc_testbench::signal::SineSource;
use adc_testbench::GOLDEN_SEED;

/// Record length for the conversion benchmark (the session default).
const RECORD_LEN: usize = 8192;

/// Calls per FFT timing window.
const FFT_WINDOW_CALLS: usize = 16;

/// The non-ideality toggles of the conversion benchmark: the default
/// configuration first (the acceptance figure), then each specialized
/// path on its own row.
fn conversion_configs() -> Vec<(&'static str, AdcConfig)> {
    let nominal = AdcConfig::nominal_110ms();
    let jitter_off = AdcConfig {
        jitter: adc_analog::noise::ApertureJitter::none(),
        ..nominal.clone()
    };
    let thermal_off = AdcConfig {
        thermal_noise: false,
        ..nominal.clone()
    };
    let ripple_on = AdcConfig {
        supply_ripple_v: 50e-3,
        supply_ripple_hz: 5.02e6,
        psrr_db: 40.0,
        ..nominal.clone()
    };
    vec![
        ("nominal", nominal),
        ("jitter_off", jitter_off),
        ("thermal_noise_off", thermal_off),
        ("ripple_on", ripple_on),
        ("ideal", AdcConfig::ideal(110e6)),
    ]
}

/// The capture stimulus: a 10 MHz-ish coherent RF tone through the
/// band-pass filter, at `0.995 v_ref`.
fn capture_waveform(config: &AdcConfig) -> SineSource {
    let (f_in, _) = coherent_frequency_clear(config.f_cr_hz, RECORD_LEN, 10e6, 8);
    let generator = SineSource::rf_generator(0.995 * config.v_ref_v, f_in);
    BandpassFilter::passive_high_order(f_in).clean(&generator)
}

/// The capture path of one configuration: one record per window.
fn conversion(name: &str, config: AdcConfig) -> Timed<'static> {
    let mut adc = PipelineAdc::build(config, GOLDEN_SEED).expect("benchmark config builds");
    let filtered = capture_waveform(adc.config());
    let mut codes = Vec::new();
    Timed::rate(
        &format!("conversion.{name}"),
        "samples/s",
        RECORD_LEN,
        move || {
            adc.reset();
            adc.convert_waveform_into(&filtered, RECORD_LEN, &mut codes);
            assert_eq!(codes.len(), RECORD_LEN);
        },
    )
}

/// The lane-batched capture path at one lane count: `n_lanes`
/// Monte-Carlo dies (seeds `1..=n_lanes`) converting the nominal
/// stimulus in lock-step, one batch record per window.
fn lanes(n_lanes: usize) -> Timed<'static> {
    let config = AdcConfig::nominal_110ms();
    let seeds: Vec<u64> = (1..=n_lanes as u64).collect();
    let mut batch = LaneBatch::build(&config, &seeds).expect("benchmark config builds");
    let filtered = capture_waveform(&config);
    let mut outs = vec![Vec::new(); n_lanes];
    Timed::rate(
        &format!("lanes{n_lanes}"),
        "samples/s",
        n_lanes * RECORD_LEN,
        move || {
            batch.reset();
            batch.convert_waveform_into(&filtered, RECORD_LEN, &mut outs);
            assert!(outs.iter().all(|o| o.len() == RECORD_LEN));
        },
    )
}

/// `fft_real_into` at one record length on a deterministic signal with
/// warm scratch, [`FFT_WINDOW_CALLS`] calls per window.
fn fft(n: usize) -> Timed<'static> {
    // Deterministic broadband test signal (tone + LCG dither).
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let signal: Vec<f64> = (0..n)
        .map(|i| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let dither = ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
            (2.0 * std::f64::consts::PI * 479.0 * i as f64 / n as f64).sin() + 1e-3 * dither
        })
        .collect();
    let mut scratch = SpectralScratch::new();
    let mut spectrum = Vec::new();
    Timed::micros(
        &format!("fft.n{n}"),
        "us/call",
        FFT_WINDOW_CALLS,
        move || {
            for _ in 0..FFT_WINDOW_CALLS {
                fft_real_into(&signal, &mut scratch, &mut spectrum).expect("power-of-two length");
                assert!(spectrum.len() == n && spectrum[1].re.is_finite());
            }
        },
    )
}

fn main() {
    adc_bench::banner(
        "DSP kernels -- conversion loop and real-input FFT hot paths",
        "single-thread kernel throughput (BENCH_dsp.json)",
    );
    let mut report = Report::capture();
    let mut group: Vec<Timed> = conversion_configs()
        .into_iter()
        .map(|(name, config)| conversion(name, config))
        .collect();
    group.extend([1, 4, 8].map(lanes));
    group.extend([1024, 4096, 8192, 16384].map(fft));
    report.time(group);
    for n_lanes in [1, 4, 8] {
        report.ratio(
            &format!("lanes{n_lanes}.speedup_vs_scalar"),
            &format!("lanes{n_lanes}"),
            "conversion.nominal",
            Better::Higher,
        );
    }
    report.ratio(
        "fft.n16384_over_n1024",
        "fft.n16384",
        "fft.n1024",
        Better::Lower,
    );
    report.write("BENCH_dsp.json");
}

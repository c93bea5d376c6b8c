//! Per-layer probes: each times one layer's public functions on the
//! workload's own inputs — the same die, stimulus, stage inputs and
//! response frames the workload produces.
//!
//! Every row is a median over repeated passes of a loop over those
//! inputs, so one scheduler hiccup does not move it. The conversion
//! rows are summed back to the whole scalar conversion and the
//! residual is printed, never hidden.

use std::hint::black_box;
use std::time::Instant;

use adc_analog::noise::NoiseSource;
use adc_analog::stripe::SampleNoise;
use adc_analog::switch::{SamplingNetwork, SwitchModel};
use adc_pipeline::converter::{PipelineAdc, Waveform};
use adc_pipeline::correction::assemble_code;
use adc_pipeline::lanes::LaneBatch;
use adc_pipeline::subconverter::{FlashBackend, StageDecision};
use adc_server::protocol::{crc32, decode_response, encode_response, Response};
use adc_spectral::fft::fft_real_into;
use adc_spectral::metrics::{analyze_tone_with, ToneAnalysisConfig};
use adc_spectral::plan::SpectralScratch;
use adc_testbench::{MeasurementSession, SineSource};

use crate::{median, Report};

/// Times `pass` (which performs `ops` operations) until at least 15
/// passes and 30 ms have run, and returns the median nanoseconds per
/// operation.
fn ns_per_op(ops: usize, mut pass: impl FnMut()) -> f64 {
    pass();
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < 15 || (start.elapsed().as_millis() < 30 && times.len() < 400) {
        let t = Instant::now();
        pass();
        times.push(t.elapsed().as_nanos() as f64 / ops.max(1) as f64);
    }
    median(&times)
}

/// The stimulus a capture at `f_target_hz` drives — the same coherent
/// snap, RF generator and band-pass filter `MeasurementSession` uses.
pub fn tone_stimulus(session: &MeasurementSession, f_target_hz: f64) -> SineSource {
    let f_cr = session.adc().config().f_cr_hz;
    let (f_in, _) =
        adc_spectral::window::coherent_frequency_clear(f_cr, session.record_len, f_target_hz, 8);
    let generator = SineSource::rf_generator(session.amplitude_v, f_in);
    adc_testbench::BandpassFilter::passive_high_order(f_in).clean(&generator)
}

/// Conversions `convert_waveform_into` runs ahead of each record so
/// settling memory is in steady state (the converter's warm-up).
const WARMUP_CONVERSIONS: usize = 16;

/// The scalar conversion split into its layers on one die and stimulus:
/// `convert ≈ c·(stimulus + front_end + draws·noise + stages·adsc +
/// Σ mdac + flash + assemble) + residual` per output sample, where
/// `c = (n + warm-up)/n` conversions run per output sample.
pub fn conversion(report: &mut Report, adc: &PipelineAdc, wave: &SineSource, n: usize, seed: u64) {
    let cfg = adc.config().clone();
    let timing = adc.timing();
    let period = timing.period_s;
    let jitter = cfg.jitter.sigma_s;
    let mut codes = Vec::new();
    let mut die = adc.clone();
    let convert = ns_per_op(n, || {
        die.reset();
        die.convert_waveform_into(wave, n, &mut codes);
        black_box(&codes);
    });

    // Replay the conversion chain once through the public stage
    // functions to collect every layer's real inputs.
    let mut noise = SampleNoise::from_seed(seed);
    let mut comparator_noise = NoiseSource::from_seed(seed ^ 0xC0DE);
    let front = SamplingNetwork::new(
        SwitchModel::nominal(cfg.input_switch),
        adc.stages()[0].c_sample.value_f,
        timing.track_fraction().max(1e-3),
    );
    let front_sigma = front.ktc_sigma_v().hypot(adc.aux_noise_rms_v());
    let plans: Vec<_> = adc
        .stages()
        .iter()
        .map(|s| s.mdac.plan(timing.settle_time_s))
        .collect();
    let stages = plans.len();
    let mut adscs: Vec<_> = adc.stages().iter().map(|s| s.adsc.clone()).collect();
    let mut flash = FlashBackend::fabricate(
        &cfg.comparator,
        cfg.v_ref_v,
        &mut NoiseSource::from_seed(seed),
    );
    let mut instants = Vec::with_capacity(n);
    let mut inputs = Vec::with_capacity(n);
    let mut stage_in = vec![Vec::with_capacity(n); stages];
    let mut stage_noise = vec![Vec::with_capacity(n); stages];
    let mut decisions: Vec<StageDecision> = Vec::with_capacity(n * stages);
    let mut flash_in = Vec::with_capacity(n);
    let mut flash_codes = Vec::with_capacity(n);
    let mut prev = vec![0.0; stages];
    for k in 0..n {
        let t = k as f64 * period
            + if jitter > 0.0 {
                noise.gaussian(0.0, jitter)
            } else {
                0.0
            };
        let (v, dvdt) = wave.sample_at(t);
        instants.push(t);
        inputs.push((v, dvdt));
        let mut x = front.track(v, dvdt, period) + noise.gaussian(0.0, front_sigma);
        for (s, plan) in plans.iter().enumerate() {
            let decision = adscs[s].decide(x, &mut comparator_noise);
            let noise_v = noise.gaussian(0.0, plan.noise_rms_v);
            stage_in[s].push(x);
            stage_noise[s].push(noise_v);
            decisions.push(decision);
            x = plan.amplify(x, decision.dac_level, cfg.v_ref_v, noise_v, &mut prev[s]);
        }
        flash_in.push(x);
        flash_codes.push(flash.decide(x, &mut comparator_noise));
    }
    let c = (n + WARMUP_CONVERSIONS) as f64 / n as f64;
    let draws = f64::from(u8::from(jitter > 0.0))
        + f64::from(u8::from(front_sigma > 0.0))
        + plans.iter().filter(|p| p.noise_rms_v > 0.0).count() as f64;

    // With jitter the converter evaluates the stimulus per jittered
    // instant; without it, one batched grid fill.
    let stimulus = if jitter > 0.0 {
        ns_per_op(n, || {
            for &t in &instants {
                black_box(wave.sample_at(black_box(t)));
            }
        })
    } else {
        let (mut values, mut slopes) = (vec![0.0; n], vec![0.0; n]);
        ns_per_op(n, || {
            wave.fill_with_slope(0.0, period, &mut values, &mut slopes);
            black_box((&values, &slopes));
        })
    };
    let front_end = ns_per_op(n, || {
        for &(v, dvdt) in &inputs {
            black_box(front.track(black_box(v), dvdt, period));
        }
    });
    let per_draw = ns_per_op(n * 12, || {
        for _ in 0..n * 12 {
            black_box(noise.gaussian(0.0, black_box(front_sigma)));
        }
    });
    let adsc = ns_per_op(n * stages, || {
        for (s, xs) in stage_in.iter().enumerate() {
            for &x in xs {
                black_box(adscs[s].decide(black_box(x), &mut comparator_noise));
            }
        }
    });
    let mdac: Vec<f64> = plans
        .iter()
        .enumerate()
        .map(|(s, plan)| {
            let levels: Vec<i8> = decisions
                .iter()
                .skip(s)
                .step_by(stages)
                .map(|d| d.dac_level)
                .collect();
            ns_per_op(n, || {
                let mut prev = 0.0;
                for ((&x, &level), &nv) in stage_in[s].iter().zip(&levels).zip(&stage_noise[s]) {
                    black_box(plan.amplify(black_box(x), level, cfg.v_ref_v, nv, &mut prev));
                }
            })
        })
        .collect();
    let flash_ns = ns_per_op(n, || {
        for &x in &flash_in {
            black_box(flash.decide(black_box(x), &mut comparator_noise));
        }
    });
    let assemble = ns_per_op(n, || {
        for (d, &code) in decisions.chunks_exact(stages).zip(&flash_codes) {
            black_box(assemble_code(black_box(d), code));
        }
    });

    let rows: Vec<(String, f64, f64)> = [
        (
            "testbench.stimulus_ns_per_sample".to_string(),
            stimulus,
            1.0,
        ),
        ("analog.front_end_ns_per_sample".to_string(), front_end, 1.0),
        ("analog.noise_ns_per_draw".to_string(), per_draw, draws),
        ("pipeline.adsc_ns_per_call".to_string(), adsc, stages as f64),
    ]
    .into_iter()
    .chain(
        mdac.iter()
            .enumerate()
            .map(|(s, &ns)| (format!("pipeline.mdac_ns_per_call.stage{}", s + 1), ns, 1.0)),
    )
    .chain([
        ("pipeline.flash_ns_per_call".to_string(), flash_ns, 1.0),
        ("pipeline.assemble_ns_per_call".to_string(), assemble, 1.0),
    ])
    .collect();
    let accounted: f64 = rows.iter().map(|(_, ns, calls)| ns * calls * c).sum();
    let residual = convert - accounted;

    report.layer("pipeline.convert_ns_per_sample", convert, "ns");
    for (name, ns, _) in &rows {
        report.layer(name, *ns, "ns");
    }
    report.layer("analog.noise_draws_per_sample", draws, "count");
    report.layer("pipeline.residual_ns_per_sample", residual, "ns");
    println!(
        "conversion sum check ({n} samples, {c:.4} conversions per output sample): \
         row x calls/conversion = ns/output sample (share of convert)"
    );
    for (name, ns, calls) in &rows {
        println!(
            "  {name:<40} {ns:>8.2} x {calls:>4} = {:>8.2} ({:>5.1}%)",
            ns * calls * c,
            100.0 * ns * calls * c / convert
        );
    }
    println!(
        "  {:<40} {:>26.2} ({:>5.1}%)",
        "residual",
        residual,
        100.0 * residual / convert
    );
    println!(
        "  {:<40} {:>26.2} (100.0%)",
        "convert_waveform_into", convert
    );
}

/// The lane kernel at widths 1 and 8 on the workload's stimulus and
/// dies. Lane 0 must reproduce the scalar record bit for bit.
pub fn lanes(report: &mut Report, session: &MeasurementSession, seeds: &[u64], wave: &SineSource) {
    let n = session.record_len;
    let cfg = session.adc().config();
    let mut scalar = session.adc().clone();
    scalar.reset();
    let expected = scalar.convert_waveform(wave, n);
    for (width, name) in [
        (1, "pipeline.lanes1_ns_per_lane_sample"),
        (8, "pipeline.lanes8_ns_per_lane_sample"),
    ] {
        let die_seeds: Vec<u64> = seeds.iter().copied().cycle().take(width).collect();
        let mut batch = LaneBatch::build(cfg, &die_seeds).expect("the workload's dies build");
        let mut outs = vec![Vec::new(); width];
        // The first capture of fresh dies is the comparable one: noise
        // streams advance across captures.
        batch.convert_waveform_into(wave, n, &mut outs);
        report.attempted += 1;
        if outs[0] != expected {
            report.mismatch(format!(
                "{width}-lane kernel differs from the scalar record"
            ));
        }
        let ns = ns_per_op(n * width, || {
            batch.reset();
            batch.convert_waveform_into(wave, n, &mut outs);
            black_box(&outs);
        });
        report.layer(name, ns, "ns");
    }
}

/// Fabrication cost: `MeasurementSession::new` over the workload's
/// die seeds.
pub fn build(report: &mut Report, config: &adc_pipeline::AdcConfig, seeds: &[u64]) {
    let mut times = Vec::new();
    for _ in 0..3 {
        for &seed in seeds {
            let t = Instant::now();
            black_box(
                MeasurementSession::new(config.clone(), seed).expect("the workload's dies build"),
            );
            times.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    report.layer("pipeline.build_us_per_die", median(&times), "us");
}

/// FFT and full tone analysis of one of the workload's records.
pub fn spectral(report: &mut Report, session: &MeasurementSession, codes: &[u16]) {
    let record = session.reconstruct(codes);
    let mut scratch = SpectralScratch::new();
    let mut spectrum = Vec::new();
    let fft = ns_per_op(1, || {
        fft_real_into(&record, &mut scratch, &mut spectrum).expect("power-of-two record");
        black_box(&spectrum);
    });
    let cfg = ToneAnalysisConfig::coherent().with_full_scale(session.adc().config().v_ref_v);
    let analyze = ns_per_op(1, || {
        black_box(analyze_tone_with(&record, &cfg, &mut scratch).expect("power-of-two record"));
    });
    report.layer("spectral.fft_us", fft / 1e3, "us");
    report.layer("spectral.analyze_us", analyze / 1e3, "us");
}

/// Wire cost of one served record: its tagged `Batch` frames encoded
/// and decoded (each including the frame CRC), plus the stream CRC
/// the server and client both compute. Returns the modelled codec
/// microseconds per request for the serving sum check.
pub fn codec(report: &mut Report, codes: &[u16], batch: usize) -> f64 {
    let frames: Vec<Response> = codes
        .chunks(batch)
        .enumerate()
        .map(|(seq, chunk)| Response::Tagged {
            corr_id: 1,
            inner: Box::new(Response::Batch {
                seq: seq as u32,
                samples: chunk.to_vec(),
            }),
        })
        .collect();
    let n = codes.len();
    let mut encoded: Vec<Vec<u8>> = Vec::new();
    let encode = ns_per_op(n, || {
        encoded = frames.iter().map(encode_response).collect();
        black_box(&encoded);
    });
    let mut decoded = Vec::new();
    let decode = ns_per_op(n, || {
        decoded = encoded
            .iter()
            .map(|f| decode_response(f).expect("frames the encoder wrote decode"))
            .collect();
        black_box(&decoded);
    });
    report.attempted += 1;
    if decoded != frames {
        report.mismatch("decoded Batch frames differ from the encoded ones".to_string());
    }
    let stream: Vec<u8> = codes.iter().flat_map(|c| c.to_le_bytes()).collect();
    let crc = ns_per_op(stream.len(), || {
        black_box(crc32(black_box(&stream)));
    });
    report.layer("server.encode_ns_per_sample", encode, "ns");
    report.layer("server.decode_ns_per_sample", decode, "ns");
    report.layer("server.crc32_ns_per_byte", crc, "ns");
    (encode * n as f64 + decode * n as f64 + crc * 2.0 * stream.len() as f64) / 1e3
}

//! `serve_small`: a loopback `adc-server` with two digitize workers,
//! fed 256-sample tones, each at its own frequency, so no two requests
//! coalesce and every one takes the scalar digitize path.
//!
//! One generator thread drives two pipelined connections. On the
//! nominal rung, request `i` is due at `t0 + i/rate` and is sent then,
//! whatever the server is doing. Its latency runs from that due time to
//! the moment its verified completion is read, so a stall delays every
//! request queued behind it. The generator also records how late it
//! sent each request, and a rung where it ran late is flagged so a
//! generator stall does not pass for a server regression. The gated
//! figure is the saturated throughput: both connections keep the
//! server's per-connection cap in flight.
//!
//! The rate ladder is absolute: `base · 1.25^k`. Rung 0 is the nominal
//! rate. A traced run also reports goodput: the highest rung that meets
//! the limit (p99 ≤ 10 ms, nothing shed or failed, achieved ≥ 95 % of
//! offered), found by bisecting the fixed ladder. No rung depends on a
//! throughput measured in the run.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use adc_runtime::{derive_seed, split_mix64, Campaign, JobError, RunObserver};
use adc_server::protocol::MetricsSnapshot;
use adc_server::{
    preset_config, Client, ClientError, DigitizeRequest, ErrorCode, PipelinedClient,
    PipelinedOutcome, Server, ServerConfig, ServerHandle, WaveformSpec,
};
use adc_testbench::MeasurementSession;

use crate::campaign::RuntimeStats;
use crate::{layers, median, nproc, quantile, timed_setup, Args, Report};

/// Client p99 limit a rung must meet, milliseconds.
const P99_LIMIT_MS: f64 = 10.0;
/// Ladder step between rungs.
const STEP: f64 = 1.25;
/// Share of the offered rate a passing rung must achieve.
const MIN_ACHIEVED: f64 = 0.95;
/// Fewest requests on any rung, so at least ten lie beyond the p99 rank.
const MIN_RUNG_REQUESTS: usize = 1000;
/// Generator lag p99 above which a rung is flagged as generator-bound.
const LAG_FLAG_US: f64 = 1000.0;
/// Completion polling interval while any connection has requests in
/// flight.
const POLL: Duration = Duration::from_micros(100);
/// Requests each connection keeps in flight while saturating: the
/// server's default per-connection in-flight cap.
const SATURATION_WINDOW: usize = 16;
/// Completions per saturated-throughput sample.
const RATE_WINDOW: usize = 256;

/// A serving workload's request shape and rate ladder.
#[derive(Debug, Clone)]
pub struct Shape {
    name: &'static str,
    n_samples: u32,
    /// One test tone for every request; `None` draws a distinct
    /// frequency per request from its die seed.
    fixed_tone_hz: Option<f64>,
    /// Nominal rate: rung 0 of the ladder, req/s.
    base_rps: f64,
    /// Highest ladder index the goodput search may probe.
    top_rung: u32,
    /// One in this many served records is replayed in process.
    replay_every: u64,
    /// Requests in the set-up warm-up.
    warm_up: u64,
}

impl Shape {
    /// 256-sample tones, each at its own frequency.
    pub fn small() -> Self {
        Self {
            name: "serve_small",
            n_samples: 256,
            fixed_tone_hz: None,
            base_rps: 1000.0,
            top_rung: 10,
            replay_every: 16,
            warm_up: 512,
        }
    }

    /// Records of the campaign workload's shape, served: `n_samples`
    /// at its test tone, dies derived from the workload seed.
    pub fn campaign_record(f_target_hz: f64, n_samples: u32, rate: f64) -> Self {
        Self {
            name: "campaign_record",
            n_samples,
            fixed_tone_hz: Some(f_target_hz),
            base_rps: rate,
            top_rung: 0,
            replay_every: 1,
            warm_up: 16,
        }
    }

    /// Request `index` of the workload at `seed`.
    fn request(&self, seed: u64, index: u64) -> DigitizeRequest {
        let die = derive_seed(seed, index);
        let distinct = || 1e6 + 48e6 * (split_mix64(die) >> 11) as f64 / (1u64 << 53) as f64;
        let f_target_hz = self.fixed_tone_hz.unwrap_or_else(distinct);
        DigitizeRequest::tone(die, f_target_hz, self.n_samples)
    }

    fn rate(&self, rung: u32) -> f64 {
        self.base_rps * STEP.powi(rung as i32)
    }
}

/// The in-process capture a served tone request must reproduce.
fn capture(req: &DigitizeRequest) -> Vec<u16> {
    let WaveformSpec::Tone { f_target_hz } = req.waveform else {
        unreachable!("the benchmark sends tone requests only")
    };
    let mut session = MeasurementSession::new(preset_config(req.preset), req.seed)
        .expect("preset dies fabricate");
    session.record_len = req.n_samples as usize;
    let mut codes = Vec::new();
    session.capture_tone_into(f_target_hz, &mut codes);
    codes
}

/// A loopback server with two digitize workers, the generator's two
/// pipelined connections, and a control connection for metrics.
struct Rig {
    handle: ServerHandle,
    join: Option<std::thread::JoinHandle<std::io::Result<()>>>,
    conns: Vec<PipelinedClient>,
    control: Option<Client>,
}

impl Rig {
    fn start() -> Self {
        let cfg = ServerConfig {
            threads: 2,
            ..ServerConfig::default()
        };
        let (handle, join) = Server::spawn("127.0.0.1:0", cfg).expect("bind a loopback port");
        let conns = (0..2)
            .map(|_| {
                let c = PipelinedClient::connect(handle.addr())
                    .expect("connect to the loopback server");
                c.set_nonblocking(true).expect("nonblocking socket");
                c
            })
            .collect();
        let control = Client::connect(handle.addr()).expect("connect to the loopback server");
        Self {
            handle,
            join: Some(join),
            conns,
            control: Some(control),
        }
    }

    fn metrics(&mut self) -> MetricsSnapshot {
        self.control
            .as_mut()
            .expect("control connection open until drop")
            .metrics()
            .expect("metrics request")
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        self.conns.clear();
        self.control = None;
        self.handle.shutdown();
        if let Some(join) = self.join.take() {
            match join.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => eprintln!("server exited with {e}"),
                Err(_) => eprintln!("server thread panicked"),
            }
        }
    }
}

/// One rung's outcome.
#[derive(Debug, Default)]
struct Rung {
    rate: f64,
    offered: usize,
    completed: usize,
    shed: usize,
    failed: usize,
    achieved_rps: f64,
    latency_ms: Vec<f64>,
    lag_us: Vec<f64>,
    /// Seed-chosen served records kept for in-process replay.
    replays: Vec<(u64, Vec<u16>)>,
}

impl Rung {
    /// Latency quantile `q` of the rung: the median over consecutive
    /// windows of [`MIN_RUNG_REQUESTS`] completions of each window's
    /// quantile (the whole-rung quantile when the rung holds one
    /// window). A host-level stall of ~10–20 ms lands in one window and
    /// moves the median little, where it would move the whole-rung
    /// tail a lot.
    fn p(&self, q: f64) -> f64 {
        let windows: Vec<f64> = self
            .latency_ms
            .chunks_exact(MIN_RUNG_REQUESTS)
            .map(|w| quantile(w, q))
            .collect();
        if windows.len() < 2 {
            quantile(&self.latency_ms, q)
        } else {
            median(&windows)
        }
    }

    fn passes(&self) -> bool {
        self.shed == 0
            && self.failed == 0
            && self.completed == self.offered
            && self.p(0.99) <= P99_LIMIT_MS
            && self.achieved_rps >= MIN_ACHIEVED * self.rate
    }

    fn print(&self, label: &str) {
        let lag = quantile(&self.lag_us, 0.99);
        println!(
            "  {label:<9} {:>8.1} req/s offered, {:>8.1} achieved, {} ok {} shed {} failed, \
             p50 {:.3} ms p99 {:.3} ms (whole rung {:.3}), gen lag p99 {lag:.0} us{}{}",
            self.rate,
            self.achieved_rps,
            self.completed,
            self.shed,
            self.failed,
            self.p(0.5),
            self.p(0.99),
            quantile(&self.latency_ms, 0.99),
            if self.passes() { "  PASS" } else { "  fail" },
            if lag > LAG_FLAG_US {
                "  [GENERATOR LATE]"
            } else {
                ""
            },
        );
    }
}

/// The open-loop generator's state during one rung.
struct Generator<'a> {
    shape: &'a Shape,
    seed: u64,
    rung: Rung,
    /// Per connection: correlation id → (due time, request index).
    pending: Vec<HashMap<u64, (Instant, u64)>>,
    last_done: Option<Instant>,
}

impl Generator<'_> {
    /// Records what one read of connection `c` yielded; `true` when it
    /// was a completion (so the connection may hold more).
    fn complete(
        &mut self,
        report: &mut Report,
        c: usize,
        read: Result<Option<(u64, PipelinedOutcome)>, ClientError>,
    ) -> bool {
        let name = self.shape.name;
        let (corr, outcome) = match read {
            Ok(Some(done)) => done,
            Ok(None) => return false,
            Err(e) => {
                report.incorrect(format!("{name}: client error {e}"));
                self.rung.failed += self.pending[c].len();
                self.pending[c].clear();
                return false;
            }
        };
        let now = Instant::now();
        let Some((due, index)) = self.pending[c].remove(&corr) else {
            report.mismatch(format!("{name}: completion for unknown request {corr}"));
            return true;
        };
        let _s = adc_trace::span_with("serve.complete", index);
        self.last_done = Some(now);
        match outcome {
            PipelinedOutcome::Digitize(result) => {
                self.rung.completed += 1;
                self.rung.latency_ms.push((now - due).as_secs_f64() * 1e3);
                if result.samples.len() != self.shape.n_samples as usize {
                    report.mismatch(format!("{name}: request {index} short record"));
                } else if split_mix64(self.seed ^ index).is_multiple_of(self.shape.replay_every) {
                    self.rung.replays.push((index, result.samples));
                }
            }
            PipelinedOutcome::ServerError {
                code: ErrorCode::Overloaded,
                ..
            } => self.rung.shed += 1,
            other => {
                report.incorrect(format!("{name}: request {index} failed: {other:?}"));
                self.rung.failed += 1;
            }
        }
        true
    }

    /// Submits request `index` on connection `c`, due at `due`.
    fn send(&mut self, rig: &mut Rig, report: &mut Report, c: usize, index: u64, due: Instant) {
        let req = self.shape.request(self.seed, index);
        let _s = adc_trace::span_with("serve.send", index);
        self.rung.offered += 1;
        match rig.conns[c].submit(&req) {
            Ok(corr) => {
                self.pending[c].insert(corr, (due, index));
            }
            Err(e) => {
                report.incorrect(format!("{}: submit failed: {e}", self.shape.name));
                self.rung.failed += 1;
            }
        }
    }

    /// Reads every completion already buffered, without blocking.
    fn drain_ready(&mut self, rig: &mut Rig, report: &mut Report) {
        for c in 0..rig.conns.len() {
            while self.complete(report, c, rig.conns[c].try_next_completion()) {}
        }
    }

    /// Waits for every request in flight (at most 30 s), then closes
    /// the rung's books: a request still unanswered is a mismatch.
    fn finish(mut self, rig: &mut Rig, report: &mut Report, t0: Instant) -> Rung {
        let deadline = Instant::now() + Duration::from_secs(30);
        while self.pending.iter().any(|p| !p.is_empty()) && Instant::now() < deadline {
            self.wait_until(rig, report, Instant::now() + Duration::from_millis(10));
        }
        let unanswered = self.pending.iter().map(HashMap::len).sum::<usize>();
        if unanswered > 0 {
            report.incorrect(format!(
                "{}: {unanswered} requests unanswered after 30 s",
                self.shape.name
            ));
        }
        let mut rung = self.rung;
        rung.failed += unanswered;
        let wall = self.last_done.map_or(0.0, |done| (done - t0).as_secs_f64());
        rung.achieved_rps = rung.completed as f64 / wall.max(1e-9);
        rung
    }

    /// Waits until `until`, reading each completion as it lands.
    fn wait_until(&mut self, rig: &mut Rig, report: &mut Report, until: Instant) {
        loop {
            self.drain_ready(rig, report);
            let now = Instant::now();
            if now >= until {
                return;
            }
            let remain = until - now;
            if self.pending.iter().all(HashMap::is_empty) {
                std::thread::sleep(remain);
            } else {
                std::thread::sleep(remain.min(POLL));
            }
        }
    }
}

/// A generator for one rung at `rate` (0 for a closed loop).
fn generator<'a>(rig: &Rig, shape: &'a Shape, seed: u64, rate: f64) -> Generator<'a> {
    Generator {
        shape,
        seed,
        rung: Rung {
            rate,
            ..Rung::default()
        },
        pending: vec![HashMap::new(); rig.conns.len()],
        last_done: None,
    }
}

/// Sends `count` requests (indices `first..first+count`) at `rate` and
/// waits for every completion. Client-side verification failures
/// (ordering, count, stream CRC) are recorded as mismatches.
fn run_rung(
    rig: &mut Rig,
    shape: &Shape,
    seed: u64,
    report: &mut Report,
    first: u64,
    count: usize,
    rate: f64,
) -> Rung {
    let _rung = adc_trace::span_with("serve.rung", rate as u64);
    let mut gen = generator(rig, shape, seed, rate);
    let interval = Duration::from_secs_f64(1.0 / rate);
    let t0 = Instant::now() + Duration::from_millis(5);
    for j in 0..count {
        let due = t0 + interval.mul_f64(j as f64);
        gen.wait_until(rig, report, due);
        gen.rung.lag_us.push(due.elapsed().as_secs_f64() * 1e6);
        gen.send(rig, report, j % rig.conns.len(), first + j as u64, due);
    }
    gen.finish(rig, report, t0)
}

/// Closed-loop saturation for `duration` or until `max_requests` are
/// sent: each connection keeps [`SATURATION_WINDOW`] requests in
/// flight, requests `first..` in turn. Returns the rung and the
/// completion rate (req/s) over each run of [`RATE_WINDOW`]
/// completions after the first second (the ramp).
fn saturate(
    rig: &mut Rig,
    shape: &Shape,
    seed: u64,
    report: &mut Report,
    first: u64,
    duration: Duration,
    max_requests: u64,
) -> (Rung, Vec<f64>) {
    let mut gen = generator(rig, shape, seed, 0.0);
    let t0 = Instant::now();
    let ramp_end = t0 + Duration::from_secs(1);
    // When every RATE_WINDOW-th completion after the ramp was read.
    let mut marks = Vec::new();
    let mut counted = 0usize;
    let mut index = first;
    let end = first.saturating_add(max_requests);
    while t0.elapsed() < duration && index < end {
        for c in 0..rig.conns.len() {
            while gen.pending[c].len() < SATURATION_WINDOW && index < end {
                gen.send(rig, report, c, index, Instant::now());
                index += 1;
            }
        }
        let before = gen.rung.completed;
        gen.drain_ready(rig, report);
        let done = gen.rung.completed - before;
        let now = Instant::now();
        if now >= ramp_end {
            for _ in 0..done {
                if counted.is_multiple_of(RATE_WINDOW) {
                    marks.push(now);
                }
                counted += 1;
            }
        }
        if done == 0 {
            std::thread::sleep(POLL);
        }
    }
    let rates = marks
        .windows(2)
        .map(|w| RATE_WINDOW as f64 / (w[1] - w[0]).as_secs_f64())
        .collect();
    (gen.finish(rig, report, t0), rates)
}

/// Replays a rung's seed-chosen records in process, as a runtime
/// campaign, and compares them bit for bit with what was served.
/// Returns the in-process capture times (the DSP floor), microseconds.
fn replay(
    report: &mut Report,
    shape: &Shape,
    seed: u64,
    rung: &mut Rung,
    stats: &Arc<RuntimeStats>,
) -> Vec<f64> {
    let picked = std::mem::take(&mut rung.replays);
    let run = Campaign::new(format!("{}-replay", shape.name), seed)
        .jobs(picked.iter().map(|(index, _)| *index))
        .threads(nproc())
        .observe(Arc::clone(stats) as Arc<dyn RunObserver>)
        .run(|_, &index| {
            let req = shape.request(seed, index);
            let start = Instant::now();
            let codes = capture(&req);
            Ok::<_, JobError>((codes, start.elapsed().as_secs_f64() * 1e6))
        });
    let mut floors = Vec::new();
    for ((index, served), replayed) in picked.iter().zip(run.values) {
        report.attempted += 1;
        match replayed {
            Some((codes, us)) if codes == *served => floors.push(us),
            _ => report.mismatch(format!(
                "{}: request {index} differs from its in-process replay",
                shape.name
            )),
        }
    }
    floors
}

/// Set-up: start a server, connect, and run a closed-loop warm-up of
/// the shape's warm-up requests with the saturation window in flight,
/// so the measured rungs do not pay for cold code, caches and allocator
/// growth. No pacing: set-up time is the program's own. The warm-up's
/// records are checked like any rung's. A server's latency histogram
/// cannot be reset and the traced rows read it, so the warm server is
/// shut down and the measured rungs run on a fresh one in the same,
/// now warm, process.
fn start_rig(report: &mut Report, shape: &Shape, seed: u64) -> Rig {
    let warm_seed = seed ^ 0x5EED;
    let (mut warm, _) = saturate(
        &mut Rig::start(),
        shape,
        warm_seed,
        report,
        0,
        Duration::MAX,
        shape.warm_up,
    );
    report.attempted += warm.offered as u64;
    report.failed += (warm.shed + warm.failed) as u64;
    replay(report, shape, warm_seed, &mut warm, &Arc::default());
    Rig::start()
}

/// Runs a serving workload. An untraced run spends half the budget on
/// the nominal rung and half saturated. A traced run spends a third on
/// the nominal rung, bisects the ladder for goodput, then repeats the
/// nominal rung traced.
pub fn run(shape: &Shape, args: &Args, budget: Duration, report: &mut Report) {
    println!(
        "{}: {}-sample tones, ladder {} req/s x {STEP}^k (k <= {}), 2 server workers, 2 connections",
        shape.name, shape.n_samples, shape.base_rps, shape.top_rung
    );
    let seed = args.seed;
    let mut rig = timed_setup(report, |report| start_rig(report, shape, seed));
    let stats = Arc::new(RuntimeStats::default());
    let share = if args.trace { budget / 3 } else { budget / 2 };
    let count = ((shape.base_rps * share.as_secs_f64()) as usize).max(MIN_RUNG_REQUESTS);
    let mut nominal = run_rung(&mut rig, shape, seed, report, 0, count, shape.rate(0));
    let snapshot = rig.metrics();
    println!("rungs:");
    nominal.print("nominal");
    let floors = replay(report, shape, seed, &mut nominal, &stats);
    report.attempted += nominal.offered as u64;
    report.failed += (nominal.shed + nominal.failed) as u64;
    report.layer("bench.p50_ms", nominal.p(0.50), "ms");
    report.layer("bench.p99_ms", nominal.p(0.99), "ms");
    if !args.trace {
        let (mut sat, rates) =
            saturate(&mut rig, shape, seed, report, count as u64, share, u64::MAX);
        let rps = median(&rates);
        println!(
            "  saturated: {} ok {} shed {} failed in {:.1} s; req/s over {} runs of {RATE_WINDOW} \
             completions: min {:.1} median {rps:.1} max {:.1}",
            sat.completed,
            sat.shed,
            sat.failed,
            share.as_secs_f64(),
            rates.len(),
            quantile(&rates, 0.0),
            quantile(&rates, 1.0)
        );
        replay(report, shape, seed, &mut sat, &stats);
        report.attempted += sat.offered as u64;
        report.failed += (sat.shed + sat.failed) as u64;
        report.e2e("samples_per_s", rps * f64::from(shape.n_samples), "1/s");
        return;
    }
    let (goodput, next) = goodput_search(
        report,
        shape,
        seed,
        &mut rig,
        &nominal,
        count as u64,
        &stats,
    );
    report.layer("bench.goodput_rps", goodput, "req/s");
    traced_rung(report, shape, seed, &mut rig, &nominal, next);
    serving_rows(report, shape, seed, &nominal, &snapshot, &floors);
    conversion_rows(report, shape, seed);
    stats.report(report);
}

/// Bisects the fixed ladder above the nominal rung for the highest
/// rung that meets the limit; returns its achieved rate (0 when even
/// the nominal rung fails) and the next unused request index.
fn goodput_search(
    report: &mut Report,
    shape: &Shape,
    seed: u64,
    rig: &mut Rig,
    nominal: &Rung,
    mut first: u64,
    stats: &Arc<RuntimeStats>,
) -> (f64, u64) {
    // Rung `lo` passes; rung `hi` is presumed to fail.
    let (mut lo, mut hi) = (0u32, shape.top_rung + 1);
    let mut best = nominal.passes().then_some(nominal.achieved_rps);
    while best.is_some() && hi - lo > 1 {
        let mid = (lo + hi) / 2;
        let rate = shape.rate(mid);
        let n = (rate as usize).max(MIN_RUNG_REQUESTS);
        std::thread::sleep(Duration::from_millis(200));
        let mut rung = run_rung(rig, shape, seed, report, first, n, rate);
        first += n as u64;
        rung.print(&format!("rung {mid}"));
        replay(report, shape, seed, &mut rung, stats);
        // Above capacity a rung is expected to shed; a failed request
        // is a failure on any rung.
        report.attempted += rung.offered as u64;
        report.failed += rung.failed as u64;
        if rung.passes() {
            lo = mid;
            best = Some(rung.achieved_rps);
        } else {
            hi = mid;
        }
    }
    let totals = rig.metrics();
    println!(
        "goodput: rung {lo} ({:.1} req/s offered); server saw {} digitizes, {} coalesced, {} shed",
        shape.rate(lo),
        totals.digitizes,
        totals.coalesced,
        totals.overloaded
    );
    (best.unwrap_or(0.0), first)
}

/// The nominal rung again, ~2 s of it, with the trace collector
/// installed; reports the tracing overhead on the client p50.
fn traced_rung(
    report: &mut Report,
    shape: &Shape,
    seed: u64,
    rig: &mut Rig,
    nominal: &Rung,
    first: u64,
) {
    let count = ((shape.base_rps * 2.0) as usize).max(MIN_RUNG_REQUESTS);
    let session = adc_trace::Collector::install().expect("no other trace collector is installed");
    let traced = run_rung(rig, shape, seed, report, first, count, shape.rate(0));
    traced.print("traced");
    report.attempted += traced.offered as u64;
    report.failed += (traced.shed + traced.failed) as u64;
    crate::write_trace(session, &format!("{}-seed{seed}", shape.name));
    report.layer(
        "bench.trace_overhead_pct",
        100.0 * (traced.p(0.5) / nominal.p(0.5) - 1.0),
        "%",
    );
}

/// The conversion, lane, build and spectral rows on this workload's
/// first request: its die, stimulus and record length.
fn conversion_rows(report: &mut Report, shape: &Shape, seed: u64) {
    let req = shape.request(seed, 0);
    let mut session = MeasurementSession::new(preset_config(req.preset), req.seed)
        .expect("preset dies fabricate");
    session.record_len = shape.n_samples as usize;
    let WaveformSpec::Tone { f_target_hz } = req.waveform else {
        unreachable!("the benchmark sends tone requests only")
    };
    let wave = layers::tone_stimulus(&session, f_target_hz);
    layers::conversion(
        report,
        session.adc(),
        &wave,
        shape.n_samples as usize,
        req.seed,
    );
    let seeds: Vec<u64> = (0..8).map(|i| shape.request(seed, i).seed).collect();
    layers::lanes(report, &session, &seeds, &wave);
    layers::build(report, &preset_config(req.preset), &seeds);
    layers::spectral(report, &session, &capture(&req));
}

/// The serving-edge rows and the serving sum check:
/// `client p50 ≈ DSP floor + encode + decode + stream CRCs + residual`.
fn serving_rows(
    report: &mut Report,
    shape: &Shape,
    seed: u64,
    nominal: &Rung,
    snapshot: &MetricsSnapshot,
    floors: &[f64],
) {
    let floor_us = median(floors);
    let client_p50_us = nominal.p(0.5) * 1e3;
    let batch = ServerConfig::default().default_batch as usize;
    let codec_us = layers::codec(report, &capture(&shape.request(seed, 0)), batch);
    let residual = client_p50_us - floor_us - codec_us;
    report.layer("server.dsp_floor_us", floor_us, "us");
    report.layer("server.overhead_us_p50", client_p50_us - floor_us, "us");
    report.layer("server.server_p50_us", snapshot.p50_us as f64, "us");
    report.layer("server.server_p99_us", snapshot.p99_us as f64, "us");
    report.layer(
        "server.coalesced_ratio",
        snapshot.coalesced as f64 / snapshot.digitizes.max(1) as f64,
        "1",
    );
    report.layer("server.shed", snapshot.overloaded as f64, "count");
    report.layer("server.residual_us_p50", residual, "us");
    report.layer(
        "bench.gen_lag_p99_us",
        quantile(&nominal.lag_us, 0.99),
        "us",
    );
    println!(
        "serving sum check at {:.1} req/s ({} requests):",
        nominal.rate, nominal.completed
    );
    for (name, us) in [
        ("DSP floor (in-process capture)", floor_us),
        ("encode + decode + stream CRCs", codec_us),
        (
            "residual (admission, dispatch, wake, flush, poll)",
            residual,
        ),
    ] {
        println!(
            "  {name:<50} {us:>10.1} us ({:>5.1}%)",
            100.0 * us / client_p50_us
        );
    }
    println!("  {:<50} {client_p50_us:>10.1} us", "client p50");
    println!(
        "  client p99 {:.1} us vs server p99 {} us (server p50 {} us)",
        nominal.p(0.99) * 1e3,
        snapshot.p99_us,
        snapshot.p50_us
    );
}

/// The serving-edge rows for the campaign workload: its die records
/// served open loop at a light fixed rate on a fresh server.
pub fn campaign_serving_rows(report: &mut Report, seed: u64, f_target_hz: f64, n_samples: u32) {
    let shape = Shape::campaign_record(f_target_hz, n_samples, 25.0);
    let mut rig = start_rig(report, &shape, seed);
    let mut rung = run_rung(&mut rig, &shape, seed, report, 0, 32, shape.rate(0));
    let snapshot = rig.metrics();
    report.attempted += rung.offered as u64;
    report.failed += (rung.shed + rung.failed) as u64;
    let floors = replay(
        report,
        &shape,
        seed,
        &mut rung,
        &Arc::new(RuntimeStats::default()),
    );
    serving_rows(report, &shape, seed, &rung, &snapshot, &floors);
}

//! Lane-parallel structure-of-arrays conversion: N independent dies
//! advance through each MDAC stage in lock-step.
//!
//! The scalar planned path ([`PipelineAdc::convert_waveform_into`])
//! converts one sample at a time: ten dependent stage evaluations —
//! droop, ADSC decision, one merged Gaussian draw, settling — form a
//! serial floating-point chain the CPU cannot overlap. A [`LaneBatch`]
//! carries 4–16 *independent* conversions (Monte-Carlo die variants,
//! interleaved channels, or just separate records) through the same
//! stage together, restructured from array-of-structs to
//! structure-of-arrays:
//!
//! * the hoisted [`StagePlan`]s and the MDAC settling memories are
//!   gathered once per batch into flat stage-major arrays, so the
//!   per-stage inner loops stream over contiguous state instead of
//!   chasing `lanes[l].stages[s]` pointers, and the per-sample
//!   `plans_dirty` check is amortized away;
//! * each stage becomes three short lane loops — decide (per-lane
//!   comparators), a Gaussian *draw stripe* (one merged draw per lane
//!   from that lane's own stream), and a branch-free SoA amplify
//!   kernel ([`AmpConstants::amplify_lanes`]) the compiler packs into
//!   SIMD lanes (runtime-dispatched to an AVX2 instantiation on
//!   x86-64 hosts that have it — bit-identical, just wider);
//! * the per-sample hot draws (jitter, front end, ten merged stage
//!   draws) live on each die's single-word
//!   [`SampleNoise`](adc_analog::stripe::SampleNoise) stream, so the
//!   batch pre-draws the whole sample's block for all lanes at once
//!   ([`NormalBlock`], draw-major) and each loop consumes its slot as
//!   a contiguous lane stripe;
//! * the independent per-lane FP chains give the out-of-order core real
//!   instruction-level parallelism: while lane 0's settling
//!   exponential/divide is in flight, lanes 1..N issue theirs.
//!
//! # Bit-exactness discipline
//!
//! Every lane is one [`PipelineAdc`] with its **own** noise streams,
//! and the kernel executes lanes in lock-step *sample-major,
//! stage-major, lane-minor*. The per-sample hot draws are
//! unconditional and fixed-count, so the block pre-draw consumes each
//! lane's `SampleNoise` words in exactly the scalar order; the
//! data-dependent draws (marginal comparator decisions) stay on the
//! die's fabrication-side `NoiseSource` and are taken per lane at
//! exactly the point the scalar path would take them. Interleaving
//! *between* lanes touches only other streams and is therefore
//! invisible per lane. Consequently each lane's output is
//! bit-identical to running that waveform alone through the scalar
//! planned path at the same seed — asserted by this module's tests and
//! by the `determinism` integration suite. (Splitting the hot draws
//! onto `SampleNoise` changed realizations relative to the
//! single-stream model, which is why `NUMERICS_EPOCH` is 3.) See
//! DESIGN.md §16.

use adc_analog::stripe::{standard_normal_step, standard_normal_stripe, NormalBlock};

use crate::config::AdcConfig;
use crate::converter::{PipelineAdc, StagePlan, Waveform, WARMUP_SAMPLES};
use crate::correction;
use crate::error::BuildAdcError;
use crate::mdac::AmpConstants;
use crate::subconverter::StageDecision;

/// Why a set of dies cannot form a [`LaneBatch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaneError {
    /// A batch needs at least one lane.
    Empty,
    /// Lanes must agree on stage count so the lock-step stage loop is
    /// well-formed (configs may otherwise differ freely).
    MismatchedStageCount {
        /// Index of the offending lane.
        lane: usize,
        /// Stage count of lane 0.
        expected: usize,
        /// Stage count of the offending lane.
        got: usize,
    },
}

impl std::fmt::Display for LaneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Empty => write!(f, "a lane batch needs at least one lane"),
            Self::MismatchedStageCount {
                lane,
                expected,
                got,
            } => write!(
                f,
                "lane {lane} has {got} stages, lane 0 has {expected}: \
                 lock-step execution needs a uniform stage count"
            ),
        }
    }
}

impl std::error::Error for LaneError {}

/// N fabricated dies converting in lock-step (see the module docs).
///
/// ```
/// use adc_pipeline::config::AdcConfig;
/// use adc_pipeline::lanes::LaneBatch;
///
/// # fn main() -> Result<(), adc_pipeline::error::BuildAdcError> {
/// // Four Monte-Carlo die variants of the paper's nominal design.
/// let mut batch = LaneBatch::build(&AdcConfig::nominal_110ms(), &[1, 2, 3, 4])?;
/// let tone = |t: f64| 0.9 * (2.0 * std::f64::consts::PI * 10.07e6 * t).sin();
/// let records = batch.convert_waveform(&tone, 256);
/// assert_eq!(records.len(), 4);
/// assert!(records.iter().all(|r| r.len() == 256));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LaneBatch {
    lanes: Vec<PipelineAdc>,
    stage_count: usize,
    /// Stage-major gathered plans: `plan_soa[s·N + l]` is lane `l`'s
    /// plan for stage `s`. Rebuilt at the top of every batch.
    plan_soa: Vec<StagePlan>,
    /// Stage-major gathered MDAC settling memories, scattered back into
    /// the lanes when the batch completes.
    prev_soa: Vec<f64>,
    /// Per-lane residue (the value walking down the pipeline).
    x: Vec<f64>,
    /// Per-lane stage-1 ADSC aperture-skew error for the current sample.
    adsc_err: Vec<f64>,
    /// Per-lane DAC level of the current stage, as the exact small
    /// integer `f64` the amplify kernel multiplies with (`f64::from` of
    /// the decision).
    dac: Vec<f64>,
    /// Per-lane effective reference of the current stage.
    vref: Vec<f64>,
    /// Per-lane merged noise sigma of the current stage.
    sigma: Vec<f64>,
    /// Per-lane merged Gaussian draw of the current stage (the stripe).
    noise_v: Vec<f64>,
    /// Lane-major decisions of the current sample:
    /// `decisions[l·stages + s]`.
    decisions: Vec<StageDecision>,
    /// Per-lane conversion period, seconds.
    periods: Vec<f64>,
    /// Pre-evaluated waveform values, one row per exact-grid (jitter
    /// off) lane only: `values[row·total + k]`, rows in lane order.
    values: Vec<f64>,
    /// Pre-evaluated waveform slopes, laid out like `values`.
    slopes: Vec<f64>,
    /// Gathered per-lane SplitMix64 sample-noise states, advanced in
    /// vectorizable stripes and scattered back when the batch completes.
    states: Vec<u64>,
    /// Whole-sample deviate block (see [`BlockPlan`]), reused across
    /// samples.
    block: NormalBlock,
    /// Stage-major field-major gather of the per-lane amplify constants
    /// (see [`AmpConstants`]), rebuilt with `plan_soa`.
    amp: AmpConstants,
}

/// The per-sample draw schedule when every draw slot is lane-uniform:
/// which slot (if any) of the pre-drawn [`NormalBlock`] feeds jitter,
/// the front end, and each stage's merged draw.
///
/// Eligibility is decided per batch from the gathered configs and
/// plans: a slot qualifies when its sigma is positive on *every* lane
/// (consumes everywhere) or non-positive on every lane (consumes
/// nowhere). Then the number of stream words each lane spends per
/// sample is a constant, so all of them can be drawn at the top of the
/// sample in one wide block — per lane in exactly the scalar
/// consumption order, so bit-exactness is untouched. Any mixed slot
/// (sigma on for some lanes only, or a stage whose two DSB sigma
/// candidates straddle zero) makes consumption data-dependent, and the
/// batch falls back to the per-site stripes.
#[derive(Debug, Clone)]
struct BlockPlan {
    /// Block slot of the aperture-jitter draw (`None`: jitter off on
    /// every lane, no draw).
    jitter: Option<usize>,
    /// Block slot of the merged front-end draw.
    front: Option<usize>,
    /// Block slot of each stage's merged draw.
    stage: Vec<Option<usize>>,
    /// Total slots per lane per sample.
    draws: usize,
}

impl LaneBatch {
    /// Assembles a batch from already-fabricated dies (Monte-Carlo
    /// variants, interleave channels, fault-injected mutants, ...).
    ///
    /// # Errors
    ///
    /// [`LaneError::Empty`] for an empty set and
    /// [`LaneError::MismatchedStageCount`] when the dies disagree on
    /// pipeline depth.
    pub fn from_adcs(lanes: Vec<PipelineAdc>) -> Result<Self, LaneError> {
        let stage_count = lanes.first().ok_or(LaneError::Empty)?.stages.len();
        for (lane, adc) in lanes.iter().enumerate() {
            if adc.stages.len() != stage_count {
                return Err(LaneError::MismatchedStageCount {
                    lane,
                    expected: stage_count,
                    got: adc.stages.len(),
                });
            }
        }
        let n = lanes.len();
        Ok(Self {
            lanes,
            stage_count,
            plan_soa: Vec::new(),
            prev_soa: Vec::new(),
            x: vec![0.0; n],
            adsc_err: vec![0.0; n],
            dac: vec![0.0; n],
            vref: vec![0.0; n],
            sigma: vec![0.0; n],
            noise_v: vec![0.0; n],
            decisions: vec![StageDecision { dac_level: 0 }; n * stage_count],
            periods: vec![0.0; n],
            values: Vec::new(),
            slopes: Vec::new(),
            states: vec![0; n],
            block: NormalBlock::new(),
            amp: AmpConstants::default(),
        })
    }

    /// Fabricates one die per seed from a shared configuration — the
    /// Monte-Carlo shape: same design, different process draws.
    ///
    /// # Errors
    ///
    /// Propagates the first seed's [`BuildAdcError`] (the config itself
    /// is unbuildable, or `seeds` is empty — surfaced as
    /// [`BuildAdcError::NoStages`] would never be, so an empty seed set
    /// panics instead).
    ///
    /// # Panics
    ///
    /// Panics when `seeds` is empty.
    pub fn build(config: &AdcConfig, seeds: &[u64]) -> Result<Self, BuildAdcError> {
        assert!(!seeds.is_empty(), "need at least one lane seed");
        let lanes = seeds
            .iter()
            .map(|&seed| PipelineAdc::build(config.clone(), seed))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self::from_adcs(lanes).expect("uniform config implies uniform stage count"))
    }

    /// The number of lanes.
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// `true` when the batch has no lanes (never constructible via the
    /// public constructors; kept for the `len`/`is_empty` convention).
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// The lanes, for inspection (power readings, configs).
    pub fn lanes(&self) -> &[PipelineAdc] {
        &self.lanes
    }

    /// Disassembles the batch back into its dies. Settling and noise
    /// state carry over exactly: converting scalar-ly on a returned die
    /// continues bit-identically from where the batch left off.
    pub fn into_lanes(self) -> Vec<PipelineAdc> {
        self.lanes
    }

    /// Clears every lane's inter-sample state (settling/tracking memory,
    /// sample counter), as [`PipelineAdc::reset`] does per die.
    pub fn reset(&mut self) {
        for lane in &mut self.lanes {
            lane.reset();
        }
    }

    /// Converts `n_samples` of one shared waveform on every lane (the
    /// Monte-Carlo case), returning one record per lane.
    pub fn convert_waveform(&mut self, waveform: &dyn Waveform, n_samples: usize) -> Vec<Vec<u16>> {
        let mut out = vec![Vec::new(); self.lanes.len()];
        self.convert_waveform_into(waveform, n_samples, &mut out);
        out
    }

    /// Like [`Self::convert_waveform`], into caller-owned buffers
    /// (cleared first) so repeated captures reuse the allocations.
    ///
    /// # Panics
    ///
    /// Panics when `out.len()` differs from the lane count.
    pub fn convert_waveform_into(
        &mut self,
        waveform: &dyn Waveform,
        n_samples: usize,
        out: &mut [Vec<u16>],
    ) {
        let waveforms: Vec<&dyn Waveform> = vec![waveform; self.lanes.len()];
        self.convert_waveforms_into(&waveforms, n_samples, out);
    }

    /// Converts `n_samples` of a *per-lane* waveform set (interleaved
    /// channels see phase-shifted views; sweep points see different
    /// stimuli), returning one record per lane.
    ///
    /// # Panics
    ///
    /// Panics when `waveforms.len()` differs from the lane count.
    pub fn convert_waveforms(
        &mut self,
        waveforms: &[&dyn Waveform],
        n_samples: usize,
    ) -> Vec<Vec<u16>> {
        let mut out = vec![Vec::new(); self.lanes.len()];
        self.convert_waveforms_into(waveforms, n_samples, &mut out);
        out
    }

    /// The lock-step SoA kernel (see the module docs): every lane's
    /// record is bit-identical to
    /// [`PipelineAdc::convert_waveform_into`] on that lane alone.
    ///
    /// # Panics
    ///
    /// Panics when `waveforms.len()` or `out.len()` differs from the
    /// lane count.
    pub fn convert_waveforms_into(
        &mut self,
        waveforms: &[&dyn Waveform],
        n_samples: usize,
        out: &mut [Vec<u16>],
    ) {
        let n = self.lanes.len();
        assert_eq!(waveforms.len(), n, "one waveform per lane");
        assert_eq!(out.len(), n, "one output record per lane");
        let _trace = adc_trace::span_with("lane_record", (n_samples * n) as u64);
        let total = n_samples + WARMUP_SAMPLES;
        for rec in out.iter_mut() {
            rec.clear();
            rec.reserve(n_samples);
        }

        // Gather: plans (rebuilt if fault injection dirtied them) and
        // MDAC settling memories into stage-major SoA arrays.
        for lane in &mut self.lanes {
            lane.ensure_plans();
        }
        self.plan_soa.clear();
        self.prev_soa.clear();
        self.amp.clear();
        for s in 0..self.stage_count {
            for lane in &self.lanes {
                self.plan_soa.push(lane.plans[s]);
                self.prev_soa.push(lane.stages[s].mdac.prev_output_v());
                self.amp.push(&lane.plans[s].mdac);
            }
        }
        for (l, lane) in self.lanes.iter().enumerate() {
            self.periods[l] = lane.timing.period_s;
            self.states[l] = lane.sample_noise.state();
        }
        // Decide once whether the whole sample's draws can be
        // pre-generated as one wide block (the fast shape) or must be
        // striped per site (mixed sigmas).
        let block_plan = self.plan_block();

        // Exact-grid lanes (jitter off) fill their own row `grid[l]` in
        // one batched pass, exactly as the scalar path does; jittered
        // lanes get no row and evaluate per sample after their jitter draw.
        let mut grid = vec![None; n];
        let mut rows = 0;
        for (l, w) in waveforms.iter().enumerate() {
            // adc-lint: allow(float-eq) reason="feature gate: zero jitter sigma selects the exact-grid batch path, mirroring the scalar converter"
            if self.lanes[l].config.jitter.sigma_s == 0.0 {
                let span = rows * total..(rows + 1) * total;
                self.values.resize(span.end, 0.0);
                self.slopes.resize(span.end, 0.0);
                w.fill_with_slope(
                    0.0,
                    self.periods[l],
                    &mut self.values[span.clone()],
                    &mut self.slopes[span],
                );
                grid[l] = Some(rows);
                rows += 1;
            }
        }

        for k in 0..total {
            // Block-eligible batches generate every lane's entire
            // sample worth of deviates here, in one flat vector pass —
            // per lane in exactly the scalar consumption order.
            if let Some(bp) = &block_plan {
                if bp.draws > 0 {
                    self.block.fill(&mut self.states, bp.draws);
                }
            }
            // Front end, staged across lanes. Per-lane stream order is
            // exactly convert_one's: jitter draw, then the merged front
            // kT/C ⊕ aux draw.
            //
            // (1) Jitter stripe — jittered lanes draw their aperture
            // error; exact-grid lanes have zero sigma, which never
            // touches the stream.
            for l in 0..n {
                self.sigma[l] = self.lanes[l].config.jitter.sigma_s;
            }
            match &block_plan {
                Some(bp) => self.consume_block_slot(bp.jitter),
                None => self.gaussian_stripe(),
            }
            // (2) Waveform evaluation + deterministic tracking, adjacent
            // across lanes so independent `sample_at` chains overlap.
            #[allow(clippy::needless_range_loop)] // l indexes five parallel stripes
            for l in 0..n {
                let lane = &mut self.lanes[l];
                let period = self.periods[l];
                let (v, dvdt) = match grid[l] {
                    Some(row) => (self.values[row * total + k], self.slopes[row * total + k]),
                    None => waveforms[l].sample_at(k as f64 * period + self.noise_v[l]),
                };
                self.x[l] = lane.front_end.track(v, dvdt, period);
                self.adsc_err[l] = lane.adsc_skew_s * dvdt;
            }
            // (3) Front-noise stripe.
            for l in 0..n {
                self.sigma[l] = self.lanes[l].front_noise_rms_v;
            }
            match &block_plan {
                Some(bp) => self.consume_block_slot(bp.front),
                None => self.gaussian_stripe(),
            }
            // (4) Commit the held value; ripple phase; sample counter.
            for l in 0..n {
                let lane = &mut self.lanes[l];
                let mut xv = self.x[l] + self.noise_v[l];
                lane.front_end.commit_held_v(xv);
                // adc-lint: allow(float-eq) reason="feature gate: ripple injection is configured exactly 0.0 when disabled"
                if lane.ripple_referred_v != 0.0 {
                    let t = lane.sample_count as f64 * self.periods[l];
                    xv += lane.ripple_referred_v
                        * (2.0 * std::f64::consts::PI * lane.config.supply_ripple_hz * t).sin();
                }
                lane.sample_count += 1;
                self.x[l] = xv;
            }

            // Stages in lock-step: three lane loops per stage.
            for s in 0..self.stage_count {
                let plans = &self.plan_soa[s * n..(s + 1) * n];
                // Droop + ADSC decision + DSB reference/sigma select.
                // Comparator draws consume each lane's own stream only
                // for marginal decisions, exactly as in the scalar path.
                #[allow(clippy::needless_range_loop)] // l indexes seven parallel stripes
                for l in 0..n {
                    let lane = &mut self.lanes[l];
                    let plan = &plans[l];
                    let mut xv = self.x[l];
                    xv -= plan.droop_k * xv * xv * xv;
                    let adsc_error = if s == 0 { self.adsc_err[l] } else { 0.0 };
                    let decision = lane.stages[s].adsc.decide(xv + adsc_error, &mut lane.noise);
                    self.x[l] = xv;
                    self.dac[l] = f64::from(decision.dac_level);
                    self.decisions[l * self.stage_count + s] = decision;
                    let (v_ref_eff, sigma) = if decision.dac_level == 0 {
                        (plan.vref_d0, plan.sigma_d0)
                    } else {
                        (plan.vref_d1, plan.sigma_d1)
                    };
                    self.vref[l] = v_ref_eff;
                    self.sigma[l] = sigma;
                }
                // The draw stripe: one merged Gaussian per lane from that
                // lane's own stream, staged so the transcendental chains
                // of all pair-drawing lanes overlap (block-eligible
                // batches already drew it at the top of the sample).
                match &block_plan {
                    Some(bp) => self.consume_block_slot(bp.stage[s]),
                    None => self.gaussian_stripe(),
                }
                // Pure-FP amplify over the gathered field-major
                // constants: no stream access, no pointer chasing, no
                // per-lane branches — the packed loop the lane
                // restructuring exists for (see [`AmpConstants`]).
                self.amp.amplify_lanes(
                    s * n,
                    &mut self.x,
                    &self.dac,
                    &self.vref,
                    &self.noise_v,
                    &mut self.prev_soa[s * n..(s + 1) * n],
                );
            }

            // Flash + digital correction, lane by lane.
            #[allow(clippy::needless_range_loop)] // l indexes lanes, decisions, and out
            for l in 0..n {
                let lane = &mut self.lanes[l];
                let flash_code = lane.flash.decide(self.x[l], &mut lane.noise);
                lane.last_flash_code = flash_code;
                if k >= WARMUP_SAMPLES {
                    let dec = &self.decisions[l * self.stage_count..(l + 1) * self.stage_count];
                    out[l].push(correction::assemble_code(dec, flash_code) as u16);
                }
            }
        }

        // Scatter the settling memories and sample-noise streams back so
        // the lanes remain valid scalar converters mid-stream.
        for s in 0..self.stage_count {
            for (l, lane) in self.lanes.iter_mut().enumerate() {
                lane.stages[s]
                    .mdac
                    .set_prev_output_v(self.prev_soa[s * n + l]);
            }
        }
        for (l, lane) in self.lanes.iter_mut().enumerate() {
            lane.sample_noise.set_state(self.states[l]);
        }
    }

    /// Classifies the batch for whole-sample block draws: `Some` with a
    /// slot schedule when every draw site consumes lane-uniformly and
    /// data-independently, `None` (stripe fallback) otherwise. Must run
    /// after the plans are gathered — the stage sigma candidates live
    /// in [`StagePlan`].
    fn plan_block(&self) -> Option<BlockPlan> {
        let n = self.lanes.len();
        let mut draws = 0usize;
        // A slot is schedulable when its sigma is positive on all lanes
        // (always consumes) or non-positive on all lanes (never does —
        // the zero-sigma gate matches `SampleNoise::gaussian`).
        let mut slot_for = |on: usize, off: usize| -> Option<Option<usize>> {
            if on == n {
                draws += 1;
                Some(Some(draws - 1))
            } else if off == n {
                Some(None)
            } else {
                None
            }
        };
        let on = |p: bool| usize::from(p);
        let (mut j_on, mut j_off, mut f_on, mut f_off) = (0, 0, 0, 0);
        for lane in &self.lanes {
            j_on += on(lane.config.jitter.sigma_s > 0.0);
            j_off += on(lane.config.jitter.sigma_s <= 0.0);
            f_on += on(lane.front_noise_rms_v > 0.0);
            f_off += on(lane.front_noise_rms_v <= 0.0);
        }
        let jitter = slot_for(j_on, j_off)?;
        let front = slot_for(f_on, f_off)?;
        let mut stage = Vec::with_capacity(self.stage_count);
        for s in 0..self.stage_count {
            let (mut s_on, mut s_off) = (0, 0);
            for plan in &self.plan_soa[s * n..(s + 1) * n] {
                // Both DSB candidates must agree on consumption, or the
                // per-sample decision would gate the draw.
                s_on += on(plan.sigma_d0 > 0.0 && plan.sigma_d1 > 0.0);
                s_off += on(plan.sigma_d0 <= 0.0 && plan.sigma_d1 <= 0.0);
            }
            stage.push(slot_for(s_on, s_off)?);
        }
        Some(BlockPlan {
            jitter,
            front,
            stage,
            draws,
        })
    }

    /// Consumes one pre-drawn block slot into `noise_v`, exactly as
    /// `gaussian(0.0, self.sigma[l])` would: scale lane `l`'s deviate
    /// by its sigma, or zero the whole stripe for a no-draw slot. The
    /// draw-major block makes a slot one contiguous lane stripe.
    fn consume_block_slot(&mut self, slot: Option<usize>) {
        let n = self.lanes.len();
        match slot {
            Some(d) => {
                let z = &self.block.z()[d * n..][..n];
                for ((nv, &sigma), &zd) in self.noise_v.iter_mut().zip(&self.sigma).zip(z) {
                    *nv = 0.0 + sigma * zd;
                }
            }
            None => self.noise_v.fill(0.0),
        }
    }

    /// One `gaussian(0.0, self.sigma[l])` per lane, in lane order, into
    /// `self.noise_v` — bit-identical per lane to the scalar path's
    /// serial [`adc_analog::stripe::SampleNoise::gaussian`] calls, by
    /// construction: both sides delegate to
    /// [`standard_normal_step`] on the same per-lane state sequence.
    /// The stripe advances the *gathered* state array, so the whole
    /// loop — SplitMix64 mixes, polynomial `ln`/`cos`, scale — is
    /// straight-line FP/integer code over flat slices that the
    /// autovectorizer can chew; this is where the nominal-config lane
    /// speedup comes from, because the ~12 merged draws per sample were
    /// a third of scalar conversion time and overlapped not at all.
    fn gaussian_stripe(&mut self) {
        // Hot case: every lane's sigma is positive (any noise-on
        // config), so the whole batch draws through the packed stripe
        // kernel and then scales per lane.
        if self.sigma.iter().all(|&s| s > 0.0) {
            standard_normal_stripe(&mut self.states, &mut self.noise_v);
            for (nv, &sigma) in self.noise_v.iter_mut().zip(&self.sigma) {
                *nv = 0.0 + sigma * *nv;
            }
        } else {
            // Mixed/off sigmas: the zero-sigma gate returns the mean
            // without consuming the stream, exactly as `gaussian` does.
            for ((nv, &sigma), st) in self
                .noise_v
                .iter_mut()
                .zip(&self.sigma)
                .zip(&mut self.states)
            {
                *nv = if sigma <= 0.0 {
                    0.0
                } else {
                    0.0 + sigma * standard_normal_step(st)
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AdcConfig;

    fn tone(t: f64) -> f64 {
        0.9 * (2.0 * std::f64::consts::PI * 10.3e6 * t).sin()
    }

    fn scalar_record(config: &AdcConfig, seed: u64, wave: &dyn Waveform, n: usize) -> Vec<u16> {
        let mut adc = PipelineAdc::build(config.clone(), seed).expect("config builds");
        let mut out = Vec::new();
        adc.convert_waveform_into(wave, n, &mut out);
        out
    }

    #[test]
    fn lanes_match_scalar_with_jitter_enabled() {
        let config = AdcConfig::nominal_110ms();
        let seeds = [1u64, 2, 3, 4, 5, 6, 7, 8];
        let mut batch = LaneBatch::build(&config, &seeds).unwrap();
        let records = batch.convert_waveform(&tone, 512);
        for (l, &seed) in seeds.iter().enumerate() {
            assert_eq!(
                records[l],
                scalar_record(&config, seed, &tone, 512),
                "lane {l} (seed {seed}) diverged from the scalar path"
            );
        }
    }

    #[test]
    fn lanes_match_scalar_on_the_exact_grid_path() {
        let mut config = AdcConfig::nominal_110ms();
        config.jitter.sigma_s = 0.0;
        let seeds = [11u64, 12, 13, 14];
        let mut batch = LaneBatch::build(&config, &seeds).unwrap();
        let records = batch.convert_waveform(&tone, 256);
        for (l, &seed) in seeds.iter().enumerate() {
            assert_eq!(
                records[l],
                scalar_record(&config, seed, &tone, 256),
                "grid lane {l} diverged"
            );
        }
    }

    #[test]
    fn lanes_match_scalar_with_ripple_and_per_lane_waveforms() {
        let config = AdcConfig {
            supply_ripple_v: 50e-3,
            supply_ripple_hz: 5.02e6,
            psrr_db: 40.0,
            ..AdcConfig::nominal_110ms()
        };
        let seeds = [3u64, 9];
        let tone2 = |t: f64| 0.7 * (2.0 * std::f64::consts::PI * 31.7e6 * t).sin();
        let mut batch = LaneBatch::build(&config, &seeds).unwrap();
        let waves: [&dyn Waveform; 2] = [&tone, &tone2];
        let records = batch.convert_waveforms(&waves, 200);
        assert_eq!(records[0], scalar_record(&config, 3, &tone, 200));
        assert_eq!(records[1], scalar_record(&config, 9, &tone2, 200));
    }

    #[test]
    fn mixed_jitter_lanes_match_scalar_with_per_lane_waveforms() {
        // Jittered and exact-grid dies alternate, so from lane 1 on a
        // lane's index and its exact-grid buffer row disagree.
        let jittered = AdcConfig::nominal_110ms();
        let mut exact = AdcConfig::nominal_110ms();
        exact.jitter.sigma_s = 0.0;
        let configs: Vec<AdcConfig> = (0..6)
            .map(|l| if l % 2 == 0 { &jittered } else { &exact }.clone())
            .collect();
        let seeds: Vec<u64> = (21..27).collect();
        let tones: Vec<Box<dyn Fn(f64) -> f64>> = (0..6)
            .map(|l| {
                let f = 7.3e6 + 4.1e6 * f64::from(l);
                Box::new(move |t: f64| 0.9 * (2.0 * std::f64::consts::PI * f * t).sin())
                    as Box<dyn Fn(f64) -> f64>
            })
            .collect();
        let dies = configs
            .iter()
            .zip(&seeds)
            .map(|(config, &seed)| PipelineAdc::build(config.clone(), seed).unwrap())
            .collect();
        let mut batch = LaneBatch::from_adcs(dies).unwrap();
        let waves: Vec<&dyn Waveform> = tones.iter().map(|w| w as &dyn Waveform).collect();
        let records = batch.convert_waveforms(&waves, 300);
        for l in 0..6 {
            assert_eq!(
                records[l],
                scalar_record(&configs[l], seeds[l], waves[l], 300),
                "lane {l} (jitter {}) diverged from the scalar path",
                configs[l].jitter.sigma_s
            );
        }
    }

    #[test]
    fn a_single_lane_batch_is_the_scalar_path() {
        let config = AdcConfig::nominal_110ms();
        let mut batch = LaneBatch::build(&config, &[42]).unwrap();
        let records = batch.convert_waveform(&tone, 128);
        assert_eq!(records[0], scalar_record(&config, 42, &tone, 128));
    }

    #[test]
    fn lanes_stay_valid_scalar_converters_after_a_batch() {
        // Settling memory, noise-stream position, and sample counters
        // must scatter back exactly: a die pulled out of a batch
        // continues bit-identically to one that converted scalar-ly all
        // along.
        let config = AdcConfig::nominal_110ms();
        let mut batch = LaneBatch::build(&config, &[5, 6]).unwrap();
        let first = batch.convert_waveform(&tone, 96);
        let mut lanes = batch.into_lanes();
        let continued = lanes[0].convert_waveform(&tone, 64);

        let mut scalar = PipelineAdc::build(config.clone(), 5).unwrap();
        let mut out = Vec::new();
        scalar.convert_waveform_into(&tone, 96, &mut out);
        assert_eq!(first[0], out);
        assert_eq!(
            continued,
            scalar.convert_waveform(&tone, 64),
            "post-batch scalar continuation diverged"
        );
    }

    #[test]
    fn from_adcs_rejects_empty_and_mismatched_depths() {
        assert_eq!(
            LaneBatch::from_adcs(Vec::new()).unwrap_err(),
            LaneError::Empty
        );
        let a = PipelineAdc::build(AdcConfig::nominal_110ms(), 1).unwrap();
        let mut short = AdcConfig::nominal_110ms();
        short.stage_count = 8;
        let b = PipelineAdc::build(short, 2).unwrap();
        let err = LaneBatch::from_adcs(vec![a, b]).unwrap_err();
        assert_eq!(
            err,
            LaneError::MismatchedStageCount {
                lane: 1,
                expected: 10,
                got: 8
            }
        );
        assert!(err.to_string().contains("lock-step"));
    }

    #[test]
    fn reset_restores_statistical_independence_like_scalar_reset() {
        let config = AdcConfig::nominal_110ms();
        let mut batch = LaneBatch::build(&config, &[7]).unwrap();
        let first = batch.convert_waveform(&tone, 64);
        batch.reset();
        let second = batch.convert_waveform(&tone, 64);

        let mut scalar = PipelineAdc::build(config, 7).unwrap();
        let s_first = scalar.convert_waveform(&tone, 64);
        scalar.reset();
        let s_second = scalar.convert_waveform(&tone, 64);
        assert_eq!(first[0], s_first);
        assert_eq!(second[0], s_second);
    }
}

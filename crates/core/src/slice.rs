//! Bit-sliced lane-parallel generation: up to 64 independent DH-TRNG
//! instances advanced together through one SIMD-friendly kernel.
//!
//! The paper's deployment story is *many identical hybrid units in
//! parallel*; the scalar [`BlockKernel`](crate::batch::BlockKernel)
//! leaves that parallelism on the table by evaluating one instance per
//! call. [`SlicedKernel`] packs N ≤ 64 independently-seeded instances
//! into structure-of-arrays state — beat phases as contiguous `f64`
//! rows, Bernoulli decisions as lane-parallel `u64` masks, one
//! xoshiro256++ noise state per lane advanced with blend-masked
//! updates — so one pass over the arrays advances every instance by one
//! cycle. Every per-cycle operation is branch-free across lanes:
//!
//! * **beat advance** is `phase += increment` with a compare-subtract
//!   wrap and a `phase < duty` compare, both of which vectorise
//!   directly (the same exact-arithmetic argument as the scalar
//!   kernel's: operands stay in `[0, 2)`, so compare-subtract equals
//!   `rem_euclid(1.0)` bit-for-bit);
//! * **Bernoulli threshold tests** are integer compares against
//!   precomputed [`NoiseRng::bernoulli_threshold`] values;
//! * **data-dependent draws** (the half/bias/feedback draws a scalar
//!   instance performs conditionally) are replicated with *masked* RNG
//!   steps: every lane computes the candidate next state, and a
//!   per-lane blend keeps or discards it — so each lane consumes
//!   exactly the draws its scalar twin would, in the same order;
//! * **feedback kicks** use the identity `phase + 0.0 == phase` (exact
//!   for the non-negative phases and multipliers the model produces) to
//!   apply a zero kick to non-kicking lanes instead of branching.
//!
//! # Lane-for-lane equivalence
//!
//! Lane `l` of a [`SlicedKernel`] built from N [`Lane`] snapshots
//! produces **bit-identical** output to a scalar generator continuing
//! from snapshot `l`: same `f64` operations on the same operands, same
//! integer threshold tests, same per-lane draw schedule. The
//! workspace-level `tests/slicing.rs` proptest pins this against
//! [`DhTrng`] and against randomly-configured synthetic lanes; the
//! streaming engine relies on it to make its sliced mode
//! stream-identical to its scalar mode.
//!
//! # Runtime dispatch
//!
//! The per-cycle sweep has two compilations: a portable safe-Rust body
//! (every target), and the same body compiled with
//! `#[target_feature(enable = "avx2")]` on x86-64, selected by the
//! process-wide detection the scalar kernel shares. The bodies are the same
//! source — the AVX2 copy just licenses the autovectoriser to use
//! 256-bit lanes — so the two paths cannot diverge. Set `DHTRNG_SIMD=
//! portable` to pin the portable body (e.g. to cross-check the
//! dispatch); the output is identical either way, only the speed
//! changes.
//!
//! # Example
//!
//! ```
//! use dhtrng_core::{DhTrng, SlicedDhTrng, Trng};
//!
//! // Eight independent instances, generated lane-parallel.
//! let instances: Vec<DhTrng> = (0..8)
//!     .map(|i| DhTrng::builder().seed(1000 + i).build())
//!     .collect();
//! let mut sliced = SlicedDhTrng::new(instances).expect("8 <= 64 lanes");
//! let mut buf = [0u8; 512];
//! sliced.fill_bytes(&mut buf); // lane-interleaved stream, 8 bytes per lane per round
//! assert_eq!(sliced.lanes(), 8);
//! ```

use dhtrng_noise::NoiseRng;

use crate::batch::MAX_BEATS;
use crate::model::BeatOscillator;
use crate::simd::Backend;
use crate::trng::{DhTrng, Trng};

/// Maximum number of lanes a [`SlicedKernel`] carries — one per bit of
/// the `u64` decision masks.
pub const MAX_LANES: usize = 64;

/// Lane-count granularity of the state arrays: active lanes are padded
/// up to a multiple of this with inert lanes so every sweep runs over
/// whole SIMD vectors (4 × `f64` / `u64` = one 256-bit register).
const LANE_STRIDE: usize = 4;

/// Inert padding values for unused beat rows and padding lanes: a beat
/// that never contributes (`0.5 < 0.25` is false forever) and never
/// moves (`increment`, kick multiplier both zero keep the phase at
/// exactly `0.5` under the kernel's `x + 0.0 == x` identity).
const PAD_PHASE: f64 = 0.5;
const PAD_DUTY: f64 = 0.25;

/// Why a [`SlicedKernel`] / [`SlicedDhTrng`] could not be built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SliceError {
    /// Lane count outside `1..=`[`MAX_LANES`].
    LaneCount {
        /// Lanes offered.
        got: usize,
    },
    /// A lane's beat bank exceeds [`MAX_BEATS`] (same capacity as the
    /// scalar kernel, so every sliceable lane is also
    /// scalar-kernelable).
    TooManyBeats {
        /// Offending lane index.
        lane: usize,
        /// Oscillators in that lane's bank.
        got: usize,
    },
    /// A lane's feedback multiplier list does not match its beat count.
    MultiplierCount {
        /// Offending lane index.
        lane: usize,
        /// Beats in the lane.
        expected: usize,
        /// Multipliers supplied.
        got: usize,
    },
    /// A lane's feedback scale or multiplier is negative or non-finite,
    /// which would break the exact zero-kick identity the branch-free
    /// feedback sweep relies on.
    InvalidFeedback {
        /// Offending lane index.
        lane: usize,
    },
}

impl std::fmt::Display for SliceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::LaneCount { got } => {
                write!(f, "sliced kernel takes 1..={MAX_LANES} lanes, got {got}")
            }
            Self::TooManyBeats { lane, got } => write!(
                f,
                "lane {lane}: beat bank of {got} exceeds the kernel capacity of {MAX_BEATS}"
            ),
            Self::MultiplierCount {
                lane,
                expected,
                got,
            } => write!(
                f,
                "lane {lane}: {got} feedback multipliers for {expected} beats"
            ),
            Self::InvalidFeedback { lane } => write!(
                f,
                "lane {lane}: feedback scale and multipliers must be finite and non-negative"
            ),
        }
    }
}

impl std::error::Error for SliceError {}

/// A suspended scalar generator, ready to be loaded into one lane of a
/// [`SlicedKernel`]: the beat bank, the calibrated probabilities, the
/// feedback strategy, and the exact noise-stream position.
///
/// Obtained from a live generator via [`DhTrng::slice_lane`], or built
/// directly for synthetic configurations (tests sweep random banks
/// through [`Lane::new`]).
#[derive(Debug, Clone)]
pub struct Lane {
    beats: Vec<BeatOscillator>,
    p_rand: f64,
    bias: f64,
    feedback: Option<(f64, Vec<f64>)>,
    rng_state: [u64; 4],
}

impl Lane {
    /// Assembles a lane snapshot.
    ///
    /// `feedback` carries the kick scale and one multiplier per beat
    /// (`None` for generators without a feedback line); `rng_state` is
    /// a [`NoiseRng::state`] snapshot positioning the lane's noise
    /// stream. Validation happens at [`SlicedKernel::new`], which knows
    /// the lane's index.
    pub fn new(
        beats: Vec<BeatOscillator>,
        p_rand: f64,
        bias: f64,
        feedback: Option<(f64, Vec<f64>)>,
        rng_state: [u64; 4],
    ) -> Self {
        Self {
            beats,
            p_rand,
            bias,
            feedback,
            rng_state,
        }
    }

    /// The lane's beat bank.
    pub fn beats(&self) -> &[BeatOscillator] {
        &self.beats
    }

    /// Checks the invariants the kernel needs from lane `index`.
    fn validate(&self, index: usize) -> Result<(), SliceError> {
        if self.beats.len() > MAX_BEATS {
            return Err(SliceError::TooManyBeats {
                lane: index,
                got: self.beats.len(),
            });
        }
        if let Some((scale, mults)) = &self.feedback {
            if mults.len() != self.beats.len() {
                return Err(SliceError::MultiplierCount {
                    lane: index,
                    expected: self.beats.len(),
                    got: mults.len(),
                });
            }
            let bad = |x: f64| !x.is_finite() || x < 0.0;
            if bad(*scale) || mults.iter().any(|&m| bad(m)) {
                return Err(SliceError::InvalidFeedback { lane: index });
            }
        }
        Ok(())
    }
}

/// The lane-parallel generation kernel (see the [module docs](self)).
///
/// All state is structure-of-arrays, padded to a `LANE_STRIDE` (= 4)
/// multiple of lanes and preallocated at construction — steady-state
/// generation performs no heap allocation (the streaming engine's
/// zero-alloc pin covers the sliced path too).
#[derive(Debug, Clone)]
pub struct SlicedKernel {
    lanes: usize,
    /// Padded lane count (array stride).
    width: usize,
    /// Padded beat-row count (max bank size across lanes).
    rows: usize,
    /// Real beat count per active lane.
    beat_counts: Vec<usize>,
    /// Row-major `[rows × width]` beat state.
    phases: Vec<f64>,
    increments: Vec<f64>,
    duties: Vec<f64>,
    kick_mults: Vec<f64>,
    /// Per-lane feedback kick scale (0.0 on lanes without feedback).
    kick_scales: Vec<f64>,
    /// Per-lane wide mask (all-ones/zero): does this lane draw a
    /// feedback uniform on bit = 1?
    fb_enabled: Vec<u64>,
    p_rand_thr: Vec<u64>,
    half_thr: Vec<u64>,
    bias_thr: Vec<u64>,
    /// Lane-parallel xoshiro256++ state.
    s0: Vec<u64>,
    s1: Vec<u64>,
    s2: Vec<u64>,
    s3: Vec<u64>,
    /// Static: any lane has feedback (skips the kick sweep entirely
    /// for feedback-free banks).
    any_feedback: bool,
    backend: Backend,
    // Preallocated per-cycle scratch (all `width` long). `kicks` also
    // carries one cycle's feedback kicks into the next cycle's fused
    // beat sweep (always flushed before `cycles_impl` returns).
    beat_xor: Vec<u64>,
    kicks: Vec<f64>,
    words: Vec<u64>,
}

impl SlicedKernel {
    /// Builds a kernel over `lanes` suspended generators.
    ///
    /// # Errors
    ///
    /// A typed [`SliceError`] when the lane count is outside
    /// `1..=`[`MAX_LANES`] or any lane violates the kernel's structural
    /// invariants (bank size, feedback shape, non-negative feedback).
    pub fn new(lanes: &[Lane]) -> Result<Self, SliceError> {
        if !(1..=MAX_LANES).contains(&lanes.len()) {
            return Err(SliceError::LaneCount { got: lanes.len() });
        }
        for (index, lane) in lanes.iter().enumerate() {
            lane.validate(index)?;
        }
        let width = lanes.len().next_multiple_of(LANE_STRIDE);
        let rows = lanes.iter().map(|l| l.beats.len()).max().unwrap_or(0);
        let mut kernel = Self {
            lanes: lanes.len(),
            width,
            rows,
            beat_counts: vec![0; lanes.len()],
            phases: vec![PAD_PHASE; rows * width],
            increments: vec![0.0; rows * width],
            duties: vec![PAD_DUTY; rows * width],
            kick_mults: vec![0.0; rows * width],
            kick_scales: vec![0.0; width],
            fb_enabled: vec![0; width],
            p_rand_thr: vec![0; width],
            half_thr: vec![0; width],
            bias_thr: vec![0; width],
            s0: vec![0; width],
            s1: vec![0; width],
            s2: vec![0; width],
            s3: vec![0; width],
            any_feedback: false,
            backend: Backend::detected(),
            beat_xor: vec![0; width],
            kicks: vec![0.0; width],
            words: vec![0; width],
        };
        for (index, lane) in lanes.iter().enumerate() {
            kernel.load_lane(index, lane);
        }
        // Padding lanes still advance a (never observed) noise state on
        // the unconditional draw; give them distinct non-zero states.
        for pad in lanes.len()..width {
            let state = NoiseRng::seed_from_u64(0xD1CE_0000 + pad as u64).state();
            kernel.s0[pad] = state[0];
            kernel.s1[pad] = state[1];
            kernel.s2[pad] = state[2];
            kernel.s3[pad] = state[3];
        }
        Ok(kernel)
    }

    /// Number of active lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Name of the dispatched sweep compilation (`"avx2"` or
    /// `"portable"`), for diagnostics and bench reports.
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    /// (Re)loads lane `lane`'s full hot state from a snapshot: beat
    /// bank, probabilities, feedback strategy, noise-stream position.
    /// The streaming engine uses this after a health-triggered restart
    /// re-derives the lane's power-up state scalar-side.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range or the snapshot's bank exceeds
    /// the row capacity this kernel was built with.
    pub fn load_lane(&mut self, lane: usize, state: &Lane) {
        assert!(lane < self.lanes, "lane {lane} out of {}", self.lanes);
        assert!(
            state.beats.len() <= self.rows,
            "snapshot bank of {} exceeds the kernel's {} rows",
            state.beats.len(),
            self.rows
        );
        state
            .validate(lane)
            .expect("snapshot passes lane invariants");
        self.beat_counts[lane] = state.beats.len();
        let (scale, mults): (f64, &[f64]) = match &state.feedback {
            Some((scale, mults)) => (*scale, mults),
            None => (0.0, &[]),
        };
        for row in 0..self.rows {
            let at = row * self.width + lane;
            if let Some(beat) = state.beats.get(row) {
                self.phases[at] = beat.phase();
                self.increments[at] = beat.increment();
                self.duties[at] = beat.duty();
                self.kick_mults[at] = mults.get(row).copied().unwrap_or(0.0);
            } else {
                self.phases[at] = PAD_PHASE;
                self.increments[at] = 0.0;
                self.duties[at] = PAD_DUTY;
                self.kick_mults[at] = 0.0;
            }
        }
        // A feedback line with scale 0.0 is the scalar kernel's
        // "disabled" encoding: such a lane draws no feedback uniform.
        let enabled = state.feedback.is_some() && scale != 0.0;
        self.kick_scales[lane] = if enabled { scale } else { 0.0 };
        self.fb_enabled[lane] = 0u64.wrapping_sub(u64::from(enabled));
        self.p_rand_thr[lane] = NoiseRng::bernoulli_threshold(state.p_rand);
        self.half_thr[lane] = NoiseRng::bernoulli_threshold(0.5);
        // The reference path draws bernoulli(2 * bias).
        self.bias_thr[lane] = NoiseRng::bernoulli_threshold(2.0 * state.bias);
        self.s0[lane] = state.rng_state[0];
        self.s1[lane] = state.rng_state[1];
        self.s2[lane] = state.rng_state[2];
        self.s3[lane] = state.rng_state[3];
        self.any_feedback = self.fb_enabled.iter().any(|&e| e != 0);
    }

    /// Writes lane `lane`'s advanced beat phases back into a scalar
    /// bank (the sliced counterpart of
    /// [`BlockKernel::write_back`](crate::batch::BlockKernel::write_back)).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range or `beats` is not the size of
    /// the bank the lane was loaded from.
    pub fn store_lane(&self, lane: usize, beats: &mut [BeatOscillator]) {
        assert!(lane < self.lanes, "lane {lane} out of {}", self.lanes);
        assert_eq!(
            beats.len(),
            self.beat_counts[lane],
            "store_lane to a different bank"
        );
        for (row, beat) in beats.iter_mut().enumerate() {
            beat.set_phase(self.phases[row * self.width + lane]);
        }
    }

    /// Lane `lane`'s current noise-stream position, resumable via
    /// [`NoiseRng::from_state`].
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn lane_rng_state(&self, lane: usize) -> [u64; 4] {
        assert!(lane < self.lanes, "lane {lane} out of {}", self.lanes);
        [self.s0[lane], self.s1[lane], self.s2[lane], self.s3[lane]]
    }

    /// Advances **every** lane by `n` cycles (1..=64) and returns the
    /// per-lane output words: word `l` holds lane `l`'s `n` bits with
    /// the oldest cycle in bit `n - 1` — exactly the packing the scalar
    /// [`Trng::next_bits`] produces for each lane.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= n <= 64`.
    pub fn generate(&mut self, n: u32) -> &[u64] {
        assert!((1..=64).contains(&n), "generate takes 1..=64, got {n}");
        self.words.fill(0);
        match self.backend {
            Backend::Portable => self.cycles_portable(n),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => {
                // SAFETY: Backend::Avx2 is only ever detected after
                // `is_x86_feature_detected!("avx2")` returned true on
                // this machine, so the target-feature function's
                // contract holds.
                #[allow(unsafe_code)]
                unsafe {
                    self.cycles_avx2(n)
                }
            }
        }
        &self.words[..self.lanes]
    }

    /// Portable compilation of the sweep.
    fn cycles_portable(&mut self, n: u32) {
        self.cycles_impl(n);
    }

    /// AVX2 compilation of the *same* sweep body: `target_feature`
    /// licenses the autovectoriser to emit 256-bit operations for the
    /// inlined `cycles_impl`. Calling it is `unsafe` only because the
    /// caller must guarantee the CPU supports AVX2 (the dispatch in
    /// [`generate`](Self::generate) checks at construction).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    #[allow(unsafe_code)]
    unsafe fn cycles_avx2(&mut self, n: u32) {
        self.cycles_impl(n);
    }

    /// One shared sweep body, `inline(always)` so each dispatch wrapper
    /// compiles it under its own target features.
    ///
    /// Two fusions keep the per-cycle work down to a single pass over
    /// the beat state plus a single register-resident pass over the
    /// lane state (instead of ~ten scratch-array passes):
    ///
    /// * the previous cycle's feedback kicks are folded into the next
    ///   cycle's beat advance ([`kick_beat_row`] performs kick-wrap
    ///   then increment-wrap — the exact op sequence of the split
    ///   sweeps), with one [`kick_row`] flush after the final cycle so
    ///   the phases the rest of the API observes are always fully
    ///   advanced;
    /// * draws 1–4 (P_rand, half, bias, feedback uniform), their
    ///   threshold tests, the bit select, and the word shift all run in
    ///   one pass over the lanes ([`decision_pass`](Self::decision_pass)).
    #[inline(always)]
    fn cycles_impl(&mut self, n: u32) {
        let width = self.width;
        for cycle in 0..n {
            self.beat_xor[..width].fill(0);
            if self.any_feedback && cycle > 0 {
                for row in 0..self.rows {
                    let span = row * width..(row + 1) * width;
                    kick_beat_row(
                        &mut self.phases[span.clone()],
                        &self.kick_mults[span.clone()],
                        &self.kicks,
                        &self.increments[span.clone()],
                        &self.duties[span],
                        &mut self.beat_xor,
                    );
                }
            } else {
                for row in 0..self.rows {
                    let span = row * width..(row + 1) * width;
                    beat_row(
                        &mut self.phases[span.clone()],
                        &self.increments[span.clone()],
                        &self.duties[span],
                        &mut self.beat_xor,
                    );
                }
            }
            if self.any_feedback {
                self.decision_pass::<true>();
            } else {
                self.decision_pass::<false>();
            }
        }
        // Flush the final cycle's kicks so external state is exact.
        if self.any_feedback {
            for row in 0..self.rows {
                let span = row * width..(row + 1) * width;
                kick_row(
                    &mut self.phases[span.clone()],
                    &self.kick_mults[span],
                    &self.kicks,
                );
            }
        }
    }

    /// Draws 1–4 with their threshold tests, the per-lane bit
    /// selection, the feedback kick amounts, and the word shift — one
    /// branch-free pass over the lanes, everything per-lane held in
    /// registers. `FEEDBACK = false` (a bank with no feedback lanes)
    /// compiles the draw-4 block out entirely.
    ///
    /// Lanes advance their noise state exactly as their scalar twin
    /// would: a lane whose mask is 0 for a draw keeps its old xoshiro
    /// state ([`blend`]) and contributes a zero draw (so a masked
    /// feedback kick is exactly `+0.0`).
    #[inline(always)]
    fn decision_pass<const FEEDBACK: bool>(&mut self) {
        let n = self.width;
        let s0 = &mut self.s0[..n];
        let s1 = &mut self.s1[..n];
        let s2 = &mut self.s2[..n];
        let s3 = &mut self.s3[..n];
        let beat_xor = &self.beat_xor[..n];
        let p_rand_thr = &self.p_rand_thr[..n];
        let half_thr = &self.half_thr[..n];
        let bias_thr = &self.bias_thr[..n];
        let fb_enabled = &self.fb_enabled[..n];
        let kick_scales = &self.kick_scales[..n];
        let kicks = &mut self.kicks[..n];
        let words = &mut self.words[..n];
        // Everything below works on *wide* masks (all-ones = true,
        // zero = false) so compare results feed straight into blends
        // and draw masking with no 0/1 narrowing in the loop; the one
        // `& 1` at the word shift is the only narrowing per cycle.
        for l in 0..n {
            let (mut a, mut b, mut c, mut d) = (s0[l], s1[l], s2[l], s3[l]);
            // Draw 1: the unconditional P_rand draw.
            let (out1, a1, b1, c1, d1) = xoshiro_step(a, b, c, d);
            (a, b, c, d) = (a1, b1, c1, d1);
            let accept = 0u64.wrapping_sub(u64::from((out1 >> 11) < p_rand_thr[l]));
            // Draw 2: half-threshold on accepting lanes; the rest take
            // their beat XOR.
            let (out2, a2, b2, c2, d2) = xoshiro_step(a, b, c, d);
            (a, b, c, d) = (
                blend(a, a2, accept),
                blend(b, b2, accept),
                blend(c, c2, accept),
                blend(d, d2, accept),
            );
            let half = 0u64.wrapping_sub(u64::from((out2 >> 11) < half_thr[l]));
            let mut bit = (accept & half) | (!accept & beat_xor[l]);
            // Draw 3: bias, only on lanes whose bit is still 0.
            let need = !bit;
            let (out3, a3, b3, c3, d3) = xoshiro_step(a, b, c, d);
            (a, b, c, d) = (
                blend(a, a3, need),
                blend(b, b3, need),
                blend(c, c3, need),
                blend(d, d3, need),
            );
            let bias = 0u64.wrapping_sub(u64::from((out3 >> 11) < bias_thr[l]));
            bit |= need & bias;
            if FEEDBACK {
                // Draw 4: the feedback uniform on kicking lanes; a
                // masked lane draws 0, so its kick is exactly +0.0.
                let kick = bit & fb_enabled[l];
                let (out4, a4, b4, c4, d4) = xoshiro_step(a, b, c, d);
                (a, b, c, d) = (
                    blend(a, a4, kick),
                    blend(b, b4, kick),
                    blend(c, c4, kick),
                    blend(d, d4, kick),
                );
                kicks[l] = kick_scales[l] * mantissa_to_unit((out4 & kick) >> 11);
            }
            s0[l] = a;
            s1[l] = b;
            s2[l] = c;
            s3[l] = d;
            words[l] = (words[l] << 1) | (bit & 1);
        }
    }
}

// ---- lane-parallel sweep primitives -------------------------------------
//
// Every helper takes equal-length slices, re-slices them to one common
// length up front (so the optimiser can drop bounds checks), and runs a
// branch-free per-lane loop — the shape LLVM's loop vectoriser turns
// into full-width SIMD under whichever target features the caller was
// compiled with.

/// One beat row: wrap-advance the phase, XOR the duty compare into the
/// per-lane accumulator.
#[inline(always)]
fn beat_row(phases: &mut [f64], increments: &[f64], duties: &[f64], beat_xor: &mut [u64]) {
    let n = phases.len();
    let increments = &increments[..n];
    let duties = &duties[..n];
    let beat_xor = &mut beat_xor[..n];
    for l in 0..n {
        let mut phase = phases[l] + increments[l];
        if phase >= 1.0 {
            phase -= 1.0;
        }
        phases[l] = phase;
        // Accumulate the raw all-ones/zero compare mask; the decision
        // pass reduces it to 0/1 once per cycle instead of per row.
        beat_xor[l] ^= 0u64.wrapping_sub(u64::from(phase < duties[l]));
    }
}

/// One feedback row: wrap-advance the phase by `kick × multiplier`
/// (exactly zero on non-kicking lanes).
#[inline(always)]
fn kick_row(phases: &mut [f64], mults: &[f64], kicks: &[f64]) {
    let n = phases.len();
    let mults = &mults[..n];
    let kicks = &kicks[..n];
    for l in 0..n {
        let mut phase = phases[l] + kicks[l] * mults[l];
        if phase >= 1.0 {
            phase -= 1.0;
        }
        phases[l] = phase;
    }
}

/// A beat row with the previous cycle's deferred feedback kick fused
/// in: kick-advance (wrap), then increment-advance (wrap), then the
/// duty compare — the exact op sequence of [`kick_row`] followed by
/// [`beat_row`], in one pass over the row instead of two.
#[inline(always)]
fn kick_beat_row(
    phases: &mut [f64],
    mults: &[f64],
    kicks: &[f64],
    increments: &[f64],
    duties: &[f64],
    beat_xor: &mut [u64],
) {
    let n = phases.len();
    let mults = &mults[..n];
    let kicks = &kicks[..n];
    let increments = &increments[..n];
    let duties = &duties[..n];
    let beat_xor = &mut beat_xor[..n];
    for l in 0..n {
        let mut phase = phases[l] + kicks[l] * mults[l];
        if phase >= 1.0 {
            phase -= 1.0;
        }
        phase += increments[l];
        if phase >= 1.0 {
            phase -= 1.0;
        }
        phases[l] = phase;
        beat_xor[l] ^= 0u64.wrapping_sub(u64::from(phase < duties[l]));
    }
}

/// One xoshiro256++ (Blackman & Vigna) step — the vendored `StdRng`'s
/// `next_u64` — as a pure function: `(output, next state)`.
#[inline(always)]
fn xoshiro_step(a: u64, b: u64, c: u64, d: u64) -> (u64, u64, u64, u64, u64) {
    let out = a.wrapping_add(d).rotate_left(23).wrapping_add(a);
    let t = b << 17;
    let c2 = c ^ a;
    let d2 = d ^ b;
    let b2 = b ^ c2;
    let a2 = a ^ d2;
    (out, a2, b2, c2 ^ t, d2.rotate_left(45))
}

/// `new` where `adv` is all-ones, `old` where it is zero — the masked
/// lane advance (bit-identical to each lane's scalar generator
/// performing, or skipping, one `next_u64`).
#[inline(always)]
fn blend(old: u64, new: u64, adv: u64) -> u64 {
    (old & !adv) | (new & adv)
}

/// Exact `x as f64 * 2^-53` for `x < 2^53` — the scalar
/// [`NoiseRng::uniform`]'s mantissa scaling — built from bit-ops and
/// two exact float adds so the autovectoriser does not have to
/// scalarise a `u64 → f64` conversion. (The operand is < 2^53, so the
/// reconstruction is the exact integer value; the equivalence with
/// `as f64` is pinned by this module's tests.)
#[inline(always)]
fn mantissa_to_unit(x: u64) -> f64 {
    // lo = 2^52 + (x mod 2^32), hi = 2^84 + (x div 2^32) × 2^32; both
    // exact by construction, and (hi - (2^84 + 2^52)) + lo == x exactly
    // because every intermediate is an exactly-representable integer.
    const HI_BIAS: f64 = ((1u128 << 84) + (1u128 << 52)) as f64;
    const SCALE: f64 = 1.0 / (1u64 << 53) as f64;
    let lo = f64::from_bits(0x4330_0000_0000_0000 | (x & 0xFFFF_FFFF));
    let hi = f64::from_bits(0x4530_0000_0000_0000 | (x >> 32));
    ((hi - HI_BIAS) + lo) * SCALE
}

/// A bank of scalar [`DhTrng`] instances generated lane-parallel
/// through one [`SlicedKernel`].
///
/// Two faces:
///
/// * **per-lane** — [`fill_lane_chunks`](Self::fill_lane_chunks)
///   produces each lane's own stream into its own buffer (bit-identical
///   to the same-seeded scalar instance); the streaming engine's sliced
///   mode maps shard `i` onto lane `i` through this, which is what
///   keeps its merged stream identical to scalar mode;
/// * **single-stream** — the [`Trng`] implementation (and with it the
///   blanket [`BlockSource`](crate::kernel::BlockSource)) exposes the
///   bank as one source whose stream interleaves the lanes' 64-bit
///   words round-robin: bytes `8(rN + l) .. 8(rN + l) + 8` are lane
///   `l`'s word of round `r` (N lanes, big-endian word bytes, exactly
///   each lane's scalar byte stream de-interleaved).
///
/// The scalar instances stay owned by the bank as the **cold** side:
/// configuration, placement, restart counters. Their generator state is
/// only synchronised with the kernel at restart boundaries
/// ([`restart_lane_and_refill`](Self::restart_lane_and_refill)); in
/// between, the kernel's lane state is authoritative.
#[derive(Debug)]
pub struct SlicedDhTrng {
    instances: Vec<DhTrng>,
    kernel: SlicedKernel,
    /// One interleave round (lanes × 8 bytes) for the single-stream
    /// face.
    staged: Vec<u8>,
    /// Consumed prefix of `staged`, in bits (the single-stream cursor).
    staged_bits: usize,
}

impl SlicedDhTrng {
    /// Packs `instances` into a lane-parallel bank (lane `i` continues
    /// instance `i`'s stream exactly).
    ///
    /// # Errors
    ///
    /// [`SliceError::LaneCount`] unless `1..=`[`MAX_LANES`] instances
    /// are supplied (the 12-ring DH-TRNG bank always satisfies the
    /// per-lane invariants).
    pub fn new(instances: Vec<DhTrng>) -> Result<Self, SliceError> {
        let lanes: Vec<Lane> = instances.iter().map(DhTrng::slice_lane).collect();
        let kernel = SlicedKernel::new(&lanes)?;
        let staged = vec![0u8; instances.len() * 8];
        let staged_bits = staged.len() * 8; // empty: everything consumed
        Ok(Self {
            instances,
            kernel,
            staged,
            staged_bits,
        })
    }

    /// Number of lanes (= instances).
    pub fn lanes(&self) -> usize {
        self.instances.len()
    }

    /// The cold side of lane `lane`: configuration, modeled throughput,
    /// placement, restart count. Its *generator* state is only current
    /// at restart boundaries (the kernel is authoritative in between).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn instance(&self, lane: usize) -> &DhTrng {
        &self.instances[lane]
    }

    /// Restarts performed by lane `lane` (see [`DhTrng::restarts`]).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn lane_restarts(&self, lane: usize) -> u64 {
        self.instances[lane].restarts()
    }

    /// Name of the kernel's dispatched sweep (`"avx2"` / `"portable"`).
    pub fn backend_name(&self) -> &'static str {
        self.kernel.backend_name()
    }

    /// Advances every lane by one chunk, writing lane `i`'s next bytes
    /// into `chunks[i]` where present. Lanes with `None` advance
    /// identically but discard their output (the engine passes `None`
    /// for retired shards); because lanes are independent, a lane's
    /// stream never depends on which other chunks were materialised.
    ///
    /// # Panics
    ///
    /// Panics unless `chunks.len()` equals the lane count and every
    /// present chunk has the same length.
    pub fn fill_lane_chunks(&mut self, chunks: &mut [Option<Vec<u8>>]) {
        assert_eq!(chunks.len(), self.lanes(), "one chunk slot per lane");
        let Some(len) = chunks.iter().flatten().map(Vec::len).next() else {
            return; // nothing to materialise, nothing observable to advance
        };
        assert!(
            chunks.iter().flatten().all(|c| c.len() == len),
            "present chunks must share one length"
        );
        for word in 0..len / 8 {
            let words = self.kernel.generate(64);
            for (lane, chunk) in chunks.iter_mut().enumerate() {
                if let Some(chunk) = chunk {
                    chunk[word * 8..word * 8 + 8].copy_from_slice(&words[lane].to_be_bytes());
                }
            }
        }
        // Tail bytes: an 8-cycle chunk per byte, as the scalar
        // `BlockKernel::fill_bytes` produces them.
        for tail in len - len % 8..len {
            let words = self.kernel.generate(8);
            for (lane, chunk) in chunks.iter_mut().enumerate() {
                if let Some(chunk) = chunk {
                    chunk[tail] = words[lane] as u8;
                }
            }
        }
    }

    /// Power-cycles lane `lane` (the paper's §4.2 restart, exactly
    /// [`DhTrng::restart`]), regenerates its next chunk through the
    /// scalar batched path, and reloads the lane's kernel state from
    /// the advanced instance — so the lane continues bit-identical to a
    /// scalar shard that restarted at the same point.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn restart_lane_and_refill(&mut self, lane: usize, buf: &mut [u8]) {
        let instance = &mut self.instances[lane];
        instance.restart();
        instance.fill_bytes(buf);
        self.kernel.load_lane(lane, &instance.slice_lane());
    }

    /// Refills the interleave staging round for the single-stream face.
    fn restage(&mut self) {
        let words = self.kernel.generate(64);
        for (lane, word) in words.iter().enumerate() {
            self.staged[lane * 8..lane * 8 + 8].copy_from_slice(&word.to_be_bytes());
        }
        self.staged_bits = 0;
    }
}

/// The single-stream face: the lane-interleaved word stream described
/// on [`SlicedDhTrng`]. `next_bit` walks it bit-by-bit; `fill_bytes`
/// copies staged rounds wholesale when the cursor is byte-aligned (and
/// falls back to bit-stepping when it is not), so every packing walks
/// the identical stream.
impl Trng for SlicedDhTrng {
    fn next_bit(&mut self) -> bool {
        if self.staged_bits == self.staged.len() * 8 {
            self.restage();
        }
        let bit = (self.staged[self.staged_bits / 8] >> (7 - self.staged_bits % 8)) & 1 == 1;
        self.staged_bits += 1;
        bit
    }

    fn fill_bytes(&mut self, buf: &mut [u8]) {
        let mut out = 0;
        // Unaligned cursor: step bits until a byte boundary (the stream
        // is the contract; speed only matters on the aligned path).
        while self.staged_bits % 8 != 0 && out < buf.len() {
            buf[out] = crate::batch::pack_bits(8, || self.next_bit()) as u8;
            out += 1;
        }
        while out < buf.len() {
            if self.staged_bits == self.staged.len() * 8 {
                self.restage();
            }
            let from = self.staged_bits / 8;
            let take = (self.staged.len() - from).min(buf.len() - out);
            buf[out..out + take].copy_from_slice(&self.staged[from..from + take]);
            self.staged_bits += take * 8;
            out += take;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BlockKernel;

    fn bank(seed: u64, n: usize) -> Vec<BeatOscillator> {
        let mut rng = NoiseRng::seed_from_u64(seed);
        (0..n)
            .map(|_| BeatOscillator::new(rng.uniform(), rng.uniform(), 0.5))
            .collect()
    }

    fn synthetic_lane(seed: u64, beats: usize, feedback: bool) -> Lane {
        let mut rng = NoiseRng::seed_from_u64(seed ^ 0xABCD);
        let mults: Vec<f64> = (0..beats).map(|_| rng.uniform()).collect();
        Lane::new(
            bank(seed, beats),
            0.6 + 0.2 * rng.uniform(),
            1e-4 * rng.uniform(),
            feedback.then_some((0.3, mults)),
            NoiseRng::seed_from_u64(seed).state(),
        )
    }

    /// Scalar reference for one lane: the `BlockKernel` (itself pinned
    /// against the per-bit path) continuing from the same snapshot.
    fn scalar_words(lane: &Lane, words: usize, n: u32) -> Vec<u64> {
        let feedback = lane
            .feedback
            .as_ref()
            .map(|(scale, mults)| (*scale, &mults[..]));
        let mut kernel = BlockKernel::new(&lane.beats, lane.p_rand, lane.bias, feedback)
            .expect("test banks fit the kernel");
        let mut rng = NoiseRng::from_state(lane.rng_state);
        (0..words).map(|_| kernel.next_bits(&mut rng, n)).collect()
    }

    #[test]
    fn every_lane_matches_its_scalar_twin() {
        for feedback in [false, true] {
            let lanes: Vec<Lane> = (0..7)
                .map(|i| synthetic_lane(100 + i, 12, feedback))
                .collect();
            let mut sliced = SlicedKernel::new(&lanes).unwrap();
            let mut got: Vec<Vec<u64>> = vec![Vec::new(); lanes.len()];
            for _ in 0..32 {
                for (lane, word) in sliced.generate(64).iter().enumerate() {
                    got[lane].push(*word);
                }
            }
            for (lane, snapshot) in lanes.iter().enumerate() {
                assert_eq!(
                    got[lane],
                    scalar_words(snapshot, 32, 64),
                    "lane {lane}, feedback {feedback}"
                );
            }
        }
    }

    #[test]
    fn heterogeneous_beat_counts_stay_independent() {
        // Lanes with different bank sizes share one kernel; the padded
        // rows must not perturb any lane.
        let lanes: Vec<Lane> = [1usize, 12, 3, 32, 7]
            .iter()
            .enumerate()
            .map(|(i, &beats)| synthetic_lane(500 + i as u64, beats, i % 2 == 0))
            .collect();
        let mut sliced = SlicedKernel::new(&lanes).unwrap();
        let words: Vec<u64> = sliced.generate(64).to_vec();
        for (lane, snapshot) in lanes.iter().enumerate() {
            assert_eq!(words[lane], scalar_words(snapshot, 1, 64)[0], "lane {lane}");
        }
    }

    #[test]
    fn partial_word_generation_packs_oldest_first() {
        let lanes = vec![synthetic_lane(9, 5, true)];
        let mut sliced = SlicedKernel::new(&lanes).unwrap();
        let mut stream = Vec::new();
        for n in [1u32, 7, 8, 13, 64] {
            let word = sliced.generate(n)[0];
            stream.extend((0..n).rev().map(|i| (word >> i) & 1));
        }
        let reference = scalar_words(&lanes[0], 1, 64)[0]
            .to_be_bytes()
            .iter()
            .flat_map(|byte| (0..8).rev().map(move |i| u64::from((byte >> i) & 1)))
            .take(stream.len())
            .collect::<Vec<u64>>();
        // 1 + 7 + 8 + 13 + 64 = 93 cycles; compare the first 64.
        assert_eq!(stream[..64], reference[..64]);
    }

    #[test]
    fn store_lane_round_trips_through_scalar_state() {
        let lanes: Vec<Lane> = (0..3).map(|i| synthetic_lane(40 + i, 12, true)).collect();
        let mut sliced = SlicedKernel::new(&lanes).unwrap();
        for _ in 0..5 {
            sliced.generate(64);
        }
        // Extract lane 1 back to scalar and continue there; the scalar
        // continuation must match the kernel's continuation.
        let mut beats = lanes[1].beats.clone();
        sliced.store_lane(1, &mut beats);
        let resumed = Lane::new(
            beats,
            lanes[1].p_rand,
            lanes[1].bias,
            lanes[1].feedback.clone(),
            sliced.lane_rng_state(1),
        );
        let scalar_next = scalar_words(&resumed, 4, 64);
        let mut sliced_next = Vec::new();
        for _ in 0..4 {
            sliced_next.push(sliced.generate(64)[1]);
        }
        assert_eq!(sliced_next, scalar_next);
    }

    #[test]
    fn load_lane_resynchronises_one_lane_only() {
        let lanes: Vec<Lane> = (0..4).map(|i| synthetic_lane(70 + i, 12, true)).collect();
        let mut sliced = SlicedKernel::new(&lanes).unwrap();
        for _ in 0..3 {
            sliced.generate(64);
        }
        // Rewind lane 2 to its original snapshot; other lanes continue.
        sliced.load_lane(2, &lanes[2]);
        let words = sliced.generate(64).to_vec();
        assert_eq!(words[2], scalar_words(&lanes[2], 1, 64)[0]);
        assert_eq!(words[0], scalar_words(&lanes[0], 4, 64)[3]);
    }

    #[test]
    fn lane_count_is_validated() {
        assert_eq!(
            SlicedKernel::new(&[]).unwrap_err(),
            SliceError::LaneCount { got: 0 }
        );
        let too_many: Vec<Lane> = (0..65).map(|i| synthetic_lane(i, 2, false)).collect();
        assert_eq!(
            SlicedKernel::new(&too_many).unwrap_err(),
            SliceError::LaneCount { got: 65 }
        );
    }

    #[test]
    fn structural_invariants_are_typed_errors() {
        let oversized = synthetic_lane(1, MAX_BEATS + 1, false);
        assert_eq!(
            SlicedKernel::new(&[oversized]).unwrap_err(),
            SliceError::TooManyBeats {
                lane: 0,
                got: MAX_BEATS + 1
            }
        );
        let mismatched = Lane::new(
            bank(2, 4),
            0.5,
            0.0,
            Some((0.3, vec![0.1; 3])),
            NoiseRng::seed_from_u64(2).state(),
        );
        assert_eq!(
            SlicedKernel::new(&[synthetic_lane(3, 2, false), mismatched]).unwrap_err(),
            SliceError::MultiplierCount {
                lane: 1,
                expected: 4,
                got: 3
            }
        );
        let negative = Lane::new(
            bank(2, 2),
            0.5,
            0.0,
            Some((0.3, vec![0.5, -0.25])),
            NoiseRng::seed_from_u64(2).state(),
        );
        assert_eq!(
            SlicedKernel::new(&[negative]).unwrap_err(),
            SliceError::InvalidFeedback { lane: 0 }
        );
    }

    #[test]
    fn mantissa_conversion_is_exact() {
        // The two-constant reconstruction must equal `as f64` on the
        // full 53-bit mantissa domain (edges and random interior).
        let edges = [
            0u64,
            1,
            (1 << 32) - 1,
            1 << 32,
            (1 << 53) - 1,
            (1 << 52) + 12345,
        ];
        for &x in &edges {
            assert_eq!(
                mantissa_to_unit(x),
                x as f64 * (1.0 / (1u64 << 53) as f64),
                "x = {x}"
            );
        }
        let mut rng = NoiseRng::seed_from_u64(8);
        for _ in 0..10_000 {
            let x = rng.state()[0] >> 11;
            rng.uniform();
            assert_eq!(
                mantissa_to_unit(x),
                x as f64 * (1.0 / (1u64 << 53) as f64),
                "x = {x}"
            );
        }
    }

    #[test]
    fn forced_portable_backend_matches_dispatch() {
        // Same lanes, both sweep compilations, identical output. (On
        // non-AVX2 hosts both kernels dispatch portable and the test
        // degenerates to determinism.)
        let lanes: Vec<Lane> = (0..5).map(|i| synthetic_lane(900 + i, 12, true)).collect();
        let mut auto = SlicedKernel::new(&lanes).unwrap();
        let mut portable = SlicedKernel::new(&lanes).unwrap();
        portable.backend = Backend::Portable;
        for round in 0..16 {
            assert_eq!(
                auto.generate(64).to_vec(),
                portable.generate(64).to_vec(),
                "round {round} ({} vs portable)",
                auto.backend_name()
            );
        }
    }

    #[test]
    fn bank_interleaved_stream_deinterleaves_to_scalar_instances() {
        let instances: Vec<DhTrng> = (0..3)
            .map(|i| DhTrng::builder().seed(60 + i).build())
            .collect();
        let mut bank = SlicedDhTrng::new(instances).unwrap();
        let mut interleaved = vec![0u8; 3 * 8 * 10];
        bank.fill_bytes(&mut interleaved);
        for lane in 0..3 {
            let mut scalar = DhTrng::builder().seed(60 + lane as u64).build();
            let mut expect = vec![0u8; 80];
            scalar.fill_bytes(&mut expect);
            let got: Vec<u8> = interleaved
                .chunks(8)
                .skip(lane)
                .step_by(3)
                .flatten()
                .copied()
                .collect();
            assert_eq!(got, expect, "lane {lane}");
        }
    }

    #[test]
    fn bank_next_bit_walks_the_same_stream_as_fill_bytes() {
        let make = || {
            SlicedDhTrng::new(vec![
                DhTrng::builder().seed(7).build(),
                DhTrng::builder().seed(8).build(),
            ])
            .unwrap()
        };
        let mut by_bytes = make();
        let mut expect = vec![0u8; 64];
        by_bytes.fill_bytes(&mut expect);
        let mut by_bits = make();
        let bits: Vec<bool> = (0..512).map(|_| by_bits.next_bit()).collect();
        let expect_bits: Vec<bool> = expect
            .iter()
            .flat_map(|byte| (0..8).rev().map(move |i| (byte >> i) & 1 == 1))
            .collect();
        assert_eq!(bits, expect_bits);
        // Unaligned handoff: 3 bits, then bytes, still the one stream.
        let mut mixed = make();
        let head: Vec<bool> = (0..3).map(|_| mixed.next_bit()).collect();
        assert_eq!(head, expect_bits[..3]);
        let mut rest = vec![0u8; 8];
        mixed.fill_bytes(&mut rest);
        let rest_bits: Vec<bool> = rest
            .iter()
            .flat_map(|byte| (0..8).rev().map(move |i| (byte >> i) & 1 == 1))
            .collect();
        assert_eq!(rest_bits, expect_bits[3..67]);
    }

    #[test]
    fn fill_lane_chunks_matches_scalar_fill_bytes() {
        let seeds = [11u64, 22, 33];
        let instances: Vec<DhTrng> = seeds
            .iter()
            .map(|&s| DhTrng::builder().seed(s).build())
            .collect();
        let mut bank = SlicedDhTrng::new(instances).unwrap();
        // 61 bytes: exercises the 8-cycle tail path too.
        let mut chunks: Vec<Option<Vec<u8>>> = (0..3).map(|_| Some(vec![0u8; 61])).collect();
        bank.fill_lane_chunks(&mut chunks);
        let mut second: Vec<Option<Vec<u8>>> = vec![Some(vec![0u8; 61]), None, Some(vec![0u8; 61])];
        bank.fill_lane_chunks(&mut second);
        for (lane, &seed) in seeds.iter().enumerate() {
            let mut scalar = DhTrng::builder().seed(seed).build();
            let mut expect = vec![0u8; 61];
            scalar.fill_bytes(&mut expect);
            assert_eq!(chunks[lane].as_deref(), Some(&expect[..]), "lane {lane}");
            scalar.fill_bytes(&mut expect);
            if let Some(chunk) = &second[lane] {
                // A lane skipped in between (None) must not disturb the
                // others: chunk 2 of each present lane is chunk 2 of
                // its scalar twin.
                assert_eq!(chunk[..], expect[..], "lane {lane}, chunk 2");
            }
        }
    }

    #[test]
    fn restart_and_refill_matches_a_restarted_scalar_instance() {
        let mut bank = SlicedDhTrng::new(vec![
            DhTrng::builder().seed(5).build(),
            DhTrng::builder().seed(6).build(),
        ])
        .unwrap();
        let mut chunks: Vec<Option<Vec<u8>>> = (0..2).map(|_| Some(vec![0u8; 64])).collect();
        bank.fill_lane_chunks(&mut chunks);
        // Power-cycle lane 0 and regenerate; lane 1 continues.
        let mut regenerated = vec![0u8; 64];
        bank.restart_lane_and_refill(0, &mut regenerated);
        assert_eq!(bank.lane_restarts(0), 1);
        bank.fill_lane_chunks(&mut chunks);

        let mut scalar0 = DhTrng::builder().seed(5).build();
        let mut expect = vec![0u8; 64];
        scalar0.fill_bytes(&mut expect);
        scalar0.restart();
        scalar0.fill_bytes(&mut expect);
        assert_eq!(regenerated, expect, "restarted chunk");
        scalar0.fill_bytes(&mut expect);
        assert_eq!(chunks[0].as_deref(), Some(&expect[..]), "post-restart");

        let mut scalar1 = DhTrng::builder().seed(6).build();
        scalar1.fill_bytes(&mut expect);
        scalar1.fill_bytes(&mut expect);
        assert_eq!(
            chunks[1].as_deref(),
            Some(&expect[..]),
            "lane 1 undisturbed by lane 0's restart"
        );
    }
}

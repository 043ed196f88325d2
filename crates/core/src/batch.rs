//! Block-generation kernel behind the batched [`Trng`](crate::Trng)
//! fast paths.
//!
//! The per-bit reference paths ([`Trng::next_bit`](crate::Trng::next_bit))
//! pay costs every cycle that are in fact invariant across a whole block:
//!
//! * `rem_euclid` (an `fmod` libcall) in every beat-oscillator step and
//!   feedback kick, although the operands always lie in `[0, 2)` where a
//!   compare-and-subtract is exact;
//! * the Bernoulli probability clamp and int→float conversion, although
//!   the acceptance thresholds are fixed at build time
//!   ([`NoiseRng::bernoulli_threshold`]);
//! * the feedback kick multipliers, recomputed from scratch per kick;
//! * the `Vec<BeatOscillator>` indirection of the beat bank.
//!
//! [`BlockKernel`] hoists all of that out of the inner loop once per
//! block, pads the beat bank to a compile-time width so the per-cycle
//! body vectorises, and generates whole buffers of 64-cycle words with
//! the bank held in registers.
//! The kernel is **bit-exact**: for the same starting state and the same
//! [`NoiseRng`], it produces exactly the stream the per-bit reference
//! produces (every arithmetic step is provably the same f64 computation;
//! the equivalence is additionally pinned by tests here, in `trng.rs`,
//! and in the workspace-level `tests/batching.rs`).

use dhtrng_noise::NoiseRng;

use crate::model::BeatOscillator;
use crate::simd::Backend;

/// Largest beat bank a [`BlockKernel`] accepts. Callers with more
/// oscillators fall back to the per-bit reference path (none of the
/// in-tree generators come close: DH-TRNG has 12 rings, the Table 2
/// groups at most 18).
pub const MAX_BEATS: usize = 32;

/// Why a [`BlockKernel`] could not be built over a beat bank.
///
/// Historically [`BlockKernel::new`] reported this as a bare `None`,
/// which every caller silently turned into the per-bit fallback path —
/// so a mis-sized bank degraded throughput ~7x without a word. The
/// typed surface ([`BlockKernel::try_new`]) names the violated limit;
/// `new` keeps the `Option` shape for the fallback-style callers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelError {
    /// The beat bank exceeds the kernel's fixed capacity
    /// ([`MAX_BEATS`]); the caller must use its per-bit path.
    TooManyBeats {
        /// Oscillators in the offered bank.
        got: usize,
        /// The kernel capacity ([`MAX_BEATS`]).
        max: usize,
    },
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::TooManyBeats { got, max } => write!(
                f,
                "beat bank of {got} oscillators exceeds the block-kernel \
                 capacity of {max}; use the per-bit path"
            ),
        }
    }
}

impl std::error::Error for KernelError {}

/// Packs `n` (1..=64) cycles of `cycle` into a word, oldest bit first —
/// the packing every `Trng::next_bits` implementation must produce.
///
/// For generators whose per-cycle body has no hoistable state (e.g. the
/// Gaussian-sampling baselines), the batched override is this loop over
/// the same `cycle` function `next_bit` calls — one definition of the
/// physics, so the two paths cannot drift apart.
///
/// # Panics
///
/// Panics unless `1 <= n <= 64`.
#[inline]
pub fn pack_bits(n: u32, mut cycle: impl FnMut() -> bool) -> u64 {
    assert!((1..=64).contains(&n), "next_bits takes 1..=64, got {n}");
    let mut word = 0u64;
    for _ in 0..n {
        word = (word << 1) | u64::from(cycle());
    }
    word
}

/// Padded bank width for banks of up to 16 beats (DH-TRNG has 12). Wider
/// banks, up to [`MAX_BEATS`], run at width [`MAX_BEATS`].
const NARROW: usize = 16;

/// A hoisted-state generator for one block of Eq. 5-shaped cycles.
///
/// Covers every generator in the workspace that follows the calibrated
/// stochastic structure — per cycle: XOR the free-running beat
/// oscillators, capture a fresh random event with probability `p_rand`,
/// apply the systematic sampler bias, and (DH-TRNG only) kick the ring
/// phases through the feedback line when the output bit is 1.
///
/// The beat bank is padded to a compile-time width — 16 for banks of up
/// to 16 beats, [`MAX_BEATS`] above that — with inert lanes (phase,
/// increment, duty and kick multiplier all 0: such a lane never wraps,
/// never counts towards the XOR and never moves). The per-cycle body
/// therefore has no runtime trip count and vectorises; see `DESIGN.md`
/// §5 for why the padding and the branch-free wrap leave every output
/// bit unchanged.
///
/// Usage: build from the generator's state, call
/// [`next_word`](Self::next_word) / [`next_bits`](Self::next_bits) /
/// [`fill_bytes`](Self::fill_bytes) as often as needed, then
/// [`write_back`](Self::write_back) the advanced phases. The `NoiseRng`
/// is borrowed per call, so its state stays in the owning generator
/// throughout.
#[derive(Debug, Clone)]
pub struct BlockKernel {
    beats: usize,
    phases: [f64; MAX_BEATS],
    increments: [f64; MAX_BEATS],
    duties: [f64; MAX_BEATS],
    /// Feedback kick multipliers; `kick_scale == 0.0` disables feedback
    /// (an enabled feedback line always has a positive scale).
    kick_mults: [f64; MAX_BEATS],
    kick_scale: f64,
    p_rand_threshold: u64,
    half_threshold: u64,
    bias_threshold: u64,
    backend: Backend,
}

/// `rem_euclid(1.0)` for a phase sum in [0, 2), branch-free: the sum of
/// two values in [0, 1) is exact to subtract 1.0 from when it reaches
/// [1, 2) (Sterbenz's lemma), and `x - 0.0 == x` for every `x`, so this
/// is bit-for-bit `if p >= 1.0 { p - 1.0 } else { p }`. Subtracting a
/// selected constant vectorises to compare, and, subtract — cheaper
/// than a blend.
#[inline(always)]
fn wrap(p: f64) -> f64 {
    p - if p >= 1.0 { 1.0 } else { 0.0 }
}

impl BlockKernel {
    /// Builds a kernel over the generator's beat bank and calibrated
    /// probabilities.
    ///
    /// `feedback` carries the kick scale and per-beat multipliers of the
    /// feedback strategy (`None` for generators without a feedback
    /// line). Returns `None` when the beat bank exceeds [`MAX_BEATS`],
    /// in which case the caller must use its per-bit path — see
    /// [`try_new`](Self::try_new) for the typed version of the same
    /// rejection.
    ///
    /// # Panics
    ///
    /// Panics if `feedback` multipliers don't match the beat count.
    pub fn new(
        beats: &[BeatOscillator],
        p_rand: f64,
        bias: f64,
        feedback: Option<(f64, &[f64])>,
    ) -> Option<Self> {
        Self::try_new(beats, p_rand, bias, feedback).ok()
    }

    /// [`new`](Self::new) with a typed rejection: callers that have no
    /// per-bit fallback (the bit-sliced kernel, configuration
    /// validators) get a [`KernelError`] naming the violated limit
    /// instead of a silent `None`.
    ///
    /// # Errors
    ///
    /// [`KernelError::TooManyBeats`] when the bank exceeds
    /// [`MAX_BEATS`].
    ///
    /// # Panics
    ///
    /// Panics if `feedback` multipliers don't match the beat count.
    pub fn try_new(
        beats: &[BeatOscillator],
        p_rand: f64,
        bias: f64,
        feedback: Option<(f64, &[f64])>,
    ) -> Result<Self, KernelError> {
        if beats.len() > MAX_BEATS {
            return Err(KernelError::TooManyBeats {
                got: beats.len(),
                max: MAX_BEATS,
            });
        }
        // Unused lanes keep these zeros: the inert padding.
        let mut kernel = Self {
            beats: beats.len(),
            phases: [0.0; MAX_BEATS],
            increments: [0.0; MAX_BEATS],
            duties: [0.0; MAX_BEATS],
            kick_mults: [0.0; MAX_BEATS],
            kick_scale: 0.0,
            p_rand_threshold: NoiseRng::bernoulli_threshold(p_rand),
            half_threshold: NoiseRng::bernoulli_threshold(0.5),
            // The reference path draws bernoulli(2 * bias).
            bias_threshold: NoiseRng::bernoulli_threshold(2.0 * bias),
            backend: Backend::detected(),
        };
        for (i, beat) in beats.iter().enumerate() {
            kernel.phases[i] = beat.phase();
            kernel.increments[i] = beat.increment();
            kernel.duties[i] = beat.duty();
        }
        if let Some((scale, mults)) = feedback {
            assert_eq!(
                mults.len(),
                beats.len(),
                "one kick multiplier per beat oscillator"
            );
            kernel.kick_mults[..mults.len()].copy_from_slice(mults);
            kernel.kick_scale = scale;
        }
        Ok(kernel)
    }

    /// Fills every word of `out` with `n` cycles (oldest bit first),
    /// through the body compiled for this bank's padded width and the
    /// process's [`Backend`].
    fn run(&mut self, rng: &mut NoiseRng, n: u32, out: &mut [u64]) {
        let narrow = self.beats <= NARROW;
        match self.backend {
            Backend::Portable if narrow => self.run_impl::<NARROW>(rng, n, out),
            Backend::Portable => self.run_impl::<MAX_BEATS>(rng, n, out),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: Backend::Avx2 is only ever detected after
            // `is_x86_feature_detected!("avx2")` returned true on this
            // machine, so the target-feature function's contract holds.
            #[allow(unsafe_code)]
            Backend::Avx2 => unsafe {
                if narrow {
                    self.run_avx2::<NARROW>(rng, n, out);
                } else {
                    self.run_avx2::<MAX_BEATS>(rng, n, out);
                }
            },
        }
    }

    /// AVX2 compilation of the *same* body: `target_feature` licenses
    /// the autovectoriser to emit 256-bit operations for the inlined
    /// `run_impl`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    #[allow(unsafe_code)]
    unsafe fn run_avx2<const W: usize>(&mut self, rng: &mut NoiseRng, n: u32, out: &mut [u64]) {
        self.run_impl::<W>(rng, n, out);
    }

    /// The one cycle body, at padded width `W`, `inline(always)` so each
    /// dispatch arm compiles it under its own target features.
    ///
    /// Per cycle — the same draws, in the same order, as the per-bit
    /// reference paths; the XOR of the beats is the parity of the count
    /// of high beats. The bank lives in locals for the whole call, so
    /// the phases stay in registers across the word loop.
    #[inline(always)]
    fn run_impl<const W: usize>(&mut self, rng: &mut NoiseRng, n: u32, out: &mut [u64]) {
        let mut phases = [0.0f64; W];
        phases.copy_from_slice(&self.phases[..W]);
        let mut increments = [0.0f64; W];
        increments.copy_from_slice(&self.increments[..W]);
        let mut duties = [0.0f64; W];
        duties.copy_from_slice(&self.duties[..W]);
        let mut kick_mults = [0.0f64; W];
        kick_mults.copy_from_slice(&self.kick_mults[..W]);
        let kick_scale = self.kick_scale;
        for word in out {
            let mut bits = 0u64;
            for _ in 0..n {
                let mut high = 0u64;
                for i in 0..W {
                    let p = wrap(phases[i] + increments[i]);
                    phases[i] = p;
                    high += u64::from(p < duties[i]);
                }
                let mut bit = if rng.bernoulli_fast(self.p_rand_threshold) {
                    rng.bernoulli_fast(self.half_threshold)
                } else {
                    high & 1 == 1
                };
                if !bit && rng.bernoulli_fast(self.bias_threshold) {
                    bit = true;
                }
                if bit && kick_scale != 0.0 {
                    // Feedback: one uniform draw spread over the rings.
                    // Kick amounts stay below the scale (< 1), so the
                    // same wrap applies; padding lanes add kick × 0.
                    let kick = kick_scale * rng.uniform();
                    for i in 0..W {
                        phases[i] = wrap(phases[i] + kick * kick_mults[i]);
                    }
                }
                bits = (bits << 1) | u64::from(bit);
            }
            *word = bits;
        }
        self.phases[..W].copy_from_slice(&phases);
    }

    /// Generates `n` cycles (1..=64), oldest bit first: the first cycle
    /// lands in bit `n - 1`, the newest in bit 0 — the packing a
    /// `next_bit` fold produces.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= n <= 64`.
    #[inline]
    pub fn next_bits(&mut self, rng: &mut NoiseRng, n: u32) -> u64 {
        assert!((1..=64).contains(&n), "next_bits takes 1..=64, got {n}");
        let mut word = [0u64];
        self.run(rng, n, &mut word);
        word[0]
    }

    /// Generates a full 64-cycle word (oldest cycle in the MSB).
    #[inline]
    pub fn next_word(&mut self, rng: &mut NoiseRng) -> u64 {
        self.next_bits(rng, 64)
    }

    /// Fills `buf` through the kernel — eight bytes per 64-cycle word,
    /// then an 8-cycle chunk per tail byte. The block body behind every
    /// batched `Trng::fill_bytes`; callers build one kernel per buffer
    /// and [`write_back`](Self::write_back) once at the end.
    pub fn fill_bytes(&mut self, rng: &mut NoiseRng, buf: &mut [u8]) {
        let mut words = [0u64; 64];
        for block in buf.chunks_mut(8 * words.len()) {
            let whole = block.len() / 8;
            self.run(rng, 64, &mut words[..whole]);
            for (bytes, word) in block.chunks_exact_mut(8).zip(&words) {
                bytes.copy_from_slice(&word.to_be_bytes());
            }
            let tail = &mut block[whole * 8..];
            self.run(rng, 8, &mut words[..tail.len()]);
            for (byte, word) in tail.iter_mut().zip(&words) {
                *byte = *word as u8;
            }
        }
    }

    /// Writes the advanced phases back into the generator's beat bank.
    ///
    /// # Panics
    ///
    /// Panics if `beats` is not the bank the kernel was built from
    /// (length mismatch).
    pub fn write_back(&self, beats: &mut [BeatOscillator]) {
        assert_eq!(beats.len(), self.beats, "write_back to a different bank");
        for (beat, &phase) in beats.iter_mut().zip(&self.phases) {
            beat.set_phase(phase);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bank(seed: u64, n: usize) -> Vec<BeatOscillator> {
        let mut rng = NoiseRng::seed_from_u64(seed);
        (0..n)
            .map(|_| BeatOscillator::new(rng.uniform(), rng.uniform(), 0.5))
            .collect()
    }

    /// Per-bit reference for the kernel's cycle structure.
    fn reference_bit(
        beats: &mut [BeatOscillator],
        rng: &mut NoiseRng,
        p_rand: f64,
        bias: f64,
        feedback: Option<(f64, &[f64])>,
    ) -> bool {
        let mut beat_xor = false;
        for beat in beats.iter_mut() {
            beat_xor ^= beat.step();
        }
        let mut bit = if rng.bernoulli(p_rand) {
            rng.bernoulli(0.5)
        } else {
            beat_xor
        };
        if !bit && rng.bernoulli(2.0 * bias) {
            bit = true;
        }
        if bit {
            if let Some((scale, mults)) = feedback {
                let kick = scale * rng.uniform();
                for (beat, &m) in beats.iter_mut().zip(mults) {
                    beat.kick(kick * m);
                }
            }
        }
        bit
    }

    #[test]
    fn kernel_matches_reference_with_and_without_feedback() {
        // Both padded widths, each at a partial and a full bank.
        for size in [7, NARROW, NARROW + 1, MAX_BEATS] {
            let mut mult_rng = NoiseRng::seed_from_u64(size as u64);
            let mults: Vec<f64> = (0..size).map(|_| mult_rng.uniform()).collect();
            for feedback in [None, Some((0.3, &mults[..]))] {
                let mut ref_beats = bank(5, size);
                let mut kernel_beats = ref_beats.clone();
                let mut ref_rng = NoiseRng::seed_from_u64(9);
                let mut kernel_rng = NoiseRng::seed_from_u64(9);
                let (p_rand, bias) = (0.73, 2.1e-4);

                let mut kernel = BlockKernel::new(&kernel_beats, p_rand, bias, feedback)
                    .expect("size <= MAX_BEATS");
                let mut kernel_bits = Vec::new();
                for _ in 0..8 {
                    let word = kernel.next_word(&mut kernel_rng);
                    kernel_bits.extend((0..64).rev().map(|i| (word >> i) & 1 == 1));
                }
                kernel.write_back(&mut kernel_beats);

                let ref_bits: Vec<bool> = (0..512)
                    .map(|_| reference_bit(&mut ref_beats, &mut ref_rng, p_rand, bias, feedback))
                    .collect();

                let label = format!("{size} beats, feedback = {}", feedback.is_some());
                assert_eq!(kernel_bits, ref_bits, "{label}");
                // The written-back bank continues in lockstep with the
                // reference bank.
                for (a, b) in ref_beats.iter().zip(&kernel_beats) {
                    assert_eq!(a.phase(), b.phase(), "{label}");
                }
            }
        }
    }

    #[test]
    fn partial_words_pack_oldest_first() {
        let beats = bank(11, 3);
        let mut rng_a = NoiseRng::seed_from_u64(4);
        let mut rng_b = NoiseRng::seed_from_u64(4);
        let mut a = BlockKernel::new(&beats, 0.6, 1e-4, None).unwrap();
        let mut b = BlockKernel::new(&beats, 0.6, 1e-4, None).unwrap();
        let bits: Vec<bool> = (0..12).map(|_| a.next_bits(&mut rng_a, 1) == 1).collect();
        let word = b.next_bits(&mut rng_b, 12);
        let unpacked: Vec<bool> = (0..12).rev().map(|i| (word >> i) & 1 == 1).collect();
        assert_eq!(bits, unpacked);
    }

    #[test]
    fn oversized_bank_is_rejected() {
        let beats = bank(1, MAX_BEATS + 1);
        assert!(BlockKernel::new(&beats, 0.5, 0.0, None).is_none());
        let beats = bank(1, MAX_BEATS);
        assert!(BlockKernel::new(&beats, 0.5, 0.0, None).is_some());
    }

    #[test]
    fn oversized_bank_reports_a_typed_error() {
        let beats = bank(1, MAX_BEATS + 3);
        let err = BlockKernel::try_new(&beats, 0.5, 0.0, None).unwrap_err();
        assert_eq!(
            err,
            KernelError::TooManyBeats {
                got: MAX_BEATS + 3,
                max: MAX_BEATS,
            }
        );
        // The message names both the offered size and the limit, so a
        // misconfigured caller sees the actual numbers, not just `None`.
        let message = err.to_string();
        assert!(message.contains("35"), "{message}");
        assert!(message.contains("32"), "{message}");
        // At the boundary the typed path accepts exactly like `new`.
        let beats = bank(1, MAX_BEATS);
        assert!(BlockKernel::try_new(&beats, 0.5, 0.0, None).is_ok());
    }

    #[test]
    #[should_panic(expected = "next_bits takes 1..=64")]
    fn zero_bits_panics() {
        let beats = bank(2, 2);
        let mut rng = NoiseRng::seed_from_u64(1);
        let mut kernel = BlockKernel::new(&beats, 0.5, 0.0, None).unwrap();
        let _ = kernel.next_bits(&mut rng, 0);
    }
}

//! Online health tests (SP 800-90B §4.4).
//!
//! A deployed TRNG must detect catastrophic entropy-source failure at
//! runtime. This module implements the two mandatory continuous tests —
//! the Repetition Count Test (RCT) and the Adaptive Proportion Test
//! (APT) — sized for a binary source with the paper's entropy level
//! (H ≈ 0.99/bit), plus a monitor that folds them over a bit stream.

/// Outcome of feeding a bit to the monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthStatus {
    /// All tests nominal.
    Ok,
    /// The Repetition Count Test tripped (a value repeated too long).
    RepetitionFailure,
    /// The Adaptive Proportion Test tripped (a value dominated a window).
    ProportionFailure,
}

/// Continuous health monitor: RCT + APT over a binary stream.
///
/// Cutoffs follow SP 800-90B §4.4 with `alpha = 2^-30` and
/// `H = 0.99` bits/sample:
///
/// * RCT cutoff `C = 1 + ceil(30 / H) = 32`;
/// * APT window `W = 1024`, cutoff from the binomial tail at
///   `p = 2^-H`: 624.
///
/// # Example
///
/// ```
/// use dhtrng_core::{HealthMonitor, HealthStatus};
///
/// let mut hm = HealthMonitor::new();
/// // A healthy alternating-ish stream never trips the monitor.
/// for i in 0..10_000 {
///     assert_eq!(hm.feed(i % 2 == 0), HealthStatus::Ok);
/// }
/// // A stuck-at source trips the repetition count test.
/// let status = (0..100).map(|_| hm.feed(true)).find(|s| *s != HealthStatus::Ok);
/// assert_eq!(status, Some(HealthStatus::RepetitionFailure));
/// ```
///
/// Whole chunks go through [`feed_bytes`](Self::feed_bytes), which
/// checks 64 bits per step and stops at the first trip exactly where
/// the bit-by-bit fold would:
///
/// ```
/// use dhtrng_core::{HealthMonitor, HealthStatus};
///
/// let mut block = HealthMonitor::new();
/// assert_eq!(block.feed_bytes(&[0x5A; 4096]), HealthStatus::Ok);
/// // Four stuck bytes: the RCT trips on the 32nd one-bit.
/// assert_eq!(block.feed_bytes(&[0xFF; 4]), HealthStatus::RepetitionFailure);
///
/// let mut serial = HealthMonitor::new();
/// let bits = [0x5Au8; 4096].into_iter().chain([0xFF; 4]);
/// let _ = bits
///     .flat_map(|byte| (0..8).rev().map(move |i| (byte >> i) & 1 == 1))
///     .map(|bit| serial.feed(bit))
///     .find(|s| *s != HealthStatus::Ok);
/// assert_eq!(block, serial);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthMonitor {
    rct_cutoff: u32,
    apt_window: u32,
    apt_cutoff: u32,
    // RCT state.
    last: Option<bool>,
    run: u32,
    // APT state.
    window_pos: u32,
    reference: bool,
    matches: u32,
    // Statistics.
    bits_seen: u64,
    failures: u64,
}

impl HealthMonitor {
    /// Monitor with the default cutoffs (H = 0.99, alpha = 2^-30).
    pub fn new() -> Self {
        Self::with_cutoffs(32, 1024, 624)
    }

    /// Monitor with explicit cutoffs.
    ///
    /// # Panics
    ///
    /// Panics if `rct_cutoff < 2`, if `apt_window` or `apt_cutoff` is
    /// zero, or if `apt_cutoff > apt_window`.
    pub fn with_cutoffs(rct_cutoff: u32, apt_window: u32, apt_cutoff: u32) -> Self {
        assert!(rct_cutoff > 1, "RCT cutoff must exceed 1");
        assert!(
            apt_window > 0 && apt_cutoff > 0,
            "APT parameters must be positive"
        );
        assert!(
            apt_cutoff <= apt_window,
            "APT cutoff cannot exceed the window"
        );
        Self {
            rct_cutoff,
            apt_window,
            apt_cutoff,
            last: None,
            run: 0,
            window_pos: 0,
            reference: false,
            matches: 0,
            bits_seen: 0,
            failures: 0,
        }
    }

    /// Feeds one bit; returns the health status after this bit.
    pub fn feed(&mut self, bit: bool) -> HealthStatus {
        self.bits_seen += 1;

        // Repetition Count Test.
        if self.last == Some(bit) {
            self.run += 1;
        } else {
            self.last = Some(bit);
            self.run = 1;
        }
        if self.run >= self.rct_cutoff {
            self.failures += 1;
            self.run = 1; // re-arm after reporting
            return HealthStatus::RepetitionFailure;
        }

        // Adaptive Proportion Test.
        if self.window_pos == 0 {
            self.reference = bit;
            self.matches = 1;
            self.window_pos = 1;
        } else {
            if bit == self.reference {
                self.matches += 1;
            }
            self.window_pos += 1;
            if self.matches >= self.apt_cutoff {
                self.failures += 1;
                self.window_pos = 0;
                return HealthStatus::ProportionFailure;
            }
            if self.window_pos == self.apt_window {
                self.window_pos = 0;
            }
        }
        HealthStatus::Ok
    }

    /// Feeds a chunk MSB first; returns the first non-`Ok` status, or
    /// `Ok` if no bit tripped.
    ///
    /// Leaves the monitor in exactly the state that feeding the same
    /// bits one by one through [`feed`](Self::feed) and stopping at the
    /// first trip would: the chunk is taken as big-endian 64-bit words,
    /// a word is committed in bulk only when no test can trip anywhere
    /// inside it, and every other word (and the tail bytes) is replayed
    /// bit by bit. See `DESIGN.md` §5 for why the bulk step is exact.
    pub fn feed_bytes(&mut self, bytes: &[u8]) -> HealthStatus {
        let mut words = bytes.chunks_exact(8);
        for chunk in &mut words {
            let word = u64::from_be_bytes(chunk.try_into().expect("8-byte chunk"));
            if !self.commit_word(word) {
                let status = self.feed_msb_first(word, 64);
                if status != HealthStatus::Ok {
                    return status;
                }
            }
        }
        for &byte in words.remainder() {
            let status = self.feed_msb_first(u64::from(byte), 8);
            if status != HealthStatus::Ok {
                return status;
            }
        }
        HealthStatus::Ok
    }

    /// Feeds the low `bits` bits of `word` one by one, MSB first.
    fn feed_msb_first(&mut self, word: u64, bits: u32) -> HealthStatus {
        for i in (0..bits).rev() {
            let status = self.feed((word >> i) & 1 == 1);
            if status != HealthStatus::Ok {
                return status;
            }
        }
        HealthStatus::Ok
    }

    /// Commits all 64 bits of `word` (MSB first) at once if neither
    /// test can trip anywhere inside it; returns `false`, with the
    /// state untouched, otherwise.
    fn commit_word(&mut self, word: u64) -> bool {
        // The monitor's first bit starts the RCT state: leave it to feed.
        let Some(last) = self.last else {
            return false;
        };

        // APT: the word must lie inside one window. Matches only grow
        // within a window, so the count after the word's last bit is
        // the largest the window reaches here.
        if self.apt_window.saturating_sub(self.window_pos) < 64 {
            return false;
        }
        let fresh = self.window_pos == 0;
        let reference = if fresh {
            word >> 63 == 1
        } else {
            self.reference
        };
        let ones = word.count_ones();
        let word_matches = if reference { ones } else { 64 - ones };
        let matches = if fresh { 0 } else { self.matches } + word_matches;
        if matches >= self.apt_cutoff {
            return false;
        }

        // RCT: the carried run plus the word's leading run, and every
        // run inside the word, must stay below the cutoff.
        let leading = (word ^ broadcast(last)).leading_zeros();
        if self.run.saturating_add(leading) >= self.rct_cutoff
            || has_run(word, self.rct_cutoff.min(MAX_WORD_RUN))
        {
            return false;
        }

        // A committed word holds no run of `MAX_WORD_RUN`, so it has a
        // run boundary and the run after its last boundary is current.
        let lsb = word & 1 == 1;
        self.last = Some(lsb);
        self.run = (word ^ broadcast(lsb)).trailing_zeros();
        if fresh {
            self.reference = reference;
        }
        self.matches = matches;
        self.window_pos += 64;
        if self.window_pos == self.apt_window {
            self.window_pos = 0;
        }
        self.bits_seen += 64;
        true
    }

    /// Total bits observed.
    pub fn bits_seen(&self) -> u64 {
        self.bits_seen
    }

    /// Total failures reported.
    pub fn failures(&self) -> u64 {
        self.failures
    }
}

/// Longest run the word-level RCT check looks for. Runs this long are
/// rare in healthy data (about 0.07% of 64-bit words), so capping the
/// check here keeps it to four shift-ANDs while the fallback to
/// [`HealthMonitor::feed`] handles the rest exactly.
const MAX_WORD_RUN: u32 = 17;

/// All-ones if `bit`, else all-zeros.
fn broadcast(bit: bool) -> u64 {
    if bit {
        u64::MAX
    } else {
        0
    }
}

/// Whether `word` holds `len >= 2` equal adjacent bits.
fn has_run(word: u64, len: u32) -> bool {
    // Bit i is set when bits i and i + 1 agree; bit 63 has no partner.
    let mut agree = !(word ^ (word >> 1)) & (u64::MAX >> 1);
    // Shift-AND doubling: after each step bit i is set when `span`
    // consecutive pairs starting at i all agree.
    let (mut span, pairs) = (1, len - 1);
    while span < pairs {
        let step = span.min(pairs - span);
        agree &= agree >> step;
        span += step;
    }
    agree != 0
}

impl Default for HealthMonitor {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhtrng_noise::NoiseRng;

    #[test]
    fn healthy_stream_never_trips() {
        let mut hm = HealthMonitor::new();
        let mut rng = NoiseRng::seed_from_u64(1);
        for _ in 0..1_000_000 {
            assert_eq!(hm.feed(rng.bernoulli(0.5)), HealthStatus::Ok);
        }
        assert_eq!(hm.failures(), 0);
        assert_eq!(hm.bits_seen(), 1_000_000);
    }

    #[test]
    fn stuck_source_trips_rct_quickly() {
        let mut hm = HealthMonitor::new();
        let mut tripped_at = None;
        for i in 0..100 {
            if hm.feed(true) == HealthStatus::RepetitionFailure {
                tripped_at = Some(i);
                break;
            }
        }
        assert_eq!(tripped_at, Some(31), "RCT cutoff 32 trips on the 32nd bit");
    }

    #[test]
    fn heavily_biased_source_trips_apt() {
        let mut hm = HealthMonitor::new();
        let mut rng = NoiseRng::seed_from_u64(2);
        let mut tripped = false;
        for _ in 0..100_000 {
            // 75% ones: the APT window of 1024 expects ~768 matches when
            // the reference is 1 — far over the 624 cutoff.
            match hm.feed(rng.bernoulli(0.75)) {
                HealthStatus::ProportionFailure => {
                    tripped = true;
                    break;
                }
                HealthStatus::RepetitionFailure => {}
                HealthStatus::Ok => {}
            }
        }
        assert!(tripped, "APT must catch a 75%-biased source");
    }

    #[test]
    fn mild_bias_passes() {
        // 51% ones stays under both cutoffs essentially always.
        let mut hm = HealthMonitor::new();
        let mut rng = NoiseRng::seed_from_u64(3);
        let mut failures = 0;
        for _ in 0..500_000 {
            if hm.feed(rng.bernoulli(0.51)) != HealthStatus::Ok {
                failures += 1;
            }
        }
        assert_eq!(failures, 0);
    }

    #[test]
    fn has_run_matches_a_naive_scan() {
        let longest = |word: u64| {
            let (mut best, mut run) = (1, 1);
            for i in 1..64 {
                run = if (word >> i) & 1 == (word >> (i - 1)) & 1 {
                    run + 1
                } else {
                    1
                };
                best = best.max(run);
            }
            best
        };
        let mut rng = NoiseRng::seed_from_u64(4);
        for _ in 0..20_000 {
            // Alternate runs of 1..=24 bits so every cap length occurs.
            let (mut word, mut bit, mut filled) = (0u64, rng.bernoulli(0.5), 0);
            while filled < 64 {
                let run = (1 + (rng.uniform() * 24.0) as u32).min(64 - filled);
                for _ in 0..run {
                    word = word << 1 | u64::from(bit);
                }
                bit = !bit;
                filled += run;
            }
            for len in 2..=MAX_WORD_RUN {
                assert_eq!(has_run(word, len), longest(word) >= len, "{word:#x} {len}");
            }
        }
        assert!(!has_run(0x5555_5555_5555_5555, 2));
        assert!(has_run(u64::MAX, MAX_WORD_RUN));
    }

    #[test]
    fn healthy_words_take_the_fast_path() {
        let mut hm = HealthMonitor::new();
        assert!(
            !hm.commit_word(0x5A5A_5A5A_5A5A_5A5A),
            "first bit is serial"
        );
        assert_eq!(hm.feed(false), HealthStatus::Ok);
        let before = hm.clone();
        assert!(hm.commit_word(0x5A5A_5A5A_5A5A_5A5A));
        assert_eq!(hm.bits_seen(), 65);
        // A word that would trip is refused and leaves the state alone.
        let mut stuck = before.clone();
        assert!(!stuck.commit_word(0));
        assert_eq!(stuck, before);
    }

    #[test]
    #[should_panic(expected = "APT cutoff cannot exceed")]
    fn invalid_cutoffs_panic() {
        let _ = HealthMonitor::with_cutoffs(32, 100, 200);
    }
}

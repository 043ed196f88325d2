//! A Hash-DRBG-style deterministic output stage over the workspace's
//! [`NoiseRng`] math — the last box of the SP 800-90C chain
//! (source → health tests → conditioner → **DRBG**).
//!
//! A production entropy service does not hand raw source bits to
//! consumers: it seeds a deterministic generator from the conditioned
//! pool and re-keys it on a policy. This module supplies that stage in
//! two layers:
//!
//! * [`HashDrbg`] — the pure state machine: instantiate from seed
//!   material, generate 64-byte blocks, refuse to generate past the
//!   configured reseed interval, fold fresh seed material into the
//!   chaining value on [`reseed`](HashDrbg::reseed);
//! * [`Drbg`] — the adaptor mounting a [`HashDrbg`] on any [`Trng`]
//!   entropy source, harvesting seed material automatically and
//!   exposing the whole thing as a `Trng` (so the batched
//!   [`next_bits`](Trng::next_bits)/[`fill_bytes`](Trng::fill_bytes)
//!   consumers work unchanged).
//!
//! **Scope.** This is a *behavioural model* of the 90A construction,
//! not a certified implementation: the derivation function is a 64-bit
//! FNV-1a chain rather than SHA-2, and the output generator is the
//! workspace's [`NoiseRng`] (so that the DRBG tier's streams stay
//! seeded-reproducible like every other tier). The state-machine shape
//! — instantiate / generate-with-interval / reseed / prediction
//! resistance — follows the spec, which is what the pipeline and its
//! tests exercise.
//!
//! # Determinism
//!
//! Output is produced in fixed [`BLOCK_BYTES`] blocks, so the stream
//! for a given seed schedule is identical however consumers slice
//! their reads — pinned by `tests/conditioning.rs` alongside the raw
//! tier's batching pins. With
//! [`prediction_resistance`](DrbgConfig::prediction_resistance) the
//! machine reseeds before *every* block, folding fresh source entropy
//! in continuously (and costing one seed harvest per 512 output bits).
//!
//! # Example
//!
//! ```
//! use dhtrng_core::drbg::{Drbg, DrbgConfig};
//! use dhtrng_core::{DhTrng, Trng};
//!
//! let source = DhTrng::builder().seed(5).build();
//! let mut drbg = Drbg::new(source, DrbgConfig::default());
//! let mut key = [0u8; 32];
//! drbg.fill_bytes(&mut key);
//! assert_ne!(key, [0u8; 32]);
//! assert_eq!(drbg.reseeds(), 0); // well under the default 1 Mbit interval
//! ```

use std::fmt;

use dhtrng_noise::NoiseRng;
use rand::RngCore;

use crate::trng::Trng;

/// Bytes per generated block: the granularity at which [`HashDrbg`]
/// produces output and checks its reseed interval. A multiple of 8 so
/// block-aligned generation is chunking-stable on every `RngCore`.
pub const BLOCK_BYTES: usize = 64;

/// Output bits per generated block.
const BLOCK_BITS: u64 = BLOCK_BYTES as u64 * 8;

/// Policy knobs for the DRBG output stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DrbgConfig {
    /// Output bits generated between reseeds. Clamped up to one block
    /// (512 bits) at instantiation; the default re-keys every mebibit.
    pub reseed_interval_bits: u64,
    /// Seed material harvested from the entropy source per
    /// instantiate/reseed, in bytes. The default (48 bytes = 384 bits)
    /// mirrors the 90A Hash-DRBG seed-length order of magnitude.
    pub seed_bytes: usize,
    /// Reseed before **every** output block, folding fresh entropy in
    /// continuously (90A prediction resistance). The reseed interval
    /// becomes irrelevant.
    pub prediction_resistance: bool,
}

impl Default for DrbgConfig {
    fn default() -> Self {
        Self {
            reseed_interval_bits: 1 << 20,
            seed_bytes: 48,
            prediction_resistance: false,
        }
    }
}

impl DrbgConfig {
    /// Output bits per seed-material bit at the configured policy — the
    /// entropy amplification of the DRBG stage (1.0 under prediction
    /// resistance would mean no amplification; the default policy
    /// yields `2^20 / 384 ≈ 2731x`).
    pub fn expansion_factor(&self) -> f64 {
        let seed_bits = (self.seed_bytes as u64 * 8).max(1) as f64;
        if self.prediction_resistance {
            BLOCK_BITS as f64 / seed_bits
        } else {
            self.reseed_interval_bits.max(BLOCK_BITS) as f64 / seed_bits
        }
    }
}

/// Error returned by [`HashDrbg::generate`] when the reseed interval is
/// exhausted: the caller must [`reseed`](HashDrbg::reseed) first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReseedRequired;

impl fmt::Display for ReseedRequired {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DRBG reseed interval exhausted; reseed before generating"
        )
    }
}

impl std::error::Error for ReseedRequired {}

/// The Hash-DRBG-style state machine: a chaining value derived from
/// seed material keys a [`NoiseRng`] working state; output is produced
/// in [`BLOCK_BYTES`] blocks until the reseed interval is exhausted.
///
/// The machine never touches an entropy source itself — callers hand it
/// seed material (the [`Drbg`] adaptor and the stream crate's drbg
/// sessions do the harvesting), which keeps the state machine
/// testable in isolation.
#[derive(Debug, Clone)]
pub struct HashDrbg {
    config: DrbgConfig,
    /// Chaining value `V`: every reseed folds the previous value and
    /// the fresh material together, so state never resets to a
    /// material-only function.
    chain: u64,
    rng: NoiseRng,
    bits_since_reseed: u64,
    reseeds: u64,
}

impl HashDrbg {
    /// Instantiates from seed material.
    ///
    /// `config.reseed_interval_bits` is clamped up to one block so a
    /// single [`generate`](Self::generate) call is always possible
    /// between reseeds.
    ///
    /// # Panics
    ///
    /// Panics if `seed_material` is empty or `config.seed_bytes == 0`.
    pub fn instantiate(seed_material: &[u8], mut config: DrbgConfig) -> Self {
        assert!(!seed_material.is_empty(), "seed material must be non-empty");
        assert!(config.seed_bytes > 0, "seed_bytes must be positive");
        config.reseed_interval_bits = config.reseed_interval_bits.max(BLOCK_BITS);
        let chain = hash_df(DF_INSTANTIATE, &[seed_material]);
        Self {
            config,
            chain,
            rng: NoiseRng::seed_from_u64(chain),
            bits_since_reseed: 0,
            reseeds: 0,
        }
    }

    /// Folds fresh seed material into the chaining value and re-keys
    /// the working state.
    ///
    /// # Panics
    ///
    /// Panics if `seed_material` is empty.
    pub fn reseed(&mut self, seed_material: &[u8]) {
        assert!(!seed_material.is_empty(), "seed material must be non-empty");
        self.chain = hash_df(DF_RESEED, &[&self.chain.to_be_bytes(), seed_material]);
        self.rng = NoiseRng::seed_from_u64(self.chain);
        self.bits_since_reseed = 0;
        self.reseeds += 1;
    }

    /// Whether the next block would exceed the reseed interval (always
    /// true between blocks under prediction resistance).
    pub fn needs_reseed(&self) -> bool {
        self.config.prediction_resistance && self.bits_since_reseed > 0
            || self.bits_since_reseed + BLOCK_BITS > self.config.reseed_interval_bits
    }

    /// Generates the next [`BLOCK_BYTES`]-byte output block.
    ///
    /// # Errors
    ///
    /// [`ReseedRequired`] when the interval is exhausted (or, under
    /// prediction resistance, when a block was already produced since
    /// the last reseed); the state is untouched in that case.
    pub fn generate(&mut self, block: &mut [u8; BLOCK_BYTES]) -> Result<(), ReseedRequired> {
        if self.needs_reseed() {
            return Err(ReseedRequired);
        }
        self.rng.fill_bytes(block);
        self.bits_since_reseed += BLOCK_BITS;
        Ok(())
    }

    /// Reseeds performed since instantiation.
    pub fn reseeds(&self) -> u64 {
        self.reseeds
    }

    /// Output bits generated since the last reseed (or instantiation).
    pub fn bits_since_reseed(&self) -> u64 {
        self.bits_since_reseed
    }

    /// The policy this machine was instantiated with (interval already
    /// clamped).
    pub fn config(&self) -> &DrbgConfig {
        &self.config
    }
}

/// Domain-separation tags for the derivation function.
const DF_INSTANTIATE: u8 = 0x01;
const DF_RESEED: u8 = 0x02;

/// The model's derivation function: a 64-bit FNV-1a chain over a domain
/// tag and the material parts. Stands in for the 90A `Hash_df` (see the
/// module docs for scope).
fn hash_df(domain: u8, parts: &[&[u8]]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    h ^= u64::from(domain);
    h = h.wrapping_mul(PRIME);
    for part in parts {
        // Length-prefix each part so (["ab","c"]) and (["a","bc"])
        // derive different values.
        for &b in (part.len() as u64).to_be_bytes().iter().chain(part.iter()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    }
    h
}

/// A DRBG mounted on a [`Trng`] entropy source: seed material is
/// harvested from the source at instantiation and at every reseed
/// boundary, and the output stream is exposed as a `Trng` itself — the
/// single-instance form of the pipeline's `drbg` tier.
///
/// All output routes through one internal block buffer, so the per-bit
/// ([`next_bit`](Trng::next_bit)) and batched
/// ([`next_bits`](Trng::next_bits)/[`fill_bytes`](Trng::fill_bytes))
/// paths walk the identical stream — the same guarantee the raw tier's
/// `BlockKernel` provides, pinned by `tests/conditioning.rs`.
#[derive(Debug, Clone)]
pub struct Drbg<S> {
    source: S,
    drbg: HashDrbg,
    block: [u8; BLOCK_BYTES],
    /// Bit cursor into `block`; `BLOCK_BITS` means exhausted.
    cursor_bits: usize,
    /// Persistent seed-material buffer, reused across reseeds so the
    /// steady-state harvest path performs no heap allocation.
    material: Vec<u8>,
}

impl<S: Trng> Drbg<S> {
    /// Instantiates over `source`, harvesting `config.seed_bytes` of
    /// seed material from it immediately.
    ///
    /// # Panics
    ///
    /// Panics if `config.seed_bytes == 0`.
    pub fn new(mut source: S, config: DrbgConfig) -> Self {
        let mut material = vec![0u8; config.seed_bytes.max(1)];
        source.fill_bytes(&mut material);
        let drbg = HashDrbg::instantiate(&material, config);
        Self {
            source,
            drbg,
            block: [0u8; BLOCK_BYTES],
            cursor_bits: BLOCK_BITS as usize,
            material,
        }
    }

    /// Reseeds performed so far (instantiation not counted).
    pub fn reseeds(&self) -> u64 {
        self.drbg.reseeds()
    }

    /// The policy in force.
    pub fn config(&self) -> &DrbgConfig {
        self.drbg.config()
    }

    /// The entropy source behind the DRBG.
    pub fn source(&self) -> &S {
        &self.source
    }

    /// Unwraps the entropy source, discarding the DRBG state.
    pub fn into_source(self) -> S {
        self.source
    }

    /// Produces the next block into the internal buffer, harvesting and
    /// folding in seed material first when the policy requires it.
    fn refill(&mut self) {
        if self.drbg.needs_reseed() {
            // Harvest into the persistent buffer: reseeds are free of
            // heap traffic after instantiation.
            self.material.resize(self.drbg.config().seed_bytes, 0);
            self.source.fill_bytes(&mut self.material);
            self.drbg.reseed(&self.material);
        }
        self.drbg
            .generate(&mut self.block)
            .expect("reseed just satisfied the interval");
        self.cursor_bits = 0;
    }
}

impl<S: Trng> Trng for Drbg<S> {
    fn next_bit(&mut self) -> bool {
        if self.cursor_bits == BLOCK_BITS as usize {
            self.refill();
        }
        let byte = self.block[self.cursor_bits / 8];
        let bit = (byte >> (7 - self.cursor_bits % 8)) & 1 == 1;
        self.cursor_bits += 1;
        bit
    }

    fn fill_bytes(&mut self, buf: &mut [u8]) {
        if self.cursor_bits % 8 != 0 {
            // Mid-byte cursor (only after an unaligned next_bits call).
            // Stream continuity pins every subsequent output byte to
            // the same sub-byte offset — realigning would skip bits —
            // so the whole fill runs through the per-bit path.
            for slot in buf.iter_mut() {
                *slot = self.next_bits(8) as u8;
            }
            return;
        }
        let mut written = 0;
        while written < buf.len() {
            if self.cursor_bits == BLOCK_BITS as usize {
                self.refill();
            }
            let cursor = self.cursor_bits / 8;
            let take = (buf.len() - written).min(BLOCK_BYTES - cursor);
            buf[written..written + take].copy_from_slice(&self.block[cursor..cursor + take]);
            self.cursor_bits += take * 8;
            written += take;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trng::DhTrng;

    fn counter_material(n: usize, offset: u8) -> Vec<u8> {
        (0..n).map(|i| (i as u8).wrapping_add(offset)).collect()
    }

    #[test]
    fn instantiate_is_deterministic_in_the_material() {
        let mut a = HashDrbg::instantiate(&counter_material(48, 0), DrbgConfig::default());
        let mut b = HashDrbg::instantiate(&counter_material(48, 0), DrbgConfig::default());
        let mut c = HashDrbg::instantiate(&counter_material(48, 1), DrbgConfig::default());
        let (mut ba, mut bb, mut bc) = ([0u8; BLOCK_BYTES], [0u8; BLOCK_BYTES], [0u8; BLOCK_BYTES]);
        a.generate(&mut ba).unwrap();
        b.generate(&mut bb).unwrap();
        c.generate(&mut bc).unwrap();
        assert_eq!(ba, bb);
        assert_ne!(ba, bc);
    }

    #[test]
    fn interval_is_enforced_and_reseed_restores() {
        let config = DrbgConfig {
            reseed_interval_bits: 1024, // two blocks
            ..DrbgConfig::default()
        };
        let mut drbg = HashDrbg::instantiate(&counter_material(48, 0), config);
        let mut block = [0u8; BLOCK_BYTES];
        drbg.generate(&mut block).unwrap();
        drbg.generate(&mut block).unwrap();
        assert!(drbg.needs_reseed());
        assert_eq!(drbg.generate(&mut block), Err(ReseedRequired));
        drbg.reseed(&counter_material(48, 9));
        assert_eq!(drbg.reseeds(), 1);
        assert_eq!(drbg.bits_since_reseed(), 0);
        drbg.generate(&mut block).unwrap();
    }

    #[test]
    fn reseed_chains_previous_state() {
        // Same fresh material, different prior history -> different
        // post-reseed streams (the chaining value matters).
        let mut a = HashDrbg::instantiate(&counter_material(48, 0), DrbgConfig::default());
        let mut b = HashDrbg::instantiate(&counter_material(48, 1), DrbgConfig::default());
        a.reseed(&counter_material(48, 7));
        b.reseed(&counter_material(48, 7));
        let (mut ba, mut bb) = ([0u8; BLOCK_BYTES], [0u8; BLOCK_BYTES]);
        a.generate(&mut ba).unwrap();
        b.generate(&mut bb).unwrap();
        assert_ne!(ba, bb);
    }

    #[test]
    fn tiny_interval_is_clamped_to_one_block() {
        let config = DrbgConfig {
            reseed_interval_bits: 1,
            ..DrbgConfig::default()
        };
        let mut drbg = HashDrbg::instantiate(&[1, 2, 3], config);
        let mut block = [0u8; BLOCK_BYTES];
        drbg.generate(&mut block).unwrap();
        assert!(drbg.needs_reseed());
        assert_eq!(drbg.config().reseed_interval_bits, BLOCK_BITS);
    }

    #[test]
    fn prediction_resistance_demands_reseed_every_block() {
        let config = DrbgConfig {
            prediction_resistance: true,
            ..DrbgConfig::default()
        };
        let mut drbg = HashDrbg::instantiate(&counter_material(48, 0), config);
        let mut block = [0u8; BLOCK_BYTES];
        drbg.generate(&mut block).unwrap();
        assert_eq!(drbg.generate(&mut block), Err(ReseedRequired));
        drbg.reseed(&counter_material(48, 1));
        drbg.generate(&mut block).unwrap();
    }

    #[test]
    fn adaptor_reseeds_on_policy_and_streams_deterministically() {
        let config = DrbgConfig {
            reseed_interval_bits: 1024,
            seed_bytes: 16,
            prediction_resistance: false,
        };
        let make = || Drbg::new(DhTrng::builder().seed(77).build(), config);
        let mut a = make();
        let mut buf_a = vec![0u8; 1024];
        a.fill_bytes(&mut buf_a); // 8192 bits -> 8 intervals
        assert_eq!(a.reseeds(), 7, "one reseed per 1024-bit interval");
        // Determinism across runs, whatever the read slicing.
        let mut b = make();
        let mut buf_b = Vec::new();
        for size in [1usize, 63, 64, 500, 396] {
            let mut piece = vec![0u8; size];
            b.fill_bytes(&mut piece);
            buf_b.extend_from_slice(&piece);
        }
        assert_eq!(buf_a, buf_b);
    }

    #[test]
    fn adaptor_bit_and_byte_paths_agree() {
        let config = DrbgConfig::default();
        let mut bits = Drbg::new(DhTrng::builder().seed(5).build(), config);
        let mut bytes = Drbg::new(DhTrng::builder().seed(5).build(), config);
        let reference: Vec<bool> = (0..256).map(|_| bits.next_bit()).collect();
        let mut buf = [0u8; 32];
        bytes.fill_bytes(&mut buf);
        let rebuilt: Vec<bool> = buf
            .iter()
            .flat_map(|&b| (0..8).rev().map(move |i| (b >> i) & 1 == 1))
            .collect();
        assert_eq!(reference, rebuilt);
    }

    #[test]
    fn prediction_resistance_consumes_source_per_block() {
        let config = DrbgConfig {
            prediction_resistance: true,
            seed_bytes: 8,
            ..DrbgConfig::default()
        };
        let mut drbg = Drbg::new(DhTrng::builder().seed(3).build(), config);
        let mut buf = vec![0u8; 4 * BLOCK_BYTES];
        drbg.fill_bytes(&mut buf);
        // Block 1 rides the instantiate material; blocks 2..4 reseed.
        assert_eq!(drbg.reseeds(), 3);
        assert!((drbg.config().expansion_factor() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn expansion_factor_matches_policy() {
        let default = DrbgConfig::default();
        assert!((default.expansion_factor() - (1 << 20) as f64 / 384.0).abs() < 1e-9);
    }

    #[test]
    fn hash_df_separates_domains_and_part_boundaries() {
        assert_ne!(hash_df(1, &[b"abc"]), hash_df(2, &[b"abc"]));
        assert_ne!(hash_df(1, &[b"ab", b"c"]), hash_df(1, &[b"a", b"bc"]));
    }

    #[test]
    #[should_panic(expected = "seed material")]
    fn empty_material_panics() {
        let _ = HashDrbg::instantiate(&[], DrbgConfig::default());
    }
}

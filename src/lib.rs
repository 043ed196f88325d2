//! DH-TRNG reproduction — umbrella crate.
//!
//! Re-exports the whole workspace behind one dependency, so downstream
//! users (and the examples and integration tests in this repository) can
//! write `use dh_trng::prelude::*;` and reach every layer:
//!
//! * [`core`] — the DH-TRNG architecture itself
//!   ([`DhTrng`](dhtrng_core::DhTrng)), plus the SP 800-90C output
//!   stages (health tests, composable conditioning, the DRBG);
//! * [`noise`] — the stochastic substrate (jitter, metastability, PVT);
//! * [`sim`] — the event-driven gate-level simulator;
//! * [`fpga`] — device, packing, placement, timing and power models;
//! * [`baselines`] — the Table 6 comparison architectures;
//! * [`stattests`] — NIST SP 800-22 / SP 800-90B / AIS-31 batteries;
//! * [`stream`] — the sharded streaming engine and the
//!   session-oriented entropy source ([`api`]): one shared
//!   [`EntropySource`](dhtrng_stream::EntropySource) minting
//!   independent per-consumer
//!   [`Session`](dhtrng_stream::Session)s at any quality tier
//!   (raw / conditioned / drbg), all driven by one stage-graph
//!   executor over recycled chunk buffers (zero-allocation
//!   steady-state raw reads; `DESIGN.md` §7–8), wrapped here by the
//!   `rand`-compatible [`StreamRng`] adapter;
//! * [`serve`] — entropy as a service: the daemon front-end
//!   (TCP / unix socket, length-prefixed frames) that multiplexes
//!   many concurrent clients over one shared source, plus the load
//!   generator that drives thousands of simulated clients through
//!   the same connection state machine.
//!
//! **Library or service?** Link against [`api`] when the consumers
//! live in your process — sessions are cheap and draw from one shared
//! deployment. Run the [`serve`] daemon when consumers are separate
//! processes (or machines) and should share one hardware deployment
//! through a socket; the wire protocol and trade-offs are in
//! `README.md` § "Library vs service" and `DESIGN.md` §8.
//!
//! # Quickstart
//!
//! ```
//! use dh_trng::prelude::*;
//!
//! let mut trng = DhTrng::builder().seed(1).build();
//! let mut key = [0u8; 32];
//! trng.fill_bytes(&mut key);
//!
//! // Assess the stream the way the paper's Table 4 does.
//! let bits: BitBuffer = (0..100_000).map(|_| trng.next_bit()).collect();
//! let h = min_entropy_mcv(&bits);
//! assert!(h > 0.98, "h = {h}");
//! ```
//!
//! # Quality tiers
//!
//! A production deployment builds one shared source and mints a
//! session per consumer at one of three output tiers — raw source
//! bits, conditioned bits, or DRBG output (see `README.md` § "Which
//! tier do I want?"). [`StreamRng`] hands any session to `rand`:
//!
//! ```
//! use dh_trng::prelude::*;
//!
//! let source = EntropySource::builder()
//!     .shards(2)
//!     .seed(1)
//!     .chunk_bytes(2048)
//!     .build()
//!     .expect("valid configuration");
//! let mut rng = StreamRng::new(source.session(Tier::Drbg));
//! let mut key = [0u8; 32];
//! rand::RngCore::fill_bytes(&mut rng, &mut key);
//! assert_eq!(rng.stream().tier(), Tier::Drbg);
//! ```
//!
//! See `README.md` for the repository tour and `DESIGN.md` /
//! `EXPERIMENTS.md` for the reproduction methodology and results.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub use dhtrng_baselines as baselines;
pub use dhtrng_core as core;
pub use dhtrng_fpga as fpga;
pub use dhtrng_noise as noise;
pub use dhtrng_serve as serve;
pub use dhtrng_sim as sim;
pub use dhtrng_stattests as stattests;
pub use dhtrng_stream as stream;

/// The session-oriented public API: one shared
/// [`EntropySource`](dhtrng_stream::EntropySource), many independent
/// [`Session`](dhtrng_stream::Session)s (see `dhtrng_stream::api`).
pub use dhtrng_stream::api;

/// The most commonly used items across the workspace.
pub mod prelude {
    pub use dhtrng_baselines::{Architecture, RoXorTrng};
    pub use dhtrng_core::conditioning::{
        BitSink, BlockConditioner, Conditioned, Conditioner, CrcWhitener, LfsrConditioner,
        VonNeumannConditioner, XorFold,
    };
    pub use dhtrng_core::drbg::{Drbg, DrbgConfig, HashDrbg};
    pub use dhtrng_core::kernel::{BitBlock, BlockSource, ConditionerStage, Stage};
    pub use dhtrng_core::telemetry::{
        MetricsHandle, NoopRecorder, Recorder, ShardSnapshot, Snapshot, StageEvent, TraceEvent,
        Tracer,
    };
    pub use dhtrng_core::{
        DhTrng, DhTrngArray, DhTrngBuilder, HealthMonitor, HealthStatus, HybridUnitGroup,
        KernelError, SliceError, SlicedDhTrng, SlicedKernel, Trng,
    };
    pub use dhtrng_fpga::Device;
    pub use dhtrng_noise::{NoiseRng, PvtCorner};
    pub use dhtrng_serve::{Client, Service, ServiceConfig};
    pub use dhtrng_stattests::sp800_90b::{min_entropy_mcv, non_iid_battery};
    pub use dhtrng_stattests::BitBuffer;
    pub use dhtrng_stream::{
        AffinityPolicy, ConditionerSpec, EntropySource, EntropyStream, EntropyStreamBuilder, Error,
        HealthConfig, KernelKind, Session, SessionConfig, SourceBuilder, Tier,
    };

    pub use crate::StreamRng;
}

/// A byte stream [`StreamRng`] can drive: the sharded engine itself
/// (the raw tier) or a [`Session`](dhtrng_stream::Session) at any tier.
///
/// # Example
///
/// ```
/// use dh_trng::prelude::*;
/// use dh_trng::ByteStream;
/// use rand::RngCore;
///
/// fn head<S: ByteStream>(stream: &mut S) -> [u8; 16] {
///     let mut out = [0u8; 16];
///     stream.read(&mut out).expect("healthy stream");
///     out
/// }
///
/// let source = EntropySource::builder()
///     .shards(2)
///     .seed(7)
///     .chunk_bytes(2048)
///     .build()
///     .expect("valid configuration");
/// let mut drbg = source.session(Tier::Drbg);
/// let first = head(&mut drbg);
/// assert_ne!(first, head(&mut drbg));
///
/// let mut rng = StreamRng::new(source.session(Tier::Drbg));
/// let _key = rng.next_u64();
/// assert_eq!(rng.stream().tier(), Tier::Drbg);
/// assert_eq!(rng.stream().bytes_delivered(), 8);
/// ```
pub trait ByteStream {
    /// Fills `out`, or reports the stream's terminal error.
    ///
    /// # Errors
    ///
    /// The underlying stream's [`Error`](dhtrng_stream::Error).
    fn read(&mut self, out: &mut [u8]) -> Result<(), dhtrng_stream::Error>;
}

impl ByteStream for dhtrng_stream::EntropyStream {
    fn read(&mut self, out: &mut [u8]) -> Result<(), dhtrng_stream::Error> {
        dhtrng_stream::EntropyStream::read(self, out)
    }
}

impl ByteStream for dhtrng_stream::Session {
    fn read(&mut self, out: &mut [u8]) -> Result<(), dhtrng_stream::Error> {
        dhtrng_stream::Session::read(self, out)
    }
}

/// `rand`-compatible adapter over a sharded DH-TRNG deployment: plugs
/// the raw engine, or a session at any quality tier
/// ([`Tier`](dhtrng_stream::Tier)), into anything that consumes
/// [`rand::RngCore`] (distributions, shuffles, key generation, other
/// generators' seeds).
///
/// Byte order matches the single-instance
/// [`DhTrng`](dhtrng_core::DhTrng) `RngCore` impl: words are built from
/// the stream MSB-first.
///
/// # Panics
///
/// The infallible [`rand::RngCore`] methods panic if the underlying
/// stream fails terminally (a shard retired; see
/// [`Error`](dhtrng_stream::Error)). Use
/// [`try_fill_bytes`](rand::RngCore::try_fill_bytes) — or inspect
/// [`stream`](Self::stream) — for a non-panicking path.
///
/// # Example
///
/// ```
/// use dh_trng::prelude::*;
/// use rand::Rng;
///
/// let mut rng = StreamRng::with_shards(4, 42);
/// let die: u8 = rng.gen_range(1..=6);
/// assert!((1..=6).contains(&die));
///
/// let source = EntropySource::builder()
///     .shards(2)
///     .seed(7)
///     .chunk_bytes(2048)
///     .build()
///     .expect("valid configuration");
/// let mut rng = StreamRng::new(source.session(Tier::Conditioned));
/// let die: u8 = rng.gen_range(1..=6);
/// assert!((1..=6).contains(&die));
/// ```
#[derive(Debug)]
pub struct StreamRng<S = dhtrng_stream::EntropyStream> {
    stream: S,
}

impl<S: ByteStream> StreamRng<S> {
    /// Wraps an already-configured stream or session.
    pub fn new(stream: S) -> Self {
        Self { stream }
    }

    /// The stream behind the adapter (for the engine: shard count,
    /// restart statistics, modeled throughput; for a session: its tier,
    /// source and counters).
    pub fn stream(&self) -> &S {
        &self.stream
    }

    /// Unwraps the adapter.
    pub fn into_inner(self) -> S {
        self.stream
    }
}

impl StreamRng {
    /// A raw stream of `shards` parallel instances at the default
    /// configuration (Artix-7, nominal corner, 64 KiB chunks).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is outside `1..=64`.
    pub fn with_shards(shards: usize, seed: u64) -> Self {
        Self::new(
            dhtrng_stream::EntropyStream::builder()
                .shards(shards)
                .seed(seed)
                .build(),
        )
    }
}

impl<S: ByteStream> rand::RngCore for StreamRng<S> {
    fn next_u32(&mut self) -> u32 {
        let mut bytes = [0u8; 4];
        self.fill_bytes(&mut bytes);
        u32::from_be_bytes(bytes)
    }

    fn next_u64(&mut self) -> u64 {
        let mut bytes = [0u8; 8];
        self.fill_bytes(&mut bytes);
        u64::from_be_bytes(bytes)
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.stream
            .read(dest)
            .expect("entropy stream failed terminally");
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.stream.read(dest).map_err(rand::Error::new)
    }
}

/// The README's code blocks, compiled and run as doctests so the
/// quickstart can never drift from the real API (CI's doc job runs
/// `cargo test --doc --workspace`).
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
mod readme_doctests {}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_wires_the_stack_together() {
        let mut trng = DhTrng::builder().seed(3).build();
        let bits: BitBuffer = (0..10_000).map(|_| trng.next_bit()).collect();
        assert_eq!(bits.len(), 10_000);
        assert!(min_entropy_mcv(&bits) > 0.9);
    }

    #[test]
    fn stream_rng_adapter_drives_the_rand_ecosystem() {
        use rand::{Rng, RngCore};
        let mut rng = StreamRng::new(
            EntropyStream::builder()
                .shards(2)
                .seed(11)
                .chunk_bytes(1024)
                .build(),
        );
        let mut key = [0u8; 32];
        rng.fill_bytes(&mut key);
        assert!(key.iter().any(|&b| b != 0));
        let sample: u64 = rng.gen_range(0..1000);
        assert!(sample < 1000);
        assert!(rng.try_fill_bytes(&mut key).is_ok());
        assert_eq!(rng.stream().shards(), 2);
        assert_eq!(rng.stream().bytes_delivered(), 32 + 32 + 8);
    }

    #[test]
    fn stream_rng_words_match_raw_stream_bytes() {
        use rand::RngCore;
        let mut words = StreamRng::with_shards(2, 21);
        let mut raw = EntropyStream::builder().shards(2).seed(21).build();
        let mut bytes = [0u8; 12];
        raw.read(&mut bytes).unwrap();
        assert_eq!(
            words.next_u64(),
            u64::from_be_bytes(bytes[..8].try_into().unwrap())
        );
        assert_eq!(
            words.next_u32(),
            u32::from_be_bytes(bytes[8..].try_into().unwrap())
        );
    }

    #[test]
    fn stream_rng_serves_sessions_at_all_three_tiers() {
        use rand::{Rng, RngCore};
        let source = EntropySource::builder()
            .shards(2)
            .seed(13)
            .chunk_bytes(1024)
            .build()
            .expect("valid configuration");
        for tier in [Tier::Raw, Tier::Conditioned, Tier::Drbg] {
            let mut rng = StreamRng::new(source.session(tier));
            assert_eq!(rng.stream().tier(), tier);
            let mut key = [0u8; 32];
            rng.fill_bytes(&mut key);
            assert!(key.iter().any(|&b| b != 0), "{tier:?}");
            let die: u8 = rng.gen_range(1..=6);
            assert!((1..=6).contains(&die));
        }
    }

    #[test]
    fn raw_session_matches_the_engine_stream() {
        use rand::RngCore;
        let mut session = StreamRng::new(
            EntropySource::builder()
                .shards(2)
                .seed(21)
                .build()
                .expect("valid configuration")
                .session(Tier::Raw),
        );
        let mut direct = StreamRng::with_shards(2, 21);
        let mut a = [0u8; 64];
        let mut b = [0u8; 64];
        session.fill_bytes(&mut a);
        direct.fill_bytes(&mut b);
        assert_eq!(a, b, "the raw tier is the engine stream itself");
    }

    #[test]
    fn stream_rng_surfaces_session_errors_through_try_fill() {
        use rand::RngCore;
        let source = EntropySource::builder()
            .shards(1)
            .seed(3)
            .chunk_bytes(256)
            .health(HealthConfig {
                rct_cutoff: 2,
                apt_window: 64,
                apt_cutoff: 64,
            })
            .max_consecutive_restarts(2)
            .build()
            .expect("valid configuration");
        let mut rng = StreamRng::new(source.session(Tier::Drbg));
        let mut buf = [0u8; 16];
        assert!(rng.try_fill_bytes(&mut buf).is_err());
    }
}

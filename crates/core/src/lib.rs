//! DH-TRNG: the dynamic hybrid true random number generator of
//! Zhang/Zhong/Zhang (DAC 2024), as a behavioural reproduction.
//!
//! The crate implements the paper's contribution at two levels:
//!
//! * a **gate-level netlist** ([`architecture`]) — the exact circuit of
//!   Figures 3–5 (hybrid entropy units, nested coupling XOR rings,
//!   feedback line, 12-tap sampling array) emitted for the event-driven
//!   simulator in [`dhtrng_sim`], with the paper's resource footprint of
//!   23 LUTs + 4 MUXes + 14 DFFs;
//! * a **fast calibrated stochastic model** ([`trng::DhTrng`]) — a
//!   cycle-accurate behavioural generator whose per-sample randomness
//!   follows the paper's Eq. 5 coverage structure (jitter-window hits,
//!   subthreshold locks, metastable captures) and whose residual bias is
//!   calibrated against the paper's silicon measurements; this is what
//!   produces the megabit bitstreams the evaluation batteries consume.
//!
//! Around the generator sit the SP 800-90C output stages: continuous
//! [`health`] tests, the composable [`conditioning`] layer, and the
//! [`drbg`] output stage — see `DESIGN.md` §6 for how the boxes map
//! onto the spec's source → health → conditioner → DRBG chain. The
//! [`kernel`] module supplies the stage-graph vocabulary
//! ([`BlockSource`] / [`Stage`] over borrowed [`BitBlock`]s) that lets
//! the streaming engine drive those stages over recycled buffers with
//! no intermediate re-buffering (`DESIGN.md` §7).
//!
//! See `DESIGN.md` at the workspace root for the calibration notes and
//! the experiment index.
//!
//! # Example
//!
//! ```
//! use dhtrng_core::{DhTrng, Trng};
//!
//! let mut trng = DhTrng::builder().seed(42).build();
//! let mut key = [0u8; 32];
//! trng.fill_bytes(&mut key);
//! assert_ne!(key, [0u8; 32]); // all-zero key is (astronomically) unlikely
//! // One bit per sampling-clock cycle, ~620 Mbps on the default Artix-7.
//! assert!(trng.throughput_mbps() > 600.0);
//! ```

#![deny(missing_docs)]
// `deny`, not `forbid`: the AVX2 dispatch of the scalar and bit-sliced
// kernels needs narrowly-scoped `#[allow(unsafe_code)]` items (in
// `batch`, the `avx2` module of `core::arch` code and its
// feature-checked call site; in `slice`, one `target_feature` function
// and its call site); everything else stays unsafe-free and any new
// unsafe is still a hard error.
#![deny(unsafe_code)]

pub mod architecture;
pub mod array;
pub mod batch;
pub mod conditioning;
pub mod drbg;
pub mod health;
pub mod kernel;
pub mod model;
mod simd;
pub mod slice;
pub mod telemetry;
pub mod trng;

pub use architecture::{dh_trng_netlist, entropy_unit_netlist, EntropyUnitPorts, NetlistPorts};
pub use array::DhTrngArray;
pub use batch::{BlockKernel, KernelError, MAX_BEATS};
pub use conditioning::{Conditioned, Conditioner, CrcWhitener, VonNeumannConditioner, XorFold};
pub use drbg::{Drbg, DrbgConfig, HashDrbg};
pub use health::{HealthMonitor, HealthStatus};
pub use kernel::{BitBlock, BlockSource, ConditionerStage, Stage};
pub use model::{
    eq3_xor_expectation, eq4_xor_expectation_n, eq5_randomness_coverage, RingCoverage,
};
pub use slice::{Lane, SliceError, SlicedDhTrng, SlicedKernel, MAX_LANES};
pub use telemetry::{
    MetricsHandle, NoopRecorder, Recorder, ShardSnapshot, Snapshot, StageEvent, TraceEvent, Tracer,
};
pub use trng::{DhTrng, DhTrngBuilder, DhTrngConfig, HybridUnitGroup, Trng};

//! Runtime choice between the portable and the AVX2 compilation of the
//! generation kernels.
//!
//! The scalar [`BlockKernel`](crate::batch::BlockKernel) and the
//! bit-sliced [`SlicedKernel`](crate::slice::SlicedKernel) each compile
//! one safe-Rust body twice: as is, and under
//! `#[target_feature(enable = "avx2")]` on x86-64. The two compilations
//! compute the same thing; the AVX2 one only licenses the autovectoriser
//! to use 256-bit registers. [`Backend::detected`] picks one per process:
//! AVX2 when the CPU has it, unless `DHTRNG_SIMD=portable` pins the
//! portable body (to cross-check the dispatch; the output is identical
//! either way).

use std::sync::OnceLock;

/// Which compilation of a kernel body to dispatch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Backend {
    /// Safe portable body (every target; also the `DHTRNG_SIMD=portable`
    /// override).
    Portable,
    /// The same body compiled under `#[target_feature(enable = "avx2")]`
    /// (x86-64 with runtime-detected AVX2 only).
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Backend {
    /// The backend for this process, detected once and cached: kernels
    /// are built on every `fill_bytes` call, and reading the environment
    /// allocates, so the steady-state path must not repeat it.
    pub(crate) fn detected() -> Backend {
        static DETECTED: OnceLock<Backend> = OnceLock::new();
        *DETECTED.get_or_init(Self::detect)
    }

    fn detect() -> Backend {
        if std::env::var("DHTRNG_SIMD").ok().as_deref() == Some("portable") {
            return Backend::Portable;
        }
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                return Backend::Avx2;
            }
        }
        Backend::Portable
    }

    /// `"avx2"` or `"portable"`, for diagnostics and bench reports.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Backend::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => "avx2",
        }
    }
}

//! The sharded streaming engine: builder, executor-backed merged
//! stream, statistics.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dhtrng_core::telemetry::{MetricsHandle, NoopRecorder, Recorder, Telemetry};
use dhtrng_core::{DhTrng, DhTrngConfig, SlicedDhTrng};
use dhtrng_fpga::Placement;

use crate::affinity::{self, AffinityPolicy};
use crate::error::{ConfigError, Error};
use crate::exec::{Executor, ShardLink};
use crate::ring;
use crate::shard::{HealthConfig, ShardMessage, ShardWorker};
use crate::sliced::{LaneLink, SlicedBankWorker};

/// Horizontal slice pitch between neighbouring shard placement regions
/// (the 8-slice core packs into a 3x3 bounding box; pitch 4 leaves a
/// routing channel between instances, as the paper's Fig. 5 layout does).
const PLACEMENT_PITCH: u32 = 4;

/// Pool buffers per shard beyond the queue depth: one being filled by
/// the worker, one being drained by the consumer.
const POOL_SLACK: usize = 2;

/// Which generation kernel the shard producers run on.
///
/// Both kernels produce the **same merged stream** for the same
/// configuration — the choice is purely a throughput/topology decision,
/// and the CI kernel-matrix runs the full equivalence suites under each
/// forced value to keep it that way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelKind {
    /// Resolve at build time: the `DHTRNG_KERNEL` environment variable
    /// (`scalar` / `sliced` / `auto`) if set, otherwise the
    /// [`cost_model`](Self::cost_model) over the shard count and the
    /// host's available parallelism. The environment override is
    /// only consulted from `Auto`, so explicit builder settings always
    /// win (which is what lets the equivalence tests force one side
    /// while CI forces the other globally).
    #[default]
    Auto,
    /// One scalar [`DhTrng`] worker thread per shard (the pre-slicing
    /// topology).
    Scalar,
    /// All shards as lanes of one bit-sliced [`SlicedDhTrng`] bank,
    /// produced by a single worker thread (the SIMD-friendly topology;
    /// see `DESIGN.md` §9).
    Sliced,
}

impl KernelKind {
    /// The kernel [`Auto`](Self::Auto) resolves to (absent a
    /// `DHTRNG_KERNEL` override) for a given shard count on a host with
    /// `host_cpus` usable CPUs: always [`Scalar`](Self::Scalar).
    ///
    /// The sliced bank runs all `shards` lanes on **one** core, so it
    /// could only win where its cost per lane-bit drops below one
    /// scalar bit. Measured on one x86-64 CPU at 2 to 64 lanes, it
    /// never does: per lane-bit the bank costs 1.25–7.4 scalar bits
    /// with both kernels on their AVX2 bodies and 1.5–5.3 on their
    /// portable ones, so one scalar core beats it at every bank size
    /// and more cores only widen the gap.
    /// `DESIGN.md` §10 has the numbers.
    ///
    /// It keeps its arguments so the bench report and perfbench can log
    /// the decision with its inputs.
    pub fn cost_model(shards: usize, host_cpus: usize) -> KernelKind {
        let _ = (shards, host_cpus);
        KernelKind::Scalar
    }
}

/// Configures and builds an [`EntropyStream`].
///
/// Obtained via [`EntropyStream::builder`]; every knob has a production
/// default (4 shards, 64 KiB chunks, a 4-chunk buffer per shard, the
/// SP 800-90B health cutoffs).
#[derive(Debug, Clone)]
pub struct EntropyStreamBuilder {
    config: DhTrngConfig,
    shards: usize,
    seed: u64,
    shard_seeds: Option<Vec<u64>>,
    chunk_bytes: usize,
    queue_chunks: usize,
    health: HealthConfig,
    max_consecutive_restarts: u32,
    injected_failures: Vec<(usize, u64)>,
    kernel: KernelKind,
    affinity: AffinityPolicy,
    recorder: Option<Arc<dyn Recorder>>,
}

impl Default for EntropyStreamBuilder {
    fn default() -> Self {
        Self {
            config: DhTrngConfig::default(),
            shards: 4,
            seed: 0,
            shard_seeds: None,
            chunk_bytes: 64 * 1024,
            queue_chunks: 4,
            health: HealthConfig::default(),
            max_consecutive_restarts: 16,
            injected_failures: Vec::new(),
            kernel: KernelKind::Auto,
            affinity: AffinityPolicy::Disabled,
            recorder: None,
        }
    }
}

impl EntropyStreamBuilder {
    /// Number of parallel DH-TRNG instances (1..=64).
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Master seed; each shard derives an independent instance seed from
    /// it (same golden-ratio schedule as
    /// [`DhTrngArray::new`](dhtrng_core::DhTrngArray::new)).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Explicit per-shard seed schedule, overriding the derivation from
    /// [`seed`](Self::seed). Length must equal the shard count at
    /// [`build`](Self::build) time.
    #[must_use]
    pub fn shard_seeds(mut self, seeds: Vec<u64>) -> Self {
        self.shard_seeds = Some(seeds);
        self
    }

    /// Base instance configuration (device, corner, coupling/feedback,
    /// sampling clock); the per-shard seed overrides its `seed` field.
    #[must_use]
    pub fn config(mut self, config: DhTrngConfig) -> Self {
        self.config = config;
        self
    }

    /// Bytes per produced chunk (the merge granularity).
    #[must_use]
    pub fn chunk_bytes(mut self, bytes: usize) -> Self {
        self.chunk_bytes = bytes;
        self
    }

    /// Chunks buffered per shard before its worker blocks
    /// (backpressure). Each shard's buffer pool holds this many chunks
    /// plus two (one in flight at the worker, one at the consumer).
    #[must_use]
    pub fn queue_chunks(mut self, chunks: usize) -> Self {
        self.queue_chunks = chunks;
        self
    }

    /// Health-test cutoffs applied per shard.
    #[must_use]
    pub fn health(mut self, health: HealthConfig) -> Self {
        self.health = health;
        self
    }

    /// Consecutive restarts a shard may burn on one chunk before it
    /// reports [`Error::ShardFailed`].
    #[must_use]
    pub fn max_consecutive_restarts(mut self, restarts: u32) -> Self {
        self.max_consecutive_restarts = restarts;
        self
    }

    /// Deterministic fault injection: `shard` retires (reports
    /// [`Error::ShardFailed`] with zero restarts) after producing
    /// exactly `chunks` healthy chunks.
    ///
    /// The retirement is a pure function of the chunk count, never of
    /// thread timing, so tests and fail-over drills can pin the exact
    /// merged prefix the consumer sees before the error — see the
    /// shard-retirement contract on [`EntropyStream::read`]. Calling
    /// this for the same shard twice keeps the smaller budget.
    #[must_use]
    pub fn inject_shard_failure(mut self, shard: usize, chunks: u64) -> Self {
        self.injected_failures.push((shard, chunks));
        self
    }

    /// Which generation kernel drives the shards (default
    /// [`KernelKind::Auto`]). Both kernels produce the same merged
    /// stream; see [`KernelKind`] for the resolution rules.
    #[must_use]
    pub fn kernel(mut self, kernel: KernelKind) -> Self {
        self.kernel = kernel;
        self
    }

    /// How worker threads are placed onto CPU cores (default
    /// [`AffinityPolicy::Disabled`]). Best-effort and purely a
    /// throughput knob: the merged stream is identical either way, and
    /// a pin the OS refuses is simply skipped —
    /// [`EntropyStream::affinity_pins`] reports how many took effect.
    #[must_use]
    pub fn core_affinity(mut self, policy: AffinityPolicy) -> Self {
        self.affinity = policy;
        self
    }

    /// Plug an event [`Recorder`] (for example a
    /// [`Tracer`](dhtrng_core::telemetry::Tracer)) that receives every
    /// [`StageEvent`](dhtrng_core::telemetry::StageEvent) the stream's
    /// stages emit. The default is the no-op recorder; the always-on
    /// counters behind [`EntropyStream::metrics`] run either way.
    #[must_use]
    pub fn recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// The per-shard seed the golden-ratio schedule derives from a
    /// master `seed` for shard `index` — a pure function of the index,
    /// never of spawn order, so the seed schedule (and therefore the
    /// merged stream) is identical regardless of how worker threads
    /// interleave at build time. Public so tests and tools can pin the
    /// schedule without building a stream.
    pub fn derive_shard_seed(seed: u64, index: u64) -> u64 {
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(index)
    }

    /// The kernel [`spawn`](Self::spawn) will run with: the builder's
    /// explicit setting, or — from [`KernelKind::Auto`] only — the
    /// `DHTRNG_KERNEL` environment override, falling back to the
    /// [`KernelKind::cost_model`] over the shard count and the host's
    /// available parallelism.
    fn resolved_kernel(&self) -> KernelKind {
        let requested = match self.kernel {
            KernelKind::Auto => match std::env::var("DHTRNG_KERNEL").ok().as_deref() {
                Some("scalar") => KernelKind::Scalar,
                Some("sliced") => KernelKind::Sliced,
                _ => KernelKind::Auto,
            },
            explicit => explicit,
        };
        match requested {
            KernelKind::Auto => KernelKind::cost_model(self.shards, affinity::host_cpus()),
            explicit => explicit,
        }
    }

    /// Checks the invariants [`build`](Self::build) would otherwise
    /// panic on — the validation path for untrusted configuration.
    ///
    /// # Errors
    ///
    /// The first violated invariant, as a typed [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(1..=64).contains(&self.shards) {
            return Err(ConfigError::Shards { got: self.shards });
        }
        if self.chunk_bytes == 0 {
            return Err(ConfigError::ChunkBytes);
        }
        if self.queue_chunks == 0 {
            return Err(ConfigError::QueueChunks);
        }
        for &(shard, _) in &self.injected_failures {
            if shard >= self.shards {
                return Err(ConfigError::InjectedShard {
                    shard,
                    shards: self.shards,
                });
            }
        }
        if let Some(seeds) = &self.shard_seeds {
            if seeds.len() != self.shards {
                return Err(ConfigError::SeedSchedule {
                    expected: self.shards,
                    got: seeds.len(),
                });
            }
        }
        self.health.validate()
    }

    /// Spawns the shard workers and returns the merged stream,
    /// rejecting invalid configuration with a typed error instead of a
    /// panic — the path for configuration parsed from untrusted input.
    ///
    /// # Errors
    ///
    /// See [`validate`](Self::validate).
    ///
    /// # Panics
    ///
    /// Panics only if a worker thread cannot be spawned.
    pub fn try_build(self) -> Result<EntropyStream, ConfigError> {
        self.validate()?;
        Ok(self.spawn())
    }

    /// Spawns the shard workers and returns the merged stream.
    ///
    /// # Panics
    ///
    /// Panics if the shard count is outside `1..=64`, `chunk_bytes` or
    /// `queue_chunks` is zero, an explicit seed schedule has the wrong
    /// length, an injected failure names an out-of-range shard, the
    /// health cutoffs are invalid, or a worker thread cannot be
    /// spawned. [`try_build`](Self::try_build) reports the same
    /// violations as typed errors instead.
    pub fn build(self) -> EntropyStream {
        if let Err(error) = self.validate() {
            panic!("{error}");
        }
        self.spawn()
    }

    /// The post-validation construction: derives the seed schedule,
    /// wires one SPSC ring pair per shard, pre-fills each buffer pool,
    /// and spawns the producers of the resolved kernel — one scalar
    /// worker thread per shard, or one sliced bank thread driving every
    /// shard as a lane. The consumer-facing wiring (and therefore the
    /// merged stream) is identical either way.
    fn spawn(self) -> EntropyStream {
        let kernel = self.resolved_kernel();
        let host_cpus = affinity::host_cpus();
        let affinity_pins = Arc::new(AtomicU64::new(0));
        // One telemetry block per stream, shared by every stage: the
        // plugged recorder (or the no-op default) sees every event, the
        // counters are always on.
        let recorder: Arc<dyn Recorder> = self
            .recorder
            .clone()
            .unwrap_or_else(|| Arc::new(NoopRecorder));
        let telemetry = Arc::new(Telemetry::new(self.shards, recorder));
        let (ring_parks, ring_wakes) = telemetry.ring_wait_counters();
        let seeds: Vec<u64> = match &self.shard_seeds {
            Some(seeds) => seeds.clone(),
            None => (0..self.shards as u64)
                .map(|i| EntropyStreamBuilder::derive_shard_seed(self.seed, i))
                .collect(),
        };

        let buffers_per_shard = self.queue_chunks + POOL_SLACK;
        let mut links = Vec::with_capacity(self.shards);
        let mut workers = Vec::with_capacity(self.shards);
        let mut restarts = Vec::with_capacity(self.shards);
        let mut placements = Vec::with_capacity(self.shards);
        let mut modeled_mbps = 0.0;
        // Sliced mode accumulators: shard i becomes lane i of one bank.
        let mut instances = Vec::new();
        let mut lane_links = Vec::new();
        for (shard, &seed) in seeds.iter().enumerate() {
            let mut cfg = self.config.clone();
            cfg.seed = seed;
            let trng = DhTrng::new(cfg);
            // Each instance occupies its own placement region, as in the
            // paper's parallel deployment: disjoint compact squares along
            // a row of the fabric.
            placements.push(trng.placement((shard as u32 * PLACEMENT_PITCH, 0)));
            modeled_mbps += trng.throughput_mbps();
            let counter = Arc::new(AtomicU64::new(0));
            restarts.push(Arc::clone(&counter));
            // The data ring buffers `queue_chunks` produced chunks
            // (rounded up to a power of two) before the worker blocks.
            // Every ring shares the stream-wide park/wake tallies.
            let (tx, rx) = ring::spsc_with_wait_counters::<ShardMessage>(
                self.queue_chunks,
                Arc::clone(&ring_parks),
                Arc::clone(&ring_wakes),
            );
            // The shard's buffer pool: created once, recycled forever
            // over the return ring. Its capacity covers every buffer the
            // shard owns, so returning one never blocks.
            let (mut pool_tx, pool_rx) = ring::spsc_with_wait_counters::<Vec<u8>>(
                buffers_per_shard,
                Arc::clone(&ring_parks),
                Arc::clone(&ring_wakes),
            );
            for _ in 0..buffers_per_shard {
                pool_tx
                    .try_push(Vec::with_capacity(self.chunk_bytes))
                    .expect("pool ring sized for every buffer");
            }
            let fail_after_chunks = self
                .injected_failures
                .iter()
                .filter(|&&(s, _)| s == shard)
                .map(|&(_, chunks)| chunks)
                .min();
            match kernel {
                KernelKind::Sliced => {
                    instances.push(trng);
                    lane_links.push(LaneLink {
                        tx,
                        pool: pool_rx,
                        restarts: counter,
                        fail_after_chunks,
                    });
                }
                _ => {
                    let worker = ShardWorker {
                        shard,
                        trng,
                        health: self.health,
                        chunk_bytes: self.chunk_bytes,
                        max_consecutive_restarts: self.max_consecutive_restarts,
                        restarts: counter,
                        pool: pool_rx,
                        fail_after_chunks,
                        telemetry: Arc::clone(&telemetry),
                    };
                    let pin = self.affinity.core_for_worker(shard, host_cpus);
                    let pins = Arc::clone(&affinity_pins);
                    let handle = std::thread::Builder::new()
                        .name(format!("dhtrng-shard-{shard}"))
                        .spawn(move || {
                            if let Some(cpu) = pin {
                                if affinity::pin_current_thread(cpu) {
                                    pins.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            worker.run(tx)
                        })
                        .expect("spawn shard worker thread");
                    workers.push(handle);
                }
            }
            links.push(ShardLink {
                data: rx,
                pool: pool_tx,
            });
        }
        if kernel == KernelKind::Sliced {
            let worker = SlicedBankWorker {
                bank: SlicedDhTrng::new(instances)
                    .expect("validated shard count fits the lane capacity"),
                health: self.health,
                chunk_bytes: self.chunk_bytes,
                max_consecutive_restarts: self.max_consecutive_restarts,
                lanes: lane_links,
                telemetry: Arc::clone(&telemetry),
            };
            // The bank is one thread driving every lane: worker index 0.
            let pin = self.affinity.core_for_worker(0, host_cpus);
            let pins = Arc::clone(&affinity_pins);
            let handle = std::thread::Builder::new()
                .name("dhtrng-sliced-bank".to_string())
                .spawn(move || {
                    if let Some(cpu) = pin {
                        if affinity::pin_current_thread(cpu) {
                            pins.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    worker.run()
                })
                .expect("spawn sliced bank worker thread");
            workers.push(handle);
        }

        EntropyStream {
            exec: Executor::new(links, workers, self.shards * buffers_per_shard, telemetry),
            restarts,
            placements,
            modeled_mbps,
            chunk_bytes: self.chunk_bytes,
            kernel,
            affinity_pins,
        }
    }
}

/// A consumer-facing merged entropy stream over N parallel DH-TRNG
/// shards.
///
/// Shards produce fixed-size chunks on worker threads into bounded
/// queues — each chunk in a buffer recycled through a per-shard pool,
/// so the steady-state read path performs no heap allocation (see
/// `DESIGN.md` §7). The consumer drains chunks **round-robin in shard
/// order**, so the merged byte stream is a pure function of the shard
/// seed schedule — independent of thread scheduling. Chunk `k` of the
/// stream is chunk `k / N` of shard `k % N`.
///
/// # Example
///
/// ```
/// use dhtrng_stream::EntropyStream;
///
/// let mut stream = EntropyStream::builder()
///     .shards(2)
///     .seed(7)
///     .chunk_bytes(1024)
///     .build();
/// let mut buf = [0u8; 4096];
/// stream.read(&mut buf).expect("healthy stream");
/// assert_eq!(stream.bytes_delivered(), 4096);
/// assert!(stream.throughput_mbps() > 1000.0); // 2 x ~620 Mbps modeled
/// ```
#[derive(Debug)]
pub struct EntropyStream {
    exec: Executor,
    restarts: Vec<Arc<AtomicU64>>,
    placements: Vec<Placement>,
    modeled_mbps: f64,
    chunk_bytes: usize,
    kernel: KernelKind,
    affinity_pins: Arc<AtomicU64>,
}

impl EntropyStream {
    /// Starts configuring a stream.
    pub fn builder() -> EntropyStreamBuilder {
        EntropyStreamBuilder::default()
    }

    /// Fills `out` with the next bytes of the merged stream — the
    /// pooled zero-copy read path: bytes move pool chunk → `out`, with
    /// no intermediate buffer and no allocation.
    ///
    /// Blocks while every buffered chunk of the next shard in the
    /// round-robin order is consumed and its worker is still generating.
    ///
    /// # Shard retirement
    ///
    /// A retired shard's terminal error sits in its queue position: the
    /// stream keeps delivering chunks from the other shards until the
    /// round-robin cursor reaches the retired shard's slot, then
    /// surfaces the error — so the merged prefix delivered before the
    /// failure is deterministic in the seed schedule and the failing
    /// shard's chunk count, never in thread timing. The raw tier does
    /// not roll back the bytes a failing call already wrote into `out`
    /// (a conditioned [`Session`](crate::Session) adds that contract).
    ///
    /// # Errors
    ///
    /// Returns the shard's terminal error once a shard retires; the
    /// stream stays failed from then on (bytes already delivered remain
    /// valid).
    pub fn read(&mut self, out: &mut [u8]) -> Result<(), Error> {
        self.exec.read(out)
    }

    /// Hands the unconsumed remainder of the next chunk to `f` for
    /// in-place processing in its pool buffer, then recycles the
    /// buffer. The remainder counts as delivered in full.
    ///
    /// This is the zero-copy hook the conditioning tier runs on: a
    /// [`Stage`](dhtrng_core::kernel::Stage) transforms the chunk where
    /// it sits instead of copying it out first.
    ///
    /// # Errors
    ///
    /// As [`read`](Self::read): the terminal [`Error`] once a
    /// shard retires (in which case `f` is not called).
    pub fn with_next_chunk<R>(&mut self, f: impl FnOnce(&mut [u8]) -> R) -> Result<R, Error> {
        self.exec.with_chunk(f)
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.exec.shards()
    }

    /// Chunk size (the merge granularity) in bytes.
    pub fn chunk_bytes(&self) -> usize {
        self.chunk_bytes
    }

    /// The generation kernel this stream resolved to at build time —
    /// never [`KernelKind::Auto`]; the resolution rules live on
    /// [`KernelKind`].
    pub fn kernel(&self) -> KernelKind {
        self.kernel
    }

    /// Worker threads whose core pin actually took effect (affinity is
    /// best-effort — see
    /// [`core_affinity`](EntropyStreamBuilder::core_affinity)). Always
    /// zero under [`AffinityPolicy::Disabled`], on single-CPU hosts,
    /// and on non-Linux platforms. Workers pin themselves as they start
    /// up, so this can lag thread spawn by a moment.
    pub fn affinity_pins(&self) -> u64 {
        self.affinity_pins.load(Ordering::Relaxed)
    }

    /// A cloneable handle over the stream's always-on telemetry
    /// counters: per-shard production/health/restart tallies, merge and
    /// delivery totals, ring park/wake counts. The handle stays valid
    /// (counters frozen) after the stream fails or is dropped.
    pub fn metrics(&self) -> MetricsHandle {
        MetricsHandle::new(Arc::clone(self.exec.telemetry()))
    }

    /// The shared telemetry block, for sibling layers (the session API)
    /// that record events of their own into the same stream.
    pub(crate) fn telemetry(&self) -> Arc<Telemetry> {
        Arc::clone(self.exec.telemetry())
    }

    /// Total bytes handed to consumers so far.
    pub fn bytes_delivered(&self) -> u64 {
        self.exec.bytes_delivered()
    }

    /// Total shard restarts triggered by health-test failures.
    pub fn restarts(&self) -> u64 {
        self.restarts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Restarts of one shard.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard_restarts(&self, shard: usize) -> u64 {
        self.restarts[shard].load(Ordering::Relaxed)
    }

    /// Chunk buffers created for the recycled pool — a pure function of
    /// the configuration (`shards x (queue_chunks + 2)`); the pool
    /// never grows after build, which is what makes the steady-state
    /// read path allocation-free.
    pub fn pool_buffers(&self) -> usize {
        self.exec.buffers_created()
    }

    /// The modeled aggregate hardware throughput: the sum of every
    /// shard's sampling clock (one bit per cycle), i.e. `N x` the
    /// paper's per-instance 620/670 Mbps — the linear multi-instance
    /// scaling the deployment relies on.
    pub fn throughput_mbps(&self) -> f64 {
        self.modeled_mbps
    }

    /// Per-shard placement regions (disjoint compact squares).
    pub fn placements(&self) -> &[Placement] {
        &self.placements
    }

    /// Whether the stream has failed terminally.
    pub fn failed(&self) -> Option<Error> {
        self.exec.failed()
    }

    /// Drains any chunk already buffered without blocking (used by
    /// shutdown paths and tests; consumers normally just `read`).
    ///
    /// # Errors
    ///
    /// The terminal [`Error`] if the stream has failed (or fails
    /// on this call).
    pub fn try_refill(&mut self) -> Result<bool, Error> {
        self.exec.try_buffer()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhtrng_core::Trng;

    fn small_stream(shards: usize, seed: u64) -> EntropyStream {
        EntropyStream::builder()
            .shards(shards)
            .seed(seed)
            .chunk_bytes(512)
            .build()
    }

    #[test]
    fn merge_is_deterministic_across_runs() {
        let mut a = small_stream(4, 9);
        let mut b = small_stream(4, 9);
        let mut buf_a = vec![0u8; 8192];
        let mut buf_b = vec![0u8; 8192];
        a.read(&mut buf_a).unwrap();
        b.read(&mut buf_b).unwrap();
        assert_eq!(buf_a, buf_b, "same seeds, same merged stream");
        let mut c = small_stream(4, 10);
        let mut buf_c = vec![0u8; 8192];
        c.read(&mut buf_c).unwrap();
        assert_ne!(buf_a, buf_c, "different master seed, different stream");
    }

    #[test]
    fn merge_interleaves_shard_streams_round_robin() {
        let seeds = vec![101, 202, 303];
        let chunk = 256usize;
        let mut stream = EntropyStream::builder()
            .shards(3)
            .shard_seeds(seeds.clone())
            .chunk_bytes(chunk)
            .build();
        let mut merged = vec![0u8; chunk * 6];
        stream.read(&mut merged).unwrap();

        // Reference: each shard is a plain DhTrng on its schedule seed;
        // chunk k of the merge is chunk k/3 of shard k%3.
        let mut reference = Vec::new();
        let mut shard_trngs: Vec<DhTrng> = seeds
            .iter()
            .map(|&seed| {
                DhTrng::new(DhTrngConfig {
                    seed,
                    ..DhTrngConfig::default()
                })
            })
            .collect();
        for k in 0..6 {
            let mut part = vec![0u8; chunk];
            shard_trngs[k % 3].fill_bytes(&mut part);
            reference.extend_from_slice(&part);
        }
        assert_eq!(merged, reference);
    }

    #[test]
    fn unaligned_reads_see_the_same_stream() {
        let mut aligned = small_stream(2, 5);
        let mut unaligned = small_stream(2, 5);
        let mut whole = vec![0u8; 3000];
        aligned.read(&mut whole).unwrap();
        let mut pieces = Vec::new();
        for size in [1usize, 7, 300, 513, 2179] {
            let mut piece = vec![0u8; size];
            unaligned.read(&mut piece).unwrap();
            pieces.extend_from_slice(&piece);
        }
        assert_eq!(pieces, whole);
        assert_eq!(unaligned.bytes_delivered(), 3000);
    }

    #[test]
    fn with_next_chunk_walks_the_same_stream_as_read() {
        let mut by_read = small_stream(2, 12);
        let mut by_chunk = small_stream(2, 12);
        let mut expect = vec![0u8; 512 * 4];
        by_read.read(&mut expect).unwrap();
        let mut got = Vec::new();
        for _ in 0..4 {
            by_chunk
                .with_next_chunk(|chunk| got.extend_from_slice(chunk))
                .unwrap();
        }
        assert_eq!(got, expect);
        assert_eq!(by_chunk.bytes_delivered(), 512 * 4);
        // Mixing: a partial read, then the chunk remainder.
        let mut mixed = small_stream(2, 12);
        let mut head = vec![0u8; 100];
        mixed.read(&mut head).unwrap();
        assert_eq!(head[..], expect[..100]);
        let rest = mixed
            .with_next_chunk(|chunk| chunk.to_vec())
            .expect("healthy");
        assert_eq!(rest[..], expect[100..512]);
    }

    #[test]
    fn impossible_health_cutoffs_fail_the_stream_gracefully() {
        // RCT cutoff 2 trips on any repeated bit, i.e. on every chunk:
        // the shard burns its restart budget and retires; read errors.
        let mut stream = EntropyStream::builder()
            .shards(2)
            .seed(1)
            .chunk_bytes(256)
            .health(HealthConfig {
                rct_cutoff: 2,
                apt_window: 64,
                apt_cutoff: 64,
            })
            .max_consecutive_restarts(3)
            .build();
        let mut buf = vec![0u8; 1024];
        let err = stream.read(&mut buf).unwrap_err();
        assert_eq!(
            err,
            Error::ShardFailed {
                shard: 0,
                consecutive_restarts: 3
            }
        );
        // The failure is sticky.
        assert_eq!(stream.read(&mut buf).unwrap_err(), err);
        assert_eq!(stream.failed(), Some(err));
        assert!(stream.restarts() >= 3);
    }

    #[test]
    fn injected_failure_retires_the_shard_deterministically() {
        let make = || {
            EntropyStream::builder()
                .shards(2)
                .seed(4)
                .chunk_bytes(256)
                .inject_shard_failure(1, 3)
                .build()
        };
        // Shard 1 produces exactly 3 chunks; the merge delivers rounds
        // 0..3 in full plus shard 0's chunk of round 3, then errors at
        // shard 1's slot.
        let mut stream = make();
        let mut buf = vec![0u8; 7 * 256];
        stream.read(&mut buf).expect("prefix is healthy");
        let err = stream.read(&mut [0u8; 1]).unwrap_err();
        assert_eq!(
            err,
            Error::ShardFailed {
                shard: 1,
                consecutive_restarts: 0
            }
        );
        // The prefix matches the healthy stream bit for bit.
        let mut healthy = EntropyStream::builder()
            .shards(2)
            .seed(4)
            .chunk_bytes(256)
            .build();
        let mut expect = vec![0u8; 7 * 256];
        healthy.read(&mut expect).unwrap();
        assert_eq!(buf, expect);
    }

    #[test]
    fn pool_is_sized_by_configuration() {
        let stream = EntropyStream::builder()
            .shards(3)
            .seed(1)
            .chunk_bytes(128)
            .queue_chunks(2)
            .build();
        assert_eq!(stream.pool_buffers(), 3 * (2 + 2));
    }

    #[test]
    fn modeled_throughput_scales_linearly() {
        let one = small_stream(1, 3);
        let four = small_stream(4, 3);
        assert!((four.throughput_mbps() / one.throughput_mbps() - 4.0).abs() < 1e-9);
        assert_eq!(four.shards(), 4);
    }

    #[test]
    fn placements_are_disjoint_regions() {
        let stream = small_stream(4, 8);
        let placements = stream.placements();
        assert_eq!(placements.len(), 4);
        for pair in placements.windows(2) {
            let (a, b) = (pair[0].origin(), pair[1].origin());
            assert!(b.x >= a.x + 4, "regions overlap: {a:?} vs {b:?}");
        }
    }

    #[test]
    fn sliced_and_scalar_kernels_produce_the_same_merged_stream() {
        let make = |kernel: KernelKind| {
            EntropyStream::builder()
                .shards(3)
                .seed(21)
                .chunk_bytes(512)
                .kernel(kernel)
                .build()
        };
        let mut scalar = make(KernelKind::Scalar);
        let mut sliced = make(KernelKind::Sliced);
        assert_eq!(scalar.kernel(), KernelKind::Scalar);
        assert_eq!(sliced.kernel(), KernelKind::Sliced);
        let mut buf_scalar = vec![0u8; 512 * 9];
        let mut buf_sliced = vec![0u8; 512 * 9];
        scalar.read(&mut buf_scalar).unwrap();
        sliced.read(&mut buf_sliced).unwrap();
        assert_eq!(buf_scalar, buf_sliced);
        assert_eq!(sliced.pool_buffers(), scalar.pool_buffers());
    }

    #[test]
    fn auto_kernel_resolution_honours_env_then_cost_model() {
        // Explicit settings always win, regardless of environment.
        let explicit = EntropyStream::builder()
            .shards(4)
            .chunk_bytes(64)
            .kernel(KernelKind::Scalar)
            .build();
        assert_eq!(explicit.kernel(), KernelKind::Scalar);
        // Auto defers to DHTRNG_KERNEL (the CI kernel-matrix forces it),
        // then to the cost model over the real host parallelism.
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let expected = |shards: usize| match std::env::var("DHTRNG_KERNEL").as_deref() {
            Ok("scalar") => KernelKind::Scalar,
            Ok("sliced") => KernelKind::Sliced,
            _ => KernelKind::cost_model(shards, cpus),
        };
        let auto_one = EntropyStream::builder().shards(1).chunk_bytes(64).build();
        assert_eq!(auto_one.kernel(), expected(1));
        let auto_four = EntropyStream::builder().shards(4).chunk_bytes(64).build();
        assert_eq!(auto_four.kernel(), expected(4));
    }

    #[test]
    fn cost_model_resolves_every_host_to_scalar() {
        // The sliced bank loses to one scalar core at every measured
        // bank size, so neither the shard count nor the host's cores
        // can make it win.
        for shards in [1, 2, 4, 8, 16, 31, 32, 64] {
            for cpus in [0, 1, 2, 4, 16] {
                assert_eq!(KernelKind::cost_model(shards, cpus), KernelKind::Scalar);
            }
        }
    }

    #[test]
    fn shard_seed_derivation_is_a_pure_function_of_the_index() {
        // The blind spot this pins: seeds must never depend on the
        // order shards are set up in, only on (master seed, index).
        let master = 0xDEAD_BEEF_u64;
        let forward: Vec<u64> = (0..8)
            .map(|i| EntropyStreamBuilder::derive_shard_seed(master, i))
            .collect();
        let mut reversed: Vec<u64> = (0..8)
            .rev()
            .map(|i| EntropyStreamBuilder::derive_shard_seed(master, i))
            .collect();
        reversed.reverse();
        assert_eq!(forward, reversed);
        // And the builder's implicit schedule is exactly this function:
        // a stream with explicit derived seeds matches a master-seeded one.
        let mut implicit = EntropyStream::builder()
            .shards(3)
            .seed(master)
            .chunk_bytes(256)
            .build();
        let mut explicit = EntropyStream::builder()
            .shards(3)
            .shard_seeds(
                (0..3)
                    .map(|i| EntropyStreamBuilder::derive_shard_seed(master, i))
                    .collect(),
            )
            .chunk_bytes(256)
            .build();
        let mut buf_a = vec![0u8; 1536];
        let mut buf_b = vec![0u8; 1536];
        implicit.read(&mut buf_a).unwrap();
        explicit.read(&mut buf_b).unwrap();
        assert_eq!(buf_a, buf_b);
    }

    #[test]
    fn core_affinity_does_not_change_the_merged_stream() {
        let make = |policy: AffinityPolicy| {
            EntropyStream::builder()
                .shards(2)
                .seed(33)
                .chunk_bytes(512)
                .core_affinity(policy)
                .build()
        };
        let mut pinned = make(AffinityPolicy::PerShard);
        let mut unpinned = make(AffinityPolicy::Disabled);
        let mut buf_a = vec![0u8; 4096];
        let mut buf_b = vec![0u8; 4096];
        pinned.read(&mut buf_a).unwrap();
        unpinned.read(&mut buf_b).unwrap();
        assert_eq!(buf_a, buf_b);
        // Disabled never pins; PerShard is best-effort (0 is legal on
        // 1-CPU or sandboxed hosts, never more than one per worker).
        assert_eq!(unpinned.affinity_pins(), 0);
        assert!(pinned.affinity_pins() <= 2);
    }

    #[test]
    fn sliced_impossible_health_cutoffs_fail_the_stream_gracefully() {
        // The sliced bank must surface the exact failure a scalar worker
        // would: shard 0's slot, the full restart budget burned.
        let mut stream = EntropyStream::builder()
            .shards(2)
            .seed(1)
            .chunk_bytes(256)
            .health(HealthConfig {
                rct_cutoff: 2,
                apt_window: 64,
                apt_cutoff: 64,
            })
            .max_consecutive_restarts(3)
            .kernel(KernelKind::Sliced)
            .build();
        let mut buf = vec![0u8; 1024];
        let err = stream.read(&mut buf).unwrap_err();
        assert_eq!(
            err,
            Error::ShardFailed {
                shard: 0,
                consecutive_restarts: 3
            }
        );
        assert_eq!(stream.read(&mut buf).unwrap_err(), err);
        assert!(stream.restarts() >= 3);
        assert!(stream.shard_restarts(0) >= 3);
    }

    #[test]
    fn sliced_injected_failure_matches_the_scalar_prefix() {
        // Same deterministic retirement contract as the scalar path:
        // rounds 0..3 in full, shard 0's chunk of round 3, then the
        // error at shard 1's slot — and the prefix is the same bytes.
        let mut stream = EntropyStream::builder()
            .shards(2)
            .seed(4)
            .chunk_bytes(256)
            .inject_shard_failure(1, 3)
            .kernel(KernelKind::Sliced)
            .build();
        let mut buf = vec![0u8; 7 * 256];
        stream.read(&mut buf).expect("prefix is healthy");
        let err = stream.read(&mut [0u8; 1]).unwrap_err();
        assert_eq!(
            err,
            Error::ShardFailed {
                shard: 1,
                consecutive_restarts: 0
            }
        );
        let mut healthy = EntropyStream::builder()
            .shards(2)
            .seed(4)
            .chunk_bytes(256)
            .kernel(KernelKind::Scalar)
            .build();
        let mut expect = vec![0u8; 7 * 256];
        healthy.read(&mut expect).unwrap();
        assert_eq!(buf, expect);
    }

    #[test]
    #[should_panic(expected = "seed schedule length")]
    fn mismatched_seed_schedule_panics() {
        let _ = EntropyStream::builder()
            .shards(3)
            .shard_seeds(vec![1, 2])
            .build();
    }

    #[test]
    #[should_panic(expected = "shard count")]
    fn zero_shards_panics() {
        let _ = EntropyStream::builder().shards(0).build();
    }

    #[test]
    #[should_panic(expected = "injected failure")]
    fn out_of_range_injection_panics() {
        let _ = EntropyStream::builder()
            .shards(2)
            .inject_shard_failure(2, 1)
            .build();
    }
}

//! Machine-readable performance report: `BENCH_9.json`.
//!
//! Measures the throughput numbers this repository's CI tracks per-PR
//! (see ISSUE 2 / ISSUE 4 / ISSUE 5 / ISSUE 6 / ISSUE 7 / ISSUE 8 /
//! ISSUE 9 / ISSUE 10 and `DESIGN.md` §5–§12):
//!
//! 1. **batching speedup** — the batched `Trng::fill_bytes` fast path
//!    against the per-bit `next_bit` path on the behavioural DH-TRNG
//!    model (identical bit streams, so the ratio is pure overhead
//!    removed), plus the generation kernel's dispatched SIMD backend and
//!    a `match` flag: a child run of this binary under
//!    `DHTRNG_SIMD=portable` must produce the same DH-TRNG chunk as the
//!    dispatched kernel; CI fails the job when `match` is false;
//! 2. **shard scaling** — the 4-shard [`EntropyStream`] against a
//!    single shard, both as wall-clock simulation throughput (which
//!    depends on the host's cores) and as the modeled hardware
//!    throughput (one sampling clock per instance: linear in the shard
//!    count, the paper's multi-instance deployment claim);
//! 3. **pipeline tiers** — post-conditioning throughput of the three
//!    output tiers (`raw` / `conditioned` / `drbg`) of the SP 800-90C
//!    pipeline over the same 4-shard deployment, so the cost of the
//!    conditioning stage and the expansion of the DRBG stage are
//!    tracked alongside the raw numbers (TuRaN and QUAC-TRNG both
//!    report throughput *after* conditioning — so do we);
//! 4. **allocation count** — heap allocations per steady-state
//!    raw-tier chunk read, measured process-wide under a counting
//!    global allocator. The stage-graph executor's recycled buffer
//!    pool makes this exactly 0 (also pinned by `tests/zero_alloc.rs`);
//!    any regression shows up here as a non-zero `allocs_per_read`;
//! 5. **serving latency** — the `dhtrng-serve` load generator drives a
//!    fleet of concurrent drbg client sessions (full wire round-trips
//!    through the daemon's connection state machine) over one shared
//!    4-shard source and reports per-read latency percentiles; the run
//!    must finish with zero protocol errors and zero exactly-once
//!    delivery violations or the report aborts;
//! 6. **kernel comparison** — 64 same-seeded generators evaluated by
//!    the scalar batched `BlockKernel` (sequentially, the shard
//!    worker's path) against the bit-sliced ×64 `SlicedKernel` bank
//!    (identical bytes per lane), plus which kernel `Auto` resolves
//!    to on this host and which SIMD backend the sliced kernel
//!    selected at runtime;
//! 7. **multicore scaling + hand-off cost** — raw-tier wall-clock Mbps
//!    at 1/2/4 shards for **both** kernels with `core_affinity(PerShard)`
//!    engaged, the per-chunk cost of the lock-free SPSC ring hand-off
//!    against the `std::sync::mpsc` channel it replaced, the hand-off
//!    allocation count (must be 0), and the decision `KernelKind::Auto`'s
//!    cost model takes on this host. `scaling.measured` is `true` only
//!    when `available_parallelism() > 1`: on a 1-CPU host the shard
//!    workers time-share one core, so the Mbps columns are recorded but
//!    are explicitly **not** a multicore scaling measurement;
//! 8. **telemetry overhead** — ns per steady-state raw-tier chunk read
//!    with the stage-event recorder disabled (the no-op default) vs
//!    enabled (a bounded deterministic `Tracer`), plus allocations per
//!    read with the recorder on. Each configuration first drains twice
//!    the buffered depth, then times a fixed 128 reads, so neither is
//!    served from prefilled rings. The always-on counters run in both
//!    configurations, so the ratio isolates the event layer's cost; CI
//!    fails the job when `overhead_ratio` exceeds 1.10 or the
//!    recorder-on read path allocates at all;
//! 9. **conditioning kernels** — per-conditioner ns per raw bit for the
//!    bit-serial `push` loop vs the table-driven `condition_block`
//!    path, measured on the same input buffer, plus a bit-exactness
//!    check (the block path must produce the identical output stream,
//!    partial-byte tail included). `conditioning.block_speedup` is the
//!    CRC-16 ratio-2 ratio — the pipeline's default conditioner — and
//!    CI fails the job when any `match` flag is false or when the
//!    conditioned-tier read path allocates;
//! 10. **health gate** — median ns per bit of the shard workers'
//!     SP 800-90B gate on one 64 KiB chunk per shard seed, through the
//!     bit-serial `HealthMonitor::feed` fold vs the word-parallel
//!     `HealthMonitor::feed_bytes`, plus a `match` flag (equal verdict
//!     and full monitor state on a healthy, a stuck and a 75%-biased
//!     chunk); CI fails the job when `match` is false.
//!
//! Every section that reads a running stream (2, 3, 7 and 8) first
//! drains twice the deployment's buffered depth, then times a fixed
//! read count, so no timed read is served from the rings the workers
//! filled during set-up.
//!
//! Usage: `bench_report [--quick] [--out PATH]` (default
//! `BENCH_9.json` in the working directory; CI uploads it as a
//! workflow artifact and compares it against the committed snapshot:
//! a non-zero `allocs_per_read`, a false batching, conditioning or health
//! `match`, or
//! a 20%+ drop in the batching speedup **fails the job**, while
//! raw-Mbps and serve-latency drifts stay warnings — wall-clock
//! throughput on shared runners is too noisy to gate on).

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use dhtrng_bench::args;
use dhtrng_core::conditioning::{
    BitSink, Conditioner, CrcWhitener, LfsrConditioner, VonNeumannConditioner, XorFold,
};
use dhtrng_core::drbg::DrbgConfig;
use dhtrng_core::{DhTrng, HealthMonitor, HealthStatus, SlicedDhTrng, Trng};
use dhtrng_noise::NoiseRng;
use dhtrng_serve::{loadgen, LoadConfig, Service};
use dhtrng_stream::{
    ring, AffinityPolicy, ConditionerSpec, EntropySource, EntropyStream, EntropyStreamBuilder,
    KernelKind, PipelineBuilder, Tier,
};

/// `System`, plus a global count of allocation events (alloc,
/// alloc_zeroed, and realloc all count; frees don't). Active for the
/// whole binary; the one counter increment is noise next to the work
/// the timed sections do.
///
/// Deliberately duplicated in `tests/zero_alloc.rs` (which pins the
/// same invariant this binary reports): a `#[global_allocator]` must
/// live in each final binary, and the shared crates forbid unsafe
/// code. Keep the counting rules of the two copies in sync.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation verbatim to `System`; the counter
// bump has no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Times `routine` adaptively: one warm-up call sizes a batch that runs
/// for roughly `budget_s`, and the mean seconds per call is returned.
fn time_mean_s<F: FnMut()>(mut routine: F, budget_s: f64) -> f64 {
    routine(); // warm-up (also faults in buffers)
    let start = Instant::now();
    routine();
    let once = start.elapsed().as_secs_f64().max(1e-9);
    let reps = ((budget_s / once) as u64).clamp(1, 10_000);
    let start = Instant::now();
    for _ in 0..reps {
        routine();
    }
    start.elapsed().as_secs_f64() / reps as f64
}

/// Chunk size of every measured stream deployment.
const CHUNK_BYTES: usize = 64 * 1024;

/// Data-ring depth of every measured stream deployment (the builders'
/// default, spelled out because the drain depth depends on it).
const QUEUE_CHUNKS: usize = 4;

/// Steady-state seconds per read of a running stream deployment with
/// `shards` shards. First drains `2 × shards × (QUEUE_CHUNKS + 2)`
/// chunk-sized reads — twice the buffered depth, so no timed read is
/// served from the rings the workers filled during set-up — then times
/// a fixed `reads` reads into `buf`, which the workers' generation
/// paces.
fn steady_read_s(
    shards: usize,
    buf: &mut [u8],
    reads: usize,
    mut read: impl FnMut(&mut [u8]),
) -> f64 {
    let mut chunk = vec![0u8; CHUNK_BYTES];
    for _ in 0..2 * shards * (QUEUE_CHUNKS + 2) {
        read(&mut chunk);
    }
    let start = Instant::now();
    for _ in 0..reads {
        read(buf);
        std::hint::black_box(buf[0]);
    }
    start.elapsed().as_secs_f64() / reads as f64
}

/// One pipeline tier over a 4-shard deployment, `reads` steady-state
/// reads of `read_bytes`: (simulated Mbps, modeled Mbps).
fn measure_tier(tier: Tier, read_bytes: usize, reads: usize) -> (f64, f64) {
    let shards = 4;
    let mut stream = PipelineBuilder::new()
        .shards(shards)
        .seed(1)
        .chunk_bytes(CHUNK_BYTES)
        .queue_chunks(QUEUE_CHUNKS)
        .build(tier);
    let modeled = stream.throughput_mbps();
    let mut buf = vec![0u8; read_bytes];
    let seconds = steady_read_s(shards, &mut buf, reads, |out| {
        stream.read(out).expect("healthy pipeline")
    });
    (read_bytes as f64 * 8.0 / seconds / 1e6, modeled)
}

/// Raw kernel throughput over `lanes` same-seeded generators, both
/// ways: the scalar shard-worker path (`lanes` sequential batched
/// `fill_bytes`) against one lane-parallel sliced bank. The two
/// produce identical bytes per lane, so the ratio is pure kernel
/// speed — no stream/channel overhead in either number.
fn measure_kernels(lanes: usize, bytes_per_lane: usize, budget_s: f64) -> (f64, f64) {
    let seeded = |i: usize| DhTrng::builder().seed(1 + i as u64).build();
    let mut scalars: Vec<DhTrng> = (0..lanes).map(seeded).collect();
    let mut buf = vec![0u8; bytes_per_lane];
    let scalar_s = time_mean_s(
        || {
            for trng in &mut scalars {
                trng.fill_bytes(&mut buf);
            }
            std::hint::black_box(buf[0]);
        },
        budget_s,
    );
    let mut bank =
        SlicedDhTrng::new((0..lanes).map(seeded).collect()).expect("MAX_LANES generators fit");
    let mut chunks: Vec<Option<Vec<u8>>> = (0..lanes)
        .map(|_| Some(vec![0u8; bytes_per_lane]))
        .collect();
    let sliced_s = time_mean_s(
        || {
            bank.fill_lane_chunks(&mut chunks);
            std::hint::black_box(chunks[0].as_deref().map(|c| c[0]));
        },
        budget_s,
    );
    let bits = (lanes * bytes_per_lane) as f64 * 8.0;
    (bits / scalar_s / 1e6, bits / sliced_s / 1e6)
}

/// Allocations per steady-state raw-tier chunk read (process-wide, so
/// worker threads count too). The executor's recycled pool makes this
/// exactly zero; see `DESIGN.md` §7.
fn measure_steady_state_allocs(reads: usize) -> (f64, usize) {
    let shards = 4;
    let queue_chunks = 4;
    let chunk = 64 * 1024;
    let mut stream = EntropyStream::builder()
        .shards(shards)
        .seed(1)
        .chunk_bytes(chunk)
        .queue_chunks(queue_chunks)
        .build();
    let mut buf = vec![0u8; chunk];
    // Prime the pool: cycle every buffer through the recycle loop.
    for _ in 0..shards * (queue_chunks + 2) * 3 {
        stream.read(&mut buf).expect("healthy stream");
    }
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..reads {
        stream.read(&mut buf).expect("healthy stream");
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    std::hint::black_box(buf[0]);
    ((after - before) as f64 / reads as f64, reads)
}

/// Chunk reads timed per telemetry configuration: a fixed count, not
/// one sized from a time budget, so both configurations time the same
/// work however fast the first read happens to be.
const TELEMETRY_TIMED_READS: usize = 128;

/// One telemetry configuration: ns per steady-state raw-tier chunk
/// read and allocations per read, with the given recorder (or the
/// no-op default when `None`). Identical deployment to
/// `measure_steady_state_allocs`, so recorder-off here is the same
/// path the `allocation` section measures.
///
/// Timed with [`steady_read_s`] over [`TELEMETRY_TIMED_READS`] reads.
fn measure_telemetry_point(
    recorder: Option<std::sync::Arc<dyn dhtrng_stream::Recorder>>,
    alloc_reads: usize,
) -> (f64, f64) {
    let shards = 4;
    let mut builder = EntropyStream::builder()
        .shards(shards)
        .seed(1)
        .chunk_bytes(CHUNK_BYTES)
        .queue_chunks(QUEUE_CHUNKS);
    if let Some(recorder) = recorder {
        builder = builder.recorder(recorder);
    }
    let mut stream = builder.build();
    let mut buf = vec![0u8; CHUNK_BYTES];
    let seconds = steady_read_s(shards, &mut buf, TELEMETRY_TIMED_READS, |out| {
        stream.read(out).expect("healthy stream")
    });
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..alloc_reads {
        stream.read(&mut buf).expect("healthy stream");
    }
    let allocs = (ALLOCATIONS.load(Ordering::SeqCst) - before) as f64 / alloc_reads as f64;
    std::hint::black_box(buf[0]);
    (seconds * 1e9, allocs)
}

/// Raw-tier wall-clock Mbps of one `EntropyStream` deployment with the
/// kernel forced and `core_affinity(PerShard)` engaged (a no-op on
/// 1-CPU hosts — `AffinityPolicy::core_for_worker` declines to pin).
/// Timed with [`steady_read_s`] over `reads` reads of `read_bytes`.
/// Returns `(mbps, affinity_pins)`.
fn measure_scaling_point(
    shards: usize,
    kernel: KernelKind,
    read_bytes: usize,
    reads: usize,
) -> (f64, u64) {
    let mut stream = EntropyStream::builder()
        .shards(shards)
        .seed(1)
        .chunk_bytes(CHUNK_BYTES)
        .queue_chunks(QUEUE_CHUNKS)
        .kernel(kernel)
        .core_affinity(AffinityPolicy::PerShard)
        .build();
    let mut buf = vec![0u8; read_bytes];
    let seconds = steady_read_s(shards, &mut buf, reads, |out| {
        stream.read(out).expect("healthy stream")
    });
    (
        read_bytes as f64 * 8.0 / seconds / 1e6,
        stream.affinity_pins(),
    )
}

/// Per-chunk hand-off cost of the lock-free SPSC ring against the
/// bounded mpsc channel it replaced, measured as a cross-thread
/// round trip: one buffer ping-ponged between this thread and an echo
/// thread over a data/return pair — the engine's worker→merger
/// topology, where every hand-off crosses a thread boundary and the
/// waiting side's backoff/park protocol is on the clock. Per-chunk =
/// round-trip / 2 (two hand-offs per bounce). Also counts heap
/// allocations across the ring round trips — the ring recycles
/// pre-allocated slots and parks without allocating, so this must be
/// exactly 0 (CI gates on it).
/// Returns `(ring_ns, mpsc_ns, ring_allocs_per_handoff)`.
fn measure_handoff(budget_s: f64) -> (f64, f64, f64) {
    const QUEUE: usize = 4;
    const BUFFER_BYTES: usize = 64;

    let (mut to_peer, mut peer_in) = ring::spsc::<Vec<u8>>(QUEUE);
    let (mut peer_out, mut from_peer) = ring::spsc::<Vec<u8>>(QUEUE);
    let echo = std::thread::spawn(move || {
        while let Ok(buffer) = peer_in.pop() {
            if peer_out.push(buffer).is_err() {
                return;
            }
        }
    });
    let mut slot = Some(vec![0u8; BUFFER_BYTES]);
    let ring_s = time_mean_s(
        || {
            to_peer
                .push(slot.take().expect("in hand"))
                .expect("echo thread alive");
            slot = Some(from_peer.pop().expect("echo thread alive"));
            std::hint::black_box(slot.as_deref().map(|b| b[0]));
        },
        budget_s,
    );
    // Allocation audit on the same live pair, outside the timed region.
    let audit_rounds: u64 = 10_000;
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..audit_rounds {
        to_peer
            .push(slot.take().expect("in hand"))
            .expect("echo thread alive");
        slot = Some(from_peer.pop().expect("echo thread alive"));
    }
    let ring_allocs =
        (ALLOCATIONS.load(Ordering::SeqCst) - before) as f64 / (2 * audit_rounds) as f64;
    drop((to_peer, from_peer, slot));
    echo.join().expect("echo thread exits");

    let (to_peer, peer_in) = std::sync::mpsc::sync_channel::<Vec<u8>>(QUEUE);
    let (peer_out, from_peer) = std::sync::mpsc::sync_channel::<Vec<u8>>(QUEUE);
    let echo = std::thread::spawn(move || {
        while let Ok(buffer) = peer_in.recv() {
            if peer_out.send(buffer).is_err() {
                return;
            }
        }
    });
    let mut slot = Some(vec![0u8; BUFFER_BYTES]);
    let mpsc_s = time_mean_s(
        || {
            to_peer
                .send(slot.take().expect("in hand"))
                .expect("echo thread alive");
            slot = Some(from_peer.recv().expect("echo thread alive"));
            std::hint::black_box(slot.as_deref().map(|b| b[0]));
        },
        budget_s,
    );
    drop((to_peer, from_peer, slot));
    echo.join().expect("echo thread exits");

    (ring_s / 2.0 * 1e9, mpsc_s / 2.0 * 1e9, ring_allocs)
}

/// One conditioning machine measured both ways on the same raw
/// buffer: ns per raw input bit through the bit-serial `push` loop vs
/// the table-driven `condition_block` path, plus whether the two
/// produced the identical output stream (whole bytes and the ≤7-bit
/// partial tail). The match check runs on fresh clones before timing,
/// so a broken kernel is reported as `match: false` rather than as a
/// fast-but-wrong speedup.
struct ConditioningRow {
    name: &'static str,
    serial_ns_per_raw_bit: f64,
    block_ns_per_raw_bit: f64,
    block_speedup: f64,
    matches: bool,
}

fn measure_conditioner<C: Conditioner + Clone>(
    name: &'static str,
    cond: &C,
    raw: &[u8],
    budget_s: f64,
) -> ConditioningRow {
    let raw_bits = (raw.len() * 8) as f64;
    let mut out = vec![0u8; raw.len() + 1];

    // Bit-exactness first, on fresh clones.
    let mut serial_out = vec![0u8; raw.len() + 1];
    let mut machine = cond.clone();
    let mut sink = BitSink::new(&mut serial_out);
    for &byte in raw {
        for i in (0..8).rev() {
            if let Some(bit) = machine.push((byte >> i) & 1 == 1) {
                sink.push_bit(bit);
            }
        }
    }
    let serial_parts = sink.into_parts();
    let mut machine = cond.clone();
    let mut sink = BitSink::new(&mut out);
    machine.condition_block(raw, &mut sink);
    let block_parts = sink.into_parts();
    let matches =
        serial_parts == block_parts && serial_out[..serial_parts.0] == out[..block_parts.0];

    let mut machine = cond.clone();
    let serial_s = time_mean_s(
        || {
            let mut sink = BitSink::new(&mut out);
            for &byte in raw {
                for i in (0..8).rev() {
                    if let Some(bit) = machine.push((byte >> i) & 1 == 1) {
                        sink.push_bit(bit);
                    }
                }
            }
            std::hint::black_box(sink.bits_pushed());
            std::hint::black_box(&out);
        },
        budget_s,
    );
    let mut machine = cond.clone();
    let block_s = time_mean_s(
        || {
            let mut sink = BitSink::new(&mut out);
            machine.condition_block(raw, &mut sink);
            std::hint::black_box(sink.bits_pushed());
            std::hint::black_box(&out);
        },
        budget_s,
    );
    ConditioningRow {
        name,
        serial_ns_per_raw_bit: serial_s * 1e9 / raw_bits,
        block_ns_per_raw_bit: block_s * 1e9 / raw_bits,
        block_speedup: serial_s / block_s,
        matches,
    }
}

/// The conditioning-kernel sweep: every shipped machine plus the
/// default chain shape, all over the same deterministic mixed-content
/// buffer (a fixed multiplicative hash keeps 0/1 balance and pair
/// diversity so Von Neumann's keep-rate is realistic).
fn measure_conditioning(raw_bytes: usize, budget_s: f64) -> Vec<ConditioningRow> {
    let raw: Vec<u8> = (0..raw_bytes)
        .map(|i| ((i.wrapping_mul(2654435761)) >> 7) as u8)
        .collect();
    vec![
        measure_conditioner("crc-ratio2", &CrcWhitener::new(2), &raw, budget_s),
        measure_conditioner("crc-ratio1", &CrcWhitener::new(1), &raw, budget_s),
        measure_conditioner("lfsr", &LfsrConditioner::new(), &raw, budget_s),
        measure_conditioner("xorfold4", &XorFold::new(4), &raw, budget_s),
        measure_conditioner("von-neumann", &VonNeumannConditioner::new(), &raw, budget_s),
        measure_conditioner(
            "chain-xf2-crc2",
            &XorFold::new(2).then(CrcWhitener::new(2)),
            &raw,
            budget_s,
        ),
    ]
}

/// Allocations per steady-state conditioned-tier chunk read: the same
/// counting-allocator audit as the raw-tier number, but through the
/// block conditioning kernels end to end. The `ConditionerStage`
/// rewrites recycled chunk buffers in place through 64-byte stack
/// staging, so this must be exactly 0 (tests/zero_alloc.rs pins the
/// same invariant; CI fails the job on any non-zero value).
fn measure_conditioned_allocs(reads: usize) -> f64 {
    let mut stream = PipelineBuilder::new()
        .shards(4)
        .seed(1)
        .chunk_bytes(64 * 1024)
        .build(Tier::Conditioned);
    let mut buf = vec![0u8; 64 * 1024];
    // Prime: the conditioned tier refills recycled buffers at the
    // compression ratio, so cycle enough reads to settle the pool.
    for _ in 0..48 {
        stream.read(&mut buf).expect("healthy pipeline");
    }
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..reads {
        stream.read(&mut buf).expect("healthy pipeline");
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    std::hint::black_box(buf[0]);
    (after - before) as f64 / reads as f64
}

/// The shard's SP 800-90B health gate both ways: median ns per bit
/// through the bit-serial `feed` fold and through the word-parallel
/// `feed_bytes`, on the same chunks, plus one bit-exactness row per
/// source shape.
struct HealthReport {
    serial_ns_per_bit: f64,
    block_ns_per_bit: f64,
    /// `(source, verdict, block path equal in verdict and state)`.
    cases: Vec<(&'static str, HealthStatus, bool)>,
}

/// The reference gate: every bit through `feed`, MSB first, stopping
/// at the first trip.
fn serial_gate(monitor: &mut HealthMonitor, chunk: &[u8]) -> HealthStatus {
    for &byte in chunk {
        for i in (0..8).rev() {
            let status = monitor.feed((byte >> i) & 1 == 1);
            if status != HealthStatus::Ok {
                return status;
            }
        }
    }
    HealthStatus::Ok
}

/// Median over `trials` of the ns per bit `gate` takes to pass every
/// chunk `passes` times through one default monitor.
fn time_gate(
    chunks: &[Vec<u8>],
    trials: usize,
    passes: usize,
    gate: impl Fn(&mut HealthMonitor, &[u8]) -> HealthStatus,
) -> f64 {
    let bits = (passes * chunks.iter().map(Vec::len).sum::<usize>() * 8) as f64;
    let mut samples: Vec<f64> = (0..trials)
        .map(|_| {
            let mut monitor = HealthMonitor::new();
            let start = Instant::now();
            for _ in 0..passes {
                for chunk in chunks {
                    std::hint::black_box(gate(&mut monitor, chunk));
                }
            }
            start.elapsed().as_secs_f64() * 1e9 / bits
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// The health-gate section over one 64 KiB chunk per shard seed of the
/// 4-shard, seed-1 deployment. The match rows run first, on fresh
/// monitors: a healthy shard chunk, a stuck-at-one chunk and a
/// 75%-biased chunk.
fn measure_health(trials: usize, passes: usize) -> HealthReport {
    let chunks: Vec<Vec<u8>> = (0..4)
        .map(|shard| {
            let seed = EntropyStreamBuilder::derive_shard_seed(1, shard);
            let mut chunk = vec![0u8; CHUNK_BYTES];
            DhTrng::builder().seed(seed).build().fill_bytes(&mut chunk);
            chunk
        })
        .collect();
    let mut rng = NoiseRng::seed_from_u64(75);
    let biased: Vec<u8> = (0..CHUNK_BYTES)
        .map(|_| (0..8).fold(0u8, |byte, _| byte << 1 | u8::from(rng.bernoulli(0.75))))
        .collect();
    let stuck = vec![0xFFu8; CHUNK_BYTES];
    let cases = [
        ("healthy", &chunks[0]),
        ("stuck", &stuck),
        ("biased75", &biased),
    ]
    .into_iter()
    .map(|(name, chunk)| {
        let (mut serial, mut block) = (HealthMonitor::new(), HealthMonitor::new());
        let verdict = serial_gate(&mut serial, chunk);
        let matches = block.feed_bytes(chunk) == verdict && block == serial;
        (name, verdict, matches)
    })
    .collect();
    HealthReport {
        serial_ns_per_bit: time_gate(&chunks, trials, passes, serial_gate),
        block_ns_per_bit: time_gate(&chunks, trials, passes, HealthMonitor::feed_bytes),
        cases,
    }
}

/// Fleet latency over the daemon's connection state machine: one
/// shared 4-shard source, `clients` concurrent drbg sessions, full
/// wire round-trips per read. Aborts on any protocol error or
/// exactly-once violation — a latency number from a dirty run would
/// be meaningless.
fn measure_serving(clients: usize, reads_per_client: usize) -> dhtrng_serve::LoadReport {
    let source = EntropySource::builder()
        .shards(4)
        .seed(1)
        .chunk_bytes(64 * 1024)
        .build()
        .expect("valid source");
    let service = Service::new(source);
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let report = loadgen::run(
        &service,
        &LoadConfig {
            clients,
            reads_per_client,
            read_bytes: 64,
            tier: Tier::Drbg,
            threads,
        },
    );
    assert_eq!(report.protocol_errors, 0, "serve bench must run clean");
    assert_eq!(report.delivery_violations, 0, "serve bench must run clean");
    report
}

/// Switch that makes this binary write [`match_chunk`] to stdout and
/// exit: the child half of the batching section's `match` flag.
const PORTABLE_CHUNK: &str = "--portable-chunk";

/// The DH-TRNG chunk the batching `match` flag compares: seed 1 with
/// the feedback line on, 64 KiB of whole words plus 5 tail bytes.
fn match_chunk() -> Vec<u8> {
    let mut chunk = vec![0u8; 64 * 1024 + 5];
    DhTrng::builder().seed(1).build().fill_bytes(&mut chunk);
    chunk
}

/// Whether the dispatched generation kernel reproduces the portable
/// body on [`match_chunk`]. The backend is detected once per process,
/// so the portable side is a child run of this binary under
/// `DHTRNG_SIMD=portable`.
fn portable_matches_dispatch() -> bool {
    let exe = std::env::current_exe().expect("bench_report has a path");
    let output = Command::new(exe)
        .arg(PORTABLE_CHUNK)
        .env("DHTRNG_SIMD", "portable")
        .output()
        .expect("spawn the portable child run");
    assert!(
        output.status.success(),
        "portable child run failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    output.stdout == match_chunk()
}

/// Formats a slice of Mbps values as a JSON array literal.
fn mbps_array(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| format!("{v:.3}")).collect();
    format!("[{}]", items.join(", "))
}

fn main() {
    if args::switch(PORTABLE_CHUNK) {
        std::io::stdout()
            .write_all(&match_chunk())
            .expect("write the chunk to stdout");
        return;
    }
    let quick = args::switch("--quick");
    let out_path: String = args::flag("--out", "BENCH_9.json".to_string());
    let budget_s = if quick { 0.05 } else { 0.5 };
    let bits = if quick { 1 << 18 } else { 1 << 21 };
    let stream_bytes: usize = if quick { 1 << 18 } else { 1 << 22 };
    // The conditioned tier pays the compression ratio in wall-clock
    // too, so read a fraction of the raw volume per iteration.
    let tier_bytes: usize = if quick { 1 << 16 } else { 1 << 20 };
    // Bytes read per timed steady-state stream measurement (after the
    // drain), as a fixed read count at each section's read size.
    let steady_bytes: usize = if quick { 1 << 21 } else { 1 << 23 };
    let alloc_reads: usize = if quick { 48 } else { 192 };
    let serve_clients: usize = if quick { 200 } else { 1000 };
    let serve_reads: usize = if quick { 8 } else { 16 };

    // 1. Per-bit vs batched on the same generator/seed.
    let mut per_bit_trng = DhTrng::builder().seed(1).build();
    let per_bit_s = time_mean_s(
        || {
            let mut acc = 0u32;
            for _ in 0..bits {
                acc ^= u32::from(per_bit_trng.next_bit());
            }
            std::hint::black_box(acc);
        },
        budget_s,
    );
    let mut batched_trng = DhTrng::builder().seed(1).build();
    let mut buf = vec![0u8; bits / 8];
    let batched_s = time_mean_s(
        || {
            batched_trng.fill_bytes(&mut buf);
            std::hint::black_box(buf[0]);
        },
        budget_s,
    );
    let per_bit_mbps = bits as f64 / per_bit_s / 1e6;
    let batched_mbps = bits as f64 / batched_s / 1e6;
    let batch_speedup = per_bit_s / batched_s;
    // The scalar and sliced kernels share one cached backend detection.
    let simd_backend = SlicedDhTrng::new(vec![DhTrng::builder().seed(1).build()])
        .expect("one lane always fits")
        .backend_name();
    let batch_match = portable_matches_dispatch();

    // 2. Stream scaling: 1 shard vs 4 shards, same chunking.
    let mut stream_buf = vec![0u8; stream_bytes];
    let mut wallclock_mbps = [0.0f64; 2];
    let mut modeled_mbps = [0.0f64; 2];
    for (slot, shards) in [1usize, 4].into_iter().enumerate() {
        let mut stream = EntropyStream::builder()
            .shards(shards)
            .seed(1)
            .chunk_bytes(CHUNK_BYTES)
            .queue_chunks(QUEUE_CHUNKS)
            .build();
        modeled_mbps[slot] = stream.throughput_mbps();
        let reads = (steady_bytes / stream_bytes).max(1);
        let seconds = steady_read_s(shards, &mut stream_buf, reads, |out| {
            stream.read(out).expect("healthy stream")
        });
        wallclock_mbps[slot] = stream_bytes as f64 * 8.0 / seconds / 1e6;
    }
    let wallclock_scaling = wallclock_mbps[1] / wallclock_mbps[0];
    let modeled_scaling = modeled_mbps[1] / modeled_mbps[0];

    // 3. Pipeline tiers over the 4-shard deployment (stage defaults:
    // 2:1 CRC conditioning, 1 Mbit DRBG reseed interval).
    // Stage metadata is derived from the defaults the measured streams
    // actually run, so a changed default can never be mislabeled.
    let conditioner = format!("{:?}", ConditionerSpec::default());
    let tier_reads = steady_bytes / tier_bytes;
    let (raw_sim, raw_model) = measure_tier(Tier::Raw, tier_bytes, tier_reads);
    let (cond_sim, cond_model) = measure_tier(Tier::Conditioned, tier_bytes, tier_reads);
    let (drbg_sim, drbg_model) = measure_tier(Tier::Drbg, tier_bytes, tier_reads);

    // 4. Steady-state allocation count on the raw-tier read path.
    let (allocs_per_read, alloc_reads_measured) = measure_steady_state_allocs(alloc_reads);

    // 5. Serving latency under a concurrent client fleet.
    let serve = measure_serving(serve_clients, serve_reads);

    // 6. Scalar vs bit-sliced block kernel at full lane width, plus
    // what Auto resolves to here and which SIMD backend the sliced
    // kernel picked. The selected kind is read off a real Auto-built
    // stream so an env-var override (DHTRNG_KERNEL) shows up
    // truthfully.
    let kernel_lanes = dhtrng_core::MAX_LANES;
    let kernel_bytes_per_lane: usize = if quick { 1 << 12 } else { 1 << 15 };
    let (raw_mbps_scalar, raw_mbps_sliced) =
        measure_kernels(kernel_lanes, kernel_bytes_per_lane, budget_s);
    let kernel_speedup = raw_mbps_sliced / raw_mbps_scalar;
    // Same one-core aggregate basis: N per-bit generators time-sharing
    // the core produce per_bit_mbps total, so the ratio is direct.
    let kernel_speedup_vs_per_bit = raw_mbps_sliced / per_bit_mbps;
    let selected_kernel = format!(
        "{:?}",
        EntropyStream::builder().shards(4).seed(1).build().kernel()
    )
    .to_lowercase();

    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let single = DhTrng::builder().seed(1).build();

    // 8. Telemetry overhead: the same steady-state chunk-read loop with
    // the recorder off (no-op default) and on (a bounded deterministic
    // Tracer — the heaviest shipped recorder, mutex and eviction
    // included). The tracer capacity is far below the event volume so
    // the measured path includes drop-oldest eviction.
    // 9. Conditioning kernels: bit-serial vs block path per machine,
    // ns per raw input bit, with a bit-exactness check per row. The
    // headline `block_speedup` is CRC ratio 2 — the pipeline default.
    let conditioning_bytes: usize = if quick { 1 << 14 } else { 1 << 16 };
    let conditioning = measure_conditioning(conditioning_bytes, budget_s);
    let conditioning_all_match = conditioning.iter().all(|row| row.matches);
    let conditioning_block_speedup = conditioning
        .iter()
        .find(|row| row.name == "crc-ratio2")
        .map(|row| row.block_speedup)
        .unwrap_or(0.0);
    let conditioning_rows: Vec<String> = conditioning
        .iter()
        .map(|row| {
            format!(
                r#"      {{ "name": "{}", "serial_ns_per_raw_bit": {:.4}, "block_ns_per_raw_bit": {:.4}, "block_speedup": {:.3}, "match": {} }}"#,
                row.name,
                row.serial_ns_per_raw_bit,
                row.block_ns_per_raw_bit,
                row.block_speedup,
                row.matches,
            )
        })
        .collect();
    let conditioning_machines = conditioning_rows.join(",\n");
    let conditioned_allocs = measure_conditioned_allocs(alloc_reads);

    // 10. Health gate: the per-bit serial fold vs the word-parallel
    // block gate the shard workers run, with a bit-exactness check.
    let health = measure_health(5, if quick { 2 } else { 8 });
    let health_speedup = health.serial_ns_per_bit / health.block_ns_per_bit;
    let health_match = health.cases.iter().all(|&(_, _, matches)| matches);
    let health_cases = health
        .cases
        .iter()
        .map(|(name, verdict, matches)| {
            format!(r#"      {{ "name": "{name}", "verdict": "{verdict:?}", "match": {matches} }}"#)
        })
        .collect::<Vec<_>>()
        .join(",\n");

    let (telemetry_off_ns, _) = measure_telemetry_point(None, alloc_reads);
    let telemetry_tracer: std::sync::Arc<dyn dhtrng_stream::Recorder> =
        std::sync::Arc::new(dhtrng_stream::Tracer::deterministic(1024));
    let (telemetry_on_ns, telemetry_on_allocs) =
        measure_telemetry_point(Some(telemetry_tracer), alloc_reads);
    let telemetry_overhead = telemetry_on_ns / telemetry_off_ns;

    // 7. Multicore scaling + hand-off cost. The shard sweep runs with
    // core_affinity(PerShard) engaged; on a 1-CPU host that declines to
    // pin and `measured` is false — the Mbps columns then show shard
    // workers time-sharing one core, not multicore scaling.
    let scaling_measured = cpus > 1;
    let scaling_bytes: usize = if quick { 1 << 16 } else { 1 << 20 };
    let scaling_reads = steady_bytes / scaling_bytes;
    let shard_counts = [1usize, 2, 4];
    let mut scaling_scalar_mbps = Vec::new();
    let mut scaling_sliced_mbps = Vec::new();
    let mut scaling_pins = 0u64;
    for shards in shard_counts {
        let (mbps, pins) =
            measure_scaling_point(shards, KernelKind::Scalar, scaling_bytes, scaling_reads);
        scaling_scalar_mbps.push(mbps);
        scaling_pins += pins;
        let (mbps, pins) =
            measure_scaling_point(shards, KernelKind::Sliced, scaling_bytes, scaling_reads);
        scaling_sliced_mbps.push(mbps);
        scaling_pins += pins;
    }
    let scalar_per_shard: Vec<f64> = shard_counts
        .iter()
        .zip(&scaling_scalar_mbps)
        .map(|(&n, &mbps)| mbps / n as f64)
        .collect();
    let sliced_per_shard: Vec<f64> = shard_counts
        .iter()
        .zip(&scaling_sliced_mbps)
        .map(|(&n, &mbps)| mbps / n as f64)
        .collect();
    let scalar_scaling_at_2 = scaling_scalar_mbps[1] / scaling_scalar_mbps[0];
    let scalar_scaling_at_4 = scaling_scalar_mbps[2] / scaling_scalar_mbps[0];
    let (handoff_ring_ns, handoff_mpsc_ns, handoff_allocs) = measure_handoff(budget_s);
    let auto_selected = format!("{:?}", KernelKind::cost_model(4, cpus)).to_lowercase();
    let auto_decision = format!(
        "shards=4, host_cpus={cpus}: the sliced bank costs more per lane-bit than one \
         scalar bit at every measured bank size (DESIGN.md section 10), so \
         KernelKind::cost_model resolves to {auto_selected}"
    );

    let json = format!(
        r#"{{
  "schema": "dhtrng-bench-report/9",
  "quick": {quick},
  "host_cpus": {cpus},
  "batching": {{
    "bits_per_iteration": {bits},
    "per_bit_simulated_mbps": {per_bit:.3},
    "batched_simulated_mbps": {batched:.3},
    "speedup": {speedup:.3},
    "backend": "{simd_backend}",
    "match": {batch_match}
  }},
  "streaming": {{
    "read_bytes_per_iteration": {stream_bytes},
    "one_shard_simulated_mbps": {s1:.3},
    "four_shard_simulated_mbps": {s4:.3},
    "wallclock_scaling": {wscale:.3},
    "one_shard_modeled_mbps": {m1:.3},
    "four_shard_modeled_mbps": {m4:.3},
    "modeled_scaling": {mscale:.3}
  }},
  "pipeline": {{
    "read_bytes_per_iteration": {tier_bytes},
    "shards": 4,
    "conditioner": "{conditioner}",
    "drbg_reseed_interval_bits": {reseed_bits},
    "raw_simulated_mbps": {raw_sim:.3},
    "conditioned_simulated_mbps": {cond_sim:.3},
    "drbg_simulated_mbps": {drbg_sim:.3},
    "raw_modeled_mbps": {raw_model:.3},
    "conditioned_modeled_mbps": {cond_model:.3},
    "drbg_modeled_mbps": {drbg_model:.3}
  }},
  "allocation": {{
    "steady_state_reads_measured": {alloc_reads_measured},
    "allocs_per_read": {allocs_per_read:.3},
    "note": "process-wide heap allocations per steady-state raw-tier 64 KiB chunk read (workers included), after priming the recycled buffer pool. The stage-graph executor keeps this at exactly 0; tests/zero_alloc.rs pins the same invariant."
  }},
  "serve": {{
    "clients": {serve_clients},
    "reads_per_client": {serve_reads},
    "read_bytes": 64,
    "latency_p50_us": {serve_p50:.3},
    "latency_p99_us": {serve_p99:.3},
    "latency_max_us": {serve_max:.3},
    "reads": {serve_total_reads},
    "protocol_errors": {serve_protocol_errors},
    "delivery_violations": {serve_delivery_violations},
    "elapsed_secs": {serve_elapsed:.3},
    "note": "concurrent drbg client sessions over one shared 4-shard source via the dhtrng-serve connection state machine (full wire round-trips, sockets elided). Latencies are per-64-byte-read, nearest-rank percentiles; the run aborts unless protocol errors and exactly-once delivery violations are both zero."
  }},
  "kernel": {{
    "selected": "{selected_kernel}",
    "simd_backend": "{simd_backend}",
    "lanes": {kernel_lanes},
    "bytes_per_lane_per_iteration": {kernel_bytes_per_lane},
    "raw_mbps_scalar": {raw_mbps_scalar:.3},
    "raw_mbps_sliced": {raw_mbps_sliced:.3},
    "speedup": {kernel_speedup:.3},
    "speedup_vs_per_bit": {kernel_speedup_vs_per_bit:.3},
    "note": "aggregate one-core Mbps of 64 same-seeded generators: scalar = 64 sequential batched BlockKernel fill_bytes (the shard worker's path), sliced = one 64-lane SlicedKernel bank; identical bytes per lane, so the ratio is pure kernel speed. 'speedup' compares against the batched scalar kernel, which already runs the 12-beat bank in SIMD registers — that baseline caps bit-slicing's win well below the naive 64x (see DESIGN.md section 9); 'speedup_vs_per_bit' compares against the per-bit reference path (one next_bit per cycle, the pre-batching baseline the slicing motivation assumed). 'selected' is what KernelKind::Auto resolves to on this host and 'simd_backend' is the runtime-detected inner loop of the sliced kernel."
  }},
  "scaling": {{
    "measured": {scaling_measured},
    "host_cpus": {cpus},
    "read_bytes_per_iteration": {scaling_bytes},
    "shard_counts": [1, 2, 4],
    "scalar_mbps": {scalar_mbps_arr},
    "sliced_mbps": {sliced_mbps_arr},
    "per_shard_mbps": {{
      "scalar": {scalar_per_shard_arr},
      "sliced": {sliced_per_shard_arr}
    }},
    "scalar_scaling_at_2": {scalar_scaling_at_2:.3},
    "scalar_scaling_at_4": {scalar_scaling_at_4:.3},
    "affinity_pins": {scaling_pins},
    "handoff_ns_per_chunk": {handoff_ring_ns:.1},
    "handoff_mpsc_ns_per_chunk": {handoff_mpsc_ns:.1},
    "handoff_speedup": {handoff_speedup:.3},
    "handoff_allocs_per_chunk": {handoff_allocs:.3},
    "auto_kernel": "{auto_selected}",
    "auto_decision": "{auto_decision}",
    "note": "raw-tier wall-clock Mbps at 1/2/4 shards, both kernels forced, core_affinity(PerShard) engaged (a no-op when host_cpus=1, so affinity_pins is 0 there). measured=true only when available_parallelism()>1: on a 1-CPU host the shard workers time-share one core and these columns are NOT a multicore scaling measurement — scalar_scaling_at_2 is gated in CI only when measured=true. handoff_ns_per_chunk is half the cross-thread round-trip cost of the lock-free SPSC ring (one buffer ping-ponged to an echo thread over a data/return pair, the engine's worker->merger topology) vs the bounded mpsc channel it replaced, so it includes the backoff/park protocol both transports pay when the peer is not ready; handoff_allocs_per_chunk is heap allocations per ring hand-off under the counting allocator and must be exactly 0 (CI fails otherwise)."
  }},
  "conditioning": {{
    "raw_bytes_per_iteration": {conditioning_bytes},
    "block_speedup": {conditioning_block_speedup:.3},
    "all_match": {conditioning_all_match},
    "conditioned_tier_allocs_per_read": {conditioned_allocs:.3},
    "machines": [
{conditioning_machines}
    ],
    "note": "ns per raw input bit through each conditioning machine, bit-serial push loop vs the table-driven condition_block path, on one deterministic mixed-content buffer. 'match' verifies the block path produced the bit-identical output stream (partial-byte tail included) on fresh machine state before timing; CI fails the job when any match is false. The headline block_speedup is crc-ratio2 — the pipeline's default conditioner — and the acceptance floor is 4x (see DESIGN.md section 12). conditioned_tier_allocs_per_read is heap allocations per steady-state conditioned-tier 64 KiB chunk read under the counting allocator: the ConditionerStage rewrites recycled buffers in place through stack staging, so CI fails the job on any non-zero value."
  }},
  "health": {{
    "chunk_bytes": {chunk_bytes},
    "chunks": 4,
    "serial_ns_per_bit": {health_serial:.4},
    "block_ns_per_bit": {health_block:.4},
    "block_speedup": {health_speedup:.3},
    "match": {health_match},
    "cases": [
{health_cases}
    ],
    "note": "median ns per bit (5 trials) of the shard's SP 800-90B gate (RCT + APT, default cutoffs 32 / 1024 / 624) over one 64 KiB chunk per shard seed of the 4-shard seed-1 deployment: serial = HealthMonitor::feed once per bit, MSB first; block = HealthMonitor::feed_bytes, which commits a 64-bit word at once when no test can trip inside it and replays the rest through feed. 'match' requires equal verdicts and equal full monitor state on a healthy, a stuck and a 75%-biased chunk, checked on fresh monitors before timing; CI fails the job when it is false (see DESIGN.md section 5)."
  }},
  "telemetry": {{
    "read_bytes_per_chunk": 65536,
    "recorder_off_ns_per_chunk": {telemetry_off_ns:.1},
    "recorder_on_ns_per_chunk": {telemetry_on_ns:.1},
    "overhead_ratio": {telemetry_overhead:.4},
    "allocs_per_read_recorder_on": {telemetry_on_allocs:.3},
    "note": "ns per steady-state raw-tier 64 KiB chunk read over the 4-shard deployment (after draining 2 x shards x (queue_chunks + 2) chunks, mean of a fixed 128 reads), stage-event recorder off (the no-op default) vs on (a bounded deterministic Tracer sized to force drop-oldest eviction — the heaviest shipped recorder). The always-on counters run in both configurations, so overhead_ratio isolates the event layer; CI fails when it exceeds 1.10 or when the recorder-on read path allocates at all (tests/zero_alloc.rs pins the same invariant)."
  }},
  "paper_anchor": {{
    "per_instance_modeled_mbps": {anchor:.3},
    "note": "modeled Mbps = sampling clock x 1 bit/cycle; the paper reports 620 (Artix-7) / 670 (Virtex-6) per instance and linear multi-instance scaling, which modeled_scaling reproduces exactly. Simulated Mbps measure how fast this software model runs on the host and bound experiment runtimes. Pipeline tiers report post-conditioning throughput: conditioned = raw / compression ratio, drbg = conditioned x expansion factor (see DESIGN.md sections 6-7)."
  }}
}}
"#,
        quick = quick,
        cpus = cpus,
        bits = bits,
        per_bit = per_bit_mbps,
        batched = batched_mbps,
        speedup = batch_speedup,
        batch_match = batch_match,
        stream_bytes = stream_bytes,
        s1 = wallclock_mbps[0],
        s4 = wallclock_mbps[1],
        wscale = wallclock_scaling,
        m1 = modeled_mbps[0],
        m4 = modeled_mbps[1],
        mscale = modeled_scaling,
        tier_bytes = tier_bytes,
        conditioner = conditioner,
        reseed_bits = DrbgConfig::default().reseed_interval_bits,
        raw_sim = raw_sim,
        cond_sim = cond_sim,
        drbg_sim = drbg_sim,
        raw_model = raw_model,
        cond_model = cond_model,
        drbg_model = drbg_model,
        alloc_reads_measured = alloc_reads_measured,
        allocs_per_read = allocs_per_read,
        serve_clients = serve.clients,
        serve_reads = serve_reads,
        serve_p50 = serve.p50_us,
        serve_p99 = serve.p99_us,
        serve_max = serve.max_us,
        serve_total_reads = serve.reads,
        serve_protocol_errors = serve.protocol_errors,
        serve_delivery_violations = serve.delivery_violations,
        serve_elapsed = serve.elapsed_secs,
        selected_kernel = selected_kernel,
        simd_backend = simd_backend,
        kernel_lanes = kernel_lanes,
        kernel_bytes_per_lane = kernel_bytes_per_lane,
        raw_mbps_scalar = raw_mbps_scalar,
        raw_mbps_sliced = raw_mbps_sliced,
        kernel_speedup = kernel_speedup,
        kernel_speedup_vs_per_bit = kernel_speedup_vs_per_bit,
        scaling_measured = scaling_measured,
        scaling_bytes = scaling_bytes,
        scalar_mbps_arr = mbps_array(&scaling_scalar_mbps),
        sliced_mbps_arr = mbps_array(&scaling_sliced_mbps),
        scalar_per_shard_arr = mbps_array(&scalar_per_shard),
        sliced_per_shard_arr = mbps_array(&sliced_per_shard),
        scalar_scaling_at_2 = scalar_scaling_at_2,
        scalar_scaling_at_4 = scalar_scaling_at_4,
        scaling_pins = scaling_pins,
        handoff_ring_ns = handoff_ring_ns,
        handoff_mpsc_ns = handoff_mpsc_ns,
        handoff_speedup = handoff_mpsc_ns / handoff_ring_ns,
        handoff_allocs = handoff_allocs,
        auto_selected = auto_selected,
        auto_decision = auto_decision,
        chunk_bytes = CHUNK_BYTES,
        health_serial = health.serial_ns_per_bit,
        health_block = health.block_ns_per_bit,
        health_speedup = health_speedup,
        health_match = health_match,
        health_cases = health_cases,
        telemetry_off_ns = telemetry_off_ns,
        telemetry_on_ns = telemetry_on_ns,
        telemetry_overhead = telemetry_overhead,
        telemetry_on_allocs = telemetry_on_allocs,
        anchor = single.throughput_mbps(),
    );
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    print!("{json}");
    eprintln!(
        "wrote {out_path} (batch speedup {batch_speedup:.2}x on {simd_backend}, match = {batch_match}; modeled scaling {modeled_scaling:.2}x, wall-clock scaling {wallclock_scaling:.2}x on {cpus} cpu(s); tiers raw/conditioned/drbg = {raw_sim:.0}/{cond_sim:.0}/{drbg_sim:.0} simulated Mbps; {allocs_per_read:.2} allocs/read steady-state; serve {clients} clients p50/p99 = {p50:.1}/{p99:.1} us; kernel {selected_kernel}/{simd_backend} sliced-vs-scalar {kernel_speedup:.2}x; hand-off ring/mpsc = {handoff_ring_ns:.0}/{handoff_mpsc_ns:.0} ns, scaling measured = {scaling_measured}; telemetry overhead {telemetry_overhead:.3}x, {telemetry_on_allocs:.2} allocs/read recorder-on; conditioning crc2 block {conditioning_block_speedup:.2}x, all match = {conditioning_all_match}; health gate block {health_speedup:.1}x, match = {health_match})",
        clients = serve.clients,
        p50 = serve.p50_us,
        p99 = serve.p99_us,
    );
}

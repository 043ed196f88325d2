//! Pins the executor's zero-allocation guarantee: once the buffer pool
//! is primed, the raw-tier read path (consumer *and* shard workers)
//! performs no heap allocation at all.
//!
//! The whole test binary runs under a counting global allocator, so
//! the assertion covers every thread — a worker that silently
//! allocated per chunk (the pre-executor design) fails here. This is
//! the test-side twin of the `allocation` metric in `BENCH_4.json`.
//!
//! Because the counter is process-wide, every pin runs in a child
//! process of its own (see [`ran_in_child`]), so no sibling test and no
//! test-harness thread can allocate inside its counted window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::process::Command;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use dh_trng::prelude::*;

/// `System`, plus a global count of allocation events (alloc,
/// alloc_zeroed, and realloc all count; frees don't) made on any thread
/// but the main one.
///
/// Deliberately duplicated in `crates/bench/src/bin/bench_report.rs`
/// (which reports the same invariant as the `BENCH_4.json` allocation
/// metric): a `#[global_allocator]` must live in each final binary,
/// and the shared crates forbid unsafe code. Keep the counting rules
/// of the two copies in sync, except for the main thread: in a test
/// binary it is the harness's, which does its own bookkeeping while a
/// test runs, and no pin reads on it.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Set by the first thread to allocate, which is the main thread: no
/// other thread exists before it allocates to spawn one.
static MAIN_SEEN: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// Whether this thread is the main thread, settled at its first
    /// allocation. `const`-initialised and without a destructor, so
    /// reading it from the allocator never allocates.
    static IS_MAIN: Cell<Option<bool>> = const { Cell::new(None) };
}

fn on_main_thread() -> bool {
    IS_MAIN.with(|is_main| match is_main.get() {
        Some(known) => known,
        None => {
            let first = !MAIN_SEEN.swap(true, Ordering::Relaxed);
            is_main.set(Some(first));
            first
        }
    })
}

fn count_allocation() {
    if !on_main_thread() {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: delegates every operation verbatim to `System`; the counter
// bump has no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Set in the child processes [`ran_in_child`] starts.
const CHILD_ENV: &str = "ZERO_ALLOC_PIN_CHILD";

/// Runs the test called `name` in a child copy of this test binary
/// that runs that one test and nothing else, and asserts that it
/// passed. Returns `true` in the parent, where the caller then returns,
/// and `false` in the child, where the caller runs its pin.
///
/// Serialising the tests inside one process is not enough on a
/// multi-core host: when a test finishes, the harness starts the next
/// test's thread, and that thread allocates (its name, its handle)
/// while the following pin may already be counting. In the child, the
/// harness starts the pin's thread and from then on works only on the
/// main thread, which the count leaves out.
fn ran_in_child(name: &str) -> bool {
    if std::env::var_os(CHILD_ENV).is_some() {
        assert!(
            !on_main_thread(),
            "the pin must run on a thread whose allocations count"
        );
        return false;
    }
    let exe = std::env::current_exe().expect("the test binary has a path");
    let output = Command::new(exe)
        .args([name, "--exact", "--test-threads=1"])
        .env(CHILD_ENV, "1")
        .output()
        .expect("the test binary can re-run itself");
    let stdout = String::from_utf8_lossy(&output.stdout);
    // "1 passed" also catches a `name` that matches no test.
    assert!(
        output.status.success() && stdout.contains("1 passed"),
        "{name} failed in its own process:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    true
}

#[test]
fn raw_tier_steady_state_reads_do_not_allocate() {
    if ran_in_child("raw_tier_steady_state_reads_do_not_allocate") {
        return;
    }
    let shards = 2;
    let queue_chunks = 4;
    let chunk = 4096usize;
    let mut stream = EntropyStream::builder()
        .shards(shards)
        .seed(0xA110C)
        .chunk_bytes(chunk)
        .queue_chunks(queue_chunks)
        .build();
    let mut buf = vec![0u8; chunk];

    // Prime the pool: walk every buffer through the full recycle loop
    // (worker -> queue -> consumer -> return channel -> worker) a few
    // times so one-time costs (initial capacity commit, thread-local
    // lazy init, channel internals) are all paid.
    for _ in 0..shards * (queue_chunks + 2) * 3 {
        stream.read(&mut buf).expect("healthy stream");
    }

    // Steady state: N more full-chunk reads across every shard must
    // not allocate anywhere in the process.
    let reads = shards * (queue_chunks + 2) * 4;
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..reads {
        stream.read(&mut buf).expect("healthy stream");
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "steady-state raw-tier reads must be allocation-free \
         ({} allocations over {reads} chunk reads)",
        after - before
    );
    assert_eq!(stream.pool_buffers(), shards * (queue_chunks + 2));
    std::hint::black_box(&buf);
}

/// The same pin with the telemetry recorder **enabled**: a bounded
/// [`Tracer`] pre-allocates its ring at construction and evicts in
/// place at capacity, and the stage counters are plain relaxed
/// atomics, so turning observability on must not cost a single
/// allocation on the read path. This is the CI gate behind the
/// "always-on" claim — if instrumentation ever grows a heap
/// dependency (boxing events, formatting on record, growing a
/// buffer), this test fails, not a benchmark.
#[test]
fn raw_tier_steady_state_reads_do_not_allocate_with_recorder_enabled() {
    if ran_in_child("raw_tier_steady_state_reads_do_not_allocate_with_recorder_enabled") {
        return;
    }
    let shards = 2;
    let queue_chunks = 4;
    let chunk = 4096usize;
    let tracer = std::sync::Arc::new(Tracer::new(64));
    let mut stream = EntropyStream::builder()
        .shards(shards)
        .seed(0xA110C)
        .chunk_bytes(chunk)
        .queue_chunks(queue_chunks)
        .recorder(std::sync::Arc::clone(&tracer) as std::sync::Arc<dyn Recorder>)
        .build();
    let mut buf = vec![0u8; chunk];

    // Prime as above, and long enough that the tracer ring wraps —
    // steady state must include the eviction path, not just appends.
    for _ in 0..shards * (queue_chunks + 2) * 3 {
        stream.read(&mut buf).expect("healthy stream");
    }

    let reads = shards * (queue_chunks + 2) * 4;
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..reads {
        stream.read(&mut buf).expect("healthy stream");
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "recorder-on steady-state reads must stay allocation-free \
         ({} allocations over {reads} chunk reads)",
        after - before
    );
    let snapshot = stream.metrics().snapshot();
    assert!(
        snapshot.chunks_merged > 0,
        "the recorder-on run must actually have counted work"
    );
    assert!(tracer.recorded() > 0, "the tracer must have seen events");
    assert!(
        tracer.dropped() > 0,
        "the run must be long enough to exercise the eviction path"
    );
    std::hint::black_box(&buf);
}

/// Conditioned-tier twin of the raw-tier pin: the block conditioning
/// kernels (table lookups into construction-time tables, stack staging
/// buffers, in-place `BitSink` packing) must keep steady-state
/// conditioned reads allocation-free — the tables are built once in
/// `ConditionerSpec::build`, never on the read path.
#[test]
fn conditioned_tier_steady_state_reads_do_not_allocate() {
    if ran_in_child("conditioned_tier_steady_state_reads_do_not_allocate") {
        return;
    }
    let mut session = EntropySource::builder()
        .shards(2)
        .seed(0xB10C)
        .chunk_bytes(4096)
        .queue_chunks(4)
        .conditioner(ConditionerSpec::Crc { ratio: 2 })
        .build()
        .expect("valid configuration")
        .session(Tier::Conditioned);
    let mut buf = vec![0u8; 4096];

    // Prime: pool commit, session carry growth, conditioner tables.
    for _ in 0..48 {
        session.read(&mut buf).expect("healthy source");
    }

    let reads = 64;
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..reads {
        session.read(&mut buf).expect("healthy source");
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "steady-state conditioned-tier reads must be allocation-free \
         ({} allocations over {reads} reads)",
        after - before
    );
    std::hint::black_box(&buf);
}

/// And the single-instance adaptor: `Conditioned::fill_bytes` now runs
/// the block path through a stack staging chunk — steady-state fills
/// must not allocate either.
#[test]
fn conditioned_adaptor_block_fill_does_not_allocate() {
    if ran_in_child("conditioned_adaptor_block_fill_does_not_allocate") {
        return;
    }
    let raw = DhTrng::builder().seed(77).build();
    let mut conditioned = Conditioned::new(raw, CrcWhitener::new(2));
    let mut buf = [0u8; 1024];
    for _ in 0..4 {
        conditioned.fill_bytes(&mut buf);
    }
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..32 {
        conditioned.fill_bytes(&mut buf);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "block-path fills must be allocation-free"
    );
    std::hint::black_box(&buf);
}

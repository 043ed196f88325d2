//! Graceful fail-over: a shard retires mid-stream and the service
//! keeps serving from a healthy deployment instead of panicking.
//!
//! The failure is *injected deterministically* — shard 1 of 3 retires
//! after exactly two chunks — so the drill reproduces bit-for-bit:
//! the engine's retirement contract guarantees every chunk merged
//! before the failed shard's round-robin slot is still delivered into
//! the caller's buffer, and the typed `Error::ShardFailed` surfaces at
//! any session tier (here: the DRBG tier a key-serving service would
//! expose).
//!
//! The drill also captures the retirement through the telemetry layer:
//! a deterministic [`Tracer`] records every stage event the doomed
//! deployment emits and dumps the Perfetto-compatible trace to
//! `failover.trace.json` — open it at <https://ui.perfetto.dev> to see
//! the per-shard tracks and the `retired` instant on shard 1's track.
//!
//! Run with: `cargo run --release --example failover`

use std::sync::Arc;

use dh_trng::prelude::*;
use rand::RngCore;

const CHUNK: usize = 4 * 1024;
const TRACE_PATH: &str = "failover.trace.json";

fn main() {
    println!("DH-TRNG graceful shard fail-over drill");

    // --- The raw-tier contract: deterministic prefix, then the error.
    // The injected-timestamp tracer makes the dump reproducible: ts is
    // the capture sequence number, not wall time.
    let tracer = Arc::new(Tracer::deterministic(4096));
    let mut doomed = EntropyStream::builder()
        .shards(3)
        .seed(0xFA11)
        .chunk_bytes(CHUNK)
        .inject_shard_failure(1, 2)
        .recorder(Arc::clone(&tracer) as Arc<dyn Recorder>)
        .build();
    // Shard 1 contributes its two chunks to rounds 0 and 1; round 2
    // delivers shard 0's chunk and then hits the obituary in shard 1's
    // slot: exactly 7 healthy chunks precede the typed error.
    let mut payload = vec![0u8; 16 * CHUNK];
    let err = doomed
        .read(&mut payload)
        .expect_err("the injected retirement must surface");
    println!(
        "  raw tier: delivered {} KiB ({} chunks), then: {err}",
        doomed.bytes_delivered() / 1024,
        doomed.bytes_delivered() as usize / CHUNK,
    );
    assert_eq!(doomed.bytes_delivered(), 7 * CHUNK as u64);
    assert!(matches!(err, Error::ShardFailed { shard: 1, .. }));

    // Dump the captured retirement as a Chrome/Perfetto trace. The
    // counters corroborate what the trace shows: exactly one retirement,
    // and 7 chunks merged before the obituary slot.
    let snapshot = doomed.metrics().snapshot();
    assert_eq!(snapshot.retirements, 1);
    assert_eq!(snapshot.chunks_merged, 7);
    drop(doomed);
    let trace = tracer.to_chrome_json();
    assert!(!trace.is_empty(), "the drill must have produced a trace");
    assert!(
        trace.contains("\"retired\""),
        "the injected retirement must appear in the trace"
    );
    std::fs::write(TRACE_PATH, &trace).expect("trace dump is writable");
    println!(
        "  trace: {} events ({} bytes) -> {TRACE_PATH}",
        tracer.recorded(),
        trace.len(),
    );

    // --- The same failure through a drbg session, handled. A
    // reseed-heavy policy keeps the drill short: every 512-bit block
    // harvests fresh seed material, so the dead shard surfaces after a
    // handful of keys instead of after the default policy's ~2700x
    // expansion of the buffered conditioned bytes. Reseed stalling is
    // off, so the dead source surfaces as the read's error instead of
    // degrading the session.
    let source = EntropySource::builder()
        .shards(2)
        .seed(0xFA11)
        .chunk_bytes(CHUNK)
        .drbg_config(DrbgConfig {
            reseed_interval_bits: 512,
            seed_bytes: 48,
            prediction_resistance: false,
        })
        .inject_shard_failure(0, 2)
        .build()
        .expect("valid configuration");
    let mut service = source.session_with(SessionConfig::new(Tier::Drbg).stall_reseeds(false));
    // Healthy fallback deployment (in production: the standby replica).
    let mut fallback = StreamRng::with_shards(2, 0x600D);

    let mut key = [0u8; 32];
    let mut served = 0u64;
    loop {
        match service.read(&mut key) {
            Ok(()) => {
                served += 1;
                if served <= 3 {
                    println!(
                        "  drbg tier: served key {served} ({:02x}{:02x}..)",
                        key[0], key[1]
                    );
                }
            }
            Err(Error::ShardFailed {
                shard,
                consecutive_restarts,
            }) => {
                println!(
                    "  drbg tier: shard {shard} retired ({consecutive_restarts} restarts) \
                     after {served} keys — failing over to the healthy deployment"
                );
                fallback
                    .try_fill_bytes(&mut key)
                    .expect("healthy deployment still serves");
                println!("  fail-over key head: {:02x}{:02x}..", key[0], key[1]);
                break;
            }
            Err(e) => {
                eprintln!("  unexpected stream error: {e}");
                std::process::exit(1);
            }
        }
    }
}

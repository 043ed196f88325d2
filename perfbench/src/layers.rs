//! The traced run: a per-layer ledger of the serving path.
//!
//! A traced run makes an untraced pass and a traced pass of the workload
//! (their ratio is the tracing overhead), then times each layer's public
//! functions from here:
//!
//! * spans of the traced pass: `Client::read` on the client threads and
//!   `Connection::handle_frame` in the benchmark's server loop; the socket
//!   share of a round trip is the first minus the second;
//! * the source's counters before and after the traced pass (ring parks
//!   and wakes, queue high water, reseeds);
//! * `Session::read` in an in-process replay of the workload's sessions;
//! * direct calls with the workload's parameters into generation, the
//!   health gate, conditioning, the DRBG, the ring hand-off, the wire
//!   codec and the three statistical batteries.
//!
//! Every per-layer metric is reported on every workload. A layer the
//! workload's own path does not use is timed standalone with the
//! benchmark's default parameters, and the detailed report says which.

use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

use dhtrng_core::conditioning::BitSink;
use dhtrng_core::drbg::BLOCK_BYTES;
use dhtrng_core::{
    Conditioner, CrcWhitener, DhTrng, DhTrngConfig, DrbgConfig, HashDrbg, HealthStatus,
    SlicedDhTrng, Trng,
};
use dhtrng_serve::{Request, Response};
use dhtrng_stattests::{ais31, sp800_22, sp800_90b, BitBuffer};
use dhtrng_stream::{ring, ConditionerSpec, EntropyStreamBuilder, HealthConfig, Tier};

use crate::json::Json;
use crate::serving::{self, Conn, Pass, CHUNK_BYTES, QUEUE_CHUNKS, SHARDS};
use crate::trace::{self, SpanLog};
use crate::{checks_json, metric, percentile, source_json, Args, Metric, Outcome};

/// Chunks generated per shard seed for the generation-side layers.
const GEN_REPS: usize = 3;
/// DRBG batches of `DRBG_BLOCKS` output blocks.
const DRBG_BATCHES: usize = 128;
const DRBG_BLOCKS: usize = 1024;
/// Ring ping-pong batches of `RING_TRIPS` round trips.
const RING_BATCHES: usize = 16;
const RING_TRIPS: usize = 1000;
/// Wire-codec time per frame size, per direction.
const PROTO_SECONDS: f64 = 0.1;
/// Timed span of each in-process session replay.
const REPLAY_SECONDS: f64 = 1.0;
/// Raw bits for the statistical batteries: AIS-31 procedures A and B
/// take all of them (T0 alone needs 3,145,728), SP 800-22 takes one
/// 1 Mbit sequence, and the SP 800-90B non-IID battery the first 256 kbit.
const AIS31_BITS: usize = 4 << 20;
const SP800_22_BITS: usize = 1 << 20;
const SP800_90B_BITS: usize = 1 << 18;

/// Times `f` as a span named `name`; returns its result and duration.
fn timed<R>(log: &mut SpanLog, name: &'static str, req: u64, f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let result = f();
    let t1 = Instant::now();
    (result, log.record(name, None, req, t0, t1) as f64)
}

fn push(metrics: &mut Vec<Metric>, name: &'static str, value: f64, unit: &'static str) {
    metrics.push(Metric { name, value, unit });
}

/// The shard configurations the engine derives from `seed`.
fn shard_configs(seed: u64) -> Vec<DhTrngConfig> {
    (0..SHARDS as u64)
        .map(|i| DhTrngConfig {
            seed: EntropyStreamBuilder::derive_shard_seed(seed, i),
            ..DhTrngConfig::default()
        })
        .collect()
}

/// The pipeline's conditioner (the `ConditionerSpec` default).
fn pipeline_conditioner() -> CrcWhitener {
    match ConditionerSpec::default() {
        ConditionerSpec::Crc { ratio } => CrcWhitener::new(ratio),
        other => panic!("the benchmark times CRC conditioning, the default is {other:?}"),
    }
}

/// Generation (scalar batch and sliced), health gate and conditioning,
/// one 64 KiB chunk at a time per shard seed.
fn generation(seed: u64, log: &mut SpanLog, metrics: &mut Vec<Metric>) {
    let bits = (CHUNK_BYTES * 8) as f64;
    let (mut batch, mut health, mut conditioning) = (Vec::new(), Vec::new(), Vec::new());
    let mut conditioned = vec![0u8; CHUNK_BYTES];
    for (shard, config) in shard_configs(seed).into_iter().enumerate() {
        let mut trng = DhTrng::new(config);
        let mut monitor = HealthConfig::default().monitor();
        let mut conditioner = pipeline_conditioner();
        let mut chunk = vec![0u8; CHUNK_BYTES];
        for rep in 0..GEN_REPS {
            let req = (shard * GEN_REPS + rep) as u64;
            let ((), ns) = timed(log, "core.batch.fill_bytes", req, || {
                trng.fill_bytes(&mut chunk)
            });
            batch.push(ns / bits);
            // The shard worker's gate: every bit, MSB first, stop at a trip.
            let (healthy, ns) = timed(log, "core.health.feed", req, || {
                chunk.iter().all(|&byte| {
                    (0..8)
                        .rev()
                        .all(|i| monitor.feed((byte >> i) & 1 == 1) == HealthStatus::Ok)
                })
            });
            black_box(healthy);
            health.push(ns / bits);
            let (written, ns) = timed(log, "core.conditioning.condition_block", req, || {
                let mut sink = BitSink::new(&mut conditioned);
                conditioner.condition_block(&chunk, &mut sink);
                sink.bytes_written()
            });
            black_box(written);
            conditioning.push(ns / bits);
        }
    }
    let mut bank = SlicedDhTrng::new(shard_configs(seed).into_iter().map(DhTrng::new).collect())
        .expect("two lanes fit the sliced bank");
    let mut chunks = vec![Some(vec![0u8; CHUNK_BYTES]); SHARDS];
    let mut sliced = Vec::new();
    for rep in 0..GEN_REPS {
        let ((), ns) = timed(log, "core.slice.fill_lane_chunks", rep as u64, || {
            bank.fill_lane_chunks(&mut chunks);
        });
        sliced.push(ns / (bits * SHARDS as f64));
    }
    push(
        metrics,
        "core.batch.ns_per_bit",
        crate::stats::median(&batch),
        "ns/bit",
    );
    push(
        metrics,
        "core.slice.ns_per_lane_bit",
        crate::stats::median(&sliced),
        "ns/bit",
    );
    push(
        metrics,
        "core.health.ns_per_bit",
        crate::stats::median(&health),
        "ns/bit",
    );
    push(
        metrics,
        "core.conditioning.ns_per_raw_bit",
        crate::stats::median(&conditioning),
        "ns/bit",
    );
}

/// Seed material of `len` bytes from `seed` (splitmix64).
fn material(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as u8
        })
        .collect()
}

/// `HashDrbg::generate`, reseeding whenever the interval runs out.
fn drbg(seed: u64, log: &mut SpanLog, metrics: &mut Vec<Metric>) {
    let config = DrbgConfig::default();
    let material = material(seed, config.seed_bytes);
    let mut drbg = HashDrbg::instantiate(&material, config);
    let mut block = [0u8; BLOCK_BYTES];
    let mut samples = Vec::new();
    for batch in 0..DRBG_BATCHES {
        let ((), ns) = timed(log, "core.drbg.generate", batch as u64, || {
            for _ in 0..DRBG_BLOCKS {
                if drbg.generate(&mut block).is_err() {
                    drbg.reseed(&material);
                    drbg.generate(&mut block).expect("reseeded just now");
                }
                black_box(&block);
            }
        });
        samples.push(ns / (DRBG_BLOCKS * BLOCK_BYTES) as f64);
    }
    push(
        metrics,
        "core.drbg.ns_per_byte",
        crate::stats::median(&samples),
        "ns/byte",
    );
}

/// `ring::spsc` hand-off: a chunk buffer ping-pongs between this thread
/// and an echo thread over two rings of the engine's depth.
fn ring_handoff(log: &mut SpanLog, metrics: &mut Vec<Metric>) {
    let (mut to_echo, mut echo_in) = ring::spsc::<Vec<u8>>(QUEUE_CHUNKS);
    let (mut echo_out, mut back) = ring::spsc::<Vec<u8>>(QUEUE_CHUNKS);
    let mut samples = Vec::new();
    thread::scope(|scope| {
        scope.spawn(move || {
            while let Ok(chunk) = echo_in.pop() {
                if echo_out.push(chunk).is_err() {
                    break;
                }
            }
        });
        let mut chunk = Vec::with_capacity(CHUNK_BYTES);
        for batch in 0..RING_BATCHES {
            let (returned, ns) = timed(log, "stream.ring.round_trips", batch as u64, || {
                let mut chunk = chunk;
                for _ in 0..RING_TRIPS {
                    to_echo.push(chunk).expect("echo thread alive");
                    chunk = back.pop().expect("echo thread alive");
                }
                chunk
            });
            chunk = returned;
            samples.push(ns / (2 * RING_TRIPS) as f64);
        }
        drop(to_echo);
    });
    push(
        metrics,
        "stream.ring.handoff_ns_per_chunk",
        crate::stats::median(&samples),
        "ns",
    );
}

/// Closed-loop `Session::read` on an in-process source opened like the
/// workload's connections: drain as the pass does, then time
/// `REPLAY_SECONDS`. Returns the per-session logs and failed reads.
fn replay(conns: &[Conn], seed: u64, epoch: Instant, first_thread: u32) -> (Vec<SpanLog>, u64) {
    let source = serving::build_source(seed);
    let mut sessions = Vec::new();
    for conn in conns {
        let mut session = source.session(conn.tier);
        let primed = session.prime().is_ok();
        sessions.push((session, primed));
    }
    let barrier = Barrier::new(conns.len());
    let results: Vec<(SpanLog, u64)> = thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .into_iter()
            .zip(conns)
            .enumerate()
            .map(|(i, ((mut session, primed), conn))| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut log = SpanLog::new(epoch, first_thread + i as u32);
                    let mut buf = vec![0u8; conn.read as usize];
                    let mut ok = primed;
                    for _ in 0..conn.drain_reads() {
                        ok = ok && session.read(&mut buf).is_ok();
                    }
                    barrier.wait();
                    let name = match conn.tier {
                        Tier::Drbg => "stream.api.session_read.drbg",
                        _ => "stream.api.session_read.conditioned",
                    };
                    let deadline = Instant::now() + Duration::from_secs_f64(REPLAY_SECONDS);
                    let mut req = 0;
                    while ok && Instant::now() < deadline {
                        let t0 = Instant::now();
                        ok = session.read(&mut buf).is_ok();
                        log.record(name, None, req, t0, Instant::now());
                        req += 1;
                    }
                    (log, u64::from(!ok))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let failed = results.iter().map(|(_, f)| f).sum();
    (results.into_iter().map(|(log, _)| log).collect(), failed)
}

/// Mean `Request`+`Response` encode and decode time per frame, over the
/// workload's read sizes weighted by how many timed reads each made.
fn proto(sizes: &[(u32, u64)], log: &mut SpanLog, metrics: &mut Vec<Metric>) {
    let (mut encode, mut decode, mut weights) = (0.0, 0.0, 0.0);
    for &(read, weight) in sizes {
        let request = Request::Read { n: read };
        let response = Response::Data {
            offset: 1 << 30,
            bytes: material(u64::from(read), read as usize),
        };
        let (request_bytes, response_bytes) = (request.encode(), response.encode());
        let mut per_frame = |name: &'static str, f: &dyn Fn()| {
            let (mut frames, mut ns) = (0u64, 0.0);
            let mut req = 0;
            while ns < PROTO_SECONDS * 1e9 {
                let ((), t) = timed(log, name, req, || {
                    for _ in 0..64 {
                        f();
                    }
                });
                ns += t;
                frames += 128;
                req += 1;
            }
            ns / frames as f64
        };
        let enc = per_frame("serve.proto.encode", &|| {
            black_box(black_box(&request).encode());
            black_box(black_box(&response).encode());
        });
        let dec = per_frame("serve.proto.decode", &|| {
            black_box(Request::decode(black_box(&request_bytes)).expect("valid frame"));
            black_box(Response::decode(black_box(&response_bytes)).expect("valid frame"));
        });
        let weight = weight.max(1) as f64;
        encode += enc * weight;
        decode += dec * weight;
        weights += weight;
    }
    push(
        metrics,
        "serve.proto.encode_ns_per_frame",
        encode / weights,
        "ns",
    );
    push(
        metrics,
        "serve.proto.decode_ns_per_frame",
        decode / weights,
        "ns",
    );
}

/// The three statistical batteries on raw `DhTrng` bits (Artix-7 default
/// configuration), each run twice on the same bits: the two reports must
/// be identical. Test rejections are counted, not failed.
fn stattests(
    seed: u64,
    log: &mut SpanLog,
    metrics: &mut Vec<Metric>,
    checks: &mut Vec<(String, bool)>,
) -> Json {
    let config = DhTrngConfig {
        seed,
        ..DhTrngConfig::default()
    };
    let mut bytes = vec![0u8; AIS31_BITS / 8];
    DhTrng::new(config).fill_bytes(&mut bytes);
    let suite_input = vec![BitBuffer::from_bytes(&bytes[..SP800_22_BITS / 8])];
    let non_iid_input = BitBuffer::from_bytes(&bytes[..SP800_90B_BITS / 8]);
    let ais_input = BitBuffer::from_bytes(&bytes);

    let (suite, suite_ns) = twice(
        log,
        checks,
        "stattests.sp800_22.run_suite",
        SP800_22_BITS,
        || sp800_22::run_suite(&suite_input),
    );
    let (estimates, non_iid_ns) = twice(
        log,
        checks,
        "stattests.sp800_90b.non_iid_battery",
        SP800_90B_BITS,
        || sp800_90b::non_iid_battery(&non_iid_input),
    );
    let ((a, b), ais_ns) = twice(
        log,
        checks,
        "stattests.ais31.procedures",
        AIS31_BITS,
        || {
            (
                ais31::procedure_a(&ais_input),
                ais31::procedure_b(&ais_input),
            )
        },
    );
    push(metrics, "stattests.sp800_22.ns_per_bit", suite_ns, "ns/bit");
    push(
        metrics,
        "stattests.sp800_90b.ns_per_bit",
        non_iid_ns,
        "ns/bit",
    );
    push(metrics, "stattests.ais31.ns_per_bit", ais_ns, "ns/bit");

    let ((t0, rates), (t6, t7, t8)) = (a, b);
    let ais_rejected = usize::from(!t0)
        + rates.iter().filter(|r| !r.all()).count()
        + usize::from(!t6)
        + usize::from(!t7)
        + usize::from(t8 <= ais31::T8_THRESHOLD);
    let suite_rejected = suite
        .rows
        .iter()
        .filter(|r| r.passed < r.applicable)
        .count();
    let h_min = estimates.iter().map(|e| e.h_min).fold(1.0, f64::min);
    Json::obj()
        .with(
            "sp800_22",
            Json::obj()
                .with("bits", SP800_22_BITS)
                .with("tests", suite.rows.len())
                .with("rejected", suite_rejected),
        )
        .with(
            "sp800_90b",
            Json::obj()
                .with("bits", SP800_90B_BITS)
                .with("estimators", estimates.len())
                .with("min_entropy", h_min),
        )
        .with(
            "ais31",
            Json::obj()
                .with("bits", AIS31_BITS)
                .with("tests", 9u64)
                .with("rejected", ais_rejected),
        )
}

/// Runs a battery twice on the same bits as spans named `name`; the two
/// results must be identical. Returns the first and the mean ns per bit.
fn twice<R: PartialEq>(
    log: &mut SpanLog,
    checks: &mut Vec<(String, bool)>,
    name: &'static str,
    bits: usize,
    battery: impl Fn() -> R,
) -> (R, f64) {
    let (first, ns1) = timed(log, name, 0, &battery);
    let (second, ns2) = timed(log, name, 1, &battery);
    checks.push((format!("{name}_repeats_identically"), first == second));
    (first, (ns1 + ns2) / 2.0 / bits as f64)
}

/// Source counters over the traced pass, per MiB delivered to sessions.
fn counters(pass: &Pass, metrics: &mut Vec<Metric>) {
    let (before, after) = (&pass.before, &pass.after);
    let mib = (after.telemetry.session_bytes - before.telemetry.session_bytes) as f64
        / f64::from(1 << 20);
    let per_mib = |delta: u64| delta as f64 / mib.max(f64::MIN_POSITIVE);
    push(
        metrics,
        "stream.ring.parks_per_mib",
        per_mib(after.telemetry.ring_parks - before.telemetry.ring_parks),
        "1/MiB",
    );
    push(
        metrics,
        "stream.ring.wakes_per_mib",
        per_mib(after.telemetry.ring_wakes - before.telemetry.ring_wakes),
        "1/MiB",
    );
    push(
        metrics,
        "stream.exec.queue_high_water",
        after.telemetry.queue_high_water as f64,
        "count",
    );
    push(
        metrics,
        "stream.arbiter.reseeds_per_mib",
        per_mib(after.reseeds_served - before.reseeds_served),
        "1/MiB",
    );
    push(
        metrics,
        "stream.arbiter.stalled_reseeds",
        (after.stalled_reseeds - before.stalled_reseeds) as f64,
        "count",
    );
}

/// The traced run (`--trace 1`).
pub fn traced(args: &Args, sock: &Path, run_dir: &str) -> io::Result<Outcome> {
    let (workload, seed) = (args.workload, args.seed);
    // The run's seconds are split evenly between the untraced and the
    // traced pass.
    let seconds = args.seconds / 2.0;
    let base = serving::pass(workload, seed, seconds, sock, None)?;
    let epoch = Instant::now();
    let pass = serving::pass(workload, seed, seconds, sock, Some(epoch))?;
    let mut checks = serving::check_outputs(workload, seed, &pass.clients);
    let mut attempted = base.attempted() + pass.attempted();
    let mut failed = base.failed() + pass.failed();
    let mut metrics = Vec::new();
    let mut probe = SpanLog::new(epoch, 200);

    // The serving path, from the traced pass's spans.
    let client_logs: Vec<&SpanLog> = pass.clients.iter().filter_map(|r| r.log.as_ref()).collect();
    let (reads, read_ns) = trace::total(client_logs.iter().copied(), "client.read");
    let (frames, frame_ns) = trace::total(&pass.server_logs, "serve.service.handle_frame");
    checks.push(("every_timed_read_has_a_server_span".into(), reads == frames));
    let handle_frame_ns = frame_ns as f64 / frames.max(1) as f64;
    let socket_ns = (read_ns as f64 - frame_ns as f64) / reads.max(1) as f64;
    push(
        &mut metrics,
        "serve.service.handle_frame_ns",
        handle_frame_ns,
        "ns",
    );
    push(
        &mut metrics,
        "serve.server.socket_ns_per_roundtrip",
        socket_ns,
        "ns",
    );
    counters(&pass, &mut metrics);

    // Session::read, replayed in-process; a tier the workload lacks is
    // replayed standalone.
    let conns = workload.conns();
    let mut replays = vec![replay(&conns, seed, epoch, 300)];
    let mut standalone = Vec::new();
    for conn in [Conn::conditioned(0), Conn::drbg()] {
        if !conns.iter().any(|c| c.tier == conn.tier) {
            replays.push(replay(&[conn], seed, epoch, 310));
            standalone.push(format!("stream.api.session_read_ns.{:?}", conn.tier).to_lowercase());
        }
    }
    let mut replay_logs = Vec::new();
    for (logs, replay_failed) in replays {
        attempted += logs.len() as u64;
        failed += replay_failed;
        replay_logs.extend(logs);
    }
    for (tier, span) in [
        (
            "stream.api.session_read_ns.conditioned",
            "stream.api.session_read.conditioned",
        ),
        (
            "stream.api.session_read_ns.drbg",
            "stream.api.session_read.drbg",
        ),
    ] {
        push(&mut metrics, tier, trace::mean_ns(&replay_logs, span), "ns");
    }

    // Direct calls into each layer.
    let sizes: Vec<(u32, u64)> = pass
        .clients
        .iter()
        .map(|r| (r.conn.read, r.hist.count()))
        .collect();
    proto(&sizes, &mut probe, &mut metrics);
    generation(seed, &mut probe, &mut metrics);
    drbg(seed, &mut probe, &mut metrics);
    ring_handoff(&mut probe, &mut metrics);
    let batteries = stattests(seed, &mut probe, &mut metrics, &mut checks);

    // The client threads are the blocking path: what their read spans do
    // not cover is the benchmark loop itself.
    let wall_ns: u64 = pass.clients.iter().map(|r| r.wall_ns).sum();
    let unattributed = (wall_ns as f64 - read_ns as f64) / wall_ns.max(1) as f64;
    push(
        &mut metrics,
        "ledger.unattributed_share",
        unattributed,
        "ratio",
    );
    let overhead = pass.mean_read_ns() / base.mean_read_ns();
    push(&mut metrics, "trace.overhead_ratio", overhead, "ratio");

    attempted += checks.len() as u64;
    failed += checks.iter().filter(|(_, ok)| !ok).count() as u64;

    let trace_file = Path::new(run_dir).join(format!("trace-{}.json", workload.name()));
    let logs = client_logs
        .into_iter()
        .chain(&pass.server_logs)
        .chain(&replay_logs)
        .chain([&probe]);
    trace::write_chrome(&trace_file, logs)?;

    let per_layer = metrics.iter().fold(Json::obj(), |json, m| {
        json.with(m.name, metric(m.value, m.unit))
    });
    let mean_read_ns = read_ns as f64 / reads.max(1) as f64;
    let ledger = Json::obj()
        .with("timed_reads", reads)
        .with("client_read_ns", mean_read_ns)
        .with("handle_frame_share", handle_frame_ns / mean_read_ns)
        .with("socket_share", socket_ns / mean_read_ns)
        .with("unattributed_share", unattributed)
        .with("untraced_mean_read_ns", base.mean_read_ns());
    let mut latency = Json::obj();
    for tier in [Tier::Conditioned, Tier::Drbg] {
        if let Some(summary) = pass.tier(tier) {
            let name = format!("{tier:?}").to_lowercase();
            latency.set(&format!("{name}_p50_us"), percentile(&summary.hist, 0.5));
            latency.set(&format!("{name}_p99_us"), percentile(&summary.hist, 0.99));
        }
    }
    let report = crate::host::record(workload, seed, seconds)
        .with("workload", workload.name())
        .with("trace", true)
        .with("per_layer", per_layer)
        .with("standalone", standalone)
        .with("ledger", ledger)
        .with("traced_latency", latency)
        .with("batteries", batteries)
        .with("source", source_json(&pass))
        .with("checks", checks_json(&checks))
        .with("trace_file", trace_file.display().to_string());
    Ok(Outcome {
        report,
        attempted,
        failed,
        metrics,
    })
}

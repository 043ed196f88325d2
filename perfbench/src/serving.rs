//! The serving workloads: the entropy service in-process behind a real
//! unix socket, driven by closed-loop clients through
//! `dhtrng_serve::Client`.
//!
//! One *pass* builds the source, starts a server, connects every client
//! (hello and first read, in connection order: that is the set-up time),
//! drains each connection past the buffered depth, then times closed-loop
//! reads for a fixed wall-clock span. The untraced pass serves through the
//! program's own `serve_unix`; the traced pass serves through a
//! benchmark-owned `read_frame` → `Connection::handle_frame` →
//! `write_frame` loop (the same loop `serve_unix` runs) so the
//! `handle_frame` call can be spanned.

use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

use dhtrng_serve::proto::{read_frame, write_frame};
use dhtrng_serve::{serve_unix, Client, Service, UnixServerHandle};
use dhtrng_stream::{EntropySource, KernelKind, SourceStats, Tier};

use crate::stats::Histogram;
use crate::trace::SpanLog;

/// Shards in the benchmarked deployment.
pub const SHARDS: usize = 2;
/// Raw bytes per shard chunk (the engine default).
pub const CHUNK_BYTES: usize = 64 * 1024;
/// Chunks each shard's data ring buffers (the engine default).
pub const QUEUE_CHUNKS: usize = 4;
/// Read size of a conditioned (bulk) client.
pub const CONDITIONED_READ: u32 = 16 * 1024;
/// Read size of a drbg (small-read) client.
pub const DRBG_READ: u32 = 64;
/// Chunks of its tier each connection drains before timing: twice what
/// the source can hold buffered (each shard owns `QUEUE_CHUNKS + 2` pool
/// buffers), so no timed read is served from the prefill.
pub const DRAIN_CHUNKS: usize = 2 * SHARDS * (QUEUE_CHUNKS + 2);
/// Wait after a teardown so the old source's workers have ended before
/// anything else is timed.
const SETTLE: Duration = Duration::from_millis(30);

/// One client connection of a workload.
#[derive(Clone, Copy, Debug)]
pub struct Conn {
    pub tier: Tier,
    /// Bytes per `Read` request.
    pub read: u32,
    /// Leading bytes of this connection's stream that are a pure function
    /// of the seed and the connection order, checked against an
    /// in-process replay.
    pub head: usize,
}

impl Conn {
    pub fn conditioned(head: usize) -> Self {
        Self {
            tier: Tier::Conditioned,
            read: CONDITIONED_READ,
            head,
        }
    }

    /// A drbg client. Its first 4 KiB come before any reseed (the default
    /// reseed interval is 1 Mbit of output), so they depend only on the
    /// instantiate harvest, which happens at `Hello`.
    pub fn drbg() -> Self {
        Self {
            tier: Tier::Drbg,
            read: DRBG_READ,
            head: 4096,
        }
    }

    /// Reads each connection makes before timing starts.
    pub fn drain_reads(&self) -> u64 {
        (DRAIN_CHUNKS * CHUNK_BYTES) as u64 / u64::from(self.read)
    }
}

/// The serving workloads (all closed loop: each client waits for every
/// reply before it sends the next request).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    BulkConditioned,
    SmallDrbg,
    Mixed,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "bulk_conditioned" => Some(Self::BulkConditioned),
            "small_drbg" => Some(Self::SmallDrbg),
            "mixed" => Some(Self::Mixed),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::BulkConditioned => "bulk_conditioned",
            Self::SmallDrbg => "small_drbg",
            Self::Mixed => "mixed",
        }
    }

    /// The connections, in the order they connect.
    pub fn conns(self) -> Vec<Conn> {
        match self {
            // The only consumer of the conditioned stream: its whole
            // stream is the source's, so a long head is checkable.
            Self::BulkConditioned => vec![Conn::conditioned(256 * 1024)],
            Self::SmallDrbg => vec![Conn::drbg(), Conn::drbg()],
            // Reseed harvests share the conditioned stream, so only the
            // bulk client's first chunk (it reads before the drbg client
            // connects) is independent of thread timing.
            Self::Mixed => vec![Conn::conditioned(CHUNK_BYTES / 2), Conn::drbg()],
        }
    }
}

/// The benchmarked deployment: 2 shards, the `Auto` kernel, default
/// chunk, queue, health, conditioner and DRBG settings.
pub fn build_source(seed: u64) -> EntropySource {
    EntropySource::builder()
        .shards(SHARDS)
        .seed(seed)
        .chunk_bytes(CHUNK_BYTES)
        .queue_chunks(QUEUE_CHUNKS)
        .kernel(KernelKind::Auto)
        .build()
        .expect("the benchmark's source configuration is valid")
}

/// What one client connection did in a pass.
pub struct ClientRun {
    pub conn: Conn,
    /// Round-trip time of every timed read.
    pub hist: Histogram,
    /// Payload bytes of timed reads.
    pub bytes: u64,
    /// Requests sent over the whole pass (hello, set-up, drain, timed).
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Whether any `Client::read` reported an offset or length that broke
    /// contiguity.
    pub delivery_violations: u64,
    /// The connection's first `conn.head` bytes.
    pub head: Vec<u8>,
    /// Timed phase: from its start to the end of the last timed read.
    pub wall_ns: u64,
    /// Spans of the client thread (traced pass only).
    pub log: Option<SpanLog>,
}

impl ClientRun {
    fn new(conn: Conn, log: Option<SpanLog>) -> Self {
        Self {
            conn,
            hist: Histogram::default(),
            bytes: 0,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            delivery_violations: 0,
            head: Vec::with_capacity(conn.head),
            wall_ns: 0,
            log,
        }
    }

    fn keep_head(&mut self, bytes: &[u8]) {
        let take = (self.conn.head - self.head.len()).min(bytes.len());
        self.head.extend_from_slice(&bytes[..take]);
    }

    fn fail(&mut self, error: &dhtrng_serve::ClientError) {
        self.failed += 1;
        if matches!(error, dhtrng_serve::ClientError::Unexpected(_)) {
            self.delivery_violations += 1;
        }
        if self.errors.len() < 8 {
            self.errors.push(error.to_string());
        }
    }

    /// One `Read` round trip outside the timed phase.
    fn untimed_read(&mut self, client: &mut Client<UnixStream>) -> bool {
        self.attempted += 1;
        match client.read(self.conn.read) {
            Ok(bytes) => {
                self.keep_head(&bytes);
                true
            }
            Err(error) => {
                self.fail(&error);
                false
            }
        }
    }
}

/// The server side of a pass.
enum Server {
    /// The program's own unix front-end.
    Program(UnixServerHandle),
    /// The benchmark's frame loop; joins to the per-connection span logs.
    Traced(thread::JoinHandle<Vec<SpanLog>>),
}

/// A started deployment with every client connected and served once.
struct Live {
    source: EntropySource,
    server: Server,
    clients: Vec<Option<Client<UnixStream>>>,
    runs: Vec<ClientRun>,
    setup_s: f64,
}

/// Request id shared by a client's read span and the server's span for
/// the same frame: connection index in the high bits, frame index below
/// (frame 0 is the `Hello`).
fn req_id(conn: usize, frame: u64) -> u64 {
    ((conn as u64) << 48) | frame
}

/// Builds the source, starts the server and connects the clients; the
/// elapsed time is the set-up time.
fn start(workload: Workload, seed: u64, sock: &Path, epoch: Option<Instant>) -> io::Result<Live> {
    let conns = workload.conns();
    let t0 = Instant::now();
    let source = build_source(seed);
    let service = Service::new(source.clone());
    let server = match epoch {
        None => Server::Program(serve_unix(service, sock)?),
        Some(epoch) => {
            let _ = std::fs::remove_file(sock);
            let listener = UnixListener::bind(sock)?;
            // The connections in accept order, with the index of their
            // first timed frame (after the hello, the first read and the
            // drain).
            let timed_from: Vec<u64> = conns.iter().map(|c| 2 + c.drain_reads()).collect();
            Server::Traced(thread::spawn(move || {
                traced_server(&service, &listener, &timed_from, epoch)
            }))
        }
    };
    let mut runs: Vec<ClientRun> = conns
        .iter()
        .enumerate()
        .map(|(i, &conn)| ClientRun::new(conn, epoch.map(|e| SpanLog::new(e, i as u32))))
        .collect();
    let clients = connect(sock, &mut runs)?;
    Ok(Live {
        source,
        server,
        clients,
        runs,
        setup_s: t0.elapsed().as_secs_f64(),
    })
}

/// Connects one client per connection, in order, each sending `Hello`
/// and one read before the next connects. A client whose hello or read
/// fails is counted and left out (`None`).
fn connect(sock: &Path, runs: &mut [ClientRun]) -> io::Result<Vec<Option<Client<UnixStream>>>> {
    runs.iter_mut()
        .map(|run| {
            let mut client = Client::connect_unix(sock)?;
            run.attempted += 1;
            if let Err(error) = client.hello(run.conn.tier, None) {
                run.fail(&error);
                return Ok(None);
            }
            Ok(run.untimed_read(&mut client).then_some(client))
        })
        .collect()
}

/// The benchmark-owned server: the same frame loop as `serve_unix`, with
/// a span around each timed frame's `Connection::handle_frame`. Serves
/// `timed_from.len()` connections.
fn traced_server(
    service: &Service,
    listener: &UnixListener,
    timed_from: &[u64],
    epoch: Instant,
) -> Vec<SpanLog> {
    thread::scope(|scope| {
        let mut handles = Vec::new();
        for (i, &from) in timed_from.iter().enumerate() {
            let Ok((mut stream, _)) = listener.accept() else {
                break;
            };
            handles.push(scope.spawn(move || {
                let mut log = SpanLog::new(epoch, 100 + i as u32);
                let mut connection = service.connect();
                let mut frame = 0u64;
                while let Ok(Some(payload)) = read_frame(&mut stream) {
                    let t0 = Instant::now();
                    let response = connection.handle_frame(&payload);
                    let t1 = Instant::now();
                    if frame >= from {
                        log.record(
                            "serve.service.handle_frame",
                            Some("client.read"),
                            req_id(i, frame),
                            t0,
                            t1,
                        );
                    }
                    if write_frame(&mut stream, &response).is_err() {
                        break;
                    }
                    frame += 1;
                }
                log
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("traced connection thread panicked"))
            .collect()
    })
}

/// Stops the server and waits until the source's sessions (held by the
/// connection threads) are gone; clients must already be closed.
fn stop(source: EntropySource, server: Server, sock: &Path) -> Vec<SpanLog> {
    let logs = match server {
        Server::Program(handle) => {
            handle.shutdown();
            Vec::new()
        }
        Server::Traced(handle) => {
            let logs = handle.join().expect("traced server thread panicked");
            let _ = std::fs::remove_file(sock);
            logs
        }
    };
    let deadline = Instant::now() + Duration::from_secs(5);
    while source.stats().live_sessions > 0 && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(1));
    }
    drop(source);
    thread::sleep(SETTLE);
    logs
}

/// Builds, connects and tears down once; returns the set-up time and the
/// requests attempted and failed.
pub fn setup_only(workload: Workload, seed: u64, sock: &Path) -> io::Result<(f64, u64, u64)> {
    let live = start(workload, seed, sock, None)?;
    let attempted = live.runs.iter().map(|r| r.attempted).sum();
    let failed = live.runs.iter().map(|r| r.failed).sum();
    drop(live.clients);
    stop(live.source, live.server, sock);
    Ok((live.setup_s, attempted, failed))
}

/// Everything one pass measured.
pub struct Pass {
    pub setup_s: f64,
    pub seconds: f64,
    pub clients: Vec<ClientRun>,
    pub server_logs: Vec<SpanLog>,
    /// Source counters at the start and end of the timed phase.
    pub before: SourceStats,
    pub after: SourceStats,
    /// Process memory high-water mark right after the timed phase.
    pub peak_rss_kib: Option<u64>,
}

/// Runs one full pass; `epoch` is `Some` for the traced pass.
pub fn pass(
    workload: Workload,
    seed: u64,
    seconds: f64,
    sock: &Path,
    epoch: Option<Instant>,
) -> io::Result<Pass> {
    let live = start(workload, seed, sock, epoch)?;
    let barrier = Barrier::new(live.runs.len() + 1);
    let mut runs = live.runs;
    let before = thread::scope(|scope| {
        for (i, (client, run)) in live.clients.into_iter().zip(runs.iter_mut()).enumerate() {
            let barrier = &barrier;
            scope.spawn(move || drive(i, client, run, seconds, barrier));
        }
        barrier.wait();
        live.source.stats()
    });
    let after = live.source.stats();
    let peak_rss_kib = crate::host::peak_rss_kib();
    let server_logs = stop(live.source, live.server, sock);
    Ok(Pass {
        setup_s: live.setup_s,
        seconds,
        clients: runs,
        server_logs,
        before,
        after,
        peak_rss_kib,
    })
}

/// One client thread: drain, meet the others at `barrier`, then read in
/// a closed loop for `seconds`. The client is closed when this returns.
fn drive(
    index: usize,
    mut client: Option<Client<UnixStream>>,
    run: &mut ClientRun,
    seconds: f64,
    barrier: &Barrier,
) {
    let drain = run.conn.drain_reads();
    if let Some(c) = client.as_mut() {
        for _ in 0..drain {
            if !run.untimed_read(c) {
                client = None;
                break;
            }
        }
    }
    barrier.wait();
    let Some(mut client) = client else {
        return;
    };
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut frame = 2 + drain;
    let mut last = start;
    loop {
        let t0 = Instant::now();
        if t0 >= deadline {
            break;
        }
        run.attempted += 1;
        let result = client.read(run.conn.read);
        let t1 = Instant::now();
        match result {
            Ok(bytes) => {
                let ns = match run.log.as_mut() {
                    Some(log) => log.record("client.read", None, req_id(index, frame), t0, t1),
                    None => (t1 - t0).as_nanos() as u64,
                };
                run.hist.record(ns);
                run.bytes += bytes.len() as u64;
                run.keep_head(&bytes);
            }
            Err(error) => {
                run.fail(&error);
                break;
            }
        }
        last = t1;
        frame += 1;
    }
    run.wall_ns = (last - start).as_nanos() as u64;
}

/// The timed reads of one tier in a pass, summed over its connections.
pub struct TierSummary {
    pub hist: Histogram,
    /// Payload rate over the timed phase, in bytes per second.
    pub bytes_per_s: f64,
}

impl Pass {
    pub fn tier(&self, tier: Tier) -> Option<TierSummary> {
        let runs: Vec<&ClientRun> = self
            .clients
            .iter()
            .filter(|r| r.conn.tier == tier)
            .collect();
        if runs.is_empty() {
            return None;
        }
        let mut hist = Histogram::default();
        for run in &runs {
            hist.merge(&run.hist);
        }
        let bytes: u64 = runs.iter().map(|r| r.bytes).sum();
        Some(TierSummary {
            hist,
            bytes_per_s: bytes as f64 / self.seconds,
        })
    }

    pub fn attempted(&self) -> u64 {
        self.clients.iter().map(|r| r.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.clients.iter().map(|r| r.failed).sum()
    }

    /// Timed reads over all connections.
    pub fn reads(&self) -> u64 {
        self.clients.iter().map(|r| r.hist.count()).sum()
    }

    /// Mean round trip of a timed read, pooled over all connections.
    pub fn mean_read_ns(&self) -> f64 {
        let ns: u128 = self.clients.iter().map(|r| r.hist.sum_ns()).sum();
        ns as f64 / self.reads().max(1) as f64
    }
}

/// The output checks: each connection's head against an in-process
/// session on an identically seeded and configured source, opened in the
/// same order; and, with two drbg connections, that their streams differ.
/// Returns `(name, passed)` per check.
pub fn check_outputs(workload: Workload, seed: u64, runs: &[ClientRun]) -> Vec<(String, bool)> {
    let source = build_source(seed);
    let mut sessions = Vec::new();
    for conn in workload.conns() {
        let mut session = source.session(conn.tier);
        let mut head = vec![0u8; conn.head];
        let first = conn.read as usize;
        let ok = session.prime().is_ok() && session.read(&mut head[..first]).is_ok();
        sessions.push((session, head, ok));
    }
    let mut checks = Vec::new();
    for (i, ((session, head, ok), run)) in sessions.iter_mut().zip(runs).enumerate() {
        let first = run.conn.read as usize;
        let ok = *ok && session.read(&mut head[first..]).is_ok();
        let name = format!(
            "conn{i}_{:?}_head_matches_in_process_session",
            run.conn.tier
        );
        checks.push((name.to_lowercase(), ok && run.head == *head));
    }
    let drbg_heads: Vec<&Vec<u8>> = runs
        .iter()
        .filter(|r| r.conn.tier == Tier::Drbg)
        .map(|r| &r.head)
        .collect();
    if drbg_heads.len() == 2 {
        checks.push(("drbg_streams_differ".into(), drbg_heads[0] != drbg_heads[1]));
    }
    let violations: u64 = runs.iter().map(|r| r.delivery_violations).sum();
    checks.push(("read_offsets_contiguous".into(), violations == 0));
    checks
}

//! In-memory span recording for the traced run.
//!
//! Spans are recorded only from the benchmark's own files, around calls
//! into the layers' public functions. Each thread owns a [`SpanLog`], so
//! recording takes no lock. Totals per span name cover every span; the
//! raw spans kept for the written trace are bounded, so a long run does not
//! grow without limit. Logs are written out once, when the run ends.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

/// Raw spans each log keeps for the trace file.
const KEPT_PER_LOG: usize = 2_000;

/// One timed call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Name of the span that caused this one (same `req`), if any.
    pub parent: Option<&'static str>,
    /// Request identifier shared by every span of one request.
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The spans of one thread.
pub struct SpanLog {
    epoch: Instant,
    thread: u32,
    kept: Vec<Span>,
    totals: Vec<(&'static str, u64, u128)>,
}

impl SpanLog {
    /// A log whose timestamps count from `epoch` (shared by every log of
    /// one run, so spans on different threads line up).
    pub fn new(epoch: Instant, thread: u32) -> Self {
        Self {
            epoch,
            thread,
            kept: Vec::new(),
            totals: Vec::new(),
        }
    }

    /// Records `name` over `[start, end]`; returns its duration in ns.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        let end_ns = end.duration_since(self.epoch).as_nanos() as u64;
        let ns = end_ns - start_ns;
        match self.totals.iter_mut().find(|(n, ..)| *n == name) {
            Some((_, count, total)) => {
                *count += 1;
                *total += u128::from(ns);
            }
            None => self.totals.push((name, 1, u128::from(ns))),
        }
        if self.kept.len() < KEPT_PER_LOG {
            self.kept.push(Span {
                name,
                parent,
                req,
                start_ns,
                end_ns,
            });
        }
        ns
    }

    /// `(count, total ns)` of the spans named `name` in this log.
    pub fn total(&self, name: &str) -> (u64, u128) {
        self.totals
            .iter()
            .find(|(n, ..)| *n == name)
            .map_or((0, 0), |&(_, count, ns)| (count, ns))
    }
}

/// `(count, total ns)` of the spans named `name` across `logs`.
pub fn total<'a>(logs: impl IntoIterator<Item = &'a SpanLog>, name: &str) -> (u64, u128) {
    logs.into_iter().fold((0, 0), |(count, ns), log| {
        let (c, n) = log.total(name);
        (count + c, ns + n)
    })
}

/// Mean duration in ns of the spans named `name` across `logs` (0 if none).
pub fn mean_ns<'a>(logs: impl IntoIterator<Item = &'a SpanLog>, name: &str) -> f64 {
    let (count, ns) = total(logs, name);
    if count == 0 {
        0.0
    } else {
        ns as f64 / count as f64
    }
}

/// Writes the kept spans as a Chrome/Perfetto trace.
pub fn write_chrome<'a>(
    path: &Path,
    logs: impl IntoIterator<Item = &'a SpanLog>,
) -> io::Result<()> {
    let mut events = Vec::new();
    for log in logs {
        for span in &log.kept {
            let args = Json::obj()
                .with("req", span.req)
                .with("parent", span.parent);
            events.push(
                Json::obj()
                    .with("name", span.name)
                    .with("ph", "X")
                    .with("ts", span.start_ns as f64 / 1e3)
                    .with("dur", (span.end_ns - span.start_ns) as f64 / 1e3)
                    .with("pid", 1u64)
                    .with("tid", u64::from(log.thread))
                    .with("args", args),
            );
        }
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut file = io::BufWriter::new(std::fs::File::create(path)?);
    file.write_all(
        Json::obj()
            .with("traceEvents", Json::Arr(events))
            .render()
            .as_bytes(),
    )?;
    file.flush()
}

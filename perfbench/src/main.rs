//! End-to-end benchmark of the DH-TRNG entropy service.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <bulk_conditioned|small_drbg|mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Starts the service in-process (`EntropySource`, `Service`,
//! `serve_unix`) and drives it over a real unix socket with closed-loop
//! `dhtrng_serve::Client`s, then checks what the clients received. With
//! `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
//! reports the per-layer ledger instead (see `layers.rs`). Every line but
//! the last is a detailed JSON report (host and configuration record,
//! every metric with its unit and sample count, source health counters,
//! check results); the last line is the summary
//! `{"correct", "attempted", "failed", "metrics"}`. Run it from the
//! repository root: the socket and trace files go under `.perfbench/`.

mod host;
mod json;
mod layers;
mod serving;
mod stats;
mod trace;

use std::io;
use std::path::PathBuf;
use std::process::ExitCode;

use dhtrng_stream::Tier;

use crate::json::Json;
use crate::serving::{Pass, Workload};
use crate::stats::{median, Histogram};

/// Set-ups timed on their own before the measured pass (whose set-up is
/// one more sample); `setup_s` is the median.
const SETUP_REPS: usize = 9;

/// Runtime files (the socket, the written trace).
const RUN_DIR: &str = ".perfbench";

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err(format!("seconds must be in (0, 60], got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One named, unit-tagged metric of the summary line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run reports.
pub struct Outcome {
    /// The detailed report (printed before the summary line).
    pub report: Json,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

pub fn metric(value: f64, unit: &str) -> Json {
    Json::obj().with("value", value).with("unit", unit)
}

/// A percentile with its sample count and the samples beyond it.
pub fn percentile(hist: &Histogram, q: f64) -> Json {
    metric(hist.quantile_ns(q) / 1e3, "us")
        .with("samples", hist.count())
        .with("beyond", hist.beyond(q))
}

pub fn checks_json(checks: &[(String, bool)]) -> Json {
    checks
        .iter()
        .fold(Json::obj(), |json, (name, ok)| json.with(name, *ok))
}

/// Source health next to the failure accounting.
pub fn source_json(pass: &Pass) -> Json {
    let stats = &pass.after;
    Json::obj()
        .with("health_failures", stats.telemetry.health_failures)
        .with("restarts", stats.restarts)
        .with("retirements", stats.telemetry.retirements)
        .with("degraded", stats.degraded.is_some())
}

/// The end-to-end run: repeated set-ups, one untraced pass, the checks.
fn end_to_end(args: &Args, sock: &std::path::Path) -> io::Result<Outcome> {
    let (mut attempted, mut failed) = (0, 0);
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS {
        let (setup_s, a, f) = serving::setup_only(args.workload, args.seed, sock)?;
        setups.push(setup_s);
        attempted += a;
        failed += f;
    }
    let pass = serving::pass(args.workload, args.seed, args.seconds, sock, None)?;
    setups.push(pass.setup_s);
    let checks = serving::check_outputs(args.workload, args.seed, &pass.clients);
    attempted += pass.attempted() + checks.len() as u64;
    failed += pass.failed() + checks.iter().filter(|(_, ok)| !ok).count() as u64;

    let conditioned = pass.tier(Tier::Conditioned);
    let drbg = pass.tier(Tier::Drbg);
    let setup_s = median(&setups);
    let peak_rss_mib = pass.peak_rss_kib.unwrap_or(0) as f64 / 1024.0;
    let mut named = Json::obj().with(
        "setup_s",
        metric(setup_s, "s").with("samples", setups.clone()),
    );
    if let Some(c) = &conditioned {
        named.set(
            "conditioned_mbps",
            metric(c.bytes_per_s * 8.0 / 1e6, "Mbit/s"),
        );
        named.set("conditioned_latency_p99_us", percentile(&c.hist, 0.99));
    }
    if let Some(d) = &drbg {
        let reads_per_s = d.bytes_per_s / f64::from(serving::DRBG_READ);
        named.set("drbg_reads_per_s", metric(reads_per_s, "1/s"));
        named.set("drbg_latency_p50_us", percentile(&d.hist, 0.5));
        named.set("drbg_latency_p99_us", percentile(&d.hist, 0.99));
    }
    named.set("peak_rss_mib", metric(peak_rss_mib, "MiB"));
    named.set(
        "failed_ratio",
        metric(failed as f64 / attempted.max(1) as f64, "ratio")
            .with("failed", failed)
            .with("attempted", attempted),
    );

    // The summary metrics follow the workload's first connection: the
    // conditioned client on bulk_conditioned and mixed (where the drbg
    // client is the load it contends with), a drbg client on small_drbg.
    let lead = pass
        .tier(pass.clients[0].conn.tier)
        .expect("the first connection's tier");
    let metrics = vec![
        Metric {
            name: "setup_s",
            value: setup_s,
            unit: "s",
        },
        Metric {
            name: "throughput_mbps",
            value: lead.bytes_per_s * 8.0 / 1e6,
            unit: "Mbit/s",
        },
        Metric {
            name: "latency_p50_us",
            value: lead.hist.quantile_ns(0.5) / 1e3,
            unit: "us",
        },
        Metric {
            name: "latency_p99_us",
            value: lead.hist.quantile_ns(0.99) / 1e3,
            unit: "us",
        },
        Metric {
            name: "peak_rss_mib",
            value: peak_rss_mib,
            unit: "MiB",
        },
    ];
    let errors: Vec<String> = pass.clients.iter().flat_map(|r| r.errors.clone()).collect();
    let report = host::record(args.workload, args.seed, args.seconds)
        .with("workload", args.workload.name())
        .with("trace", false)
        .with("metrics", named)
        .with("source", source_json(&pass))
        .with("checks", checks_json(&checks))
        .with("errors", errors);
    Ok(Outcome {
        report,
        attempted,
        failed,
        metrics,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            eprintln!(
                "usage: perfbench --workload <bulk_conditioned|small_drbg|mixed> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if let Err(error) = std::fs::create_dir_all(RUN_DIR) {
        eprintln!("perfbench: cannot create {RUN_DIR}: {error}");
        return ExitCode::FAILURE;
    }
    let sock = PathBuf::from(RUN_DIR).join(format!("{}.sock", std::process::id()));
    let outcome = if args.trace {
        layers::traced(&args, &sock, RUN_DIR)
    } else {
        end_to_end(&args, &sock)
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::FAILURE;
        }
    };
    let metrics = outcome.metrics.iter().fold(Json::obj(), |json, m| {
        json.with(m.name, metric(m.value, m.unit))
    });
    println!("{}", outcome.report.render());
    let summary = Json::obj()
        .with("correct", outcome.failed == 0)
        .with("attempted", outcome.attempted)
        .with("failed", outcome.failed)
        .with("metrics", metrics);
    println!("{}", summary.render());
    ExitCode::SUCCESS
}

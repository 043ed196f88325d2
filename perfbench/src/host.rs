//! The host and configuration record printed with every result.

use dhtrng_core::{DhTrng, DhTrngConfig, SlicedDhTrng};
use dhtrng_stream::KernelKind;

use crate::json::Json;
use crate::serving::{Workload, CHUNK_BYTES, QUEUE_CHUNKS, SHARDS};

/// A field of `/proc/self/status`, e.g. `VmHWM`.
fn status_field(name: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(':'))
        .map(|value| value.trim().to_string())
}

/// The process's resident-memory high-water mark (`VmHWM`), in KiB.
pub fn peak_rss_kib() -> Option<u64> {
    status_field("VmHWM")?
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()
}

/// CPUs this process may run on (what `nproc` prints), from the
/// `Cpus_allowed_list` ranges.
fn nproc() -> Option<usize> {
    let list = status_field("Cpus_allowed_list")?;
    list.split(',')
        .map(|range| match range.split_once('-') {
            Some((lo, hi)) => Some(hi.parse::<usize>().ok()? - lo.parse::<usize>().ok()? + 1),
            None => range.parse::<usize>().ok().map(|_| 1),
        })
        .sum()
}

pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn record(workload: Workload, seed: u64, seconds: f64) -> Json {
    let cpus = available_parallelism();
    let sliced_backend = SlicedDhTrng::new(vec![DhTrng::new(DhTrngConfig::default())])
        .map(|bank| bank.backend_name())
        .unwrap_or("unavailable");
    let host = Json::obj()
        .with("nproc", nproc())
        .with("available_parallelism", cpus)
        .with(
            "kernel_cost_model",
            format!("{:?}", KernelKind::cost_model(SHARDS, cpus)),
        )
        .with("dhtrng_kernel_env", std::env::var("DHTRNG_KERNEL").ok())
        .with("sliced_simd_backend", sliced_backend);
    let reads: Vec<Json> = workload
        .conns()
        .iter()
        .map(|c| {
            Json::obj()
                .with("tier", format!("{:?}", c.tier).to_lowercase())
                .with("read_bytes", u64::from(c.read))
                .with("drain_reads", c.drain_reads())
        })
        .collect();
    let config = Json::obj()
        .with("seed", seed)
        .with("seconds", seconds)
        .with("shards", SHARDS)
        .with("kernel", "Auto")
        .with("chunk_bytes", CHUNK_BYTES)
        .with("queue_chunks", QUEUE_CHUNKS)
        .with("connections", Json::Arr(reads));
    Json::obj().with("host", host).with("config", config)
}

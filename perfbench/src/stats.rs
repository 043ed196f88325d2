//! Latency histograms and the order statistics the report is built from.

/// Sub-buckets per octave, as a power of two (128: each bucket is at most
/// 0.8% of its value wide).
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Values below this are counted exactly, one bucket per nanosecond.
const LINEAR: u64 = 1 << (SUB_BITS + 1);

/// A log-linear histogram of nanosecond durations.
///
/// Memory is fixed (about 60 KiB) however many samples it holds, so a run
/// that completes more reads does not grow the process footprint the
/// benchmark reports as `peak_rss_mib`.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum_ns: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: vec![0; index(u64::MAX) + 1],
            total: 0,
            sum_ns: 0,
        }
    }
}

fn index(ns: u64) -> usize {
    if ns < LINEAR {
        return ns as usize;
    }
    let octave = 63 - ns.leading_zeros();
    let sub = (ns >> (octave - SUB_BITS)) as usize & (SUB - 1);
    LINEAR as usize + (octave - SUB_BITS - 1) as usize * SUB + sub
}

/// `(lower bound, width)` of bucket `i`, in nanoseconds.
fn bounds(i: usize) -> (f64, f64) {
    if i < LINEAR as usize {
        return (i as f64, 1.0);
    }
    let octave = (i - LINEAR as usize) / SUB + SUB_BITS as usize + 1;
    let sub = (i - LINEAR as usize) % SUB;
    let width = (1u64 << (octave - SUB_BITS as usize)) as f64;
    ((SUB + sub) as f64 * width, width)
}

impl Histogram {
    pub fn record(&mut self, ns: u64) {
        self.counts[index(ns)] += 1;
        self.total += 1;
        self.sum_ns += u128::from(ns);
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
        self.sum_ns += other.sum_ns;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn sum_ns(&self) -> u128 {
        self.sum_ns
    }

    /// The `q` quantile in nanoseconds, interpolated linearly inside the
    /// bucket that holds it (samples are taken as spread evenly over
    /// their bucket).
    pub fn quantile_ns(&self, q: f64) -> f64 {
        let target = q.clamp(0.0, 1.0) * self.total as f64;
        let mut before = 0u64;
        for (i, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if (before + count) as f64 >= target {
                let (lower, width) = bounds(i);
                let frac = ((target - before as f64) / count as f64).clamp(0.0, 1.0);
                return lower + frac * width;
            }
            before += count;
        }
        0.0
    }

    /// Samples strictly above the `q` quantile's rank.
    pub fn beyond(&self, q: f64) -> u64 {
        self.total - (q * self.total as f64).ceil() as u64
    }
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_contain_their_values() {
        for ns in (0..5000).chain([1 << 20, (1 << 20) + 12345, 30_000_000, (1 << 40) + 999]) {
            let (lower, width) = bounds(index(ns));
            assert!(lower <= ns as f64 && (ns as f64) < lower + width, "{ns}");
        }
        for i in 0..index(u64::MAX / 2) {
            let (lower, width) = bounds(i);
            assert_eq!(lower + width, bounds(i + 1).0, "bucket {i}");
        }
    }

    #[test]
    fn quantiles_track_exact_order_statistics() {
        let mut h = Histogram::default();
        for ns in 1..=10_000u64 {
            h.record(ns * 100);
        }
        let p50 = h.quantile_ns(0.5);
        let p99 = h.quantile_ns(0.99);
        assert!((p50 - 500_000.0).abs() / 500_000.0 < 0.01, "{p50}");
        assert!((p99 - 990_000.0).abs() / 990_000.0 < 0.01, "{p99}");
        assert_eq!(h.beyond(0.99), 100);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}

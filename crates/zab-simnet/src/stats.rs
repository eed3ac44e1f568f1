//! Measurement collection: per-operation latencies, throughput, protocol
//! event counts.

/// Latency distribution summary (all values in microseconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean_us: f64,
    /// Median.
    pub p50_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// Maximum.
    pub max_us: u64,
}

impl LatencyStats {
    /// Summarizes a set of latency samples. Returns `None` for no samples.
    pub fn from_samples(mut samples: Vec<u64>) -> Option<LatencyStats> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_unstable();
        let count = samples.len();
        let sum: u128 = samples.iter().map(|&s| s as u128).sum();
        let pct = |p: f64| -> u64 {
            let idx = ((count as f64 - 1.0) * p).round() as usize;
            samples[idx]
        };
        Some(LatencyStats {
            count,
            mean_us: sum as f64 / count as f64,
            p50_us: pct(0.50),
            p99_us: pct(0.99),
            max_us: samples[count - 1],
        })
    }
}

/// One completed operation, as observed at the leader.
#[derive(Debug, Clone, Copy)]
pub struct OpRecord {
    /// Workload-assigned operation id.
    pub op_id: u64,
    /// When the client issued it (µs of virtual time).
    pub issued_us: u64,
    /// When the leader delivered it (µs of virtual time).
    pub completed_us: u64,
}

/// Aggregated simulation statistics.
#[derive(Debug, Clone, Default)]
pub struct SimStats {
    /// Completed operations (issue → leader delivery).
    pub ops: Vec<OpRecord>,
    /// Total protocol messages delivered.
    pub messages_delivered: u64,
    /// Total protocol message bytes delivered.
    pub bytes_delivered: u64,
    /// Messages dropped by loss/partition/crash.
    pub messages_dropped: u64,
    /// Disk flushes completed across all nodes.
    pub flushes: u64,
    /// Elections started (incl. the initial one per node).
    pub elections_started: u64,
    /// Leader establishments observed.
    pub establishments: u64,
    /// Client request rejections observed.
    pub rejections: u64,
    /// Nodes fail-stopped by an injected storage error.
    pub storage_faults: u64,
    /// Snapshot installs rejected as malformed (node fail-stops).
    pub snapshot_install_failures: u64,
    /// Most transactions one PROPOSE frame carried, direct or relayed.
    pub max_propose_txns: usize,
}

impl SimStats {
    /// Latency summary over completed operations.
    pub fn latency(&self) -> Option<LatencyStats> {
        LatencyStats::from_samples(self.ops.iter().map(|o| o.completed_us - o.issued_us).collect())
    }

    /// Throughput in operations per *virtual* second: **all** completed
    /// operations divided by the span from first to last completion.
    /// (`n / span`, not `(n-1) / span` — the old interval-count
    /// convention under-reported bursty completions.) Returns `None`
    /// with fewer than 2 completions or a zero-length span, where a
    /// rate is undefined.
    pub fn throughput_ops_per_sec(&self) -> Option<f64> {
        if self.ops.len() < 2 {
            return None;
        }
        let (first, last) = self
            .ops
            .iter()
            .fold((u64::MAX, 0u64), |(lo, hi), o| (lo.min(o.completed_us), hi.max(o.completed_us)));
        if last == first {
            return None;
        }
        Some(self.ops.len() as f64 * 1_000_000.0 / (last - first) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_samples_yield_none() {
        assert!(LatencyStats::from_samples(vec![]).is_none());
    }

    #[test]
    fn single_sample_stats() {
        let s = LatencyStats::from_samples(vec![42]).unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.p50_us, 42);
        assert_eq!(s.p99_us, 42);
        assert_eq!(s.max_us, 42);
        assert!((s.mean_us - 42.0).abs() < 1e-9);
    }

    #[test]
    fn percentiles_are_order_statistics() {
        let s = LatencyStats::from_samples((1..=100).collect()).unwrap();
        // Index round((n-1)*p): p50 of 1..=100 lands on the 51st value.
        assert_eq!(s.p50_us, 51);
        assert_eq!(s.p99_us, 99);
        assert_eq!(s.max_us, 100);
    }

    #[test]
    fn throughput_spans_completions() {
        let mut stats = SimStats::default();
        for i in 0..11u64 {
            stats.ops.push(OpRecord { op_id: i, issued_us: i * 100, completed_us: i * 100_000 });
        }
        // 11 ops over a 1-second span → 11 ops/s.
        let tput = stats.throughput_ops_per_sec().unwrap();
        assert!((tput - 11.0).abs() < 1e-9, "got {tput}");
    }

    #[test]
    fn throughput_two_ops_is_ops_over_span() {
        let mut stats = SimStats::default();
        stats.ops.push(OpRecord { op_id: 0, issued_us: 0, completed_us: 500_000 });
        stats.ops.push(OpRecord { op_id: 1, issued_us: 0, completed_us: 1_000_000 });
        // 2 ops over a 0.5-second span → exactly 4 ops/s.
        let tput = stats.throughput_ops_per_sec().unwrap();
        assert!((tput - 4.0).abs() < 1e-9, "got {tput}");
    }

    #[test]
    fn throughput_is_order_independent() {
        let mut stats = SimStats::default();
        // Completion records arrive out of order (deliveries on
        // different nodes interleave); the single-pass scan must still
        // find the true span.
        for &t in &[700_000u64, 200_000, 900_000, 400_000] {
            stats.ops.push(OpRecord { op_id: t, issued_us: 0, completed_us: t });
        }
        // 4 ops over a 0.7-second span.
        let tput = stats.throughput_ops_per_sec().unwrap();
        assert!((tput - 4.0 / 0.7).abs() < 1e-9, "got {tput}");
    }

    #[test]
    fn throughput_equal_timestamps_is_undefined() {
        let mut stats = SimStats::default();
        for i in 0..3u64 {
            stats.ops.push(OpRecord { op_id: i, issued_us: 0, completed_us: 42 });
        }
        assert_eq!(stats.throughput_ops_per_sec(), None);
    }

    #[test]
    fn throughput_single_op_is_undefined() {
        let mut stats = SimStats::default();
        stats.ops.push(OpRecord { op_id: 0, issued_us: 0, completed_us: 10 });
        assert_eq!(stats.throughput_ops_per_sec(), None);
    }

    #[test]
    fn latency_uses_issue_to_completion() {
        let mut stats = SimStats::default();
        stats.ops.push(OpRecord { op_id: 0, issued_us: 100, completed_us: 350 });
        let l = stats.latency().unwrap();
        assert_eq!(l.p50_us, 250);
    }
}

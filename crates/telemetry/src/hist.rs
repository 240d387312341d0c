//! Shared log-scale histogram.
//!
//! One bucket scheme for every latency-shaped metric in the workspace:
//! bucket `i` counts values in `[2^i, 2^(i+1))` (bucket 0 also absorbs
//! sub-unit values; the last bucket is open-ended). The unit is whatever the
//! caller records — the serving stack standardises on **microseconds** for
//! time-valued histograms, so bucket bounds read 2µs, 4µs, … ~2s.
//!
//! Fixed bounds keep the struct `Copy`, mergeable by plain addition and
//! comparable across runs. The scheduler's queue-wait histogram
//! (`spider_runtime::QueueStats::wait_hist`) is one of these, in µs.

/// Fixed log₂-bucket histogram with a running sum for quantile and mean
/// estimation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LogHistogram {
    /// Per-bucket counts; bucket `i` covers `[2^i, 2^(i+1))` units, with
    /// bucket 0 opening at 0 and the last bucket open-ended.
    pub buckets: [u64; Self::BUCKETS],
    /// Sum of every recorded value (same unit as the values), for mean
    /// estimation and Prometheus `_sum` export.
    pub sum: f64,
}

impl LogHistogram {
    /// Number of buckets: sub-unit through `2^21` (~2M units) in doubling
    /// steps. For microsecond values that spans sub-µs to ~2 seconds.
    pub const BUCKETS: usize = 22;

    /// Record one non-negative value (negative inputs clamp to 0 — clock
    /// skew must never panic).
    pub fn record(&mut self, value: f64) {
        let v = value.max(0.0);
        let idx = if v < 1.0 {
            0
        } else {
            (v.log2() as usize).min(Self::BUCKETS - 1)
        };
        self.buckets[idx] += 1;
        self.sum += v;
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum / n as f64
        }
    }

    /// Lower bound of bucket `i` (`2^i`, with bucket 0 starting at 0).
    pub fn bucket_lower(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << i
        }
    }

    /// Upper bound of bucket `i` (`2^(i+1)`; the last bucket reports twice
    /// its lower bound so interpolation stays finite).
    pub fn bucket_upper(i: usize) -> u64 {
        if i + 1 >= Self::BUCKETS {
            2 * Self::bucket_lower(Self::BUCKETS - 1)
        } else {
            1u64 << (i + 1)
        }
    }

    /// Estimate the `q`-quantile (`q` in `[0, 1]`) by linear interpolation
    /// inside the covering bucket. Returns 0 when empty. The estimate is
    /// exact at bucket boundaries and within one bucket width elsewhere —
    /// the log-scale analogue of Prometheus' `histogram_quantile`.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &count) in self.buckets.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if seen + count >= target {
                let lo = Self::bucket_lower(i) as f64;
                let hi = Self::bucket_upper(i) as f64;
                let frac = (target - seen) as f64 / count as f64;
                return lo + (hi - lo) * frac;
            }
            seen += count;
        }
        Self::bucket_upper(Self::BUCKETS - 1) as f64
    }

    /// Median estimate.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate — the number an SLO gate watches.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Add another histogram's counts and sum into this one (fleet
    /// aggregation: per-device histograms merge by plain addition).
    pub fn merge(&mut self, other: &Self) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.sum += other.sum;
    }

    /// Human label for a microsecond bound: `750µs`, `32ms`, `2s`.
    fn label_us(us: u64) -> String {
        if us >= 1_000_000 {
            format!("{}s", us / 1_000_000)
        } else if us >= 1_000 {
            format!("{}ms", us / 1_000)
        } else {
            format!("{us}\u{b5}s")
        }
    }

    /// Compact one-line rendering of the non-empty buckets with the values
    /// interpreted as microseconds, e.g. `[64µs,128µs):3 [128µs,256µs):9`.
    /// Empty histograms render as `(empty)`; the runtime's drain report
    /// words its empty queue-wait histogram itself.
    pub fn render_us(&self) -> String {
        let mut parts = Vec::new();
        for (i, &count) in self.buckets.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let lo = Self::bucket_lower(i);
            if i + 1 == Self::BUCKETS {
                parts.push(format!("[{},\u{221e}):{count}", Self::label_us(lo)));
            } else {
                parts.push(format!(
                    "[{},{}):{count}",
                    Self::label_us(lo),
                    Self::label_us(1u64 << (i + 1))
                ));
            }
        }
        if parts.is_empty() {
            "(empty)".into()
        } else {
            parts.join(" ")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_by_log2() {
        let mut h = LogHistogram::default();
        h.record(0.0); // bucket 0
        h.record(0.5); // bucket 0
        h.record(3.0); // [2,4) → bucket 1
        h.record(100.0); // [64,128) → bucket 6
        h.record(5e6); // clamped to last bucket
        h.record(-1.0); // negative → bucket 0, never panics
        assert_eq!(h.buckets[0], 3);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[6], 1);
        assert_eq!(h.buckets[LogHistogram::BUCKETS - 1], 1);
        assert_eq!(h.count(), 6);
    }

    #[test]
    fn boundary_values_open_their_bucket() {
        let mut h = LogHistogram::default();
        h.record(2.0);
        assert_eq!(h.buckets[1], 1);
        h.record(4.0);
        assert_eq!(h.buckets[2], 1);
        assert_eq!(LogHistogram::bucket_lower(0), 0);
        assert_eq!(LogHistogram::bucket_lower(1), 2);
        assert_eq!(LogHistogram::bucket_lower(10), 1024);
        assert_eq!(LogHistogram::bucket_upper(0), 2);
        assert_eq!(
            LogHistogram::bucket_upper(LogHistogram::BUCKETS - 1),
            1 << 22
        );
    }

    #[test]
    fn quantiles_are_monotone_and_bracketed() {
        let mut h = LogHistogram::default();
        for v in [3.0, 3.0, 5.0, 9.0, 17.0, 33.0, 70.0, 150.0, 700.0, 3000.0] {
            h.record(v);
        }
        let (p50, p90, p99) = (h.p50(), h.p90(), h.p99());
        assert!(p50 <= p90 && p90 <= p99, "{p50} {p90} {p99}");
        // p50 of 10 values: 5th value (17.0) lives in [16,32); the estimate
        // interpolates up to the bucket's upper bound inclusive.
        assert!((16.0..=32.0).contains(&p50), "{p50}");
        // p99 targets the 10th value (3000.0) in [2048,4096).
        assert!((2048.0..=4096.0).contains(&p99), "{p99}");
        assert_eq!(LogHistogram::default().quantile(0.5), 0.0);
    }

    #[test]
    fn quantile_exact_at_uniform_bucket() {
        // All mass in one bucket: quantiles interpolate across it.
        let mut h = LogHistogram::default();
        for _ in 0..4 {
            h.record(10.0); // [8,16)
        }
        assert!((8.0..=16.0).contains(&h.p50()));
        assert!((8.0..=16.0).contains(&h.p99()));
    }

    #[test]
    fn merge_adds_counts_and_sums() {
        let mut a = LogHistogram::default();
        a.record(3.0);
        let mut b = LogHistogram::default();
        b.record(3.0);
        b.record(100.0);
        a.merge(&b);
        assert_eq!(a.buckets[1], 2);
        assert_eq!(a.buckets[6], 1);
        assert_eq!(a.count(), 3);
        assert!((a.sum - 106.0).abs() < 1e-9);
        assert!((a.mean() - 106.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn render_matches_legacy_wait_histogram_format() {
        let mut h = LogHistogram::default();
        h.record(100.0);
        h.record(100.0);
        h.record(5e6);
        let text = h.render_us();
        assert_eq!(text, "[64\u{b5}s,128\u{b5}s):2 [2s,\u{221e}):1");
        assert_eq!(LogHistogram::default().render_us(), "(empty)");
    }

    #[test]
    fn render_labels_every_bucket_in_us_ms_and_s() {
        let mut h = LogHistogram::default();
        h.record(0.5);
        for i in 1..LogHistogram::BUCKETS {
            h.record((1u64 << i) as f64);
        }
        assert_eq!(
            h.render_us(),
            concat!(
                "[0\u{b5}s,2\u{b5}s):1 [2\u{b5}s,4\u{b5}s):1 [4\u{b5}s,8\u{b5}s):1 ",
                "[8\u{b5}s,16\u{b5}s):1 [16\u{b5}s,32\u{b5}s):1 [32\u{b5}s,64\u{b5}s):1 ",
                "[64\u{b5}s,128\u{b5}s):1 [128\u{b5}s,256\u{b5}s):1 [256\u{b5}s,512\u{b5}s):1 ",
                "[512\u{b5}s,1ms):1 [1ms,2ms):1 [2ms,4ms):1 [4ms,8ms):1 [8ms,16ms):1 ",
                "[16ms,32ms):1 [32ms,65ms):1 [65ms,131ms):1 [131ms,262ms):1 ",
                "[262ms,524ms):1 [524ms,1s):1 [1s,2s):1 [2s,\u{221e}):1"
            )
        );
    }
}

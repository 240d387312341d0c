//! Metric snapshots: the one unit every layer exports its counts in.
//!
//! Naming convention (Prometheus-flavoured, linted by `spider-guard` at
//! every `counter(…)`/`gauge(…)`/`histogram(…)` call, whose name must be a
//! string literal):
//!
//! * every metric starts with `spider_` and a subsystem segment —
//!   `spider_runtime_…`, `spider_plan_cache_…`, `spider_scheduler_…`,
//!   `spider_tuner_…`, `spider_pool_…`;
//! * monotone counters end in `_total`;
//! * time-valued histograms end in `_us` (recorded in microseconds — the
//!   log₂ bucket scheme loses everything below 1 unit, so seconds would
//!   collapse sub-second latencies into bucket 0);
//! * instantaneous values are gauges with a bare unit suffix.
//!
//! Every exported number has one owner, and an export reads it when it is
//! taken: the runtime's request meters, the profiler's folds of the trace,
//! and the cache, pool, queue and cluster stats structs. The
//! `metrics_snapshot()` of a runtime, scheduler or cluster writes those
//! values into a [`MetricsSnapshot`] through its
//! [`counter`](MetricsSnapshot::counter)/[`gauge`](MetricsSnapshot::gauge)/
//! [`histogram`](MetricsSnapshot::histogram) writers. Nothing is copied
//! between owners, so an export is never stale.

use std::collections::BTreeMap;

use crate::hist::LogHistogram;

/// Point-in-time value of one metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(f64),
    Histogram(LogHistogram),
}

/// Named metric values, in name order so every export is deterministic;
/// mergeable — the unit of fleet aggregation (`SpiderCluster` merges one
/// per device).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub values: BTreeMap<String, MetricValue>,
}

impl MetricsSnapshot {
    /// Value of `name`, if present.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.values.get(name)
    }

    /// Write the counter `name`, replacing any value it held — how an
    /// export adds a count its owner keeps.
    pub fn counter(&mut self, name: &str, v: u64) {
        self.values
            .insert(name.to_string(), MetricValue::Counter(v));
    }

    /// Write the gauge `name`, replacing any value it held.
    pub fn gauge(&mut self, name: &str, v: f64) {
        self.values.insert(name.to_string(), MetricValue::Gauge(v));
    }

    /// Write the histogram `name`, replacing any value it held.
    pub fn histogram(&mut self, name: &str, h: LogHistogram) {
        self.values
            .insert(name.to_string(), MetricValue::Histogram(h));
    }

    /// Counter value of `name` (0 when absent or not a counter) — the
    /// ergonomic accessor reconciliation tests lean on.
    pub fn counter_value(&self, name: &str) -> u64 {
        match self.values.get(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Gauge value of `name` (0 when absent or not a gauge).
    pub fn gauge_value(&self, name: &str) -> f64 {
        match self.values.get(name) {
            Some(MetricValue::Gauge(v)) => *v,
            _ => 0.0,
        }
    }

    /// Histogram value of `name`, if present and a histogram.
    pub fn histogram_value(&self, name: &str) -> Option<LogHistogram> {
        match self.values.get(name) {
            Some(MetricValue::Histogram(h)) => Some(*h),
            _ => None,
        }
    }

    /// Merge another snapshot into this one: counters and gauges add,
    /// histograms merge bucket-wise. Adding gauges is the right fleet
    /// semantic for the gauges this workspace exports (resident plan
    /// counts, queue depths); averages can be derived by the consumer.
    pub fn merge(&mut self, other: &Self) {
        for (name, val) in &other.values {
            match self.values.entry(name.clone()) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(val.clone());
                }
                std::collections::btree_map::Entry::Occupied(mut e) => match (e.get_mut(), val) {
                    (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
                    (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a += b,
                    (MetricValue::Histogram(a), MetricValue::Histogram(b)) => a.merge(b),
                    (mine, theirs) => panic!(
                        "metric '{name}' changed kind across snapshots ({mine:?} vs {theirs:?})"
                    ),
                },
            }
        }
    }

    fn label_block(labels: &[(&str, &str)], extra: Option<(&str, String)>) -> String {
        let mut parts: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
        if let Some((k, v)) = extra {
            parts.push(format!("{k}=\"{v}\""));
        }
        if parts.is_empty() {
            String::new()
        } else {
            format!("{{{}}}", parts.join(","))
        }
    }

    /// Prometheus text exposition format. `labels` are attached to every
    /// sample (the cluster passes `[("device", name)]`). Histograms expand
    /// to cumulative `_bucket{le=…}` samples plus `_sum`/`_count`, with
    /// `le` bounds in the histogram's native unit (microseconds for the
    /// serving metrics).
    pub fn prometheus_text(&self, labels: &[(&str, &str)]) -> String {
        let mut out = String::new();
        for (name, val) in &self.values {
            match val {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("# TYPE {name} counter\n"));
                    out.push_str(&format!("{name}{} {v}\n", Self::label_block(labels, None)));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("# TYPE {name} gauge\n"));
                    out.push_str(&format!("{name}{} {v}\n", Self::label_block(labels, None)));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!("# TYPE {name} histogram\n"));
                    let mut cum = 0u64;
                    for (i, &c) in h.buckets.iter().enumerate() {
                        cum += c;
                        let le = if i + 1 == LogHistogram::BUCKETS {
                            "+Inf".to_string()
                        } else {
                            format!("{}", LogHistogram::bucket_upper(i))
                        };
                        out.push_str(&format!(
                            "{name}_bucket{} {cum}\n",
                            Self::label_block(labels, Some(("le", le)))
                        ));
                    }
                    out.push_str(&format!(
                        "{name}_sum{} {}\n",
                        Self::label_block(labels, None),
                        h.sum
                    ));
                    out.push_str(&format!(
                        "{name}_count{} {}\n",
                        Self::label_block(labels, None),
                        h.count()
                    ));
                }
            }
        }
        out
    }

    /// Flat JSON object (`{"name": number, …}`): counters and gauges map
    /// directly; histograms flatten to `name_count`, `name_sum`,
    /// `name_p50/p90/p99`. Flat-by-construction so `bench_gate`'s
    /// line-oriented JSON parser can consume the same numbers the reports
    /// render.
    pub fn json(&self) -> String {
        let mut fields: Vec<String> = Vec::new();
        let num = |v: f64| -> String {
            if v.is_finite() {
                format!("{v:.6}")
            } else {
                "0.0".into()
            }
        };
        for (name, val) in &self.values {
            match val {
                MetricValue::Counter(v) => fields.push(format!("  \"{name}\": {v}")),
                MetricValue::Gauge(v) => fields.push(format!("  \"{name}\": {}", num(*v))),
                MetricValue::Histogram(h) => {
                    fields.push(format!("  \"{name}_count\": {}", h.count()));
                    fields.push(format!("  \"{name}_sum\": {}", num(h.sum)));
                    fields.push(format!("  \"{name}_p50\": {}", num(h.p50())));
                    fields.push(format!("  \"{name}_p90\": {}", num(h.p90())));
                    fields.push(format!("  \"{name}_p99\": {}", num(h.p99())));
                }
            }
        }
        format!("{{\n{}\n}}\n", fields.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(values: &[f64]) -> LogHistogram {
        let mut h = LogHistogram::default();
        for &v in values {
            h.record(v);
        }
        h
    }

    #[test]
    #[should_panic(expected = "changed kind")]
    fn kind_mismatch_panics() {
        let mut a = MetricsSnapshot::default();
        a.counter("spider_test_total", 1);
        let mut b = MetricsSnapshot::default();
        b.gauge("spider_test_total", 1.0);
        a.merge(&b);
    }

    #[test]
    fn snapshot_is_deterministic_and_complete() {
        let mut snap = MetricsSnapshot::default();
        snap.counter("spider_b_total", 2);
        snap.histogram("spider_c_us", hist(&[3.0]));
        snap.gauge("spider_a_gauge", 1.0);
        let names: Vec<&String> = snap.values.keys().collect();
        assert_eq!(names, ["spider_a_gauge", "spider_b_total", "spider_c_us"]);
        assert_eq!(snap.counter_value("spider_b_total"), 2);
        assert_eq!(snap.gauge_value("spider_a_gauge"), 1.0);
        assert_eq!(snap.histogram_value("spider_c_us").unwrap().count(), 1);
        assert_eq!(snap.counter_value("spider_missing_total"), 0);
    }

    #[test]
    fn snapshot_writers_insert_and_overwrite() {
        let mut snap = MetricsSnapshot::default();
        snap.counter("spider_a_total", 1);
        snap.counter("spider_a_total", 7);
        snap.gauge("spider_b_depth", 2.5);
        let h = hist(&[3.0]);
        snap.histogram("spider_c_us", h);
        assert_eq!(snap.counter_value("spider_a_total"), 7, "overwritten");
        assert_eq!(snap.gauge_value("spider_b_depth"), 2.5);
        assert_eq!(snap.histogram_value("spider_c_us"), Some(h));
    }

    #[test]
    fn merge_adds_counters_gauges_and_histograms() {
        let mut merged = MetricsSnapshot::default();
        merged.counter("spider_x_total", 1);
        merged.histogram("spider_t_us", hist(&[10.0]));
        let mut b = MetricsSnapshot::default();
        b.counter("spider_x_total", 2);
        b.counter("spider_y_total", 5);
        b.gauge("spider_d_gauge", 2.0);
        b.histogram("spider_t_us", hist(&[20.0]));

        merged.merge(&b);
        assert_eq!(merged.counter_value("spider_x_total"), 3);
        assert_eq!(merged.counter_value("spider_y_total"), 5);
        assert_eq!(merged.gauge_value("spider_d_gauge"), 2.0);
        assert_eq!(merged.histogram_value("spider_t_us").unwrap().count(), 2);
    }

    #[test]
    fn prometheus_text_format() {
        let mut snap = MetricsSnapshot::default();
        snap.counter("spider_req_total", 7);
        snap.histogram("spider_wait_us", hist(&[3.0]));
        let text = snap.prometheus_text(&[("device", "sim0")]);
        assert!(text.contains("# TYPE spider_req_total counter"), "{text}");
        assert!(
            text.contains("spider_req_total{device=\"sim0\"} 7"),
            "{text}"
        );
        assert!(text.contains("# TYPE spider_wait_us histogram"), "{text}");
        // [2,4) bucket holds the sample; cumulative counts include it from
        // le="4" on, through +Inf.
        assert!(
            text.contains("spider_wait_us_bucket{device=\"sim0\",le=\"4\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("spider_wait_us_bucket{device=\"sim0\",le=\"+Inf\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("spider_wait_us_count{device=\"sim0\"} 1"),
            "{text}"
        );

        // Unlabeled export has no brace block.
        let plain = snap.prometheus_text(&[]);
        assert!(plain.contains("spider_req_total 7"), "{plain}");
    }

    #[test]
    fn json_is_flat_and_expands_histograms() {
        let mut snap = MetricsSnapshot::default();
        snap.counter("spider_req_total", 7);
        snap.histogram("spider_wait_us", hist(&[100.0]));
        let json = snap.json();
        assert!(json.contains("\"spider_req_total\": 7"), "{json}");
        assert!(json.contains("\"spider_wait_us_count\": 1"), "{json}");
        assert!(json.contains("\"spider_wait_us_p99\":"), "{json}");
        // Flat: no nested objects anywhere after the opening brace.
        assert_eq!(json.matches('{').count(), 1, "{json}");
    }
}

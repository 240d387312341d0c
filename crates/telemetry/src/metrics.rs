//! Named metrics registry: counters, gauges and log-scale histograms.
//!
//! Naming convention (Prometheus-flavoured, linted by `spider-guard` at
//! every `counter(…)`/`gauge(…)`/`histogram(…)` call with a literal name):
//!
//! * every metric starts with `spider_` and a subsystem segment —
//!   `spider_runtime_…`, `spider_plan_cache_…`, `spider_scheduler_…`,
//!   `spider_plan_store_…`, `spider_tuner_…`, `spider_pool_…`;
//! * monotone counters end in `_total`;
//! * time-valued histograms end in `_us` (recorded in microseconds — the
//!   log₂ bucket scheme loses everything below 1 unit, so seconds would
//!   collapse sub-second latencies into bucket 0);
//! * instantaneous values are gauges with a bare unit suffix.
//!
//! Every exported number has one owner. The registry owns what is counted
//! at the event: the runtime's request meters and the watch engine's alert
//! counters. The cache, pool, store, queue and cluster counts live in their
//! stats structs, and an export reads them when it is taken: the
//! `metrics_snapshot()` of a runtime, scheduler or cluster takes
//! [`MetricsRegistry::snapshot`] and writes those values in through the
//! [`MetricsSnapshot::counter`]/[`gauge`](MetricsSnapshot::gauge)/
//! [`histogram`](MetricsSnapshot::histogram) writers. Nothing is copied
//! between the two, so an export is never stale.
//!
//! Handles returned by [`MetricsRegistry::counter`]/[`gauge`]/[`histogram`]
//! are cheap `Arc` clones meant to be resolved **once** and hit from the
//! request path without touching the registry map again.
//!
//! [`gauge`]: MetricsRegistry::gauge
//! [`histogram`]: MetricsRegistry::histogram

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use spider_core::sync::{LockRank, OrderedMutex};

use crate::hist::LogHistogram;

/// Monotone unsigned counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Instantaneous f64 value (stored as bits in an atomic).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Shared handle to a [`LogHistogram`].
#[derive(Debug, Clone)]
pub struct Histogram(Arc<OrderedMutex<LogHistogram>>);

impl Default for Histogram {
    fn default() -> Self {
        Self(Arc::new(OrderedMutex::new(
            LockRank::MetricSeries,
            "metrics.series",
            LogHistogram::default(),
        )))
    }
}

impl Histogram {
    /// Record one value (microseconds for `_us`-named metrics).
    pub fn record(&self, v: f64) {
        self.0.lock().record(v);
    }

    /// Copy out the current distribution.
    pub fn get(&self) -> LogHistogram {
        *self.0.lock()
    }
}

#[derive(Debug, Clone)]
enum Stored {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Stored {
    fn kind(&self) -> &'static str {
        match self {
            Stored::Counter(_) => "counter",
            Stored::Gauge(_) => "gauge",
            Stored::Histogram(_) => "histogram",
        }
    }
}

/// Point-in-time value of one metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(f64),
    Histogram(LogHistogram),
}

/// Registry of named metrics. `BTreeMap` keeps every export deterministic.
#[derive(Debug)]
pub struct MetricsRegistry {
    metrics: OrderedMutex<BTreeMap<String, Stored>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self {
            metrics: OrderedMutex::new(
                LockRank::MetricsRegistry,
                "metrics.registry",
                BTreeMap::new(),
            ),
        }
    }
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    fn resolve(&self, name: &str, make: impl FnOnce() -> Stored) -> Stored {
        let mut map = self.metrics.lock();
        map.entry(name.to_string()).or_insert_with(make).clone()
    }

    /// Get or register the counter `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind — that is
    /// a naming bug, not a runtime condition.
    pub fn counter(&self, name: &str) -> Counter {
        match self.resolve(name, || Stored::Counter(Counter::default())) {
            Stored::Counter(c) => c,
            other => panic!("metric '{name}' is a {}, not a counter", other.kind()),
        }
    }

    /// Get or register the gauge `name` (panics on kind mismatch).
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.resolve(name, || Stored::Gauge(Gauge::default())) {
            Stored::Gauge(g) => g,
            other => panic!("metric '{name}' is a {}, not a gauge", other.kind()),
        }
    }

    /// Get or register the histogram `name` (panics on kind mismatch).
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.resolve(name, || Stored::Histogram(Histogram::default())) {
            Stored::Histogram(h) => h,
            other => panic!("metric '{name}' is a {}, not a histogram", other.kind()),
        }
    }

    /// Point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        // Reads each histogram's series lock (rank 740) under the registry
        // lock (rank 720) — the one sanctioned registry→series nesting.
        let map = self.metrics.lock();
        let values = map
            .iter()
            .map(|(name, stored)| {
                let v = match stored {
                    Stored::Counter(c) => MetricValue::Counter(c.get()),
                    Stored::Gauge(g) => MetricValue::Gauge(g.get()),
                    Stored::Histogram(h) => MetricValue::Histogram(h.get()),
                };
                (name.clone(), v)
            })
            .collect();
        MetricsSnapshot { values }
    }

    /// Prometheus text exposition of a fresh snapshot, no extra labels.
    pub fn prometheus_text(&self) -> String {
        self.snapshot().prometheus_text(&[])
    }

    /// Flat JSON export of a fresh snapshot.
    pub fn json(&self) -> String {
        self.snapshot().json()
    }
}

/// Immutable, mergeable copy of a registry's contents — the unit of fleet
/// aggregation (`SpiderCluster` merges one per device).
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
    /// export adds a count its stats struct owns.
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

    #[test]
    fn handles_are_shared_and_cheap() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("spider_test_total");
        let b = reg.counter("spider_test_total");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter("spider_test_total").get(), 3);

        let g = reg.gauge("spider_test_depth");
        g.set(4.5);
        assert_eq!(reg.gauge("spider_test_depth").get(), 4.5);

        let h = reg.histogram("spider_test_us");
        h.record(100.0);
        assert_eq!(reg.histogram("spider_test_us").get().count(), 1);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("spider_test_total");
        reg.gauge("spider_test_total");
    }

    #[test]
    fn snapshot_is_deterministic_and_complete() {
        let reg = MetricsRegistry::new();
        reg.counter("spider_b_total").add(2);
        reg.gauge("spider_a_gauge").set(1.0);
        reg.histogram("spider_c_us").record(3.0);
        let snap = reg.snapshot();
        let names: Vec<&String> = snap.values.keys().collect();
        assert_eq!(names, ["spider_a_gauge", "spider_b_total", "spider_c_us"]);
        assert_eq!(snap.counter_value("spider_b_total"), 2);
        assert_eq!(snap.gauge_value("spider_a_gauge"), 1.0);
        assert_eq!(snap.histogram_value("spider_c_us").unwrap().count(), 1);
        assert_eq!(snap.counter_value("spider_missing_total"), 0);
    }

    #[test]
    fn snapshot_writers_insert_and_overwrite() {
        let reg = MetricsRegistry::new();
        reg.counter("spider_a_total").add(1);
        let mut snap = reg.snapshot();
        snap.counter("spider_a_total", 7);
        snap.gauge("spider_b_depth", 2.5);
        let mut h = LogHistogram::default();
        h.record(3.0);
        snap.histogram("spider_c_us", h);
        assert_eq!(snap.counter_value("spider_a_total"), 7, "overwritten");
        assert_eq!(snap.gauge_value("spider_b_depth"), 2.5);
        assert_eq!(snap.histogram_value("spider_c_us"), Some(h));
        assert_eq!(reg.counter("spider_a_total").get(), 1, "registry untouched");
    }

    #[test]
    fn merge_adds_counters_gauges_and_histograms() {
        let a = MetricsRegistry::new();
        a.counter("spider_x_total").add(1);
        a.histogram("spider_t_us").record(10.0);
        let b = MetricsRegistry::new();
        b.counter("spider_x_total").add(2);
        b.counter("spider_y_total").add(5);
        b.gauge("spider_d_gauge").set(2.0);
        b.histogram("spider_t_us").record(20.0);

        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.counter_value("spider_x_total"), 3);
        assert_eq!(merged.counter_value("spider_y_total"), 5);
        assert_eq!(merged.gauge_value("spider_d_gauge"), 2.0);
        assert_eq!(merged.histogram_value("spider_t_us").unwrap().count(), 2);
    }

    #[test]
    fn prometheus_text_format() {
        let reg = MetricsRegistry::new();
        reg.counter("spider_req_total").add(7);
        reg.histogram("spider_wait_us").record(3.0);
        let text = reg.snapshot().prometheus_text(&[("device", "sim0")]);
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
        let plain = reg.prometheus_text();
        assert!(plain.contains("spider_req_total 7"), "{plain}");
    }

    #[test]
    fn json_is_flat_and_expands_histograms() {
        let reg = MetricsRegistry::new();
        reg.counter("spider_req_total").add(7);
        reg.histogram("spider_wait_us").record(100.0);
        let json = reg.json();
        assert!(json.contains("\"spider_req_total\": 7"), "{json}");
        assert!(json.contains("\"spider_wait_us_count\": 1"), "{json}");
        assert!(json.contains("\"spider_wait_us_p99\":"), "{json}");
        // Flat: no nested objects anywhere after the opening brace.
        assert_eq!(json.matches('{').count(), 1, "{json}");
    }
}

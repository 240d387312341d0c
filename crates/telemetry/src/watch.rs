//! Active observability: metric time-series, alert rules with SLO
//! burn-rate monitors, and heartbeat health detection.
//!
//! The instruments in the sibling modules are *passive* — rings and
//! snapshots you inspect after the fact. This module closes the loop and
//! lets the system notice things while serving:
//!
//! * [`SnapshotSeries`] — a bounded ring of periodic [`MetricsSnapshot`]s
//!   with [`SnapshotSeries::window`] delta queries. Cumulative counters
//!   and histograms become *windows* ("what happened since tick N"), the
//!   form every trend decision wants. It is the [`AlertEngine`]'s data
//!   source.
//! * [`AlertRule`] / [`AlertEngine`] — a small deterministic rule engine
//!   over any registered series: absolute thresholds, per-window deltas,
//!   and multi-window SLO **burn rates** over latency histograms. Firing
//!   and resolving are explicit transitions, recordable as structured
//!   [`EventKind::AlertFired`]/[`EventKind::AlertResolved`] events in the
//!   trace ring; the engine counts them and exports the `spider_watch_*`
//!   metrics ([`AlertEngine::write_metrics`]).
//! * [`HealthMonitor`] — missed-heartbeat shard classification
//!   (`Healthy → Suspect → Dead`). Shards stamp a monotone progress beat;
//!   an explicit [`HealthMonitor::tick`] (no background threads — the
//!   same idiom as the cluster's `fault_tick`) counts consecutive ticks a
//!   *busy* shard went beatless. The monitor is deliberately agnostic
//!   about what a shard is: the cluster layer feeds it device beats and
//!   acts on `Dead` verdicts through its standard kill/requeue/retry
//!   path.
//!
//! Everything here is pull-based and synchronous: nothing fires unless the
//! owner calls `record`/`evaluate`/`tick`, so harnesses replay monitoring
//! decisions exactly and a monitor that is never ticked changes nothing.

use std::collections::{BTreeMap, VecDeque};

use crate::hist::LogHistogram;
use crate::metrics::{MetricValue, MetricsSnapshot};
use crate::trace::{EventKind, Who};
use crate::Telemetry;

/// One retained point of a [`SnapshotSeries`].
#[derive(Debug, Clone)]
pub struct SeriesPoint {
    /// Monotone tick index assigned at [`SnapshotSeries::record`] time
    /// (never reused, survives eviction — the series' time axis).
    pub tick: u64,
    pub snapshot: MetricsSnapshot,
}

/// A bounded ring of periodic metric snapshots — the metric time-series
/// behind the alert engine.
///
/// Retention is by count: at `capacity` points the oldest is evicted,
/// like the trace ring. Ticks are the series' own monotone clock,
/// assigned per `record` call; callers that sample on a timer get a
/// wall-clock series, callers that sample per batch get a batch series —
/// the windows work either way.
#[derive(Debug)]
pub struct SnapshotSeries {
    points: VecDeque<SeriesPoint>,
    capacity: usize,
    next_tick: u64,
}

impl SnapshotSeries {
    /// A series retaining at most `capacity` snapshots (floored at 2 — a
    /// window needs both ends).
    pub fn new(capacity: usize) -> Self {
        Self {
            points: VecDeque::new(),
            capacity: capacity.max(2),
            next_tick: 0,
        }
    }

    /// Maximum resident snapshots.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Snapshots currently retained.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Append one snapshot; assigns and returns its tick.
    pub fn record(&mut self, snapshot: MetricsSnapshot) -> u64 {
        let tick = self.next_tick;
        self.next_tick += 1;
        if self.points.len() == self.capacity {
            self.points.pop_front();
        }
        self.points.push_back(SeriesPoint { tick, snapshot });
        tick
    }

    /// The most recent point.
    pub fn latest(&self) -> Option<&SeriesPoint> {
        self.points.back()
    }

    /// The retained point at exactly `tick`, if it has not been evicted.
    pub fn at(&self, tick: u64) -> Option<&SeriesPoint> {
        self.points.iter().find(|p| p.tick == tick)
    }

    /// Delta window from tick `since` (or the oldest retained point, when
    /// `since` has been evicted — best effort, never wider than asked) to
    /// the latest point. `None` until at least one snapshot is recorded.
    ///
    /// Window semantics per metric kind:
    /// * **counters** — saturating difference (`to - from`): events in the
    ///   window;
    /// * **histograms** — [`LogHistogram::saturating_delta`]: the window's
    ///   own distribution, so `p99()` answers "p99 *since* `since`", not
    ///   lifetime p99;
    /// * **gauges** — the latest reading (gauges are instantaneous; a
    ///   difference of queue depths is not a meaningful signal).
    pub fn window(&self, since: u64) -> Option<SeriesWindow> {
        let to = self.points.back()?;
        let from = self.points.iter().find(|p| p.tick >= since).unwrap_or(to);
        let mut delta = MetricsSnapshot::default();
        for (name, val) in &to.snapshot.values {
            let windowed = match (val, from.snapshot.values.get(name)) {
                (MetricValue::Counter(now), Some(MetricValue::Counter(then))) => {
                    MetricValue::Counter(now.saturating_sub(*then))
                }
                (MetricValue::Histogram(now), Some(MetricValue::Histogram(then))) => {
                    MetricValue::Histogram(now.saturating_delta(then))
                }
                (MetricValue::Gauge(now), _) => MetricValue::Gauge(*now),
                // Newly appeared (or kind-changed) series: the whole value
                // is the window.
                (other, _) => other.clone(),
            };
            delta.values.insert(name.clone(), windowed);
        }
        Some(SeriesWindow {
            from_tick: from.tick,
            to_tick: to.tick,
            delta,
        })
    }
}

/// One [`SnapshotSeries::window`] answer: the delta snapshot plus the
/// actual tick bounds it covers (narrower than asked when retention
/// already evicted the requested start).
#[derive(Debug, Clone)]
pub struct SeriesWindow {
    pub from_tick: u64,
    pub to_tick: u64,
    /// Windowed values — see [`SnapshotSeries::window`] for the per-kind
    /// semantics.
    pub delta: MetricsSnapshot,
}

impl SeriesWindow {
    /// Windowed histogram of `name`, empty when absent.
    pub fn histogram(&self, name: &str) -> LogHistogram {
        self.delta.histogram_value(name).unwrap_or_default()
    }

    /// Windowed counter increase of `name` (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.delta.counter_value(name)
    }
}

/// Stable id for an alert rule name — what the `Copy` trace events carry
/// instead of a `String`. FNV-1a over the name's bytes.
pub fn alert_rule_id(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in name.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// A latency SLO: `objective` (e.g. `0.99`) of requests should land below
/// `threshold_us` (evaluated against a `_us` histogram at bucket
/// granularity — pick power-of-two thresholds for exact counts).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloObjective {
    pub threshold_us: f64,
    pub objective: f64,
}

impl SloObjective {
    /// Error budget fraction (`1 - objective`), floored to keep burn-rate
    /// division finite for degenerate 100% objectives.
    pub fn error_budget(&self) -> f64 {
        (1.0 - self.objective).max(1e-9)
    }

    /// Burn rate of `hist` (a *windowed* distribution): the fraction of
    /// requests over threshold, divided by the error budget. `1.0` means
    /// burning exactly the budget; `0.0` when the window saw no traffic.
    pub fn burn_rate(&self, hist: &LogHistogram) -> f64 {
        let total = hist.count();
        if total == 0 {
            return 0.0;
        }
        let bad = hist.count_ge(self.threshold_us);
        (bad as f64 / total as f64) / self.error_budget()
    }
}

/// What an [`AlertRule`] evaluates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AlertKind {
    /// Fire while the metric's *latest* value exceeds `above` (counters
    /// compare their cumulative value, gauges their reading, histograms
    /// their lifetime p99).
    Threshold { above: f64 },
    /// Fire while the increase over the last `window` ticks exceeds
    /// `above` (counters: increments; histograms: windowed count; gauges:
    /// latest reading — deltas of instantaneous values are not trends).
    Delta { above: f64, window: u64 },
    /// Multi-window SLO burn rate over a `_us` histogram: fire while
    /// **both** the long and the short window burn above `max_burn`.
    /// The long window keeps one spike from paging; the short window
    /// resolves promptly once the bleeding stops (the classic SRE
    /// multi-window shape).
    BurnRate {
        slo: SloObjective,
        max_burn: f64,
        long_window: u64,
        short_window: u64,
    },
}

/// One alert rule over one registered metric series.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRule {
    /// Rule name — the label transitions carry; hash with
    /// [`alert_rule_id`] to match trace events back to rules.
    pub name: String,
    /// The exported metric the rule watches.
    pub metric: String,
    pub kind: AlertKind,
}

impl AlertRule {
    /// Fire while `metric`'s latest value exceeds `above`.
    pub fn threshold(name: impl Into<String>, metric: impl Into<String>, above: f64) -> Self {
        Self {
            name: name.into(),
            metric: metric.into(),
            kind: AlertKind::Threshold { above },
        }
    }

    /// Fire while `metric` grew by more than `above` over `window` ticks.
    pub fn delta(
        name: impl Into<String>,
        metric: impl Into<String>,
        above: f64,
        window: u64,
    ) -> Self {
        Self {
            name: name.into(),
            metric: metric.into(),
            kind: AlertKind::Delta { above, window },
        }
    }

    /// Multi-window burn-rate rule over the latency histogram `metric`.
    pub fn burn_rate(
        name: impl Into<String>,
        metric: impl Into<String>,
        slo: SloObjective,
        max_burn: f64,
        long_window: u64,
        short_window: u64,
    ) -> Self {
        Self {
            name: name.into(),
            metric: metric.into(),
            kind: AlertKind::BurnRate {
                slo,
                max_burn,
                long_window,
                short_window,
            },
        }
    }

    /// Stable id of this rule's name (what trace events carry).
    pub fn id(&self) -> u64 {
        alert_rule_id(&self.name)
    }

    /// Evaluate against the series; returns `(should_fire, observed)`.
    fn evaluate(&self, series: &SnapshotSeries) -> (bool, f64) {
        let Some(latest) = series.latest() else {
            return (false, 0.0);
        };
        match self.kind {
            AlertKind::Threshold { above } => {
                let v = match latest.snapshot.values.get(&self.metric) {
                    Some(MetricValue::Counter(c)) => *c as f64,
                    Some(MetricValue::Gauge(g)) => *g,
                    Some(MetricValue::Histogram(h)) => h.p99(),
                    None => 0.0,
                };
                (v > above, v)
            }
            AlertKind::Delta { above, window } => {
                let since = latest.tick.saturating_sub(window);
                let Some(w) = series.window(since) else {
                    return (false, 0.0);
                };
                let v = match w.delta.values.get(&self.metric) {
                    Some(MetricValue::Counter(c)) => *c as f64,
                    Some(MetricValue::Gauge(g)) => *g,
                    Some(MetricValue::Histogram(h)) => h.count() as f64,
                    None => 0.0,
                };
                (v > above, v)
            }
            AlertKind::BurnRate {
                slo,
                max_burn,
                long_window,
                short_window,
            } => {
                let burn_over = |ticks: u64| {
                    series
                        .window(latest.tick.saturating_sub(ticks))
                        .map(|w| slo.burn_rate(&w.histogram(&self.metric)))
                        .unwrap_or(0.0)
                };
                let long = burn_over(long_window);
                let short = burn_over(short_window);
                (long > max_burn && short > max_burn, short)
            }
        }
    }
}

/// One firing/resolved edge an [`AlertEngine::evaluate`] pass produced.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertTransition {
    pub rule: String,
    /// [`alert_rule_id`] of `rule` — matches the id on the trace event.
    pub rule_id: u64,
    /// `true`: Ok → firing; `false`: firing → resolved.
    pub firing: bool,
    /// The observation that drove the edge (threshold/delta value, or the
    /// short-window burn rate).
    pub value: f64,
    /// Series tick the evaluation ran at.
    pub tick: u64,
}

/// Deterministic rule engine over a [`SnapshotSeries`]: evaluate all rules
/// against the latest window state and report the *edges* (level-triggered
/// rules, edge-triggered reporting — re-evaluating a still-firing rule
/// yields no new transition). The engine counts its own transitions and
/// exports them with [`Self::write_metrics`].
#[derive(Debug, Default)]
pub struct AlertEngine {
    rules: Vec<AlertRule>,
    firing: BTreeMap<String, bool>,
    /// Ok → firing transitions so far.
    fired: u64,
    /// Firing → resolved transitions so far.
    resolved: u64,
}

impl AlertEngine {
    pub fn new(rules: Vec<AlertRule>) -> Self {
        Self {
            rules,
            ..Self::default()
        }
    }

    pub fn rules(&self) -> &[AlertRule] {
        &self.rules
    }

    /// Whether `rule` is currently firing.
    pub fn is_firing(&self, rule: &str) -> bool {
        self.firing.get(rule).copied().unwrap_or(false)
    }

    /// Names of every currently-firing rule.
    pub fn firing(&self) -> Vec<String> {
        self.firing
            .iter()
            .filter(|(_, &f)| f)
            .map(|(n, _)| n.clone())
            .collect()
    }

    /// Evaluate every rule against the series; returns the transitions
    /// this pass produced (empty when nothing changed state).
    pub fn evaluate(&mut self, series: &SnapshotSeries) -> Vec<AlertTransition> {
        let tick = series.latest().map(|p| p.tick).unwrap_or(0);
        let mut out = Vec::new();
        for rule in &self.rules {
            let (now, value) = rule.evaluate(series);
            let was = self.firing.get(&rule.name).copied().unwrap_or(false);
            if now != was {
                self.firing.insert(rule.name.clone(), now);
                *if now {
                    &mut self.fired
                } else {
                    &mut self.resolved
                } += 1;
                out.push(AlertTransition {
                    rule: rule.name.clone(),
                    rule_id: rule.id(),
                    firing: now,
                    value,
                    tick,
                });
            }
        }
        out
    }

    /// [`Self::evaluate`], then record each transition as a structured
    /// event in `telemetry`'s trace ring (`request_id` 0 — alerts belong
    /// to the fleet, not one request).
    pub fn evaluate_recorded(
        &mut self,
        series: &SnapshotSeries,
        telemetry: &Telemetry,
    ) -> Vec<AlertTransition> {
        let transitions = self.evaluate(series);
        for t in &transitions {
            let kind = if t.firing {
                EventKind::AlertFired {
                    rule: t.rule_id,
                    value: t.value,
                }
            } else {
                EventKind::AlertResolved {
                    rule: t.rule_id,
                    value: t.value,
                }
            };
            telemetry.record(Who::default(), kind, 0.0);
        }
        transitions
    }

    /// Write the engine's metrics into `snap`, read when called:
    /// `spider_watch_alerts_fired_total` / `_resolved_total` (transitions
    /// so far) and the `spider_watch_alerts_firing` gauge.
    pub fn write_metrics(&self, snap: &mut MetricsSnapshot) {
        snap.counter("spider_watch_alerts_fired_total", self.fired);
        snap.counter("spider_watch_alerts_resolved_total", self.resolved);
        let firing = self.firing.values().filter(|&&f| f).count();
        snap.gauge("spider_watch_alerts_firing", firing as f64);
    }
}

/// Shard liveness classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Beating (or idle — an idle shard owes no beats).
    Healthy,
    /// Busy but beatless for at least `suspect_after` consecutive ticks.
    Suspect,
    /// Busy but beatless for at least `dead_after` consecutive ticks.
    /// Sticky: a dead shard stays dead until [`HealthMonitor::forget`] —
    /// the owner is expected to have killed and recovered it.
    Dead,
}

impl std::fmt::Display for HealthState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            HealthState::Healthy => "healthy",
            HealthState::Suspect => "suspect",
            HealthState::Dead => "dead",
        })
    }
}

/// Missed-beat thresholds for the [`HealthMonitor`].
///
/// The unit is *ticks of the owner's monitoring loop*, not wall time: a
/// shard is suspected after `suspect_after` consecutive ticks in which it
/// was busy yet its progress beat did not advance, and declared dead after
/// `dead_after`. Space ticks further apart than the longest healthy
/// dispatch wave, or a slow-but-alive shard will look stalled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthPolicy {
    /// Master switch: disabled, [`HealthMonitor::tick`] classifies nothing
    /// and never produces a verdict — exactly the pre-watchtower behavior.
    pub enabled: bool,
    /// Consecutive beatless-while-busy ticks before `Suspect`.
    pub suspect_after: u64,
    /// Consecutive beatless-while-busy ticks before `Dead` (≥
    /// `suspect_after` to be meaningful).
    pub dead_after: u64,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        Self {
            enabled: true,
            suspect_after: 2,
            dead_after: 4,
        }
    }
}

impl HealthPolicy {
    /// Detection off — ticks are no-ops.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::default()
        }
    }
}

/// One shard state change a [`HealthMonitor::tick`] produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthTransition {
    pub shard: String,
    pub from: HealthState,
    pub to: HealthState,
    /// Consecutive beatless-while-busy ticks at the transition.
    pub missed: u64,
}

#[derive(Debug)]
struct ShardHealth {
    /// Last beat value a `tick` processed; `None` until the first tick —
    /// a newly observed shard has no baseline and owes no beat yet.
    beat: Option<u64>,
    /// Latest observation, consumed by the next `tick`.
    observed: Option<(u64, bool)>,
    missed: u64,
    state: HealthState,
}

/// Deterministic missed-heartbeat detector over named shards.
///
/// The protocol has two explicit steps, both driven by the owner (no
/// background threads):
///
/// 1. [`Self::observe`] each shard's current monotone progress beat and
///    whether it is *busy* (has outstanding work). Idle shards owe no
///    beats — a drained, quiet shard is healthy, not dead.
/// 2. [`Self::tick`] classifies every observed shard and returns the
///    state transitions. `Dead` is sticky; the owner kills/recovers the
///    shard and calls [`Self::forget`] (or keeps polling — a dead shard
///    produces no further transitions).
#[derive(Debug)]
pub struct HealthMonitor {
    policy: HealthPolicy,
    shards: BTreeMap<String, ShardHealth>,
}

impl HealthMonitor {
    pub fn new(policy: HealthPolicy) -> Self {
        Self {
            policy,
            shards: BTreeMap::new(),
        }
    }

    pub fn policy(&self) -> HealthPolicy {
        self.policy
    }

    /// Record a shard's current beat and busy flag (registers unknown
    /// shards as `Healthy`). No-op when the policy is disabled.
    pub fn observe(&mut self, shard: &str, beat: u64, busy: bool) {
        if !self.policy.enabled {
            return;
        }
        self.shards
            .entry(shard.to_string())
            .or_insert(ShardHealth {
                beat: None,
                observed: None,
                missed: 0,
                state: HealthState::Healthy,
            })
            .observed = Some((beat, busy));
    }

    /// Drop a shard from monitoring (it departed the fleet).
    pub fn forget(&mut self, shard: &str) {
        self.shards.remove(shard);
    }

    /// Current classification of `shard`, if monitored.
    pub fn state(&self, shard: &str) -> Option<HealthState> {
        self.shards.get(shard).map(|s| s.state)
    }

    /// Every monitored shard's classification, name-sorted.
    pub fn states(&self) -> Vec<(String, HealthState)> {
        self.shards
            .iter()
            .map(|(n, s)| (n.clone(), s.state))
            .collect()
    }

    /// Classify every shard observed since the last tick and return the
    /// transitions. Returns nothing (and changes nothing) when disabled.
    pub fn tick(&mut self) -> Vec<HealthTransition> {
        if !self.policy.enabled {
            return Vec::new();
        }
        let mut out = Vec::new();
        for (name, shard) in self.shards.iter_mut() {
            let Some((beat, busy)) = shard.observed.take() else {
                continue; // not observed this round: no verdict without data
            };
            if shard.state == HealthState::Dead {
                continue; // sticky until forgotten
            }
            let advanced = shard.beat != Some(beat);
            shard.beat = Some(beat);
            if !busy || advanced {
                shard.missed = 0;
            } else {
                shard.missed += 1;
            }
            let next = if shard.missed >= self.policy.dead_after {
                HealthState::Dead
            } else if shard.missed >= self.policy.suspect_after {
                HealthState::Suspect
            } else {
                HealthState::Healthy
            };
            if next != shard.state {
                out.push(HealthTransition {
                    shard: name.clone(),
                    from: shard.state,
                    to: next,
                    missed: shard.missed,
                });
                shard.state = next;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap_with_counter(name: &str, v: u64) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        snap.counter(name, v);
        snap
    }

    fn snap_with_gauge(name: &str, v: f64) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        snap.gauge(name, v);
        snap
    }

    #[test]
    fn series_assigns_ticks_and_evicts_oldest() {
        let mut s = SnapshotSeries::new(3);
        for i in 0..5 {
            assert_eq!(s.record(snap_with_counter("spider_x_total", i)), i);
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.latest().unwrap().tick, 4);
        // Ticks 0 and 1 were evicted, oldest first; 2..=4 remain.
        assert!(s.at(0).is_none());
        assert!(s.at(1).is_none());
        assert!((2..=4).all(|tick| s.at(tick).is_some()));
    }

    #[test]
    fn window_deltas_counters_and_histograms_and_keeps_gauges() {
        let mut s = SnapshotSeries::new(8);
        let mut snap = MetricsSnapshot::default();
        let mut wait = LogHistogram::default();
        snap.counter("spider_c_total", 10);
        snap.gauge("spider_watch_depth", 3.0);
        wait.record(100.0);
        snap.histogram("spider_wait_us", wait);
        s.record(snap.clone());
        snap.counter("spider_c_total", 25);
        snap.gauge("spider_watch_depth", 7.0);
        wait.record(400.0);
        wait.record(900.0);
        snap.histogram("spider_wait_us", wait);
        s.record(snap);

        let w = s.window(0).unwrap();
        assert_eq!((w.from_tick, w.to_tick), (0, 1));
        assert_eq!(w.counter("spider_c_total"), 15);
        assert_eq!(w.delta.gauge_value("spider_watch_depth"), 7.0);
        let h = w.histogram("spider_wait_us");
        assert_eq!(h.count(), 2); // the window's two samples, not three
        assert!(h.p99() >= 400.0);
    }

    #[test]
    fn window_clamps_to_retention() {
        let mut s = SnapshotSeries::new(2);
        for i in 0..5u64 {
            s.record(snap_with_counter("spider_x_total", i * 10));
        }
        // Asked for tick 0; only ticks 3 and 4 survive.
        let w = s.window(0).unwrap();
        assert_eq!((w.from_tick, w.to_tick), (3, 4));
        assert_eq!(w.counter("spider_x_total"), 10);
        // A future tick degrades to a zero-width window, not a panic.
        let w = s.window(99).unwrap();
        assert_eq!((w.from_tick, w.to_tick), (4, 4));
        assert_eq!(w.counter("spider_x_total"), 0);
    }

    #[test]
    fn threshold_rule_fires_and_resolves_on_edges_only() {
        let mut s = SnapshotSeries::new(8);
        let mut e = AlertEngine::new(vec![AlertRule::threshold(
            "queue-deep",
            "spider_watch_depth",
            5.0,
        )]);
        let gauge = |v: f64| snap_with_gauge("spider_watch_depth", v);
        s.record(gauge(3.0));
        assert!(e.evaluate(&s).is_empty());
        s.record(gauge(9.0));
        let t = e.evaluate(&s);
        assert_eq!(t.len(), 1);
        assert!(t[0].firing);
        assert_eq!(t[0].value, 9.0);
        assert!(e.is_firing("queue-deep"));
        // Still firing: level unchanged, no new edge.
        s.record(gauge(12.0));
        assert!(e.evaluate(&s).is_empty());
        s.record(gauge(1.0));
        let t = e.evaluate(&s);
        assert_eq!(t.len(), 1);
        assert!(!t[0].firing);
        assert!(!e.is_firing("queue-deep"));
    }

    #[test]
    fn delta_rule_watches_the_window_not_the_lifetime() {
        let mut s = SnapshotSeries::new(8);
        let mut e = AlertEngine::new(vec![AlertRule::delta(
            "failure-burst",
            "spider_failed_total",
            2.0,
            1,
        )]);
        s.record(snap_with_counter("spider_failed_total", 100));
        assert!(e.evaluate(&s).is_empty()); // huge lifetime count, no window growth
        s.record(snap_with_counter("spider_failed_total", 101));
        assert!(e.evaluate(&s).is_empty()); // +1 ≤ 2
        s.record(snap_with_counter("spider_failed_total", 110));
        let t = e.evaluate(&s);
        assert_eq!(t.len(), 1);
        assert!(t[0].firing);
        assert_eq!(t[0].value, 9.0);
    }

    #[test]
    fn burn_rate_needs_both_windows_and_resolves_on_short() {
        let slo = SloObjective {
            threshold_us: 128.0,
            objective: 0.9,
        };
        let rule = AlertRule::burn_rate("victim-slo", "spider_wait_us", slo, 2.0, 4, 1);
        let mut s = SnapshotSeries::new(16);
        let mut e = AlertEngine::new(vec![rule]);
        let mut h = LogHistogram::default();
        let snap = |h: LogHistogram| {
            let mut snap = MetricsSnapshot::default();
            snap.histogram("spider_wait_us", h);
            snap
        };
        // Tick 0: clean traffic.
        for _ in 0..10 {
            h.record(10.0);
        }
        s.record(snap(h));
        assert!(e.evaluate(&s).is_empty());
        // Ticks 1-2: every request blows the threshold → burn 10× budget.
        for tick in 0..2 {
            for _ in 0..10 {
                h.record(1000.0);
            }
            s.record(snap(h));
            let t = e.evaluate(&s);
            if tick == 0 {
                assert_eq!(t.len(), 1, "fires on the first bad window");
                assert!(t[0].firing);
                assert!(t[0].value > 2.0);
            } else {
                assert!(t.is_empty(), "still firing, no new edge");
            }
        }
        // Tick 3: traffic back to clean — short window recovers, resolves.
        for _ in 0..10 {
            h.record(10.0);
        }
        s.record(snap(h));
        let t = e.evaluate(&s);
        assert_eq!(t.len(), 1);
        assert!(!t[0].firing);
    }

    #[test]
    fn recorded_evaluation_writes_trace_events_and_metrics() {
        let telemetry = Telemetry::default();
        let mut s = SnapshotSeries::new(4);
        let mut e = AlertEngine::new(vec![AlertRule::threshold("hot", "spider_watch_load", 1.0)]);
        let gauge = |v: f64| snap_with_gauge("spider_watch_load", v);
        s.record(gauge(5.0));
        e.evaluate_recorded(&s, &telemetry);
        s.record(gauge(0.0));
        e.evaluate_recorded(&s, &telemetry);
        let events = telemetry.trace().snapshot();
        let rule = alert_rule_id("hot");
        assert!(events
            .iter()
            .any(|ev| matches!(ev.kind, EventKind::AlertFired { rule: r, .. } if r == rule)));
        assert!(events
            .iter()
            .any(|ev| matches!(ev.kind, EventKind::AlertResolved { rule: r, .. } if r == rule)));
        let mut m = MetricsSnapshot::default();
        e.write_metrics(&mut m);
        assert_eq!(m.counter_value("spider_watch_alerts_fired_total"), 1);
        assert_eq!(m.counter_value("spider_watch_alerts_resolved_total"), 1);
        assert_eq!(m.gauge_value("spider_watch_alerts_firing"), 0.0);
    }

    #[test]
    fn health_monitor_classifies_healthy_suspect_dead() {
        let mut hm = HealthMonitor::new(HealthPolicy {
            enabled: true,
            suspect_after: 2,
            dead_after: 3,
        });
        // Beating shard stays healthy.
        for beat in 0..3 {
            hm.observe("dev0", beat, true);
            assert!(hm.tick().is_empty());
        }
        assert_eq!(hm.state("dev0"), Some(HealthState::Healthy));
        // Beat stalls while busy: suspect at 2 missed, dead at 3.
        hm.observe("dev0", 2, true);
        assert!(hm.tick().is_empty()); // missed 1
        hm.observe("dev0", 2, true);
        let t = hm.tick();
        assert_eq!(t.len(), 1);
        assert_eq!(
            (t[0].from, t[0].to),
            (HealthState::Healthy, HealthState::Suspect)
        );
        hm.observe("dev0", 2, true);
        let t = hm.tick();
        assert_eq!(t.len(), 1);
        assert_eq!(
            (t[0].from, t[0].to),
            (HealthState::Suspect, HealthState::Dead)
        );
        assert_eq!(t[0].missed, 3);
        // Dead is sticky — even a returning beat produces no transition.
        hm.observe("dev0", 50, true);
        assert!(hm.tick().is_empty());
        assert_eq!(hm.state("dev0"), Some(HealthState::Dead));
        hm.forget("dev0");
        assert_eq!(hm.state("dev0"), None);
    }

    #[test]
    fn idle_shards_owe_no_beats() {
        let mut hm = HealthMonitor::new(HealthPolicy {
            enabled: true,
            suspect_after: 1,
            dead_after: 2,
        });
        for _ in 0..5 {
            hm.observe("quiet", 7, false); // same beat forever, but idle
            assert!(hm.tick().is_empty());
        }
        assert_eq!(hm.state("quiet"), Some(HealthState::Healthy));
        // A suspect shard that goes idle recovers.
        hm.observe("busy", 1, true);
        hm.tick();
        hm.observe("busy", 1, true);
        let t = hm.tick();
        assert_eq!(t[0].to, HealthState::Suspect);
        hm.observe("busy", 1, false);
        let t = hm.tick();
        assert_eq!(
            (t[0].from, t[0].to),
            (HealthState::Suspect, HealthState::Healthy)
        );
    }

    #[test]
    fn unobserved_shards_get_no_verdict_and_disabled_monitor_does_nothing() {
        let mut hm = HealthMonitor::new(HealthPolicy {
            enabled: true,
            suspect_after: 1,
            dead_after: 1,
        });
        hm.observe("dev0", 0, true);
        hm.tick();
        // No observe before the next ticks: no data, no verdict drift.
        for _ in 0..5 {
            assert!(hm.tick().is_empty());
        }
        assert_eq!(hm.state("dev0"), Some(HealthState::Healthy));

        let mut off = HealthMonitor::new(HealthPolicy::disabled());
        off.observe("dev0", 0, true);
        for _ in 0..10 {
            assert!(off.tick().is_empty());
        }
        assert_eq!(off.state("dev0"), None); // disabled observe records nothing
    }

    #[test]
    fn rule_ids_are_stable_and_distinct() {
        assert_eq!(alert_rule_id("a"), alert_rule_id("a"));
        assert_ne!(alert_rule_id("a"), alert_rule_id("b"));
    }
}

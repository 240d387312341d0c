//! # spider-telemetry
//!
//! Observability for the SPIDER serving stack: request-lifecycle tracing, a
//! unified metrics registry and per-plan phase profiling behind one
//! [`Telemetry`] handle.
//!
//! The serving layers (`spider-runtime`, `spider-cluster`) historically
//! emitted only end-of-batch aggregates; this crate adds the per-request
//! and per-plan visibility an SLO-gated deployment needs, without touching
//! execution semantics — outputs and `PerfCounters` are bit-identical with
//! telemetry on or off (property-tested in `tests/telemetry_properties.rs`).
//!
//! ## The three instruments
//!
//! * [`TraceLog`] — a bounded ring buffer of structured [`Event`]s
//!   (`admit → queued → plan-resolve → tune → execute → complete`), each
//!   stamped with the host wall clock and the simulated GPU clock, plus an
//!   RAII [`Span`] API that makes phase nesting explicit and lets a
//!   per-request timeline be reconstructed and rendered.
//! * [`MetricsRegistry`] — named counters, gauges and log-scale
//!   [`LogHistogram`]s (p50/p90/p99), exportable as Prometheus text and
//!   flat JSON. An export snapshots the registry and writes in the counts
//!   the serving stack's stats structs own, read when it is taken;
//!   per-device [`MetricsSnapshot`]s merge into fleet ones.
//! * [`PhaseProfiler`] — per-plan_key accumulation of queue/resolve/tune/
//!   exec time, compile counts and store bytes, with a `top plans` table
//!   and folded-stack flamegraph export.
//!
//! ## Quickstart
//!
//! ```
//! use spider_telemetry::{EventKind, Phase, Telemetry, TelemetryConfig, Terminal};
//!
//! let t = Telemetry::new(TelemetryConfig::default());
//! t.record(7, 0xabc, EventKind::Admit, 0.0);
//! {
//!     let _span = t.span(7, 0xabc, Phase::Exec);
//!     // ... do the work ...
//! } // span exit recorded + exec time attributed to plan 0xabc
//! t.record(7, 0xabc, EventKind::Complete { terminal: Terminal::Done }, 0.0);
//! t.metrics().counter("spider_runtime_requests_completed_total").inc();
//!
//! let timeline = t.trace().render_timeline(7).unwrap();
//! assert!(timeline.contains("complete: done"));
//! assert!(t.metrics().prometheus_text().contains("requests_completed_total 1"));
//! ```

pub mod export;
pub mod hist;
pub mod metrics;
pub mod profile;
pub mod trace;
pub mod watch;

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

pub use export::{chrome_trace_json, validate_json};
pub use hist::LogHistogram;
pub use metrics::{Counter, Gauge, Histogram, MetricValue, MetricsRegistry, MetricsSnapshot};
pub use profile::{merge_profiles, render_top_profiles, PhaseProfiler, PhaseStats, PlanProfile};
pub use trace::{Event, EventKind, Phase, ResolveSource, Terminal, TraceLog};
pub use watch::{
    alert_rule_id, AlertEngine, AlertKind, AlertRule, AlertTransition, HealthMonitor, HealthPolicy,
    HealthState, HealthTransition, SeriesPoint, SeriesWindow, SloObjective, SnapshotSeries,
};

/// Telemetry configuration, carried inside `RuntimeOptions`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Master switch. Off: every record/span call is a branch and nothing
    /// else; the registry and trace stay empty.
    pub enabled: bool,
    /// Trace ring capacity in events (oldest dropped beyond this).
    pub trace_capacity: usize,
}

impl Default for TelemetryConfig {
    /// Enabled-but-cheap: tracing, metrics and profiling on, ring bounded
    /// at 4096 events.
    fn default() -> Self {
        Self {
            enabled: true,
            trace_capacity: 4096,
        }
    }
}

impl TelemetryConfig {
    /// Everything off (the zero-overhead baseline the bench guard compares
    /// against).
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::default()
        }
    }
}

/// The per-runtime observability handle: one trace log, one metrics
/// registry, one profiler, one wall-clock epoch and a wave-id allocator.
#[derive(Debug)]
pub struct Telemetry {
    config: TelemetryConfig,
    epoch: Instant,
    trace: TraceLog,
    metrics: MetricsRegistry,
    profiler: PhaseProfiler,
    wave_ids: AtomicU64,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new(TelemetryConfig::default())
    }
}

impl Telemetry {
    pub fn new(config: TelemetryConfig) -> Self {
        Self {
            config,
            epoch: Instant::now(),
            trace: TraceLog::new(config.trace_capacity),
            metrics: MetricsRegistry::new(),
            profiler: PhaseProfiler::new(),
            wave_ids: AtomicU64::new(0),
        }
    }

    /// A disabled handle (no events, no metrics, no profiles).
    pub fn disabled() -> Self {
        Self::new(TelemetryConfig::disabled())
    }

    pub fn enabled(&self) -> bool {
        self.config.enabled
    }

    pub fn config(&self) -> TelemetryConfig {
        self.config
    }

    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    pub fn profiler(&self) -> &PhaseProfiler {
        &self.profiler
    }

    /// Seconds since this handle was created (the `wall_s` stamp domain).
    pub fn now_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Allocate a unique executor-wave id (shared by the `Launch` event and
    /// the member `Execute` events of one coalesced run).
    pub fn next_wave_id(&self) -> u64 {
        self.wave_ids.fetch_add(1, Ordering::Relaxed)
    }

    /// Append one lifecycle event (no-op when disabled). `sim_s` is the
    /// simulated-GPU time attributable to the event (0 where none exists).
    /// Stamps retry attempt 0 — a request's first life; recovery paths use
    /// [`Self::record_attempt`].
    pub fn record(&self, request_id: u64, plan_key: u64, kind: EventKind, sim_s: f64) {
        self.record_attempt(request_id, plan_key, 0, kind, sim_s);
    }

    /// [`Self::record`] with an explicit device-loss retry `attempt` index,
    /// so a re-routed request's second life chains onto its first in the
    /// rendered timeline instead of losing lineage.
    pub fn record_attempt(
        &self,
        request_id: u64,
        plan_key: u64,
        attempt: u32,
        kind: EventKind,
        sim_s: f64,
    ) {
        if !self.config.enabled {
            return;
        }
        self.trace.push(Event {
            seq: 0,
            request_id,
            plan_key,
            wall_s: self.now_s(),
            sim_s,
            attempt,
            kind,
        });
    }

    /// Open a phase span for a request. The returned guard records
    /// `SpanEnter` now and, on [`Span::exit`] or drop, `SpanExit` — and
    /// attributes the elapsed wall time to `plan_key` in the profiler.
    /// When telemetry is disabled the guard still measures (so callers can
    /// use the returned duration) but records nothing.
    pub fn span(&self, request_id: u64, plan_key: u64, phase: Phase) -> Span<'_> {
        self.span_attempt(request_id, plan_key, 0, phase)
    }

    /// [`Self::span`] with an explicit retry `attempt` index stamped on the
    /// enter/exit events (see [`Self::record_attempt`]).
    pub fn span_attempt(
        &self,
        request_id: u64,
        plan_key: u64,
        attempt: u32,
        phase: Phase,
    ) -> Span<'_> {
        self.record_attempt(
            request_id,
            plan_key,
            attempt,
            EventKind::SpanEnter { phase },
            0.0,
        );
        Span {
            telemetry: self,
            request_id,
            plan_key,
            attempt,
            phase,
            start: Instant::now(),
            armed: true,
        }
    }
}

/// RAII phase-span guard; see [`Telemetry::span`]. Exit-on-drop makes
/// orphan exits impossible by construction — every `SpanEnter` in the trace
/// has exactly one matching `SpanExit`, even on early-return error paths.
#[derive(Debug)]
pub struct Span<'t> {
    telemetry: &'t Telemetry,
    request_id: u64,
    plan_key: u64,
    attempt: u32,
    phase: Phase,
    start: Instant,
    armed: bool,
}

impl Span<'_> {
    fn close(&mut self) -> f64 {
        self.armed = false;
        let elapsed = self.start.elapsed().as_secs_f64();
        if self.telemetry.config.enabled {
            self.telemetry.record_attempt(
                self.request_id,
                self.plan_key,
                self.attempt,
                EventKind::SpanExit {
                    phase: self.phase,
                    elapsed_s: elapsed,
                },
                0.0,
            );
            self.telemetry
                .profiler
                .add_phase(self.plan_key, self.phase, elapsed);
        }
        elapsed
    }

    /// Close the span explicitly, returning its wall duration in seconds
    /// (measured whether or not telemetry is enabled).
    pub fn exit(mut self) -> f64 {
        self.close()
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let t = Telemetry::disabled();
        t.record(1, 2, EventKind::Admit, 0.0);
        let d = t.span(1, 2, Phase::Exec).exit();
        assert!(d >= 0.0);
        assert!(t.trace().is_empty());
        assert!(t.profiler().snapshot().is_empty());
        assert!(!t.enabled());
    }

    #[test]
    fn span_records_enter_exit_and_feeds_profiler() {
        let t = Telemetry::default();
        {
            let _span = t.span(5, 0xbeef, Phase::Tune);
        }
        let events = t.trace().timeline(5);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::SpanEnter { phase: Phase::Tune });
        assert!(matches!(
            events[1].kind,
            EventKind::SpanExit {
                phase: Phase::Tune,
                ..
            }
        ));
        let prof = t.profiler().snapshot();
        assert_eq!(prof.len(), 1);
        assert_eq!(prof[0].plan_key, 0xbeef);
        assert!(prof[0].stats.tune_s >= 0.0);
    }

    #[test]
    fn explicit_exit_disarms_drop() {
        let t = Telemetry::default();
        let span = t.span(9, 1, Phase::Resolve);
        span.exit();
        // Exactly one enter + one exit — drop after exit must not double-record.
        assert_eq!(t.trace().timeline(9).len(), 2);
    }

    #[test]
    fn wave_ids_are_unique() {
        let t = Telemetry::default();
        let a = t.next_wave_id();
        let b = t.next_wave_id();
        assert_ne!(a, b);
    }

    #[test]
    fn wall_stamps_are_monotone() {
        let t = Telemetry::default();
        t.record(1, 0, EventKind::Admit, 0.0);
        t.record(1, 0, EventKind::Queued, 0.0);
        let events = t.trace().timeline(1);
        assert!(events[0].wall_s <= events[1].wall_s);
    }
}

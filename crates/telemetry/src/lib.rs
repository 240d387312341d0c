//! # spider-telemetry
//!
//! Observability for the SPIDER serving stack: request-lifecycle tracing
//! and per-plan phase profiling behind one [`Telemetry`] handle, plus the
//! [`MetricsSnapshot`] every layer exports its counts in.
//!
//! The serving layers (`spider-runtime`, `spider-cluster`) historically
//! emitted only end-of-batch aggregates; this crate adds the per-request
//! and per-plan visibility an SLO-gated deployment needs, without touching
//! execution semantics — outputs and `PerfCounters` are bit-identical with
//! telemetry on or off (property-tested in `tests/telemetry_properties.rs`).
//!
//! ## The two instruments
//!
//! * [`TraceLog`] — the record: a bounded ring buffer of structured
//!   [`Event`]s (`admit → queued → plan-resolve → tune → execute →
//!   complete`), each stamped with the host wall clock and the simulated
//!   GPU clock, plus an RAII [`Span`] API whose one exit event carries the
//!   phase's duration, so a per-request timeline can be reconstructed and
//!   rendered. Every event names its request once, by a [`Who`].
//! * [`PhaseProfiler`] — the trace's fold, per plan_key: [`Telemetry::record`]
//!   adds each span exit to its phase's time (queue/resolve/tune/exec), each
//!   fresh compile to the compiles and each done request to the requests and
//!   simulated time, so the profiler never disagrees with the trace.
//!   Scenario labels are the only values written to it directly. It renders a `top plans` table and folded-stack flamegraph export.
//!
//! Counts are exported as [`MetricsSnapshot`]s (Prometheus text and flat
//! JSON, with log-scale [`LogHistogram`]s for p50/p90/p99): each layer's
//! `metrics_snapshot()` writes in the counts its stats structs, meters and
//! profiler own, read when it is taken; per-device snapshots merge into
//! fleet ones. [`chrome_trace_json`] renders trace rings as a Chrome
//! trace-event timeline.
//!
//! ## Quickstart
//!
//! ```
//! use spider_telemetry::{
//!     EventKind, MetricsSnapshot, Phase, Telemetry, TelemetryConfig, Terminal, Who,
//! };
//!
//! let t = Telemetry::new(TelemetryConfig::default());
//! let who = Who::new(7, 0xabc, 0);
//! t.record(who, EventKind::Admit, 0.0);
//! {
//!     let _span = t.span(who, Phase::Exec);
//!     // ... do the work ...
//! } // span exit recorded + exec time attributed to plan 0xabc
//! t.record(who, EventKind::Complete { terminal: Terminal::Done }, 0.0);
//!
//! let timeline = t.trace().render_timeline(7).unwrap();
//! assert!(timeline.contains("complete: done"));
//! let done = t.profiler().snapshot()[0].stats.requests;
//! let mut snap = MetricsSnapshot::default();
//! snap.counter("spider_runtime_requests_completed_total", done);
//! assert!(snap.prometheus_text(&[]).contains("requests_completed_total 1"));
//! ```

pub mod export;
pub mod hist;
pub mod metrics;
pub mod profile;
pub mod trace;

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

pub use export::{chrome_trace_json, validate_json};
pub use hist::LogHistogram;
pub use metrics::{MetricValue, MetricsSnapshot};
pub use profile::{merge_profiles, render_top_profiles, PhaseProfiler, PhaseStats, PlanProfile};
pub use trace::{Event, EventKind, Phase, ResolveSource, Terminal, TraceLog, Who};

/// Telemetry configuration, carried inside `RuntimeOptions`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Master switch. Off: every record/span call is a branch and nothing
    /// else; the trace and profiler stay empty.
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

/// The per-runtime observability handle: one trace log, one profiler, one
/// wall-clock epoch and a wave-id allocator.
#[derive(Debug)]
pub struct Telemetry {
    config: TelemetryConfig,
    epoch: Instant,
    trace: TraceLog,
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
            profiler: PhaseProfiler::new(),
            wave_ids: AtomicU64::new(0),
        }
    }

    /// A disabled handle (no events, no profiles).
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

    /// Append one lifecycle event of `who` (no-op when disabled) and fold
    /// it into the profiler: a span exit adds its wall time to the plan's
    /// phase, a `PlanResolve { Compile }` counts a compile, and a
    /// `Complete { Done }` counts a request with its simulated time. `sim_s`
    /// is the simulated-GPU time attributable to the event (0 where none
    /// exists).
    pub fn record(&self, who: Who, kind: EventKind, sim_s: f64) {
        if !self.config.enabled {
            return;
        }
        self.trace.push(Event {
            seq: 0,
            request_id: who.request_id,
            plan_key: who.plan_key,
            wall_s: self.now_s(),
            sim_s,
            attempt: who.attempt,
            kind,
        });
        let key = who.plan_key;
        match kind {
            EventKind::SpanExit { phase, elapsed_s } => {
                self.profiler.add_phase(key, phase, elapsed_s)
            }
            EventKind::PlanResolve {
                source: ResolveSource::Compile,
            } => self.profiler.add_compile(key),
            EventKind::Complete {
                terminal: Terminal::Done,
            } => self.profiler.add_request(key, sim_s),
            _ => {}
        }
    }

    /// Open a phase span for `who`. The returned guard records one event:
    /// on [`Span::exit`] or drop, `SpanExit` with the elapsed wall time,
    /// which [`Self::record`] attributes to the plan's phase. Its stamp
    /// minus that time is when the span opened. When telemetry is disabled
    /// the guard records nothing and never reads the clock.
    pub fn span(&self, who: Who, phase: Phase) -> Span<'_> {
        Span {
            telemetry: self,
            who,
            phase,
            start: self.config.enabled.then(Instant::now),
        }
    }
}

/// RAII phase-span guard; see [`Telemetry::span`]. Exit-on-drop means every
/// opened span records exactly one `SpanExit`, even on early-return error
/// paths.
#[derive(Debug)]
pub struct Span<'t> {
    telemetry: &'t Telemetry,
    who: Who,
    phase: Phase,
    /// When the span opened; `None` when telemetry is disabled.
    start: Option<Instant>,
}

impl Span<'_> {
    /// Close the span now rather than at the end of its scope.
    pub fn exit(self) {}
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let (phase, elapsed_s) = (self.phase, start.elapsed().as_secs_f64());
            let exit = EventKind::SpanExit { phase, elapsed_s };
            self.telemetry.record(self.who, exit, 0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let t = Telemetry::disabled();
        t.record(Who::new(1, 2, 0), EventKind::Admit, 0.0);
        t.span(Who::new(1, 2, 0), Phase::Exec).exit();
        assert!(t.trace().is_empty());
        assert!(t.profiler().snapshot().is_empty());
        assert!(!t.enabled());
    }

    #[test]
    fn span_records_one_exit_and_feeds_profiler() {
        let t = Telemetry::default();
        {
            let _span = t.span(Who::new(5, 0xbeef, 0), Phase::Tune);
        }
        let events = t.trace().timeline(5);
        assert_eq!(events.len(), 1);
        assert!(matches!(
            events[0].kind,
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
        let span = t.span(Who::new(9, 1, 0), Phase::Resolve);
        span.exit();
        // Exactly one exit — drop after exit must not double-record.
        assert_eq!(t.trace().timeline(9).len(), 1);
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
        t.record(Who::new(1, 0, 0), EventKind::Admit, 0.0);
        t.record(Who::new(1, 0, 0), EventKind::Queued, 0.0);
        let events = t.trace().timeline(1);
        assert!(events[0].wall_s <= events[1].wall_s);
    }
}

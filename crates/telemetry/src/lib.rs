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
//!   GPU clock, plus spans whose one exit event carries the phase's
//!   duration, so a per-request timeline can be reconstructed and
//!   rendered. Every event names its request once, by a [`Who`].
//! * [`PhaseProfiler`] — the trace's fold, per plan_key: [`Telemetry::flush`]
//!   adds each span exit to its phase's time (queue/resolve/tune/exec),
//!   each fresh compile to the compiles and each done request to the
//!   requests and simulated time, so the profiler never disagrees with the
//!   trace. Scenario labels are the only values written to it directly. It
//!   renders a `top plans` table and folded-stack flamegraph export.
//!
//! Events are recorded into an [`EventBatch`] (a serving group's, or a
//! submission's) and reach both instruments together when the batch is
//! flushed: one ring lock and one profiler lock per batch, and one clock
//! read per moment, however many events share it.
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
//! let mut batch = t.batch(3);
//! let admitted = batch.now_s();
//! batch.record(who, EventKind::Admit, 0.0, admitted);
//! // ... do the work ...
//! let done = batch.exit(who, Phase::Exec, admitted); // exec time for plan 0xabc
//! batch.record(who, EventKind::Complete { terminal: Terminal::Done }, 0.0, done);
//! t.flush(&[&batch]); // one ring lock, one profiler lock
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

    /// Allocate a unique executor-wave id (shared by the `Launch` event and
    /// the member `Execute` events of one coalesced run).
    pub fn next_wave_id(&self) -> u64 {
        self.wave_ids.fetch_add(1, Ordering::Relaxed)
    }

    /// An empty batch with room for `events` events, stamped on this
    /// handle's epoch (inert when telemetry is disabled).
    pub fn batch(&self, events: usize) -> EventBatch {
        let enabled = self.config.enabled;
        EventBatch {
            enabled,
            epoch: self.epoch,
            events: Vec::with_capacity(if enabled { events } else { 0 }),
            service_us: LogHistogram::default(),
        }
    }

    /// Append the events of `batches`, in order, to the trace under one
    /// ring lock, and fold them and the batches' service times into the
    /// profiler under one profiler lock: a span exit adds its wall time to
    /// the plan's phase, a `PlanResolve { Compile }` counts a compile, and
    /// a `Complete { Done }` counts a request with its simulated time.
    pub fn flush(&self, batches: &[&EventBatch]) {
        if batches
            .iter()
            .all(|b| b.events.is_empty() && b.service_us.count() == 0)
        {
            return;
        }
        let parts = batches.iter().map(|b| b.events.as_slice());
        self.trace.extend(parts.clone());
        self.profiler
            .fold(parts, batches.iter().map(|b| &b.service_us));
    }
}

/// Lifecycle events recorded away from the shared sinks: one serving
/// group's, or one submission's, until [`Telemetry::flush`] appends them
/// under one ring lock and folds them under one profiler lock. Every event
/// names its request by a [`Who`] and carries a caller-taken stamp:
/// [`Self::now_s`] reads the clock once, and events recorded at the same
/// moment share that read. A span is one event, its exit
/// ([`Self::exit`]): its stamp minus its elapsed time is its open stamp,
/// so a span costs one clock read more than a plain event. A batch also
/// carries its requests' service times (`spider_runtime_service_time_us`).
/// From a disabled handle every call is a branch and nothing else: no
/// clock read, no event.
#[derive(Debug)]
pub struct EventBatch {
    enabled: bool,
    epoch: Instant,
    events: Vec<Event>,
    service_us: LogHistogram,
}

impl EventBatch {
    /// Whether telemetry is on (a disabled batch records nothing).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Read the clock once: seconds since the handle's epoch, the `wall_s`
    /// stamp domain (0 when disabled, without a read).
    pub fn now_s(&self) -> f64 {
        if !self.enabled {
            return 0.0;
        }
        self.epoch.elapsed().as_secs_f64()
    }

    /// `at` in the `wall_s` stamp domain, for a moment the caller has
    /// already read the clock for (0 when disabled).
    pub fn stamp(&self, at: Instant) -> f64 {
        if !self.enabled {
            return 0.0;
        }
        at.saturating_duration_since(self.epoch).as_secs_f64()
    }

    /// Add one lifecycle event of `who`, stamped `wall_s`. `sim_s` is the
    /// simulated-GPU time attributable to the event (0 where none exists).
    pub fn record(&mut self, who: Who, kind: EventKind, sim_s: f64, wall_s: f64) {
        if !self.enabled {
            return;
        }
        self.events.push(Event {
            seq: 0,
            request_id: who.request_id,
            plan_key: who.plan_key,
            wall_s,
            sim_s,
            attempt: who.attempt,
            kind,
        });
    }

    /// Close `who`'s span for `phase`, opened at stamp `open_s`: read the
    /// clock once and add its `SpanExit`, stamped then and carrying the
    /// elapsed time since `open_s`. Returns the exit stamp, which events
    /// at the same moment share (and the next span may open at).
    pub fn exit(&mut self, who: Who, phase: Phase, open_s: f64) -> f64 {
        let now = self.now_s();
        self.span(who, phase, open_s, now);
        now
    }

    /// Add `who`'s span for `phase` from stamp `open_s` to stamp
    /// `exit_s`, both already read: its `SpanExit`, stamped `exit_s`.
    pub fn span(&mut self, who: Who, phase: Phase, open_s: f64, exit_s: f64) {
        let elapsed_s = exit_s - open_s;
        self.record(who, EventKind::SpanExit { phase, elapsed_s }, 0.0, exit_s);
    }

    /// Add one request's service time, in µs.
    pub fn service(&mut self, us: f64) {
        if self.enabled {
            self.service_us.record(us);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `who`'s span for `phase`, opened and closed in one batch.
    fn span(t: &Telemetry, who: Who, phase: Phase) {
        let mut batch = t.batch(1);
        let open = batch.now_s();
        batch.exit(who, phase, open);
        t.flush(&[&batch]);
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let t = Telemetry::disabled();
        let mut batch = t.batch(2);
        assert_eq!(batch.now_s(), 0.0);
        batch.record(Who::new(1, 2, 0), EventKind::Admit, 0.0, 1.0);
        batch.exit(Who::new(1, 2, 0), Phase::Exec, 0.0);
        batch.service(5.0);
        t.flush(&[&batch]);
        assert!(t.trace().is_empty());
        assert!(t.profiler().snapshot().is_empty());
        assert_eq!(t.profiler().service_us().count(), 0);
        assert!(!t.enabled());
    }

    #[test]
    fn span_records_one_exit_and_feeds_profiler() {
        let t = Telemetry::default();
        span(&t, Who::new(5, 0xbeef, 0), Phase::Tune);
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
    fn a_span_exit_stamps_its_open_plus_its_elapsed_time() {
        let t = Telemetry::default();
        let mut batch = t.batch(2);
        let open = batch.now_s();
        std::thread::sleep(std::time::Duration::from_millis(1));
        let exit = batch.exit(Who::new(3, 1, 0), Phase::Exec, open);
        batch.record(Who::new(3, 1, 0), EventKind::Queued, 0.0, exit);
        t.flush(&[&batch]);
        let events = t.trace().timeline(3);
        let EventKind::SpanExit { elapsed_s, .. } = events[0].kind else {
            panic!("a span exit first");
        };
        assert!(elapsed_s >= 1e-3);
        assert_eq!(events[0].wall_s, exit);
        assert!((events[0].wall_s - elapsed_s - open).abs() < 1e-12);
        // An event at the same moment shares the exit's clock read.
        assert_eq!(events[1].wall_s, exit);
    }

    #[test]
    fn a_flush_appends_in_order_and_folds_once() {
        let t = Telemetry::default();
        let (a, b) = (Who::new(1, 10, 0), Who::new(2, 20, 0));
        let mut batch = t.batch(4);
        let now = batch.now_s();
        batch.record(a, EventKind::Admit, 0.0, now);
        batch.record(b, EventKind::Admit, 0.0, now);
        let done = EventKind::Complete {
            terminal: Terminal::Done,
        };
        batch.record(a, done, 2e-6, now);
        batch.record(b, done, 4e-6, now);
        batch.service(3.0);
        batch.service(6.0);
        // Nothing reaches the sinks before the flush.
        assert!(t.trace().is_empty());
        t.flush(&[&batch]);
        let ids: Vec<(u64, u64)> = t
            .trace()
            .snapshot()
            .iter()
            .map(|e| (e.seq, e.request_id))
            .collect();
        assert_eq!(ids, [(0, 1), (1, 2), (2, 1), (3, 2)]);
        let prof = t.profiler().snapshot();
        assert_eq!(prof.len(), 2, "admits fold nothing; each done counts");
        assert!(prof.iter().all(|p| p.stats.requests == 1));
        assert_eq!(t.profiler().sim_exec_us().count(), 2);
        assert_eq!(t.profiler().service_us().count(), 2);
        assert_eq!(t.profiler().service_us().sum, 9.0);
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
        let mut batch = t.batch(2);
        batch.record(Who::new(1, 0, 0), EventKind::Admit, 0.0, batch.now_s());
        batch.record(Who::new(1, 0, 0), EventKind::Queued, 0.0, batch.now_s());
        t.flush(&[&batch]);
        let events = t.trace().timeline(1);
        assert!(events[0].wall_s <= events[1].wall_s);
    }
}

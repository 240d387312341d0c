//! Property tests for the telemetry layer: every admitted request reaches
//! exactly one terminal trace event, its spans nest inside its lifetime, the
//! bounded trace ring drops oldest-first while counting what it dropped,
//! and — the invariant everything else rests on — telemetry being on or off
//! never changes a single output bit or perf counter.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;
use spider::prelude::*;
use spider::telemetry::{Event, EventKind, Terminal, TraceLog};

fn kernel_for(which: u8) -> StencilKernel {
    match which % 4 {
        0 => StencilKernel::heat_2d(0.12),
        1 => StencilKernel::gaussian_2d(2),
        2 => StencilKernel::jacobi_2d(),
        _ => StencilKernel::random(StencilShape::star_2d(2), 7),
    }
}

/// A mixed workload: several plan keys, several exec keys per plan, a
/// deterministic sprinkle of invalid (dimension-mismatch) requests
/// (`bad_roll == 0`, i.e. ~1 in 8 picks).
fn workload(picks: &[(u8, u8)]) -> Vec<StencilRequest> {
    picks
        .iter()
        .enumerate()
        .map(|(i, &(which, bad_roll))| {
            let id = i as u64;
            if bad_roll == 0 {
                // 1D kernel on a 2D grid: fails before any execution.
                StencilRequest::new_2d(id, StencilKernel::wave_1d(1), 32, 32)
            } else {
                StencilRequest::new_2d(id, kernel_for(which), 48 + 16 * (i % 2), 64).with_seed(id)
            }
        })
        .collect()
}

/// Per-request event streams, in global append (seq) order.
fn by_request(events: &[Event]) -> HashMap<u64, Vec<Event>> {
    let mut map: HashMap<u64, Vec<Event>> = HashMap::new();
    for e in events {
        map.entry(e.request_id).or_default().push(*e);
    }
    map
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Through the blocking batch path, every admitted request — succeeding
    /// or failing — produces exactly one `Complete` event, and its verdict
    /// agrees with the report's outcome/failure split.
    #[test]
    fn run_batch_traces_exactly_one_terminal_per_request(
        picks in prop::collection::vec((0u8..4, 0u8..8), 1..12),
    ) {
        let reqs = workload(&picks);
        let rt = SpiderRuntime::with_defaults(GpuDevice::a100());
        let report = rt.run_batch(&reqs);
        let events = rt.telemetry().trace().snapshot();
        prop_assert_eq!(rt.telemetry().trace().dropped_events(), 0, "ring big enough");
        let streams = by_request(&events);
        prop_assert_eq!(streams.len(), reqs.len(), "every request traced");
        for req in &reqs {
            let stream = &streams[&req.id];
            prop_assert!(
                matches!(stream.first().map(|e| e.kind), Some(EventKind::Admit)),
                "request {} must start with admit", req.id
            );
            let terminals: Vec<Terminal> =
                stream.iter().filter_map(|e| e.kind.terminal()).collect();
            prop_assert_eq!(terminals.len(), 1, "request {} terminal count", req.id);
            let failed = report.failures.iter().any(|(id, _)| *id == req.id);
            let expect = if failed { Terminal::Failed } else { Terminal::Done };
            prop_assert_eq!(terminals[0], expect);
            // Nothing after the terminal event.
            let last = stream.last().unwrap();
            prop_assert!(last.kind.terminal().is_some(), "terminal event closes the stream");
        }
    }

    /// Through the async scheduler — including cancellations and shed
    /// arrivals — every ticket's request id still gets exactly one terminal
    /// event, and spans nest: each `SpanExit`'s interval
    /// `[wall_s − elapsed_s, wall_s]` lies between the request's first
    /// event and its terminal event, and no two of a request's spans
    /// partly overlap (1 µs tolerance for the stamps' rounding).
    #[test]
    fn scheduler_traces_terminate_once_and_spans_nest(
        picks in prop::collection::vec((0u8..4, 0u8..8), 1..10),
        cancel_first in any::<bool>(),
    ) {
        let reqs = workload(&picks);
        let rt = SpiderRuntime::with_defaults(GpuDevice::a100());
        let t = Arc::clone(rt.telemetry());
        let sched = SpiderScheduler::new(
            Arc::new(rt),
            SchedulerOptions { start_paused: true, ..SchedulerOptions::default() },
        );
        let tickets: Vec<Ticket> = reqs
            .iter()
            .map(|r| sched.submit(r.clone()).unwrap())
            .collect();
        if cancel_first {
            sched.cancel(tickets[0]);
        }
        let report = sched.drain();
        prop_assert_eq!(
            report.outcomes.len() + report.failures.len()
                + report.queue.unwrap().cancelled as usize,
            reqs.len()
        );
        let events = t.trace().snapshot();
        prop_assert_eq!(t.trace().dropped_events(), 0);
        for (req, ticket) in reqs.iter().zip(&tickets) {
            let stream = &by_request(&events)[&req.id];
            prop_assert_eq!(
                stream.iter().filter(|e| e.kind.terminal().is_some()).count(),
                1,
                "request {} terminal count", req.id
            );
            // Span nesting: every span inside the request's lifetime, and
            // any two spans either disjoint or one inside the other.
            const TOL_S: f64 = 1e-6;
            let first = stream[0].wall_s;
            let terminal = stream
                .iter()
                .find(|e| e.kind.terminal().is_some())
                .map(|e| e.wall_s)
                .unwrap();
            let spans: Vec<(f64, f64)> = stream
                .iter()
                .filter_map(|e| match e.kind {
                    EventKind::SpanExit { elapsed_s, .. } => Some((e.wall_s - elapsed_s, e.wall_s)),
                    _ => None,
                })
                .collect();
            for &(start, end) in &spans {
                prop_assert!(
                    start >= first - TOL_S && end <= terminal + TOL_S,
                    "request {} span [{}, {}] outside its lifetime [{}, {}]",
                    req.id, start, end, first, terminal
                );
            }
            for (i, &(a0, a1)) in spans.iter().enumerate() {
                for &(b0, b1) in &spans[i + 1..] {
                    let disjoint = a1 <= b0 + TOL_S || b1 <= a0 + TOL_S;
                    let nested = (a0 >= b0 - TOL_S && a1 <= b1 + TOL_S)
                        || (b0 >= a0 - TOL_S && b1 <= a1 + TOL_S);
                    prop_assert!(
                        disjoint || nested,
                        "request {} spans [{}, {}] and [{}, {}] partly overlap",
                        req.id, a0, a1, b0, b1
                    );
                }
            }
            // The rendered timeline exists and names the terminal verdict.
            let rendered = sched.timeline(*ticket).expect("telemetry on: timeline renders");
            prop_assert!(rendered.contains("complete:"));
        }
    }

    /// The trace ring is bounded: over capacity it drops the *oldest*
    /// events first, keeps seq numbers contiguous at the tail, and counts
    /// every drop.
    #[test]
    fn trace_ring_drops_oldest_first(
        capacity in 1usize..64,
        pushes in 0usize..150,
    ) {
        let log = TraceLog::new(capacity);
        for i in 0..pushes {
            log.push(Event {
                seq: 0, // assigned by the log
                request_id: i as u64,
                plan_key: 0,
                wall_s: 0.0,
                sim_s: 0.0,
                attempt: 0,
                kind: EventKind::Admit,
            });
        }
        prop_assert_eq!(log.len(), pushes.min(capacity));
        prop_assert_eq!(log.dropped_events(), pushes.saturating_sub(capacity) as u64);
        let snap = log.snapshot();
        // Survivors are exactly the newest `len` events, in append order.
        for (i, e) in snap.iter().enumerate() {
            let expect = pushes.saturating_sub(log.len()) + i;
            prop_assert_eq!(e.seq, expect as u64);
            prop_assert_eq!(e.request_id, expect as u64);
        }
    }

    /// The zero-cost-to-correctness guarantee: the same workload served
    /// with telemetry on and off produces bit-identical outputs (checksums)
    /// and identical simulated `PerfCounters`, and the disabled runtime's
    /// sinks all stay empty.
    #[test]
    fn telemetry_on_off_is_bit_identical(
        picks in prop::collection::vec((0u8..4, 0u8..8), 1..10),
    ) {
        let reqs = workload(&picks);
        let on = SpiderRuntime::with_defaults(GpuDevice::a100());
        let off = SpiderRuntime::new(
            GpuDevice::a100(),
            RuntimeOptions {
                telemetry: TelemetryConfig::disabled(),
                ..RuntimeOptions::default()
            },
        );
        let report_on = on.run_batch(&reqs);
        let report_off = off.run_batch(&reqs);
        prop_assert_eq!(report_on.outcomes.len(), report_off.outcomes.len());
        prop_assert_eq!(&report_on.failures, &report_off.failures);
        for (a, b) in report_on.outcomes.iter().zip(&report_off.outcomes) {
            prop_assert_eq!(a.id, b.id);
            prop_assert_eq!(a.checksum, b.checksum, "output bits diverged on {}", a.id);
            prop_assert_eq!(a.report.counters, b.report.counters,
                "perf counters diverged on {}", a.id);
            prop_assert_eq!(a.tiling, b.tiling);
            prop_assert_eq!(a.cache_hit, b.cache_hit);
            prop_assert_eq!(a.tuner_memo_hit, b.tuner_memo_hit);
        }
        // The off runtime observed nothing.
        prop_assert!(!off.telemetry().enabled());
        prop_assert!(off.telemetry().trace().is_empty());
        prop_assert!(off.metrics_snapshot().values.is_empty());
        prop_assert!(off.telemetry().profiler().snapshot().is_empty());
        prop_assert!(report_off.profile.is_empty());
        // The on runtime's drain-report counters reconcile with the
        // exported snapshot.
        let snap = on.metrics_snapshot();
        prop_assert_eq!(
            snap.counter_value("spider_runtime_requests_completed_total"),
            report_on.outcomes.len() as u64
        );
        prop_assert_eq!(
            snap.counter_value("spider_runtime_requests_failed_total"),
            report_on.failures.len() as u64
        );
        prop_assert_eq!(
            snap.counter_value("spider_plan_cache_hits_total"),
            report_on.cache.hits
        );
        prop_assert_eq!(
            snap.counter_value("spider_plan_cache_misses_total"),
            report_on.cache.misses
        );
    }
}

//! Request-lifecycle tracing: a bounded ring buffer of structured events.
//!
//! Every serving-layer action on a request appends one [`Event`]:
//!
//! ```text
//! admit → queued → plan-resolve{cache_hit|compile}
//!       → tune{memo_hit|dry_run} → launch/execute{wave, coalesced, share}
//!       → complete{done|failed|expired|shed|cancelled}
//! ```
//!
//! interleaved with one `span-exit` per closed span
//! ([`EventBatch::exit`]), which carries the phase's wall duration, so the
//! span covers `[wall_s − elapsed_s, wall_s]` and needs no opening event. Events carry both the host wall clock
//! (seconds since the owning `Telemetry`'s epoch) and the simulated GPU
//! clock where one exists (`Execute`/`Launch` events carry the simulated
//! kernel time; other events stamp 0).
//!
//! The log is a fixed-capacity ring: at capacity it drops **oldest-first**
//! and counts the drops ([`TraceLog::dropped_events`]) — a serving system
//! must never let its own observability grow without bound.
//!
//! [`EventBatch::exit`]: crate::EventBatch::exit

use spider_core::sync::{LockRank, OrderedMutex};
use std::collections::VecDeque;
use std::fmt;

/// Where a plan resolution was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolveSource {
    /// In-memory `PlanCache` hit.
    CacheHit,
    /// Compiled fresh on this request.
    Compile,
}

impl fmt::Display for ResolveSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ResolveSource::CacheHit => "cache-hit",
            ResolveSource::Compile => "compile",
        })
    }
}

/// Lifecycle phase a span ([`EventBatch::exit`](crate::EventBatch::exit))
/// can cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Admission-queue residence (scheduler path only).
    Queue,
    /// Plan lookup / compile.
    Resolve,
    /// Tiling selection (memo lookup or dry runs).
    Tune,
    /// Simulated-GPU execution.
    Exec,
}

impl Phase {
    /// Stable lowercase name (folded-stack frames, timeline rendering).
    pub fn name(&self) -> &'static str {
        match self {
            Phase::Queue => "queue",
            Phase::Resolve => "resolve",
            Phase::Tune => "tune",
            Phase::Exec => "exec",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How a request's lifecycle ended. Exactly one terminal event per attempt
/// of an admitted request, recorded by the request's owner — a
/// property-tested invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Terminal {
    /// Executed and produced an outcome.
    Done,
    /// Executed and failed (plan or execution error).
    Failed,
    /// Deadline passed before dispatch; never executed.
    Expired,
    /// Evicted by the `ShedLowestPriority` backpressure policy.
    Shed,
    /// Cancelled while still queued; never executed.
    Cancelled,
}

impl fmt::Display for Terminal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Terminal::Done => "done",
            Terminal::Failed => "failed",
            Terminal::Expired => "expired",
            Terminal::Shed => "shed",
            Terminal::Cancelled => "cancelled",
        })
    }
}

/// One structured lifecycle event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// Request accepted by a serving entry point (`submit`, `run_batch`,
    /// `execute`).
    Admit,
    /// Request entered the scheduler's admission queue.
    Queued,
    /// Plan resolved (cache hit or fresh compile).
    PlanResolve { source: ResolveSource },
    /// Tiling selected (`memo_hit`: served from the tuner's memo table;
    /// `dry_runs`: simulator dry runs paid on this resolution).
    Tune { memo_hit: bool, dry_runs: u64 },
    /// One coalesced executor launch covering `members` grids; each grid is
    /// billed `launch_share` of the kernel-launch overhead.
    Launch {
        wave_id: u64,
        members: usize,
        launch_share: f64,
    },
    /// This request's execution finished within wave `wave_id`.
    Execute {
        wave_id: u64,
        coalesced: bool,
        launch_share: f64,
    },
    /// Lifecycle ended.
    Complete { terminal: Terminal },
    /// A span for `phase` closed; `elapsed_s` is its wall duration, so it
    /// opened at `wall_s − elapsed_s`.
    SpanExit { phase: Phase, elapsed_s: f64 },
}

impl EventKind {
    /// Terminal outcome carried by this event, if it is a `Complete`.
    pub fn terminal(&self) -> Option<Terminal> {
        match self {
            EventKind::Complete { terminal } => Some(*terminal),
            _ => None,
        }
    }

    fn describe(&self) -> String {
        match self {
            EventKind::Admit => "admit".into(),
            EventKind::Queued => "queued".into(),
            EventKind::PlanResolve { source } => format!("plan-resolve: {source}"),
            EventKind::Tune { memo_hit, dry_runs } => {
                if *memo_hit {
                    "tune: memo-hit".into()
                } else {
                    format!("tune: dry-run\u{d7}{dry_runs}")
                }
            }
            EventKind::Launch {
                wave_id,
                members,
                launch_share,
            } => format!("launch: wave {wave_id}, \u{d7}{members} grids, share {launch_share:.3}"),
            EventKind::Execute {
                wave_id,
                coalesced,
                launch_share,
            } => {
                if *coalesced {
                    format!("execute: wave {wave_id}, coalesced, share {launch_share:.3}")
                } else {
                    format!("execute: wave {wave_id}, solo")
                }
            }
            EventKind::Complete { terminal } => format!("complete: {terminal}"),
            EventKind::SpanExit { phase, elapsed_s } => {
                format!("\u{25c0} {phase} ({:.3}ms)", elapsed_s * 1e3)
            }
        }
    }
}

/// The request an event belongs to, named once: the serving layer that
/// owns a request builds its `Who` when it takes the request and passes
/// that copy to every [`EventBatch`](crate::EventBatch) call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Who {
    pub request_id: u64,
    /// Plan fingerprint the request resolves to.
    pub plan_key: u64,
    /// Device-loss retry attempt (see [`Event::attempt`]).
    pub attempt: u32,
}

impl Who {
    pub fn new(request_id: u64, plan_key: u64, attempt: u32) -> Self {
        Self {
            request_id,
            plan_key,
            attempt,
        }
    }
}

/// One trace-log entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Global append order (monotone even across drops).
    pub seq: u64,
    /// The request this event belongs to (scheduler tickets map to request
    /// ids via the scheduler's slot table).
    pub request_id: u64,
    /// Plan fingerprint the request resolves to (0 when not yet known).
    pub plan_key: u64,
    /// Host wall clock, seconds since the owning `Telemetry` epoch.
    pub wall_s: f64,
    /// Simulated GPU clock attributable to this event (kernel time for
    /// `Execute`/`Launch`, 0 elsewhere).
    pub sim_s: f64,
    /// Device-loss retry attempt this event belongs to: 0 for a request's
    /// first life, bumped by the cluster's recovery path each time an
    /// in-flight casualty is re-routed. Lets a chained timeline render
    /// "attempt 0 failed → attempt 1 done" instead of losing lineage.
    pub attempt: u32,
    pub kind: EventKind,
}

#[derive(Debug, Default)]
struct TraceInner {
    ring: VecDeque<Event>,
    next_seq: u64,
    dropped: u64,
}

/// Bounded, thread-safe ring buffer of [`Event`]s. One short mutexed append
/// per [`EventBatch`](crate::EventBatch) — the critical section is a
/// `VecDeque` push plus at most one pop per event, never an allocation once
/// the ring has reached capacity.
#[derive(Debug)]
pub struct TraceLog {
    inner: OrderedMutex<TraceInner>,
    capacity: usize,
}

impl TraceLog {
    /// A trace log holding at most `capacity` events (floored at 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: OrderedMutex::new(LockRank::TraceRing, "trace.ring", TraceInner::default()),
            capacity: capacity.max(1),
        }
    }

    /// Maximum resident events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Append one event; assigns and returns its `seq`. Drops the oldest
    /// resident event when full.
    pub fn push(&self, mut event: Event) -> u64 {
        let mut inner = self.inner.lock();
        event.seq = inner.next_seq;
        inner.next_seq += 1;
        if inner.ring.len() == self.capacity {
            inner.ring.pop_front();
            inner.dropped += 1;
        }
        inner.ring.push_back(event);
        event.seq
    }

    /// Append `parts`' events in order under one lock, leaving the ring as
    /// [`Self::push`] would one by one, but making room and copying a part
    /// at a time.
    pub(crate) fn extend<'e>(&self, parts: impl IntoIterator<Item = &'e [Event]>) {
        let mut inner = self.inner.lock();
        for events in parts {
            // Of a part longer than the ring only its tail stays.
            let skip = events.len().saturating_sub(self.capacity);
            let keep = &events[skip..];
            let over = (inner.ring.len() + keep.len()).saturating_sub(self.capacity);
            inner.ring.drain(..over);
            let first = inner.next_seq + skip as u64;
            let stamped = keep.iter().zip(first..).map(|(e, seq)| Event { seq, ..*e });
            inner.ring.extend(stamped);
            inner.next_seq += events.len() as u64;
            inner.dropped += (skip + over) as u64;
        }
    }

    /// Events currently resident.
    pub fn len(&self) -> usize {
        self.inner.lock().ring.len()
    }

    /// Whether nothing has been recorded (or everything was dropped).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted oldest-first because the ring was full.
    pub fn dropped_events(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// Copy of the resident events, oldest first.
    pub fn snapshot(&self) -> Vec<Event> {
        self.inner.lock().ring.iter().copied().collect()
    }

    /// Resident events for one request, oldest first.
    pub fn timeline(&self, request_id: u64) -> Vec<Event> {
        self.inner
            .lock()
            .ring
            .iter()
            .filter(|e| e.request_id == request_id)
            .copied()
            .collect()
    }

    /// Render one request's timeline: per-event wall-clock offsets from its
    /// first resident event, each span at its exit with its duration,
    /// simulated-clock stamps where present. Returns `None` when no events
    /// survive for the request (never admitted, or its events were
    /// dropped).
    pub fn render_timeline(&self, request_id: u64) -> Option<String> {
        let events = self.timeline(request_id);
        let first = events.first()?;
        let t0 = first.wall_s;
        let plan_key = events
            .iter()
            .map(|e| e.plan_key)
            .find(|&k| k != 0)
            .unwrap_or(0);
        let mut out = format!(
            "request {request_id} timeline (plan {plan_key:#018x}, {} events):\n",
            events.len()
        );
        // Attempt banners appear only when the trace actually spans device-
        // loss retries — single-life requests render exactly as before.
        let multi_attempt = events.iter().any(|e| e.attempt > 0);
        let mut current_attempt: Option<u32> = None;
        for e in &events {
            if multi_attempt && current_attempt != Some(e.attempt) {
                current_attempt = Some(e.attempt);
                out.push_str(&format!(
                    "  \u{2500}\u{2500} attempt {} \u{2500}\u{2500}\n",
                    e.attempt
                ));
            }
            let sim = if e.sim_s > 0.0 {
                format!("  [sim {:.3}\u{b5}s]", e.sim_s * 1e6)
            } else {
                String::new()
            };
            out.push_str(&format!(
                "  +{:>9.3}ms  {}{sim}\n",
                (e.wall_s - t0) * 1e3,
                e.kind.describe()
            ));
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(request_id: u64, kind: EventKind) -> Event {
        Event {
            seq: 0,
            request_id,
            plan_key: 0xabc,
            wall_s: 0.0,
            sim_s: 0.0,
            attempt: 0,
            kind,
        }
    }

    #[test]
    fn ring_drops_oldest_first_and_counts() {
        let log = TraceLog::new(3);
        for i in 0..5 {
            log.push(ev(i, EventKind::Admit));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.dropped_events(), 2);
        let snap = log.snapshot();
        // Requests 0 and 1 were evicted; seq numbering never reset.
        assert_eq!(
            snap.iter().map(|e| e.request_id).collect::<Vec<_>>(),
            [2, 3, 4]
        );
        assert_eq!(snap.iter().map(|e| e.seq).collect::<Vec<_>>(), [2, 3, 4]);
    }

    #[test]
    fn extend_leaves_the_ring_as_pushes_would() {
        for capacity in [1, 3, 8] {
            let (pushed, extended) = (TraceLog::new(capacity), TraceLog::new(capacity));
            let parts: Vec<Vec<Event>> = [2usize, 0, 5, 1, 9]
                .iter()
                .scan(0u64, |id, &n| {
                    let part = (*id..*id + n as u64)
                        .map(|i| ev(i, EventKind::Admit))
                        .collect();
                    *id += n as u64;
                    Some(part)
                })
                .collect();
            for part in &parts {
                part.iter().for_each(|&e| {
                    pushed.push(e);
                });
            }
            let slices: Vec<&[Event]> = parts.iter().map(Vec::as_slice).collect();
            extended.extend(slices[..2].iter().copied());
            extended.extend(slices[2..].iter().copied());
            assert_eq!(
                extended.snapshot(),
                pushed.snapshot(),
                "capacity {capacity}"
            );
            assert_eq!(extended.dropped_events(), pushed.dropped_events());
            let next = |log: &TraceLog| log.push(ev(99, EventKind::Queued));
            assert_eq!(next(&extended), next(&pushed));
        }
    }

    #[test]
    fn capacity_floors_at_one() {
        let log = TraceLog::new(0);
        assert_eq!(log.capacity(), 1);
        log.push(ev(1, EventKind::Admit));
        log.push(ev(2, EventKind::Admit));
        assert_eq!(log.len(), 1);
        assert_eq!(log.dropped_events(), 1);
    }

    #[test]
    fn timeline_filters_by_request() {
        let log = TraceLog::new(16);
        log.push(ev(1, EventKind::Admit));
        log.push(ev(2, EventKind::Admit));
        log.push(ev(
            1,
            EventKind::Complete {
                terminal: Terminal::Done,
            },
        ));
        let t = log.timeline(1);
        assert_eq!(t.len(), 2);
        assert!(t.iter().all(|e| e.request_id == 1));
        assert_eq!(t[1].kind.terminal(), Some(Terminal::Done));
        assert!(log.timeline(99).is_empty());
        assert!(log.render_timeline(99).is_none());
    }

    #[test]
    fn render_shows_descriptions_and_sim_stamps() {
        let log = TraceLog::new(16);
        log.push(ev(7, EventKind::Admit));
        let mut e = ev(
            7,
            EventKind::Execute {
                wave_id: 3,
                coalesced: true,
                launch_share: 0.25,
            },
        );
        e.sim_s = 12.5e-6;
        log.push(e);
        log.push(ev(
            7,
            EventKind::SpanExit {
                phase: Phase::Exec,
                elapsed_s: 1e-3,
            },
        ));
        log.push(ev(
            7,
            EventKind::Complete {
                terminal: Terminal::Done,
            },
        ));
        let text = log.render_timeline(7).unwrap();
        assert!(text.contains("request 7 timeline"), "{text}");
        // The execute line carries sim time.
        assert!(
            text.contains("ms  execute: wave 3, coalesced, share 0.250  [sim 12.500\u{b5}s]"),
            "{text}"
        );
        assert!(text.contains("\u{25c0} exec (1.000ms)"), "{text}");
        assert!(text.contains("complete: done"), "{text}");
        // Single-life requests carry no attempt banners.
        assert!(!text.contains("attempt"), "{text}");
    }

    #[test]
    fn retried_requests_render_one_chained_timeline() {
        let log = TraceLog::new(16);
        log.push(ev(9, EventKind::Admit));
        log.push(ev(
            9,
            EventKind::Complete {
                terminal: Terminal::Failed,
            },
        ));
        let mut retry = ev(9, EventKind::Admit);
        retry.attempt = 1;
        log.push(retry);
        let mut done = ev(
            9,
            EventKind::Complete {
                terminal: Terminal::Done,
            },
        );
        done.attempt = 1;
        log.push(done);
        let text = log.render_timeline(9).unwrap();
        let fail_at = text.find("complete: failed").unwrap();
        let banner1 = text
            .find("\u{2500}\u{2500} attempt 1 \u{2500}\u{2500}")
            .unwrap();
        let done_at = text.find("complete: done").unwrap();
        assert!(
            text.contains("\u{2500}\u{2500} attempt 0 \u{2500}\u{2500}"),
            "{text}"
        );
        assert!(fail_at < banner1 && banner1 < done_at, "{text}");
    }
}

//! The timed window: one generator thread submits the request stream to a
//! `SpiderScheduler` (closed or open loop) and polls for completions.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use spider_core::TilingConfig;
use spider_runtime::{QueueStats, RequestStatus, SpiderScheduler, Ticket};

use crate::spans::Tracer;
use crate::stats::{median, quantile, ratio, us};
use crate::workload::{Arrival, Inputs};

/// How long the generator sleeps when a poll round finds nothing new, so a
/// waiting generator does not take a core from the dispatcher.
const IDLE: Duration = Duration::from_micros(50);
/// Open loop: the pause between poll rounds while requests are queued.
const OPEN_POLL_GAP: Duration = Duration::from_micros(200);

/// The p99 is taken per slice of at least this many samples (so ten lie
/// beyond each slice's p99), over at most `MAX_SLICES` slices.
const MIN_SLICE: usize = 1000;
const MAX_SLICES: usize = 10;

/// What one timed window measured.
#[derive(Default)]
pub struct Served {
    pub attempted: u64,
    pub completed: u64,
    /// Failed, shed, expired or cancelled after admission.
    pub failed: u64,
    /// Refused at submit.
    pub refused: u64,
    /// First submit (open loop: first due time) to the last completion seen.
    pub wall_s: f64,
    /// Latency (µs) of every completed request, in completion order.
    pub latency_us: Vec<f64>,
    /// Open loop only: each burst's completions ÷ (its last completion −
    /// its due time), req/s: the rate at which the scheduler drains a burst.
    pub drain_rates: Vec<f64>,
    /// How late each submit started: after its due time (open loop) or
    /// after its window slot came free (closed loop).
    pub lag_us: Vec<f64>,
    /// Σ points and Σ simulated kernel time over completed requests.
    pub sim_points: u64,
    pub sim_time_s: f64,
    /// Checksum and tiling of every completed request, by stream index.
    pub outcomes: Vec<Option<(u64, TilingConfig)>>,
    /// Scheduler and cache counters over the window.
    pub queue_before: QueueStats,
    pub queue_after: QueueStats,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Traced runs only: per-call times and the queue depth seen at submit.
    pub submit_us: Vec<f64>,
    pub poll_us: Vec<f64>,
    pub depth_max: usize,
}

impl Served {
    /// Requests that failed, expired, were shed or were refused.
    pub fn failures(&self) -> u64 {
        self.failed + self.refused
    }

    /// Closed loop: completions ÷ the window's wall time. Open loop: the
    /// median burst drain rate, since completions ÷ wall time would only
    /// restate the offered rate while bursts do not overlap.
    pub fn requests_per_sec(&self) -> f64 {
        if self.drain_rates.is_empty() {
            ratio(self.completed as f64, self.wall_s)
        } else {
            median(&self.drain_rates)
        }
    }

    /// Median latency over every completed request, µs.
    pub fn latency_p50_us(&self) -> f64 {
        median(&self.latency_us)
    }

    /// p99 latency, µs. The samples, in completion order, are cut into
    /// equal slices of at least `MIN_SLICE`, and the median of the slices'
    /// p99s is reported: a tail lasting through more than half of the
    /// window shows, while stalls of a shared host do not set the figure
    /// (see README.md, Noise).
    pub fn latency_p99_us(&self) -> f64 {
        let n = self.latency_us.len();
        let slices = (n / MIN_SLICE).clamp(1, MAX_SLICES);
        let p99s: Vec<f64> = (0..slices)
            .map(|k| quantile(&self.latency_us[k * n / slices..(k + 1) * n / slices], 0.99))
            .collect();
        median(&p99s)
    }

    pub fn sim_gstencils_per_sec(&self) -> f64 {
        ratio(self.sim_points as f64, self.sim_time_s) / 1e9
    }

    /// Completions ÷ scheduler counter growth over the window.
    pub fn per_queue_delta(&self, field: fn(&QueueStats) -> u64) -> f64 {
        let done = self.queue_after.completed - self.queue_before.completed;
        ratio(
            done as f64,
            (field(&self.queue_after) - field(&self.queue_before)) as f64,
        )
    }

    pub fn mean_wait_us(&self) -> f64 {
        let dispatched = (self.queue_after.completed + self.queue_after.failed)
            - (self.queue_before.completed + self.queue_before.failed);
        ratio(
            (self.queue_after.total_wait_s - self.queue_before.total_wait_s) * 1e6,
            dispatched as f64,
        )
    }
}

struct Pending {
    idx: usize,
    ticket: Ticket,
    /// Latency origin: the submit call (closed loop) or the due time (open).
    origin: Instant,
    /// Open loop: the burst the request arrived in.
    burst: Option<usize>,
}

struct Generator<'a> {
    sched: &'a SpiderScheduler,
    inputs: &'a Inputs,
    tracer: Option<&'a mut Tracer>,
    out: Served,
    last_done: Option<Instant>,
    /// Open loop: completions and the last completion seen, per burst.
    bursts: Vec<(u64, Option<Instant>)>,
}

/// Run the workload's arrival process for `seconds` against `sched`, then
/// wait for every admitted request and drain. With a tracer, every
/// `submit`, `poll` and `drain` call is recorded as a span.
pub fn serve(
    sched: &SpiderScheduler,
    inputs: &Inputs,
    seconds: f64,
    tracer: Option<&mut Tracer>,
) -> Served {
    let cache_before = sched.runtime().cache_stats();
    let mut g = Generator {
        sched,
        inputs,
        tracer,
        out: Served {
            outcomes: vec![None; inputs.len()],
            queue_before: sched.queue_stats(),
            ..Served::default()
        },
        last_done: None,
        bursts: Vec::new(),
    };
    let first = match inputs.arrival {
        Arrival::Closed { window } => g.closed(window, seconds),
        Arrival::Open { burst, period } => g.open(burst, period),
    };
    let mut out = g.out;
    out.wall_s = g
        .last_done
        .map_or(0.0, |t| t.saturating_duration_since(first).as_secs_f64());
    out.queue_after = sched.queue_stats();
    let cache_after = sched.runtime().cache_stats();
    out.cache_hits = cache_after.hits - cache_before.hits;
    out.cache_misses = cache_after.misses - cache_before.misses;
    let report = match g.tracer {
        Some(t) => t.time("scheduler.drain", None, 0, || sched.drain()),
        None => sched.drain(),
    };
    debug_assert!(report.queue.is_some());
    out
}

impl Generator<'_> {
    /// Submit stream request `idx`, due at `due`. Open-loop requests carry
    /// their burst; their latency runs from the due time.
    fn submit(&mut self, idx: usize, due: Instant, burst: Option<usize>) -> Option<Pending> {
        let req = self.inputs.request(idx);
        let id = req.id;
        let start = Instant::now();
        let result = self.sched.submit(req);
        let end = Instant::now();
        self.out.attempted += 1;
        self.out
            .lag_us
            .push(us(start.saturating_duration_since(due)));
        if let Some(t) = self.tracer.as_deref_mut() {
            t.record("scheduler.submit", start, end, None, id);
            self.out.submit_us.push(us(end - start));
            self.out.depth_max = self.out.depth_max.max(self.sched.queue_depth());
        }
        match result {
            Ok(ticket) => Some(Pending {
                idx,
                ticket,
                origin: if burst.is_some() { due } else { start },
                burst,
            }),
            Err(_) => {
                self.out.refused += 1;
                None
            }
        }
    }

    /// Poll one ticket; `true` once it has reached a terminal status.
    fn poll(&mut self, p: &Pending) -> bool {
        let start = Instant::now();
        let status = self.sched.poll(p.ticket);
        let end = Instant::now();
        if let Some(t) = self.tracer.as_deref_mut() {
            t.record("scheduler.poll", start, end, None, p.idx as u64);
            self.out.poll_us.push(us(end - start));
        }
        match status {
            RequestStatus::Queued { .. } | RequestStatus::Running => return false,
            RequestStatus::Done(o) => {
                self.out.completed += 1;
                self.out
                    .latency_us
                    .push(us(end.saturating_duration_since(p.origin)));
                if let Some(b) = p.burst {
                    self.bursts[b] = (self.bursts[b].0 + 1, Some(end));
                }
                self.out.sim_points += o.report.points;
                self.out.sim_time_s += o.report.time_s();
                self.out.outcomes[p.idx] = Some((o.checksum, o.tiling));
            }
            _ => self.out.failed += 1,
        }
        self.last_done = Some(end);
        true
    }

    /// Closed loop: keep `window` requests outstanding until `seconds` have
    /// passed, then wait for the stragglers. Returns the first submit time.
    fn closed(&mut self, window: usize, seconds: f64) -> Instant {
        let n = self.inputs.len();
        let first = Instant::now();
        let end = first + Duration::from_secs_f64(seconds);
        let mut outstanding: Vec<Pending> = Vec::with_capacity(window);
        // When each free slot came free: a submit's lag is measured from it.
        let mut freed: Vec<Instant> = vec![first; window];
        let mut next = 0;
        loop {
            while outstanding.len() < window && next < n && Instant::now() < end {
                let due = freed.pop().unwrap_or(first);
                if let Some(p) = self.submit(next, due, None) {
                    outstanding.push(p);
                } else {
                    freed.push(Instant::now());
                }
                next += 1;
            }
            if outstanding.is_empty() {
                if next >= n {
                    eprintln!("perfbench: request stream exhausted before the window closed");
                }
                return first;
            }
            let before = outstanding.len();
            let mut i = 0;
            while i < outstanding.len() {
                if self.poll(&outstanding[i]) {
                    outstanding.swap_remove(i);
                    freed.push(Instant::now());
                } else {
                    i += 1;
                }
            }
            if outstanding.len() == before {
                std::thread::sleep(IDLE);
            }
        }
    }

    /// Open loop: request `i` falls due at `t0 + (i / burst) × period`;
    /// per-tenant FIFOs of outstanding tickets are polled at their heads.
    /// Records each burst's drain rate. Returns the first due time.
    fn open(&mut self, burst: usize, period: Duration) -> Instant {
        let n = self.inputs.len();
        let tenants: Vec<_> = self.inputs.scheduler.tenants.iter().map(|t| t.0).collect();
        let lanes_of: Vec<usize> = (0..n)
            .map(|idx| {
                let tenant = self.inputs.request(idx).tenant;
                tenants.iter().position(|&t| t == tenant).unwrap_or(0)
            })
            .collect();
        let mut lanes: Vec<VecDeque<Pending>> =
            (0..tenants.len().max(1)).map(|_| VecDeque::new()).collect();
        self.bursts = vec![(0, None); n.div_ceil(burst)];
        let t0 = Instant::now();
        let due_of = |idx: usize| t0 + period * (idx / burst) as u32;
        let mut next = 0;
        loop {
            let now = Instant::now();
            if next < n && due_of(next) <= now {
                if let Some(p) = self.submit(next, due_of(next), Some(next / burst)) {
                    lanes[lanes_of[next]].push_back(p);
                }
                next += 1;
                if next % 16 == 0 {
                    self.poll_heads(&mut lanes);
                }
                continue;
            }
            if next >= n && lanes.iter().all(VecDeque::is_empty) {
                self.out.drain_rates = self
                    .bursts
                    .iter()
                    .enumerate()
                    .filter_map(|(b, &(done, last))| {
                        let drained = last?.saturating_duration_since(due_of(b * burst));
                        Some(ratio(done as f64, drained.as_secs_f64()))
                    })
                    .collect();
                return t0;
            }
            // Sleep after every round: each poll takes the scheduler lock
            // (and scans its queue), so a spinning generator would slow the
            // dispatcher it is measuring.
            self.poll_heads(&mut lanes);
            let wait = if next < n {
                due_of(next)
                    .saturating_duration_since(now)
                    .min(OPEN_POLL_GAP)
            } else {
                OPEN_POLL_GAP
            };
            std::thread::sleep(wait);
        }
    }

    /// Poll each tenant's oldest outstanding ticket until one is not done.
    fn poll_heads(&mut self, lanes: &mut [VecDeque<Pending>]) {
        for lane in lanes.iter_mut() {
            while let Some(p) = lane.front() {
                if !self.poll(p) {
                    break;
                }
                lane.pop_front();
            }
        }
    }
}

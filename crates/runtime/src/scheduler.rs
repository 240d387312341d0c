//! Async submit/poll scheduler: the non-blocking front door of the runtime.
//!
//! [`SpiderRuntime::run_batch`] is a synchronous API — the caller hands over
//! a batch and blocks until the slowest request finishes. A serving
//! deployment absorbing heterogeneous traffic needs the opposite shape:
//! callers *submit* requests and get back a [`Ticket`] immediately, *poll*
//! for status, and a background dispatcher decides what runs when. This
//! module provides that layer:
//!
//! * **Bounded admission queue** with a configurable
//!   [`BackpressurePolicy`]: `Block` the submitter, `Reject` the submission,
//!   or `ShedLowestPriority` — evict the least important queued request to
//!   make room.
//! * **Priorities with aging**: requests carry a [`Priority`]; a queued
//!   request's *effective* priority rises one level per elapsed
//!   [`SchedulerOptions::aging_step`], capped at `High`, so low-priority
//!   work is delayed under load but never starved.
//! * **Deadlines**: a request whose [`crate::Deadline`] passes before
//!   dispatch completes as [`RequestStatus::Expired`] without executing —
//!   no plan compile, no tuning, no simulated sweeps — and the drain report
//!   counts it.
//! * **Plan-key coalescing**: each dispatch wave takes the entire
//!   top-effective-priority cohort, groups it by
//!   [`StencilRequest::plan_key`], and executes the groups the way
//!   [`SpiderRuntime::run_group`] does — one plan resolution and one
//!   configured executor per exec-key subgroup, billed as one batched
//!   launch. Requests below the top priority never ride along: strict
//!   priority ordering wins over batching greed, and stragglers still hit
//!   the plan cache when their turn comes.
//! * **One fan-out per wave**: the dispatcher resolves and tunes the
//!   wave's groups, then runs them as one job per
//!   [`crate::runtime::MIN_WAVE_JOB_COST`] of work, at most one per group
//!   and per core, and one job whenever a sweep of the wave would split by
//!   itself, so there is one level of parallelism. The dispatcher thread is
//!   one job; the others are helpers started per wave. Jobs claim the
//!   groups largest first from one counter, and each group's verdicts are
//!   recorded as soon as it finishes. Every grid a job touches comes from
//!   the runtime's one [`spider_core::BufferPool`].
//!
//! ## Ordering guarantees
//!
//! Waves are serialized: every request of a higher effective priority
//! completes before any request of a lower one starts (aging aside), and
//! no group of a wave starts before the previous wave's last group has
//! finished. A wave of one job runs its groups one after another on the
//! dispatcher thread, in cohort submission order, so their completion
//! order is deterministic. The groups of a fanned-out wave run
//! concurrently, largest first, and may finish out of cohort order; within
//! a group, requests still finish in submission order.
//!
//! ## The queue index
//!
//! The admission queue is indexed so that no operation scans it. Tickets
//! are stamped under the state lock, so ticket order is age order, and the
//! queue keeps:
//!
//! * every queued request, by ticket;
//! * one FIFO **lane** per (tenant, base priority). Along a lane the
//!   effective priority never rises (older requests have aged at least as
//!   far), so the top cohort is a prefix of each lane whose head is at the
//!   top level, a tenant's deficit-round-robin share is a prefix of its
//!   lanes merged by ticket, and the `ShedLowestPriority` victim (lowest
//!   level, then youngest) is one of the lane tails;
//! * the queued deadlines, soonest first;
//! * a multiset of queued DRR costs per base level, which supplies the DRR
//!   quantum (see `drr_round`).
//!
//! With n requests queued in L non-empty lanes:
//!
//! | operation | cost |
//! |---|---|
//! | `submit`, `try_submit` | O(log n); picking a `ShedLowestPriority` victim adds O(L log n) |
//! | `cancel`, and the expiry of each lapsed request | O(log n) |
//! | one dispatch wave that selects m requests | O(L + m log n) |
//! | `poll` of a queued ticket | O(log n) |
//! | `poll` of any other ticket | O(1) |
//! | `kill`, with r requests running | O((n + r) log n) |
//!
//! The m selected requests are the whole top cohort without tenants and
//! one DRR round of it with them; all of them dispatch. A tenant alone in
//! the cohort fills its round up to one job's work,
//! [`crate::runtime::MIN_WAVE_JOB_COST`], so a newcomer tenant waits for
//! at most one such wave (see `drr_round`).
//!
//! ## One way in, one way out
//!
//! `submit` and `try_submit` share one admission path (shutdown, lapsed
//! deadlines, admission quota, capacity); `try_submit` runs it with no
//! backpressure policy. The queue holds queued tickets, a running set the
//! dispatched ones, and a ticket's slot only its verdict. `finish` gives
//! every verdict, counts it in the tenant's row and records it: the
//! ticket's one `Complete` trace event and the runtime's completion meters
//! (`SpiderRuntime::conclude`). Every ticket leaves the queue through
//! `dequeue`, which measures its wait and records its queue span; one that
//! will not run (shed, cancelled, killed or expired) then gets its verdict
//! through `leave_queue`, and a kill fails exactly the running set. The
//! wave that was running a killed ticket may still trace its execution
//! after that verdict, but never a second one.
//!
//! Events are recorded in batches ([`spider_telemetry::EventBatch`]) that
//! reach the trace before the state lock is released: a submission's
//! `Admit` and `Queued`, a wave's queue spans, and a group's events from
//! plan resolution to its verdicts, so a ticket's `Complete` event is in
//! the ring before its verdict can be polled. The events of one moment
//! share one clock read, with the queue's own timestamps too.
//!
//! ## Ticket retention
//!
//! A finished request's outcome ([`RequestStatus::Done`]) is kept until it
//! has been polled and [`DONE_RETENTION`] newer outcomes have been polled
//! for the first time after it; then its payload is dropped and the ticket
//! polls [`RequestStatus::Unknown`]. So a caller may re-poll a ticket it has
//! seen finish, within that window, and an outcome nobody has polled is
//! never dropped: [`SpiderScheduler::drain`] returns every outcome still
//! kept. [`SpiderScheduler::peek`] reads a status without starting the
//! clock. Other terminal states carry no payload and are kept.
//!
//! ## Counters and exports
//!
//! Every queue event is counted once, in the [`QueueStats`] row of the
//! request's tenant (anonymous traffic has a row too). The scheduler-wide
//! row that [`SpiderScheduler::queue_stats`] and the drain report's
//! `queue` return is the fold of the tenant rows, so the rows sum to it by
//! construction. Only the peak queue depth, the dispatch waves, the jobs
//! those waves ran as ([`QueueStats::wave_jobs`], exported as
//! `spider_scheduler_wave_jobs_total`) and the coalesced groups belong to
//! no tenant; the scheduler keeps those four itself.
//! [`SpiderScheduler::metrics_snapshot`] reads all of it, and the runtime's
//! own export, when it is called, so a scrape between drains sees live
//! values.

use spider_core::sync::{LockRank, OrderedMutex, OrderedMutexGuard};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use spider_telemetry::{EventBatch, EventKind, MetricsSnapshot, Phase, Telemetry, Terminal, Who};

use crate::report::{QueueStats, RequestOutcome, RuntimeReport};
use crate::request::{Priority, StencilRequest, TenantId};
use crate::runtime::{GroupRun, SpiderRuntime, MIN_WAVE_JOB_COST};

/// What `submit` does when the admission queue is at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackpressurePolicy {
    /// Block the submitting thread until a slot frees up.
    #[default]
    Block,
    /// Refuse the submission with [`SubmitError::QueueFull`].
    Reject,
    /// Evict the queued request with the lowest effective priority (ties:
    /// youngest goes) and admit the newcomer. If the newcomer itself is the
    /// least important, it is shed on arrival instead — its ticket
    /// immediately polls as [`RequestStatus::Shed`].
    ShedLowestPriority,
}

/// Per-tenant serving policy, registered on [`SchedulerOptions::tenants`].
///
/// `weight` steers the deficit-round-robin dispatcher: under saturation a
/// tenant's share of dispatched work (in grid-points × sweeps cost units)
/// is proportional to its weight. `admission_quota` bounds how many of the
/// tenant's requests may sit in the admission queue at once — the knob that
/// keeps a noisy neighbor from monopolizing queue capacity regardless of
/// the global [`BackpressurePolicy`]. Tenants share the runtime's
/// [`crate::PlanCache`]: the plan key holds no tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantConfig {
    /// Weighted-fair share (≥ 1; 0 is treated as 1).
    pub weight: u64,
    /// Max queued (not yet dispatched) requests for this tenant; `None` =
    /// bounded only by the global queue capacity.
    pub admission_quota: Option<usize>,
}

impl Default for TenantConfig {
    fn default() -> Self {
        Self {
            weight: 1,
            admission_quota: None,
        }
    }
}

impl TenantConfig {
    /// A config with the given weighted-fair share and defaults elsewhere.
    pub fn weighted(weight: u64) -> Self {
        Self {
            weight,
            ..Self::default()
        }
    }

    pub fn with_admission_quota(mut self, quota: usize) -> Self {
        self.admission_quota = Some(quota);
        self
    }
}

/// Construction-time knobs for [`SpiderScheduler`].
#[derive(Debug, Clone)]
pub struct SchedulerOptions {
    /// Maximum queued (not yet dispatched) requests.
    pub queue_capacity: usize,
    /// What `submit` does when the queue is full.
    pub policy: BackpressurePolicy,
    /// Queued requests gain one priority level per elapsed step (capped at
    /// [`Priority::High`]); `None` disables aging.
    pub aging_step: Option<Duration>,
    /// Start with dispatch paused: submissions queue up until
    /// [`SpiderScheduler::resume`]. Lets tests and demos saturate the queue
    /// deterministically before anything runs.
    pub start_paused: bool,
    /// Registered tenants with their weighted-fair serving policies.
    ///
    /// Empty (the default) keeps the scheduler tenant-unaware: every wave
    /// dispatches the whole top-priority cohort exactly as before tenancy
    /// existed. Non-empty switches each wave to one deficit-round-robin
    /// round across the cohort's tenants; unregistered tenants (including
    /// the implicit anonymous one) participate with [`TenantConfig`]
    /// defaults (weight 1, no quota).
    pub tenants: Vec<(TenantId, TenantConfig)>,
}

impl Default for SchedulerOptions {
    fn default() -> Self {
        Self {
            queue_capacity: 256,
            policy: BackpressurePolicy::Block,
            aging_step: Some(Duration::from_millis(250)),
            start_paused: false,
            tenants: Vec::new(),
        }
    }
}

impl SchedulerOptions {
    /// Register (or replace) one tenant's serving policy.
    pub fn with_tenant(mut self, tenant: impl Into<TenantId>, config: TenantConfig) -> Self {
        let tenant = tenant.into();
        match self.tenants.iter_mut().find(|(t, _)| *t == tenant) {
            Some((_, c)) => *c = config,
            None => self.tenants.push((tenant, config)),
        }
        self
    }

    /// The registered config for `tenant`, if any.
    pub fn tenant_config(&self, tenant: TenantId) -> Option<&TenantConfig> {
        self.tenants
            .iter()
            .find(|(t, _)| *t == tenant)
            .map(|(_, c)| c)
    }

    /// Effective DRR weight of `tenant` (≥ 1; unregistered tenants get 1).
    fn weight_of(&self, tenant: TenantId) -> u64 {
        self.tenant_config(tenant).map_or(1, |c| c.weight.max(1))
    }

    /// Effective admission quota of `tenant` (`None` = unbounded).
    fn quota_of(&self, tenant: TenantId) -> Option<usize> {
        self.tenant_config(tenant).and_then(|c| c.admission_quota)
    }
}

/// Opaque handle to a submitted request, returned by
/// [`SpiderScheduler::submit`] and consumed by [`SpiderScheduler::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ticket {
    seq: u64,
}

impl Ticket {
    /// Monotonic submission sequence number (also the drain-report order).
    pub fn id(&self) -> u64 {
        self.seq
    }
}

/// What a [`SpiderScheduler::kill`] swept up — the recovery worklist a
/// cluster turns into exactly-once requeues and bounded retries.
#[derive(Debug, Default)]
pub struct KillReport {
    /// Queued requests that never started (each left the queue as a
    /// cancel, so resubmitting elsewhere cannot double-execute), with the
    /// tickets they held on the dead device.
    pub unstarted: Vec<(Ticket, StencilRequest)>,
    /// Tickets that were mid-execution when the device died; they now poll
    /// as [`RequestStatus::Failed`] with [`FailureReason::DeviceLost`].
    pub lost: Vec<Ticket>,
}

/// Why a request reached [`RequestStatus::Failed`] — typed, because the
/// cluster's recovery machinery must tell an execution error (retrying
/// cannot help: same plan, same failure) from a device loss (retrying on a
/// *different* device is exactly the right move).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureReason {
    /// The device executing (or about to execute) the request was lost —
    /// hard-killed by fault injection or a real crash. The request itself
    /// is fine; a retry elsewhere produces the bit-identical outcome.
    DeviceLost,
    /// The runtime rejected or failed the request itself (plan compile
    /// error, dimension mismatch, ...). Deterministic: not retried.
    Execution(String),
}

impl std::fmt::Display for FailureReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureReason::DeviceLost => write!(f, "device lost"),
            FailureReason::Execution(e) => write!(f, "{e}"),
        }
    }
}

/// Where a submitted request currently stands.
#[derive(Debug, Clone)]
pub enum RequestStatus {
    /// Waiting in the admission queue.
    Queued {
        /// Priority after aging, as of this poll.
        effective_priority: Priority,
    },
    /// Dispatched and executing.
    Running,
    /// Executed successfully.
    Done(Box<RequestOutcome>),
    /// Failed — see [`FailureReason`] for whether the request or its
    /// device is at fault.
    Failed { reason: FailureReason },
    /// Evicted by the `ShedLowestPriority` backpressure policy.
    Shed,
    /// Deadline passed before dispatch; the request never executed.
    Expired,
    /// Cancelled via [`SpiderScheduler::cancel`] while still queued; the
    /// request never executed.
    Cancelled,
    /// The ticket is not from this scheduler, or its outcome was dropped
    /// under the retention policy (see [`DONE_RETENTION`]).
    Unknown,
}

/// How many newer outcomes must be polled for the first time after a
/// ticket's own first `Done` poll before the scheduler drops that outcome
/// (see the module docs on ticket retention). An outcome is a few hundred
/// bytes, so this bounds the payloads a polling caller leaves behind to a
/// few hundred KiB, while a caller can still re-poll any of its last 1024
/// completions.
pub const DONE_RETENTION: usize = 1024;

impl RequestStatus {
    /// Whether the request has reached a final state.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            RequestStatus::Done(_)
                | RequestStatus::Failed { .. }
                | RequestStatus::Shed
                | RequestStatus::Expired
                | RequestStatus::Cancelled
        )
    }
}

/// Why a submission was not admitted — the one error vocabulary shared by
/// both submission surfaces, the scheduler and the cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// `Reject` policy and the queue is at capacity.
    QueueFull { capacity: usize },
    /// The submitting tenant already has `quota` requests queued
    /// ([`TenantConfig::admission_quota`]). Enforced regardless of the
    /// global [`BackpressurePolicy`] — an over-quota tenant is refused, not
    /// blocked, so it cannot park threads against everyone else's capacity.
    QuotaExceeded { tenant: TenantId, quota: usize },
    /// The routed device is draining out of the cluster: admissions on it
    /// are refused (never silently dropped) until the drain completes and
    /// the router stops mapping keys to it. Produced by the cluster front
    /// door, not by a single scheduler — it lives in the shared error
    /// vocabulary so callers of either surface match one type.
    DeviceDraining { device: String },
    /// The scheduler is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(f, "admission queue full ({capacity} requests)")
            }
            SubmitError::QuotaExceeded { tenant, quota } => {
                write!(f, "{tenant} admission quota exhausted ({quota} queued)")
            }
            SubmitError::DeviceDraining { device } => {
                write!(f, "device {device} is draining out of the cluster")
            }
            SubmitError::ShuttingDown => write!(f, "scheduler is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A ticket's verdict (the non-public side of a terminal
/// [`RequestStatus`]). A ticket without one is queued, and the queue holds
/// it, or running, and the `running` set holds it.
#[derive(Debug)]
enum Slot {
    /// `polled`: a `poll` has returned this outcome (its retention clock
    /// runs).
    Done {
        outcome: Box<RequestOutcome>,
        polled: bool,
    },
    Failed(FailureReason),
    Shed,
    Expired,
    Cancelled,
    /// A `Done` outcome dropped under [`DONE_RETENTION`].
    Released,
}

impl Slot {
    /// The terminal event this verdict is traced as.
    fn terminal(&self) -> Terminal {
        match self {
            Slot::Done { .. } | Slot::Released => Terminal::Done,
            Slot::Failed(_) => Terminal::Failed,
            Slot::Shed => Terminal::Shed,
            Slot::Expired => Terminal::Expired,
            Slot::Cancelled => Terminal::Cancelled,
        }
    }
}

struct SlotEntry {
    /// Who the request's trace events name: its id (echoed into
    /// drain-report failures), plan key and retry attempt, kept for the
    /// verdict of a request whose `QueuedEntry` is gone.
    who: Who,
    /// The submitting tenant, whose row [`finish`] counts the verdict in.
    tenant: TenantId,
    /// `None` until [`finish`] gives the verdict.
    verdict: Option<Slot>,
}

struct QueuedEntry {
    req: StencilRequest,
    submitted: Instant,
}

/// One FIFO lane: ticket → submission time, oldest first.
type Lane = BTreeMap<u64, Instant>;

/// The admission queue, indexed so that no operation scans it (costs in
/// the module docs).
///
/// Tickets are stamped under the state lock, so ticket order is age order.
/// Along one lane (a tenant's requests at one base priority) effective
/// priority therefore never rises, which turns every question a wave asks
/// into an end or a prefix of some lane.
#[derive(Default)]
struct Queue {
    /// Every queued request, by ticket (= queue order).
    entries: BTreeMap<u64, QueuedEntry>,
    /// One lane per (tenant, base priority level); empty lanes are dropped.
    lanes: BTreeMap<(TenantId, u8), Lane>,
    /// Queued deadlines, soonest first.
    deadlines: BTreeSet<(Instant, u64)>,
    /// Multiset of queued DRR costs: (base level, cost) → count.
    costs: BTreeMap<(u8, u64), usize>,
}

impl Queue {
    fn len(&self) -> usize {
        self.entries.len()
    }

    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn push(&mut self, ticket: u64, entry: QueuedEntry) {
        let level = entry.req.priority.level();
        self.lanes
            .entry((entry.req.tenant, level))
            .or_default()
            .insert(ticket, entry.submitted);
        if let Some(deadline) = entry.req.deadline {
            self.deadlines.insert((deadline.instant(), ticket));
        }
        *self.costs.entry((level, drr_cost(&entry.req))).or_default() += 1;
        self.entries.insert(ticket, entry);
    }

    /// Take `ticket` out of every index; `None` if it is not queued.
    fn remove(&mut self, ticket: u64) -> Option<QueuedEntry> {
        let entry = self.entries.remove(&ticket)?;
        let level = entry.req.priority.level();
        let lane_key = (entry.req.tenant, level);
        if let Some(lane) = self.lanes.get_mut(&lane_key) {
            lane.remove(&ticket);
            if lane.is_empty() {
                self.lanes.remove(&lane_key);
            }
        }
        if let Some(deadline) = entry.req.deadline {
            self.deadlines.remove(&(deadline.instant(), ticket));
        }
        let cost_key = (level, drr_cost(&entry.req));
        if let Some(n) = self.costs.get_mut(&cost_key) {
            *n -= 1;
            if *n == 0 {
                self.costs.remove(&cost_key);
            }
        }
        Some(entry)
    }

    /// Queued requests of `tenant` — the admission-quota denominator.
    fn queued_of(&self, tenant: TenantId) -> usize {
        self.lanes
            .range((tenant, 0)..=(tenant, u8::MAX))
            .map(|(_, lane)| lane.len())
            .sum()
    }

    /// The queued tickets whose deadline has passed at `now`, in ticket
    /// order.
    fn lapsed(&self, now: Instant) -> Vec<u64> {
        let mut lapsed: Vec<u64> = self
            .deadlines
            .iter()
            .take_while(|(at, _)| *at <= now)
            .map(|&(_, ticket)| ticket)
            .collect();
        lapsed.sort_unstable();
        lapsed
    }

    /// The `ShedLowestPriority` victim and its effective level: lowest
    /// level, then youngest. Each lane's tail is its lowest-level and
    /// youngest entry, so the victim is one of the tails.
    fn victim(&self, now: Instant, aging_step: Option<Duration>) -> Option<(u64, u8)> {
        self.lanes
            .iter()
            .filter_map(|(&(_, base), lane)| {
                let (&ticket, &submitted) = lane.last_key_value()?;
                Some((ticket, effective_level(base, submitted, now, aging_step)))
            })
            .min_by_key(|&(ticket, level)| (level, Reverse(ticket)))
    }
}

struct State {
    queue: Queue,
    /// Every ticket ever issued, indexed by ticket: tickets are dense from
    /// 0, and a slot is never removed (terminal tickets are not reaped).
    slots: Vec<SlotEntry>,
    paused: bool,
    shutdown: bool,
    /// Set by [`SpiderScheduler::kill`]: the simulated device is gone.
    killed: bool,
    /// Tickets dispatched and still executing.
    running: BTreeSet<u64>,
    /// One row per tenant (anonymous traffic included), the only store of
    /// the queue counts: every event bumps exactly one row, and the
    /// scheduler-wide row is their fold ([`State::queue_stats`]).
    tenant_stats: BTreeMap<TenantId, QueueStats>,
    /// Highest queued-request count observed, across all tenants.
    max_depth: usize,
    /// Dispatch waves run.
    dispatch_waves: u64,
    /// Jobs those waves ran as, summed (see [`QueueStats::wave_jobs`]).
    wave_jobs: u64,
    /// Plan-key groups executed across all waves.
    coalesced_groups: u64,
    /// Deficit-round-robin credit per tenant, in cost units (grid points ×
    /// sweeps). Carried across waves; forfeited when the tenant's cohort
    /// queue empties (classic DRR).
    deficits: BTreeMap<TenantId, u64>,
    /// Tickets in the order they reached a terminal state.
    completion_order: Vec<u64>,
    /// `Done` tickets in the order of their first poll; at most
    /// [`DONE_RETENTION`] long (older ones are released).
    polled_done: VecDeque<u64>,
    first_submit: Option<Instant>,
    last_terminal: Option<Instant>,
    /// Monotone progress beat: bumped on every admission, every dispatched
    /// wave, every completed execution group and every expiry sweep that
    /// retired work. The heartbeat a cluster health monitor samples — a
    /// busy scheduler whose beat stops advancing is stalled.
    beats: u64,
}

impl State {
    /// The per-tenant stats row for `tenant`, created on first touch.
    fn tenant_stats_mut(&mut self, tenant: TenantId) -> &mut QueueStats {
        self.tenant_stats.entry(tenant).or_default()
    }

    /// A copy of every tenant row, sorted by tenant id.
    fn tenant_rows(&self) -> Vec<(TenantId, QueueStats)> {
        self.tenant_stats.iter().map(|(&t, &q)| (t, q)).collect()
    }

    /// The scheduler-wide row: the tenant rows folded, plus the four
    /// values that belong to no tenant.
    fn queue_stats(&self) -> QueueStats {
        let mut q = QueueStats {
            max_depth: self.max_depth,
            dispatch_waves: self.dispatch_waves,
            wave_jobs: self.wave_jobs,
            coalesced_groups: self.coalesced_groups,
            ..QueueStats::default()
        };
        for row in self.tenant_stats.values() {
            q.add_row(row);
        }
        q
    }
}

struct Shared {
    state: OrderedMutex<State>,
    /// Signals the dispatcher: work queued / resumed / shutdown.
    work: Condvar,
    /// Signals blocked submitters: queue space freed.
    space: Condvar,
    /// Signals drainers: a ticket reached a terminal state.
    idle: Condvar,
}

/// The async serving front end. See the module docs for semantics.
pub struct SpiderScheduler {
    shared: Arc<Shared>,
    runtime: Arc<SpiderRuntime>,
    options: SchedulerOptions,
    dispatcher: Option<JoinHandle<()>>,
}

impl SpiderScheduler {
    pub fn new(runtime: Arc<SpiderRuntime>, options: SchedulerOptions) -> Self {
        assert!(
            options.queue_capacity >= 1,
            "scheduler queue capacity must be at least 1"
        );
        let shared = Arc::new(Shared {
            state: OrderedMutex::new(
                LockRank::SchedulerState,
                "scheduler.state",
                State {
                    queue: Queue::default(),
                    slots: Vec::new(),
                    paused: options.start_paused,
                    shutdown: false,
                    killed: false,
                    running: BTreeSet::new(),
                    tenant_stats: BTreeMap::new(),
                    max_depth: 0,
                    dispatch_waves: 0,
                    wave_jobs: 0,
                    coalesced_groups: 0,
                    deficits: BTreeMap::new(),
                    completion_order: Vec::new(),
                    polled_done: VecDeque::new(),
                    first_submit: None,
                    last_terminal: None,
                    beats: 0,
                },
            ),
            work: Condvar::new(),
            space: Condvar::new(),
            idle: Condvar::new(),
        });
        let dispatcher = {
            let shared = Arc::clone(&shared);
            let runtime = Arc::clone(&runtime);
            let options = options.clone();
            std::thread::spawn(move || dispatcher_loop(&shared, &runtime, &options))
        };
        Self {
            shared,
            runtime,
            options,
            dispatcher: Some(dispatcher),
        }
    }

    /// A scheduler with default options over a freshly wrapped runtime.
    pub fn with_defaults(runtime: SpiderRuntime) -> Self {
        Self::new(Arc::new(runtime), SchedulerOptions::default())
    }

    /// The runtime this scheduler dispatches onto.
    pub fn runtime(&self) -> &SpiderRuntime {
        &self.runtime
    }

    pub fn options(&self) -> &SchedulerOptions {
        &self.options
    }

    /// Submit a request for asynchronous execution.
    ///
    /// Returns immediately with a [`Ticket`] unless the queue is full and
    /// the policy says otherwise: `Block` waits for space, `Reject` returns
    /// [`SubmitError::QueueFull`], `ShedLowestPriority` evicts the least
    /// important queued request (possibly the newcomer itself — the
    /// returned ticket then polls as [`RequestStatus::Shed`]).
    pub fn submit(&self, req: StencilRequest) -> Result<Ticket, SubmitError> {
        self.enter(req, Some(self.options.policy))
    }

    /// Non-blocking [`Self::submit`]: admit the request if the queue has
    /// room *right now*, otherwise return [`SubmitError::QueueFull`] —
    /// regardless of the configured [`BackpressurePolicy`]. Nothing is
    /// shed and the `rejected` counter is not bumped: this is a capacity
    /// probe, not a policy decision. It exists for callers that must never
    /// park while holding their own locks — the cluster router's
    /// steal-and-requeue path, which would otherwise deadlock a paused
    /// fleet by blocking on a full destination queue.
    pub fn try_submit(&self, req: StencilRequest) -> Result<Ticket, SubmitError> {
        self.enter(req, None)
    }

    /// The one admission path: shutdown, then lapsed deadlines, then the
    /// tenant's admission quota, then capacity. A full queue meets
    /// `policy`; without one (the [`Self::try_submit`] probe) it refuses
    /// the request and counts nothing.
    fn enter(
        &self,
        req: StencilRequest,
        policy: Option<BackpressurePolicy>,
    ) -> Result<Ticket, SubmitError> {
        let rt = &self.runtime;
        let capacity = self.options.queue_capacity;
        let mut st = self.lock();
        loop {
            if st.shutdown {
                return Err(SubmitError::ShuttingDown);
            }
            // Lapsed deadlines free capacity before any backpressure call.
            expire_due(&self.shared, &mut st, rt);
            // Admission quotas outrank the backpressure policy: an
            // over-quota tenant is refused outright rather than allowed to
            // park against (or shed) everyone else's queue share.
            if let Some(quota) = self.options.quota_of(req.tenant) {
                if st.queue.queued_of(req.tenant) >= quota {
                    st.tenant_stats_mut(req.tenant).rejected += 1;
                    return Err(SubmitError::QuotaExceeded {
                        tenant: req.tenant,
                        quota,
                    });
                }
            }
            if st.queue.len() < capacity {
                break;
            }
            match policy {
                None => return Err(SubmitError::QueueFull { capacity }),
                Some(BackpressurePolicy::Block) => st = st.wait_on(&self.shared.space),
                Some(BackpressurePolicy::Reject) => {
                    st.tenant_stats_mut(req.tenant).rejected += 1;
                    return Err(SubmitError::QueueFull { capacity });
                }
                Some(BackpressurePolicy::ShedLowestPriority) => {
                    let now = Instant::now();
                    let (victim, victim_level) = st
                        .queue
                        .victim(now, self.options.aging_step)
                        .expect("full queue has a victim"); // guard: branch is only taken when the queue is full
                    let mut log = rt.telemetry().batch(2);
                    if req.priority.level() <= victim_level {
                        // The newcomer is the least important: shed on
                        // arrival, but still hand back a pollable ticket.
                        let ticket = open_ticket(&mut st, &req, &mut log, now);
                        finish(&mut st, rt, ticket, Slot::Shed, &mut log, now);
                        rt.telemetry().flush(&[&log]);
                        self.shared.idle.notify_all();
                        return Ok(Ticket { seq: ticket });
                    }
                    leave_queue(&mut st, rt, victim, Slot::Shed, &mut log, now);
                    rt.telemetry().flush(&[&log]);
                    self.shared.idle.notify_all();
                }
            }
        }
        let ticket = admit(&mut st, req, rt.telemetry());
        self.shared.work.notify_one();
        Ok(Ticket { seq: ticket })
    }

    /// Current status of a ticket. Polling a queued ticket whose deadline
    /// has passed expires it on the spot (lazy expiry — the dispatcher would
    /// do the same at dispatch time). The first poll that returns
    /// [`RequestStatus::Done`] starts the outcome's retention clock (see
    /// the module docs).
    pub fn poll(&self, ticket: Ticket) -> RequestStatus {
        self.status(ticket, true)
    }

    /// [`Self::poll`] without starting a `Done` outcome's retention clock:
    /// for observers (such as a cluster pruning its routing records) that
    /// are not the caller the outcome is for.
    pub fn peek(&self, ticket: Ticket) -> RequestStatus {
        self.status(ticket, false)
    }

    fn status(&self, ticket: Ticket, retain: bool) -> RequestStatus {
        let mut st = self.lock();
        expire_due(&self.shared, &mut st, &self.runtime);
        let Some(entry) = st.slots.get(ticket.seq as usize) else {
            return RequestStatus::Unknown;
        };
        let status = match &entry.verdict {
            Some(Slot::Done { outcome, .. }) => RequestStatus::Done(outcome.clone()),
            Some(Slot::Failed(reason)) => RequestStatus::Failed {
                reason: reason.clone(),
            },
            Some(Slot::Shed) => RequestStatus::Shed,
            Some(Slot::Expired) => RequestStatus::Expired,
            Some(Slot::Cancelled) => RequestStatus::Cancelled,
            Some(Slot::Released) => RequestStatus::Unknown,
            // No verdict yet: the queue holds the ticket, or else the
            // running set does.
            None => match st.queue.entries.get(&ticket.seq) {
                Some(queued) => RequestStatus::Queued {
                    effective_priority: Priority::from_level(effective_level(
                        queued.req.priority.level(),
                        queued.submitted,
                        Instant::now(),
                        self.options.aging_step,
                    )),
                },
                None => RequestStatus::Running,
            },
        };
        if retain {
            retain_polled(&mut st, ticket.seq);
        }
        status
    }

    /// Cancel a still-queued ticket: it leaves the admission queue without
    /// executing and polls as [`RequestStatus::Cancelled`] from now on.
    ///
    /// Returns `true` only when this call removed the request from the
    /// queue. A ticket that is already running, terminal or unknown is not
    /// affected and returns `false` — cancellation never tears down work in
    /// flight, which is exactly the guarantee the cluster router's
    /// steal-and-requeue path needs: a `true` return means the request has
    /// not and will not execute here, so resubmitting it elsewhere cannot
    /// double-execute.
    pub fn cancel(&self, ticket: Ticket) -> bool {
        let t = self.runtime.telemetry();
        let (mut st, mut log, now) = (self.lock(), t.batch(2), Instant::now());
        // Only queued tickets are in the queue: running, terminal and
        // unknown ones fall through here.
        let left = leave_queue(
            &mut st,
            &self.runtime,
            ticket.seq,
            Slot::Cancelled,
            &mut log,
            now,
        );
        t.flush(&[&log]);
        if left.is_none() {
            return false;
        }
        drop(st);
        // A freed slot may unblock a parked submitter; a drained queue may
        // be what a drain() caller is waiting on.
        self.shared.space.notify_all();
        self.shared.idle.notify_all();
        true
    }

    /// Hard-kill the simulated device under this scheduler, as a crash or
    /// fault injection would: no new admissions, no further dispatch, and
    /// no waiting for in-flight waves.
    ///
    /// * Every **queued** request leaves exactly as a [`Self::cancel`]
    ///   would — it has not started and never will here, so the returned
    ///   `(ticket, request)` pairs can be requeued on another device
    ///   without double-executing (the same invariant the cluster's
    ///   steal-and-requeue path is built on).
    /// * Every **running** request is a casualty: its slot becomes
    ///   [`RequestStatus::Failed`] with [`FailureReason::DeviceLost`]
    ///   immediately, and whatever result the dispatcher later produces
    ///   is discarded — the device it "ran" on no longer exists.
    ///
    /// Idempotent: a second kill returns an empty report. [`Self::poll`]
    /// and [`Self::drain`] keep working against the corpse (drain returns
    /// at once — the queue is empty and nothing counts as running), so
    /// completed work remains reported and departed-device accounting
    /// stays exact.
    pub fn kill(&self) -> KillReport {
        let rt = &self.runtime;
        let mut st = self.lock();
        if st.killed {
            return KillReport::default();
        }
        st.killed = true;
        st.shutdown = true;
        let (mut unstarted, mut lost) = (Vec::new(), Vec::new());
        let now = Instant::now();
        let mut log = rt.telemetry().batch(2 * st.queue.len() + st.running.len());
        for seq in st.queue.entries.keys().copied().collect::<Vec<_>>() {
            if let Some(req) = leave_queue(&mut st, rt, seq, Slot::Cancelled, &mut log, now) {
                unstarted.push((Ticket { seq }, req));
            }
        }
        for seq in std::mem::take(&mut st.running) {
            let lost_device = Slot::Failed(FailureReason::DeviceLost);
            finish(&mut st, rt, seq, lost_device, &mut log, now);
            lost.push(Ticket { seq });
        }
        rt.telemetry().flush(&[&log]);
        drop(st);
        self.retire();
        KillReport { unstarted, lost }
    }

    /// Gracefully shut the dispatcher down: no further admissions
    /// (submits return [`SubmitError::ShuttingDown`]) and the dispatcher
    /// thread exits, while [`Self::poll`], [`Self::drain`],
    /// [`Self::queue_stats`] and [`Self::timeline`] keep answering.
    ///
    /// The seam a cluster uses after draining a departing device: the
    /// device stops consuming a thread but its served history stays
    /// queryable for as long as the handle lives. Call only once the queue
    /// is empty — queued work after retirement would never dispatch
    /// (the cluster's drain sequence guarantees emptiness; a racing
    /// submission is cancelled and rerouted by the cluster front door).
    pub fn retire(&self) {
        self.lock().shutdown = true;
        self.shared.work.notify_all();
        self.shared.space.notify_all();
        self.shared.idle.notify_all();
    }

    /// Block until every admitted ticket reaches a terminal state, then
    /// return the aggregate report (outcomes in ticket order, queue counters
    /// in [`RuntimeReport::queue`]).
    ///
    /// Resumes a paused scheduler first — draining a paused queue would
    /// otherwise wait forever. Idempotent: draining twice without new
    /// submissions returns the same report.
    pub fn drain(&self) -> RuntimeReport {
        self.resume();
        let mut st = self.lock();
        loop {
            expire_due(&self.shared, &mut st, &self.runtime);
            if st.queue.is_empty() && st.running.is_empty() {
                break;
            }
            st = st.wait_on(&self.shared.idle);
        }
        let mut outcomes = Vec::new();
        let mut failures = Vec::new();
        for entry in &st.slots {
            match &entry.verdict {
                Some(Slot::Done { outcome, .. }) => outcomes.push((**outcome).clone()),
                Some(Slot::Failed(e)) => failures.push((entry.who.request_id, e.to_string())),
                _ => {}
            }
        }
        let wall_s = match (st.first_submit, st.last_terminal) {
            (Some(a), Some(b)) => b.saturating_duration_since(a).as_secs_f64(),
            _ => 0.0,
        };
        let queue = st.queue_stats();
        let tenants = st.tenant_rows();
        drop(st);
        RuntimeReport {
            outcomes,
            failures,
            wall_s,
            cache: self.runtime.cache_stats(),
            queue: Some(queue),
            tenants,
            profile: self.runtime.telemetry().profiler().top(8),
        }
    }

    /// Per-tenant snapshot of the cumulative queue counters, sorted by
    /// tenant id (anonymous traffic under [`TenantId::ANONYMOUS`]).
    pub fn tenant_queue_stats(&self) -> Vec<(TenantId, QueueStats)> {
        self.lock().tenant_rows()
    }

    /// Prometheus exposition of the per-tenant queue counters, every sample
    /// labeled `tenant="…"` — the same label-at-export mechanism the
    /// cluster uses for per-device metrics, so fleet and tenant breakdowns
    /// merge into one scrape page. Returns an empty string when telemetry
    /// is disabled.
    pub fn tenant_prometheus_text(&self) -> String {
        if !self.runtime.telemetry().enabled() {
            return String::new();
        }
        let mut out = String::new();
        for (tenant, row) in self.tenant_queue_stats() {
            let mut snap = MetricsSnapshot::default();
            row.write_metrics(&mut snap);
            out.push_str(&snap.prometheus_text(&[("tenant", &tenant.label())]));
        }
        out
    }

    /// Every metric this scheduler's device exports, read when called: the
    /// runtime's [`SpiderRuntime::metrics_snapshot`] and the scheduler-wide
    /// queue row ([`Self::queue_stats`]) with its waves, groups and peak
    /// depth. Per-tenant rows export through
    /// [`Self::tenant_prometheus_text`]. Live between drains; empty when
    /// telemetry is disabled.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        if !self.runtime.telemetry().enabled() {
            return MetricsSnapshot::default();
        }
        let queue = self.queue_stats();
        let mut snap = self.runtime.metrics_snapshot();
        queue.write_metrics(&mut snap);
        snap.counter(
            "spider_scheduler_dispatch_waves_total",
            queue.dispatch_waves,
        );
        snap.counter("spider_scheduler_wave_jobs_total", queue.wave_jobs);
        snap.counter(
            "spider_scheduler_coalesced_groups_total",
            queue.coalesced_groups,
        );
        snap.gauge("spider_scheduler_max_depth", queue.max_depth as f64);
        snap
    }

    /// Monotone progress beat: advances on every admission, dispatched
    /// wave, completed execution group and productive expiry sweep. The
    /// heartbeat a fleet health check samples — see
    /// `spider_cluster::SpiderCluster::health_tick`.
    pub fn last_progress(&self) -> u64 {
        self.lock().beats
    }

    /// Whether admitted work is still outstanding (queued or running) —
    /// the *busy* flag for missed-beat gating: an idle scheduler owes no
    /// beats, a busy one whose beat stops advancing is stalled.
    pub fn has_outstanding(&self) -> bool {
        let st = self.lock();
        !st.queue.is_empty() || !st.running.is_empty()
    }

    /// Render the traced lifecycle of a submitted request — every event
    /// from admission to its terminal state, with relative wall-clock
    /// offsets and simulated-time annotations. Returns `None` for unknown
    /// tickets, when telemetry is disabled, or when the ring has already
    /// dropped the request's events.
    pub fn timeline(&self, ticket: Ticket) -> Option<String> {
        let req_id = {
            let st = self.lock();
            st.slots
                .get(ticket.seq as usize)
                .map(|e| e.who.request_id)?
        };
        self.runtime.telemetry().trace().render_timeline(req_id)
    }

    /// Stop dispatching new waves (already-running waves finish).
    pub fn pause(&self) {
        self.lock().paused = true;
    }

    /// Resume dispatching.
    pub fn resume(&self) {
        {
            let mut st = self.lock();
            if !st.paused {
                return;
            }
            st.paused = false;
        }
        self.shared.work.notify_all();
    }

    /// Requests currently waiting in the admission queue.
    pub fn queue_depth(&self) -> usize {
        self.lock().queue.len()
    }

    /// Snapshot of the cumulative queue counters: the tenant rows folded
    /// (see the module docs).
    pub fn queue_stats(&self) -> QueueStats {
        self.lock().queue_stats()
    }

    /// Tickets in the order they reached a terminal state (including shed
    /// and expired ones) — the observable the ordering tests assert on.
    pub fn completion_order(&self) -> Vec<Ticket> {
        self.lock()
            .completion_order
            .iter()
            .map(|&seq| Ticket { seq })
            .collect()
    }

    fn lock(&self) -> OrderedMutexGuard<'_, State> {
        self.shared.state.lock()
    }
}

impl Drop for SpiderScheduler {
    fn drop(&mut self) {
        self.retire();
        if let Some(handle) = self.dispatcher.take() {
            let _ = handle.join();
        }
    }
}

/// Admit a request into the queue (capacity already checked by the
/// caller): open its ticket and enqueue it. Its `Admit` and `Queued`
/// events share one clock read with `submitted`, where its queue span
/// starts; [`dequeue`] records the span when the ticket leaves.
fn admit(st: &mut State, req: StencilRequest, t: &Telemetry) -> u64 {
    let now = Instant::now();
    let mut log = t.batch(2);
    let ticket = open_ticket(st, &req, &mut log, now);
    let who = st.slots[ticket as usize].who;
    st.first_submit.get_or_insert(now);
    st.beats += 1;
    log.record(who, EventKind::Queued, 0.0, log.stamp(now));
    t.flush(&[&log]);
    let tenant = req.tenant;
    st.queue.push(
        ticket,
        QueuedEntry {
            req,
            submitted: now,
        },
    );
    let tenant_depth = st.queue.queued_of(tenant);
    let ts = st.tenant_stats_mut(tenant);
    ts.max_depth = ts.max_depth.max(tenant_depth);
    st.max_depth = st.max_depth.max(st.queue.len());
    ticket
}

/// Open a ticket for an accepted submission at `now`: its slot, its
/// `submitted` count and its `Admit` event (it is not enqueued).
fn open_ticket(st: &mut State, req: &StencilRequest, log: &mut EventBatch, now: Instant) -> u64 {
    let ticket = st.slots.len() as u64;
    let who = Who::new(req.id, req.plan_key(), req.attempt);
    st.slots.push(SlotEntry {
        who,
        tenant: req.tenant,
        verdict: None,
    });
    st.tenant_stats_mut(req.tenant).submitted += 1;
    log.record(who, EventKind::Admit, 0.0, log.stamp(now));
    ticket
}

/// Give a queued or running ticket its verdict at `now`, count it in its
/// tenant's row and record it in `log` ([`SpiderRuntime::conclude`]): the
/// only place any of the three happens. The caller flushes `log` before
/// it releases the state lock, so the `Complete` event is in the ring
/// before the verdict can be polled.
fn finish(
    st: &mut State,
    rt: &SpiderRuntime,
    ticket: u64,
    verdict: Slot,
    log: &mut EventBatch,
    now: Instant,
) {
    let entry = &mut st.slots[ticket as usize];
    debug_assert!(entry.verdict.is_none(), "one verdict per ticket");
    let terminal = verdict.terminal();
    rt.conclude(
        entry.who,
        match &verdict {
            Slot::Done { outcome, .. } => Ok(outcome),
            _ => Err(terminal),
        },
        log,
        log.stamp(now),
    );
    let row = st.tenant_stats.entry(entry.tenant).or_default();
    *match terminal {
        Terminal::Done => &mut row.completed,
        Terminal::Failed => &mut row.failed,
        Terminal::Shed => &mut row.shed,
        Terminal::Expired => &mut row.expired,
        Terminal::Cancelled => &mut row.cancelled,
    } += 1;
    entry.verdict = Some(verdict);
    st.completion_order.push(ticket);
    st.last_terminal = Some(now);
}

/// Take a ticket out of the queue at `now` and record its queue span, from
/// its admission to `now`, in `log`. Returns the request and its wait in
/// seconds (the span's length), or `None` if the ticket is not queued. The
/// queue's one exit: a dispatched ticket and one that [`leave_queue`]s
/// both take it.
fn dequeue(
    st: &mut State,
    ticket: u64,
    log: &mut EventBatch,
    now: Instant,
) -> Option<(StencilRequest, f64)> {
    let QueuedEntry { req, submitted } = st.queue.remove(ticket)?;
    // The wait and the exit's stamp read one clock, so the span
    // `[wall_s − elapsed_s, wall_s]` starts when the ticket was queued.
    let wait = now.saturating_duration_since(submitted).as_secs_f64();
    let queue = EventKind::SpanExit {
        phase: Phase::Queue,
        elapsed_s: wait,
    };
    log.record(st.slots[ticket as usize].who, queue, 0.0, log.stamp(now));
    Some((req, wait))
}

/// Take a queued ticket that will not run out of the queue ([`dequeue`])
/// at `now`, label its plan's profile (it may have no executed group to do
/// so), and [`finish`] it with `verdict`, its events in `log`. The one exit
/// of a shed victim, a cancel, a kill and an expiry. Returns the request,
/// or `None` if the ticket is not queued.
fn leave_queue(
    st: &mut State,
    rt: &SpiderRuntime,
    ticket: u64,
    verdict: Slot,
    log: &mut EventBatch,
    now: Instant,
) -> Option<StencilRequest> {
    let (req, _) = dequeue(st, ticket, log, now)?;
    if log.enabled() {
        let plan_key = st.slots[ticket as usize].who.plan_key;
        rt.telemetry().profiler().touch(plan_key, || req.scenario());
    }
    finish(st, rt, ticket, verdict, log, now);
    Some(req)
}

/// Start the retention clock of a `Done` ticket on its first poll: queue
/// it behind the outcomes polled before it, and release the oldest polled
/// outcome once more than [`DONE_RETENTION`] are kept.
fn retain_polled(st: &mut State, ticket: u64) {
    let Some(Slot::Done { polled, .. }) = &mut st.slots[ticket as usize].verdict else {
        return;
    };
    if std::mem::replace(polled, true) {
        return;
    }
    st.polled_done.push_back(ticket);
    if st.polled_done.len() > DONE_RETENTION {
        if let Some(oldest) = st.polled_done.pop_front() {
            st.slots[oldest as usize].verdict = Some(Slot::Released);
        }
    }
}

/// Expire every queued request whose deadline has passed, oldest first,
/// and wake the submitters and drainers the freed slots may release.
fn expire_due(shared: &Shared, st: &mut State, rt: &SpiderRuntime) {
    let now = Instant::now();
    let lapsed = st.queue.lapsed(now);
    if lapsed.is_empty() {
        return;
    }
    let mut log = rt.telemetry().batch(2 * lapsed.len());
    for ticket in lapsed {
        leave_queue(st, rt, ticket, Slot::Expired, &mut log, now);
    }
    rt.telemetry().flush(&[&log]);
    // Retiring due work is progress too — lazy expiry driven by a poll or
    // submit must keep the heartbeat advancing.
    st.beats += 1;
    shared.space.notify_all();
    shared.idle.notify_all();
}

/// Effective priority level of a request queued at `submitted`: its base
/// level plus one per elapsed aging step, capped at [`Priority::High`].
fn effective_level(base: u8, submitted: Instant, now: Instant, aging_step: Option<Duration>) -> u8 {
    let Some(step) = aging_step else {
        return base;
    };
    if step.is_zero() {
        return Priority::High.level();
    }
    let bumps = (now.saturating_duration_since(submitted).as_nanos() / step.as_nanos())
        .min(u128::from(Priority::High.level())) as u8;
    (base + bumps).min(Priority::High.level())
}

/// One dispatched plan-key group: tickets and their requests, in cohort
/// (submission) order.
#[derive(Default)]
struct WaveGroup {
    tickets: Vec<u64>,
    requests: Vec<StencilRequest>,
}

/// Deficit-round-robin cost of one request: grid points × sweeps (≥ 1).
/// The unit the weighted-fair dispatcher and [`QueueStats::served_cost`]
/// meter service in — a tenant of giant volumes cannot out-serve a tenant
/// of small planes by request count alone.
pub(crate) fn drr_cost(req: &StencilRequest) -> u64 {
    req.grid
        .points()
        .saturating_mul(req.steps.max(1) as u64)
        .max(1)
}

/// A lane of the top cohort: its tenant, base level and entries.
type CohortLane<'a> = (TenantId, u8, &'a Lane);

/// The next wave's members in ticket (submission) order: the
/// top-effective-priority cohort, or one deficit-round-robin round over it
/// when tenants are registered. A lane's head is its oldest and therefore
/// highest-level entry, so the top level is the highest head and the
/// cohort is a prefix of each lane whose head is at that level.
fn wave_members(st: &mut State, options: &SchedulerOptions, now: Instant) -> Vec<u64> {
    let level =
        |base: u8, submitted: &Instant| effective_level(base, *submitted, now, options.aging_step);
    let head_level = |(&(_, base), lane): (&(TenantId, u8), &Lane)| {
        lane.first_key_value().map(|(_, s)| level(base, s))
    };
    let Some(top) = st.queue.lanes.iter().filter_map(head_level).max() else {
        return Vec::new();
    };
    let in_cohort = |base: u8, submitted: &Instant| level(base, submitted) == top;
    let cohort: Vec<CohortLane<'_>> = st
        .queue
        .lanes
        .iter()
        .filter(|&lane| head_level(lane) == Some(top))
        .map(|(&(tenant, base), lane)| (tenant, base, lane))
        .collect();
    let mut members: Vec<u64> = if options.tenants.is_empty() {
        cohort
            .iter()
            .flat_map(|&(_, base, lane)| {
                lane.iter()
                    .take_while(move |(_, s)| in_cohort(base, s))
                    .map(|(&ticket, _)| ticket)
            })
            .collect()
    } else {
        drr_round(&cohort, in_cohort, &st.queue, &mut st.deficits, options)
    };
    members.sort_unstable();
    members
}

/// One deficit-round-robin round over the cohort: refill each active
/// tenant's deficit by `weight × quantum`, then let it dispatch its oldest
/// cohort requests while the deficit covers their cost. A tenant's cohort
/// requests, oldest first, are its cohort lanes' prefixes merged by ticket.
///
/// The quantum is the largest request cost queued at the base levels the
/// cohort draws from, read off the cost multiset. It covers every cohort
/// request, so every active tenant (weight ≥ 1) places at least its head
/// request — a wave is never empty and no tenant starves — while a
/// weight-10 tenant places ~10× the work of a weight-1 tenant. Without
/// aging it is exactly the cohort's largest cost; once aging splits a base
/// level between cohorts, the level's younger requests count too. Leftover
/// deficit carries to the next wave; a tenant that empties its cohort
/// queue forfeits the remainder (classic DRR — credit must not accumulate
/// while idle).
///
/// A tenant alone in the cohort has no one to share the wave with, so its
/// refill is `max(weight × quantum, MIN_WAVE_JOB_COST)`: the wave takes its
/// oldest requests up to one job's work (128 requests of 16×16) instead of
/// one weight's worth, and their plan-key groups coalesce. Its carried
/// deficit is under one request's cost, so while requests cost less than
/// [`MIN_WAVE_JOB_COST`] a filled wave holds under two jobs' work and runs
/// as one job, in cohort order. The fill's price is the newcomer bound: a
/// tenant that arrives while a filled wave runs waits for that wave, at
/// most `max(weight × largest queued cost, MIN_WAVE_JOB_COST)` of work
/// (about 1 ms of 16×16 requests on a 2-vCPU x86-64 host) rather than one
/// request. Rounds of two or more tenants are plain DRR.
///
/// Returns the selected tickets, tenant by tenant.
fn drr_round(
    cohort: &[CohortLane<'_>],
    in_cohort: impl Fn(u8, &Instant) -> bool,
    queue: &Queue,
    deficits: &mut BTreeMap<TenantId, u64>,
    options: &SchedulerOptions,
) -> Vec<u64> {
    let quantum = cohort
        .iter()
        .filter_map(|&(_, base, _)| queue.costs.range((base, 0)..=(base, u64::MAX)).next_back())
        .map(|(&(_, cost), _)| cost)
        .max()
        .unwrap_or(1);
    let floor = match cohort.iter().all(|lane| lane.0 == cohort[0].0) {
        true => MIN_WAVE_JOB_COST,
        false => 0,
    };
    let mut selected = Vec::new();
    // Lanes are keyed (tenant, level), so a tenant's lanes are adjacent.
    for lanes in cohort.chunk_by(|a, b| a.0 == b.0) {
        let tenant = lanes[0].0;
        let refill = options.weight_of(tenant).saturating_mul(quantum).max(floor);
        let deficit = deficits.entry(tenant).or_insert(0);
        *deficit = deficit.saturating_add(refill);
        let mut heads: Vec<_> = lanes
            .iter()
            .map(|&(_, base, lane)| (base, lane.iter().peekable()))
            .collect();
        let emptied = loop {
            let oldest = heads
                .iter_mut()
                .enumerate()
                .filter_map(|(h, (base, lane))| {
                    let &(&ticket, submitted) = lane.peek()?;
                    in_cohort(*base, submitted).then_some((ticket, h))
                })
                .min();
            let Some((ticket, h)) = oldest else {
                break true;
            };
            let cost = drr_cost(&queue.entries[&ticket].req);
            if *deficit < cost {
                break false;
            }
            *deficit -= cost;
            selected.push(ticket);
            heads[h].1.next();
        };
        if emptied {
            *deficit = 0;
        }
    }
    selected
}

/// Take the next wave off the queue: its members, grouped by plan key
/// (oldest group first), move from the queue to the running set. Their
/// queue spans end at one clock read and reach the trace in one batch.
fn form_wave(st: &mut State, options: &SchedulerOptions, telemetry: &Telemetry) -> Vec<WaveGroup> {
    let now = Instant::now();
    let mut wave: Vec<WaveGroup> = Vec::new();
    let mut group_of: HashMap<u64, usize> = HashMap::new();
    let members = wave_members(st, options, now);
    let mut log = telemetry.batch(members.len());
    for ticket in members {
        let who = st.slots[ticket as usize].who;
        let g = *group_of.entry(who.plan_key).or_insert_with(|| {
            wave.push(WaveGroup::default());
            wave.len() - 1
        });
        let (req, wait) = dequeue(st, ticket, &mut log, now).expect("wave members are queued"); // guard: members were read from the queue under this lock
        let ts = st.tenant_stats_mut(req.tenant);
        ts.total_wait_s += wait;
        ts.max_wait_s = ts.max_wait_s.max(wait);
        ts.wait_hist.record(wait * 1e6);
        ts.served_cost += drr_cost(&req);
        st.running.insert(ticket);
        wave[g].tickets.push(ticket);
        wave[g].requests.push(req);
    }
    telemetry.flush(&[&log]);
    st.beats += 1;
    st.dispatch_waves += 1;
    st.coalesced_groups += wave.len() as u64;
    wave
}

/// The dispatcher: form a wave under the state lock, then resolve and tune
/// its groups on this thread and run them, fanned out over as many jobs as
/// the wave's work pays for ([`SpiderRuntime::prepare_wave`]), recording
/// each group's verdicts as soon as it finishes.
fn dispatcher_loop(shared: &Shared, runtime: &SpiderRuntime, options: &SchedulerOptions) {
    loop {
        let wave = {
            let mut st = shared.state.lock();
            loop {
                if st.shutdown {
                    return;
                }
                expire_due(shared, &mut st, runtime);
                if !st.paused && !st.queue.is_empty() {
                    break;
                }
                st = st.wait_on(&shared.work);
            }
            form_wave(&mut st, options, runtime.telemetry())
        };
        shared.space.notify_all();
        let groups: Vec<&[StencilRequest]> = wave.iter().map(|g| g.requests.as_slice()).collect();
        let prepared = runtime.prepare_wave(&groups);
        shared.state.lock().wave_jobs += prepared.jobs() as u64;
        prepared.run(|g, run| record_verdicts(shared, runtime, &wave[g], run));
    }
}

/// Mark one finished wave group's tickets with their verdicts, stamped at
/// one clock read, and flush the group's events, verdicts included, before
/// the state lock is released.
fn record_verdicts(
    shared: &Shared,
    runtime: &SpiderRuntime,
    group: &WaveGroup,
    mut run: GroupRun<'_>,
) {
    let mut st = shared.state.lock();
    let now = Instant::now();
    let mut finished = 0u64;
    for (&ticket, result) in group.tickets.iter().zip(run.results.drain(..)) {
        // A kill that landed while the wave was in flight has failed every
        // running ticket (`DeviceLost`) and emptied the running set: the
        // simulated device died under us, so the result is discarded.
        if !st.running.remove(&ticket) {
            continue;
        }
        let verdict = match result {
            Ok(outcome) => Slot::Done {
                outcome: Box::new(outcome),
                polled: false,
            },
            Err(e) => Slot::Failed(FailureReason::Execution(e.to_string())),
        };
        finish(&mut st, runtime, ticket, verdict, &mut run.log, now);
        finished += 1;
    }
    run.flush(runtime.telemetry());
    if finished > 0 {
        // Completions are progress; a kill that already discarded the
        // results (finished == 0) is not — the corpse must not look
        // alive.
        st.beats += 1;
    }
    drop(st);
    shared.idle.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::RuntimeOptions;
    use spider_gpu_sim::GpuDevice;
    use spider_stencil::StencilKernel;

    fn sched(options: SchedulerOptions) -> SpiderScheduler {
        let rt = SpiderRuntime::new(
            GpuDevice::a100(),
            RuntimeOptions {
                cache_capacity: 16,
                tuner_dry_run_cap: 1 << 12,
                tuner_shortlist: 2,
                ..RuntimeOptions::default()
            },
        );
        SpiderScheduler::new(Arc::new(rt), options)
    }

    fn req(id: u64, priority: Priority) -> StencilRequest {
        StencilRequest::new_2d(id, StencilKernel::jacobi_2d(), 48, 64)
            .with_seed(id)
            .with_priority(priority)
    }

    #[test]
    fn submit_poll_roundtrip() {
        let s = sched(SchedulerOptions::default());
        let t = s.submit(req(1, Priority::Normal)).unwrap();
        let report = s.drain();
        assert_eq!(report.outcomes.len(), 1);
        assert_eq!(report.outcomes[0].id, 1);
        match s.poll(t) {
            RequestStatus::Done(o) => assert_eq!(o.id, 1),
            other => panic!("expected Done, got {other:?}"),
        }
        let q = report.queue.unwrap();
        assert_eq!(q.submitted, 1);
        assert_eq!(q.completed, 1);
        assert!(report.rates_are_finite());
    }

    #[test]
    fn polled_outcomes_are_released_after_the_retention_window() {
        let n = DONE_RETENTION;
        let s = sched(SchedulerOptions::default());
        let tiny = |id: u64| StencilRequest::new_2d(id, StencilKernel::jacobi_2d(), 16, 16);
        // The first request is never polled; it finishes before the other
        // 3N and must outlive all of them.
        let unpolled = s.submit(tiny(0)).unwrap();
        let tickets: Vec<Ticket> = (1..=3 * n as u64)
            .map(|id| s.submit(tiny(id)).unwrap())
            .collect();
        assert_eq!(s.drain().outcomes.len(), 3 * n + 1, "nothing polled yet");
        assert!(matches!(s.peek(unpolled), RequestStatus::Done(_)));
        for &t in &tickets {
            assert!(matches!(s.poll(t), RequestStatus::Done(_)));
        }
        let kept = s
            .lock()
            .slots
            .iter()
            .filter(|e| matches!(e.verdict, Some(Slot::Done { .. })))
            .count();
        assert_eq!(kept, n + 1, "N polled payloads plus the unpolled one");
        for &t in &tickets[..2 * n] {
            assert!(matches!(s.poll(t), RequestStatus::Unknown));
        }
        for &t in &tickets[2 * n..] {
            assert!(matches!(s.poll(t), RequestStatus::Done(_)), "re-poll");
        }
        // `peek` does not start the clock, so this is still never polled.
        match s.peek(unpolled) {
            RequestStatus::Done(o) => assert_eq!(o.id, 0),
            other => panic!("the unpolled outcome must survive, got {other:?}"),
        }
        let report = s.drain();
        let ids: Vec<u64> = report.outcomes.iter().map(|o| o.id).collect();
        let want: Vec<u64> = std::iter::once(0)
            .chain(2 * n as u64 + 1..=3 * n as u64)
            .collect();
        assert!(ids == want, "drain returns every outcome still kept");
        assert_eq!(report.queue.unwrap().completed, 3 * n as u64 + 1);
    }

    #[test]
    fn unknown_tickets_poll_unknown() {
        let s = sched(SchedulerOptions::default());
        assert!(matches!(
            s.poll(Ticket { seq: 999 }),
            RequestStatus::Unknown
        ));
    }

    #[test]
    fn paused_scheduler_queues_until_resume() {
        let s = sched(SchedulerOptions {
            start_paused: true,
            ..SchedulerOptions::default()
        });
        let t = s.submit(req(1, Priority::Normal)).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        assert!(matches!(s.poll(t), RequestStatus::Queued { .. }));
        assert_eq!(s.queue_depth(), 1);
        let report = s.drain(); // drain auto-resumes
        assert_eq!(report.outcomes.len(), 1);
    }

    #[test]
    fn priority_waves_serialize_high_before_low() {
        let s = sched(SchedulerOptions {
            start_paused: true,
            aging_step: None,
            ..SchedulerOptions::default()
        });
        // Interleave submissions: priority must override arrival order.
        let low: Vec<Ticket> = (0..3)
            .map(|i| s.submit(req(100 + i, Priority::Low)).unwrap())
            .collect();
        let high: Vec<Ticket> = (0..3)
            .map(|i| s.submit(req(200 + i, Priority::High)).unwrap())
            .collect();
        let norm = s.submit(req(300, Priority::Normal)).unwrap();
        s.resume();
        s.drain();
        let order = s.completion_order();
        let pos = |t: Ticket| order.iter().position(|&x| x == t).unwrap();
        for &h in &high {
            assert!(pos(h) < pos(norm), "high after normal");
            for &l in &low {
                assert!(pos(h) < pos(l), "high after low");
            }
        }
        for &l in &low {
            assert!(pos(norm) < pos(l), "normal after low");
        }
    }

    #[test]
    fn aging_promotes_starved_low_priority_work() {
        let step = Duration::from_millis(30);
        let s = sched(SchedulerOptions {
            start_paused: true,
            aging_step: Some(step),
            ..SchedulerOptions::default()
        });
        let old_low = s.submit(req(1, Priority::Low)).unwrap();
        // Let the low-priority request age up to High...
        std::thread::sleep(step * 3);
        let fresh_high = s.submit(req(2, Priority::High)).unwrap();
        match s.poll(old_low) {
            RequestStatus::Queued {
                effective_priority, ..
            } => assert_eq!(effective_priority, Priority::High, "aged to the cap"),
            other => panic!("expected Queued, got {other:?}"),
        }
        s.resume();
        s.drain();
        let order = s.completion_order();
        // ...so it shares the top wave and, being older, completes first.
        assert_eq!(order, vec![old_low, fresh_high]);
    }

    #[test]
    fn reject_policy_refuses_over_capacity() {
        let s = sched(SchedulerOptions {
            start_paused: true,
            queue_capacity: 2,
            policy: BackpressurePolicy::Reject,
            ..SchedulerOptions::default()
        });
        s.submit(req(1, Priority::Normal)).unwrap();
        s.submit(req(2, Priority::Normal)).unwrap();
        let err = s.submit(req(3, Priority::Normal)).unwrap_err();
        assert_eq!(err, SubmitError::QueueFull { capacity: 2 });
        let report = s.drain();
        assert_eq!(report.outcomes.len(), 2);
        assert_eq!(report.queue.unwrap().rejected, 1);
    }

    #[test]
    fn shed_policy_evicts_lowest_priority() {
        let s = sched(SchedulerOptions {
            start_paused: true,
            queue_capacity: 2,
            aging_step: None,
            policy: BackpressurePolicy::ShedLowestPriority,
            ..SchedulerOptions::default()
        });
        let low = s.submit(req(1, Priority::Low)).unwrap();
        let norm = s.submit(req(2, Priority::Normal)).unwrap();
        // High evicts the queued Low.
        let high = s.submit(req(3, Priority::High)).unwrap();
        assert!(matches!(s.poll(low), RequestStatus::Shed));
        // A second Low is itself the least important: shed on arrival.
        let late_low = s.submit(req(4, Priority::Low)).unwrap();
        assert!(matches!(s.poll(late_low), RequestStatus::Shed));
        let report = s.drain();
        assert_eq!(report.outcomes.len(), 2);
        let q = report.queue.unwrap();
        assert_eq!(q.shed, 2);
        assert_eq!(q.submitted, 4);
        assert!(matches!(s.poll(norm), RequestStatus::Done(_)));
        assert!(matches!(s.poll(high), RequestStatus::Done(_)));
    }

    #[test]
    fn expired_deadlines_complete_without_executing() {
        let s = sched(SchedulerOptions {
            start_paused: true,
            ..SchedulerOptions::default()
        });
        let doomed = s
            .submit(req(1, Priority::Normal).with_deadline(crate::Deadline::within(Duration::ZERO)))
            .unwrap();
        let live = s.submit(req(2, Priority::Normal)).unwrap();
        let report = s.drain();
        assert!(matches!(s.poll(doomed), RequestStatus::Expired));
        assert!(matches!(s.poll(live), RequestStatus::Done(_)));
        assert_eq!(report.outcomes.len(), 1);
        assert_eq!(report.queue.unwrap().expired, 1);
        assert!(report.rates_are_finite());
    }

    #[test]
    fn deadlines_lapsing_together_expire_oldest_first() {
        // The deadline index is ordered by deadline, not by ticket: requests
        // whose deadlines lapse before the same sweep still leave the queue
        // in submission order.
        let s = sched(SchedulerOptions {
            start_paused: true,
            ..SchedulerOptions::default()
        });
        let now = Instant::now();
        let tickets: Vec<Ticket> = [60, 20, 40]
            .into_iter()
            .enumerate()
            .map(|(i, ms)| {
                let deadline = crate::Deadline::at(now + Duration::from_millis(ms));
                s.submit(req(i as u64, Priority::Normal).with_deadline(deadline))
                    .unwrap()
            })
            .collect();
        std::thread::sleep(Duration::from_millis(100));
        let report = s.drain();
        assert_eq!(report.queue.unwrap().expired, 3);
        assert_eq!(s.completion_order(), tickets);
    }

    #[test]
    fn wait_histogram_counts_exactly_the_dispatched_tickets() {
        let s = sched(SchedulerOptions {
            start_paused: true,
            ..SchedulerOptions::default()
        });
        for i in 0..5 {
            s.submit(req(i, Priority::Normal)).unwrap();
        }
        // One doomed request: expired tickets never dispatch, so they must
        // not appear in the wait histogram.
        s.submit(req(9, Priority::Normal).with_deadline(crate::Deadline::within(Duration::ZERO)))
            .unwrap();
        let report = s.drain();
        let q = report.queue.unwrap();
        assert_eq!(q.completed, 5);
        assert_eq!(q.expired, 1);
        assert_eq!(q.wait_hist.count(), 5, "one bucket entry per dispatch");
        assert!(report.render().contains("queue wait histogram:"));
    }

    #[test]
    fn try_submit_never_blocks_and_never_sheds() {
        let s = sched(SchedulerOptions {
            start_paused: true,
            queue_capacity: 2,
            policy: BackpressurePolicy::Block,
            ..SchedulerOptions::default()
        });
        let a = s.try_submit(req(1, Priority::Normal)).unwrap();
        s.try_submit(req(2, Priority::High)).unwrap();
        // Full queue: an immediate refusal, even under the Block policy,
        // and no shed/reject counters move.
        let err = s.try_submit(req(3, Priority::High)).unwrap_err();
        assert_eq!(err, SubmitError::QueueFull { capacity: 2 });
        let stats = s.queue_stats();
        assert_eq!(stats.rejected, 0, "capacity probe is not a policy reject");
        assert_eq!(stats.shed, 0, "and never sheds queued work");
        // Freeing a slot makes the next probe succeed.
        assert!(s.cancel(a));
        s.try_submit(req(4, Priority::Normal)).unwrap();
        let report = s.drain();
        assert_eq!(report.outcomes.len(), 2);
    }

    #[test]
    fn cancel_removes_queued_tickets_without_executing() {
        let s = sched(SchedulerOptions {
            start_paused: true,
            ..SchedulerOptions::default()
        });
        let doomed = s.submit(req(1, Priority::Normal)).unwrap();
        let live = s.submit(req(2, Priority::Normal)).unwrap();
        assert!(s.cancel(doomed), "queued ticket must cancel");
        assert!(matches!(s.poll(doomed), RequestStatus::Cancelled));
        assert!(!s.cancel(doomed), "cancel is not idempotent-true");
        assert_eq!(s.queue_depth(), 1);
        let report = s.drain();
        assert_eq!(report.outcomes.len(), 1, "cancelled request never ran");
        assert_eq!(report.outcomes[0].id, 2);
        let q = report.queue.unwrap();
        assert_eq!(q.cancelled, 1);
        assert_eq!(q.completed, 1);
        assert!(report.rates_are_finite());
        assert!(report.render().contains("1 cancelled"));
        assert!(matches!(s.poll(live), RequestStatus::Done(_)));
    }

    /// A plan whose only request left the queue without running still
    /// gets its scenario label: `leave_queue` labels the profile its queue
    /// span folds into.
    #[test]
    fn a_plan_whose_requests_only_left_the_queue_is_labelled() {
        let s = sched(SchedulerOptions {
            start_paused: true,
            ..SchedulerOptions::default()
        });
        let req = StencilRequest::new_2d(1, StencilKernel::jacobi_2d(), 64, 64);
        let scenario = req.scenario();
        let ticket = s.submit(req).unwrap();
        std::thread::sleep(Duration::from_millis(1));
        assert!(s.cancel(ticket));
        let profiler = s.runtime().telemetry().profiler();
        let profiles = profiler.top(8);
        assert_eq!(profiles.len(), 1);
        assert_eq!(profiles[0].label, scenario);
        assert!(profiles[0].stats.queue_s > 0.0);
        let table = spider_telemetry::render_top_profiles(&profiles);
        assert!(table.contains(&scenario), "{table}");
        let folded = profiler.folded();
        assert!(
            folded.starts_with(&format!("{scenario};queue ")),
            "{folded}"
        );
    }

    #[test]
    fn cancel_refuses_terminal_and_unknown_tickets() {
        let s = sched(SchedulerOptions::default());
        let t = s.submit(req(1, Priority::Normal)).unwrap();
        s.drain();
        assert!(matches!(s.poll(t), RequestStatus::Done(_)));
        assert!(!s.cancel(t), "completed work must not be cancellable");
        assert!(matches!(s.poll(t), RequestStatus::Done(_)));
        assert!(!s.cancel(Ticket { seq: 999 }));
        assert_eq!(s.queue_stats().cancelled, 0);
    }

    #[test]
    fn cancel_frees_capacity_for_blocked_submitters() {
        let s = Arc::new(sched(SchedulerOptions {
            start_paused: true,
            queue_capacity: 1,
            policy: BackpressurePolicy::Block,
            ..SchedulerOptions::default()
        }));
        let first = s.submit(req(1, Priority::Normal)).unwrap();
        let s2 = Arc::clone(&s);
        let handle = std::thread::spawn(move || s2.submit(req(2, Priority::Normal)).unwrap());
        std::thread::sleep(Duration::from_millis(50));
        assert!(
            s.cancel(first),
            "queued ticket cancels, waking the submitter"
        );
        let second = handle.join().expect("blocked submitter completed");
        let report = s.drain();
        assert_eq!(report.outcomes.len(), 1);
        assert!(matches!(s.poll(second), RequestStatus::Done(_)));
        assert_eq!(report.queue.unwrap().cancelled, 1);
    }

    #[test]
    fn drain_is_idempotent() {
        let s = sched(SchedulerOptions::default());
        for i in 0..4 {
            s.submit(req(i, Priority::Normal)).unwrap();
        }
        let a = s.drain();
        let b = s.drain();
        assert_eq!(a.outcomes.len(), 4);
        assert_eq!(b.outcomes.len(), 4);
        assert_eq!(a.queue.unwrap(), b.queue.unwrap());
    }

    #[test]
    fn blocked_submitter_wakes_when_expiry_frees_capacity() {
        // Regression: a submitter parked under the Block policy must be
        // woken when *another submitter's* lazy expiry sweep frees slots —
        // the queue never drains otherwise while the scheduler is paused.
        let s = Arc::new(sched(SchedulerOptions {
            start_paused: true,
            queue_capacity: 2,
            policy: BackpressurePolicy::Block,
            ..SchedulerOptions::default()
        }));
        let doom = crate::Deadline::within(Duration::from_millis(50));
        s.submit(req(1, Priority::Normal).with_deadline(doom))
            .unwrap();
        s.submit(req(2, Priority::Normal).with_deadline(doom))
            .unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let s2 = Arc::clone(&s);
        std::thread::spawn(move || {
            // Queue is full and both deadlines are still live: this blocks.
            let t = s2.submit(req(3, Priority::Normal)).unwrap();
            tx.send(t).unwrap();
        });
        std::thread::sleep(Duration::from_millis(100));
        // Both queued deadlines have lapsed; this submit's expiry sweep
        // frees two slots — one for itself, one for the parked thread.
        s.submit(req(4, Priority::Normal)).unwrap();
        let blocked_ticket = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("blocked submitter must be woken by the expiry sweep");
        let report = s.drain();
        assert_eq!(report.queue.unwrap().expired, 2);
        assert_eq!(report.outcomes.len(), 2);
        assert!(matches!(s.poll(blocked_ticket), RequestStatus::Done(_)));
    }

    #[test]
    fn block_policy_unblocks_when_space_frees() {
        let s = Arc::new(sched(SchedulerOptions {
            queue_capacity: 1,
            policy: BackpressurePolicy::Block,
            ..SchedulerOptions::default()
        }));
        // Saturate, then submit from another thread; the dispatcher draining
        // the queue must unblock it.
        s.submit(req(1, Priority::Normal)).unwrap();
        let s2 = Arc::clone(&s);
        let handle = std::thread::spawn(move || s2.submit(req(2, Priority::Normal)).unwrap());
        handle.join().expect("blocked submitter completed");
        let report = s.drain();
        assert_eq!(report.outcomes.len(), 2);
    }

    #[test]
    fn drr_serves_work_proportional_to_weight() {
        // Saturate a paused queue with equal-cost requests from a weight-10
        // and a weight-1 tenant, then check the first dispatch wave: DRR
        // with quantum = max cohort cost places exactly `weight` requests
        // per tenant when all costs are equal.
        let s = sched(
            SchedulerOptions {
                start_paused: true,
                aging_step: None,
                ..SchedulerOptions::default()
            }
            .with_tenant(1u64, TenantConfig::weighted(10))
            .with_tenant(2u64, TenantConfig::weighted(1)),
        );
        let heavy: Vec<Ticket> = (0..20)
            .map(|i| {
                s.submit(req(i, Priority::Normal).with_tenant(1u64))
                    .unwrap()
            })
            .collect();
        let light: Vec<Ticket> = (0..5)
            .map(|i| {
                s.submit(req(100 + i, Priority::Normal).with_tenant(2u64))
                    .unwrap()
            })
            .collect();
        s.drain();
        let order = s.completion_order();
        let first_wave = &order[..11];
        let heavy_in_first = first_wave.iter().filter(|t| heavy.contains(t)).count();
        let light_in_first = first_wave.iter().filter(|t| light.contains(t)).count();
        assert_eq!(
            (heavy_in_first, light_in_first),
            (10, 1),
            "one DRR round: 10 heavy-tenant requests per 1 light-tenant request"
        );
        // Everyone is eventually served — fairness shapes order, not outcome.
        assert_eq!(order.len(), 25);
        let report = s.drain();
        assert_eq!(report.queue.unwrap().completed, 25);
        // Equal-cost requests: served cost splits 20:5 across the tenants.
        let t1 = report.tenant_queue(TenantId::new(1)).unwrap();
        let t2 = report.tenant_queue(TenantId::new(2)).unwrap();
        assert_eq!(t1.completed, 20);
        assert_eq!(t2.completed, 5);
        assert_eq!(t1.served_cost, 4 * t2.served_cost);
    }

    #[test]
    fn admission_quota_refuses_not_blocks() {
        let s = sched(
            SchedulerOptions {
                start_paused: true,
                ..SchedulerOptions::default()
            }
            .with_tenant(7u64, TenantConfig::default().with_admission_quota(2)),
        );
        s.submit(req(1, Priority::Normal).with_tenant(7u64))
            .unwrap();
        s.submit(req(2, Priority::Normal).with_tenant(7u64))
            .unwrap();
        // Over quota: refused immediately even under the Block policy.
        let err = s
            .submit(req(3, Priority::Normal).with_tenant(7u64))
            .unwrap_err();
        assert_eq!(
            err,
            SubmitError::QuotaExceeded {
                tenant: TenantId::new(7),
                quota: 2
            }
        );
        assert!(err.to_string().contains("tenant-7"));
        // try_submit enforces the same quota.
        let err = s
            .try_submit(req(4, Priority::Normal).with_tenant(7u64))
            .unwrap_err();
        assert!(matches!(err, SubmitError::QuotaExceeded { .. }));
        // Other tenants are unaffected by the noisy one's quota.
        s.submit(req(5, Priority::Normal)).unwrap();
        let report = s.drain();
        assert_eq!(report.outcomes.len(), 3);
        let q = report.queue.unwrap();
        assert_eq!(q.rejected, 2);
        let noisy = report.tenant_queue(TenantId::new(7)).unwrap();
        assert_eq!(noisy.rejected, 2);
        assert_eq!(noisy.completed, 2);
        // Dispatch drains the queued count: quota capacity is about queue
        // occupancy, not lifetime submissions.
        s.submit(req(6, Priority::Normal).with_tenant(7u64))
            .unwrap();
        s.drain();
    }

    #[test]
    fn tenant_rows_sum_to_global_counters() {
        // Mix every terminal path across two tenants plus anonymous
        // traffic: each event lands in its tenant's row, and the global
        // row is the fold of the rows.
        let s = sched(
            SchedulerOptions {
                start_paused: true,
                aging_step: None,
                ..SchedulerOptions::default()
            }
            .with_tenant(1u64, TenantConfig::weighted(2))
            .with_tenant(2u64, TenantConfig::weighted(1)),
        );
        s.submit(req(1, Priority::Normal).with_tenant(1u64))
            .unwrap();
        s.submit(req(2, Priority::Normal).with_tenant(2u64))
            .unwrap();
        s.submit(req(3, Priority::Normal)).unwrap(); // anonymous
        let doomed = s
            .submit(
                req(4, Priority::Normal)
                    .with_tenant(1u64)
                    .with_deadline(crate::Deadline::within(Duration::ZERO)),
            )
            .unwrap();
        let cancelled = s
            .submit(req(5, Priority::Normal).with_tenant(2u64))
            .unwrap();
        assert!(s.cancel(cancelled));
        let report = s.drain();
        assert!(matches!(s.poll(doomed), RequestStatus::Expired));
        assert_eq!(report.tenants.len(), 3, "two tenants + anonymous");
        let anon = report.tenant_queue(TenantId::ANONYMOUS).unwrap();
        assert_eq!(anon.submitted, 1);
        assert_eq!(anon.completed, 1);
        let t1 = report.tenant_queue(TenantId::new(1)).unwrap();
        assert_eq!((t1.submitted, t1.completed, t1.expired), (2, 1, 1));
        let t2 = report.tenant_queue(TenantId::new(2)).unwrap();
        assert_eq!((t2.submitted, t2.completed, t2.cancelled), (2, 1, 1));
        let q = report.queue.unwrap();
        assert_eq!(
            (q.submitted, q.completed, q.expired, q.cancelled),
            (5, 3, 1, 1)
        );
        assert_eq!(q.wait_hist.count(), 3, "one wait per dispatch, all rows");
        assert!(report.render().contains("tenant tenant-1"));
        assert!(report.rates_are_finite());
    }

    #[test]
    fn exports_are_live_between_drains() {
        let s = sched(SchedulerOptions {
            start_paused: true,
            ..SchedulerOptions::default()
        });
        let kernels = [
            StencilKernel::heat_2d(0.12),
            StencilKernel::gaussian_2d(2),
            StencilKernel::jacobi_2d(),
        ];
        let tickets: Vec<Ticket> = (0..6u64)
            .map(|i| {
                let k = kernels[i as usize % kernels.len()].clone();
                s.submit(StencilRequest::new_2d(i, k, 48, 64).with_seed(i))
                    .unwrap()
            })
            .collect();
        s.resume();
        let start = Instant::now();
        while !tickets.iter().all(|&t| s.peek(t).is_terminal()) {
            assert!(start.elapsed() < Duration::from_secs(30), "wave stalled");
            std::thread::sleep(Duration::from_millis(1));
        }
        // No drain: the export reads the stats structs as they are now.
        let snap = s.metrics_snapshot();
        let q = s.queue_stats();
        assert_eq!(q.completed, 6);
        assert_eq!(snap.counter_value("spider_scheduler_completed_total"), 6);
        let cache = s.runtime().cache_stats();
        assert_eq!(cache.hits, 3, "one miss per kernel");
        assert_eq!(snap.counter_value("spider_plan_cache_hits_total"), 3);
        let wait = snap
            .histogram_value("spider_scheduler_wait_us")
            .expect("folded wait histogram");
        assert_eq!(wait.count(), 6);
    }

    #[test]
    fn metrics_snapshot_exports_a_fixed_vocabulary() {
        // Tenants never name a metric: per-tenant rows export only through
        // `tenant_prometheus_text`, as labels.
        let s = sched(SchedulerOptions::default().with_tenant(1u64, TenantConfig::weighted(3)));
        s.submit(req(1, Priority::Normal).with_tenant(1u64))
            .unwrap();
        s.submit(req(2, Priority::Normal)).unwrap();
        s.drain();
        let snap = s.metrics_snapshot();
        let names: Vec<&str> = snap.values.keys().map(String::as_str).collect();
        assert_eq!(
            names,
            [
                "spider_plan_cache_evictions_total",
                "spider_plan_cache_hits_total",
                "spider_plan_cache_insertions_total",
                "spider_plan_cache_misses_total",
                "spider_pool_hits_total",
                "spider_pool_misses_total",
                "spider_runtime_cached_plans",
                "spider_runtime_plan_compiles_total",
                "spider_runtime_requests_completed_total",
                "spider_runtime_requests_failed_total",
                "spider_runtime_service_time_us",
                "spider_runtime_sim_exec_us",
                "spider_runtime_volumetric_completed_total",
                "spider_scheduler_cancelled_total",
                "spider_scheduler_coalesced_groups_total",
                "spider_scheduler_completed_total",
                "spider_scheduler_dispatch_waves_total",
                "spider_scheduler_expired_total",
                "spider_scheduler_failed_total",
                "spider_scheduler_max_depth",
                "spider_scheduler_rejected_total",
                "spider_scheduler_served_cost_total",
                "spider_scheduler_shed_total",
                "spider_scheduler_submitted_total",
                "spider_scheduler_wait_us",
                "spider_scheduler_wave_jobs_total",
                "spider_telemetry_dropped_events_total",
                "spider_tuner_memo_entries",
            ]
        );
    }

    #[test]
    fn tenant_prometheus_text_labels_every_tenant() {
        let s = sched(SchedulerOptions::default().with_tenant(1u64, TenantConfig::weighted(3)));
        s.submit(req(1, Priority::Normal).with_tenant(1u64))
            .unwrap();
        s.submit(req(2, Priority::Normal)).unwrap();
        s.drain();
        let text = s.tenant_prometheus_text();
        assert!(text.contains(r#"tenant="tenant-1""#), "{text}");
        assert!(text.contains(r#"tenant="anonymous""#), "{text}");
        assert!(text.contains("spider_scheduler_submitted_total"));
        assert!(text.contains("spider_scheduler_served_cost_total"));
        assert!(text.contains("spider_scheduler_wait_us"));
    }

    #[test]
    fn tenants_share_compiled_plans() {
        // The plan key holds no tenant: a kernel one tenant compiled is a
        // cache hit for every other.
        let s = sched(
            SchedulerOptions::default()
                .with_tenant(1u64, TenantConfig::weighted(2))
                .with_tenant(2u64, TenantConfig::weighted(1)),
        );
        for tenant in [1u64, 2] {
            s.submit(req(tenant, Priority::Normal).with_tenant(tenant))
                .unwrap();
            s.drain();
        }
        let cache = s.runtime().cache_stats();
        assert_eq!((cache.misses, cache.hits), (1, 1), "{cache:?}");
        assert_eq!(s.runtime().cached_plans(), 1);
    }

    #[test]
    fn kill_cancels_queued_and_fails_running() {
        // Paused: everything stays queued, so a kill returns the whole
        // queue as unstarted (exactly-once requeue material) and loses
        // nothing in flight.
        let s = sched(SchedulerOptions {
            start_paused: true,
            ..SchedulerOptions::default()
        });
        let tickets: Vec<Ticket> = (0..4)
            .map(|i| s.submit(req(i, Priority::Normal)).unwrap())
            .collect();
        let kr = s.kill();
        assert_eq!(kr.unstarted.len(), 4);
        assert!(kr.lost.is_empty());
        // Requeue material pairs each ticket with its original request.
        for (i, (t, r)) in kr.unstarted.iter().enumerate() {
            assert_eq!(*t, tickets[i]);
            assert_eq!(r.id, i as u64);
        }
        for t in tickets {
            assert!(matches!(s.poll(t), RequestStatus::Cancelled));
        }
        // Dead schedulers refuse admissions and kill idempotently.
        assert!(matches!(
            s.submit(req(9, Priority::Normal)),
            Err(SubmitError::ShuttingDown)
        ));
        let again = s.kill();
        assert!(again.unstarted.is_empty() && again.lost.is_empty());
        // Drain on a corpse returns the (cancellation-only) report.
        let report = s.drain();
        assert!(report.outcomes.is_empty());
        assert_eq!(report.queue.unwrap().cancelled, 4);
    }

    #[test]
    fn kill_surfaces_in_flight_work_as_device_lost() {
        // Unpaused: let the dispatcher pick work up, then kill mid-flight.
        // Whatever had started must surface as Failed { DeviceLost }, never
        // as a silent disappearance.
        let s = sched(SchedulerOptions::default());
        let tickets: Vec<Ticket> = (0..6)
            .map(|i| s.submit(req(i, Priority::Normal)).unwrap())
            .collect();
        // Wait until at least one request is off the queue.
        while s.queue_depth() == 6 {
            std::thread::yield_now();
        }
        let kr = s.kill();
        for t in tickets {
            match s.poll(t) {
                RequestStatus::Done(_) | RequestStatus::Cancelled => {}
                RequestStatus::Failed {
                    reason: FailureReason::DeviceLost,
                } => {}
                other => panic!("unresolved ticket after kill: {other:?}"),
            }
        }
        for t in &kr.lost {
            assert!(matches!(
                s.poll(*t),
                RequestStatus::Failed {
                    reason: FailureReason::DeviceLost
                }
            ));
        }
    }

    /// A ticket killed while it runs has one verdict, and every instrument
    /// records that one, also after the wave it ran in has finished: its
    /// trace holds exactly one terminal event, of the kind `poll` returns,
    /// and the runtime's completion and failure counters and its profiler
    /// count what the scheduler counts. A second ticket, submitted while
    /// the first runs, is queued at the kill. Whether the kill still finds
    /// the first one running is a race, so a fresh scheduler tries again
    /// until it does; every attempt is checked.
    #[test]
    fn a_ticket_killed_mid_wave_is_recorded_once() {
        let big = |id: u64| {
            StencilRequest::new_2d(id, StencilKernel::gaussian_2d(2), 1024, 1024)
                .with_steps(4)
                .with_seed(id)
        };
        for attempt in 1.. {
            assert!(attempt <= 20, "no kill found its ticket running");
            let rt = Arc::new(SpiderRuntime::with_defaults(GpuDevice::a100()));
            let s = SpiderScheduler::new(Arc::clone(&rt), SchedulerOptions::default());
            let first = s.submit(big(1)).unwrap();
            let start = Instant::now();
            while !matches!(s.peek(first), RequestStatus::Running) {
                assert!(start.elapsed() < Duration::from_secs(30), "never ran");
                std::thread::yield_now();
            }
            let second = s.submit(big(2)).unwrap();
            let kr = s.kill();
            let verdicts = [first, second].map(|t| match s.poll(t) {
                RequestStatus::Done(_) => Terminal::Done,
                RequestStatus::Failed { .. } => Terminal::Failed,
                RequestStatus::Cancelled => Terminal::Cancelled,
                other => panic!("ticket {} unresolved after the kill: {other:?}", t.id()),
            });
            let q = s.queue_stats();
            // Dropping the scheduler joins its dispatcher, so the wave the
            // kill landed in has finished before anything is read.
            drop(s);
            let events = rt.telemetry().trace().snapshot();
            for (id, verdict) in [1, 2].into_iter().zip(verdicts) {
                let terminals: Vec<Terminal> = events
                    .iter()
                    .filter(|e| e.request_id == id)
                    .filter_map(|e| e.kind.terminal())
                    .collect();
                assert_eq!(terminals, [verdict], "request {id}, attempt {attempt}");
            }
            let snap = rt.metrics_snapshot();
            let profiled: u64 = rt
                .telemetry()
                .profiler()
                .snapshot()
                .iter()
                .map(|p| p.stats.requests)
                .sum();
            assert_eq!(
                [
                    snap.counter_value("spider_runtime_requests_completed_total"),
                    profiled,
                    snap.counter_value("spider_runtime_requests_failed_total"),
                ],
                [q.completed, q.completed, q.failed],
                "[completed, profiled, failed], attempt {attempt}"
            );
            if !kr.lost.is_empty() {
                return;
            }
        }
    }

    /// Two tenants, every way a ticket can end: done, failed execution,
    /// shed on arrival and as a victim, cancelled, expired, and killed
    /// while queued or running. Each tenant row counts exactly the
    /// tickets polling each verdict, and the kill reports exactly the
    /// tickets it failed. Which tickets were running at the kill is a race,
    /// so only the invariant is asserted, not the split.
    #[test]
    fn every_verdict_is_counted_once_in_its_tenants_row() {
        let s = sched(
            SchedulerOptions {
                start_paused: true,
                queue_capacity: 4,
                aging_step: None,
                policy: BackpressurePolicy::ShedLowestPriority,
                ..SchedulerOptions::default()
            }
            .with_tenant(1u64, TenantConfig::weighted(1))
            .with_tenant(2u64, TenantConfig::weighted(1)),
        );
        let mut tickets: Vec<(TenantId, Ticket)> = Vec::new();
        let mut submit = |r: StencilRequest, tenant: u64| {
            let t = s.submit(r.with_tenant(tenant)).unwrap();
            tickets.push((TenantId::new(tenant), t));
            t
        };
        let done = submit(req(1, Priority::Normal), 1);
        let one_d_on_2d = StencilRequest::new_2d(2, StencilKernel::wave_1d(2), 48, 64);
        let failed = submit(one_d_on_2d, 2);
        let cancelled = submit(req(3, Priority::Normal), 2);
        assert!(s.cancel(cancelled));
        let lapsing = crate::Deadline::within(Duration::ZERO);
        let expired = submit(req(4, Priority::Normal).with_deadline(lapsing), 1);
        // The expiry sweep of this submit retires `expired` first.
        let victim = submit(req(5, Priority::Low), 1);
        submit(req(6, Priority::Normal), 2);
        // Full: the High newcomer evicts the Low victim, and a Low
        // newcomer is the least important and is shed on arrival.
        submit(req(7, Priority::High), 2);
        let on_arrival = submit(req(8, Priority::Low), 1);
        s.drain();
        assert!(matches!(s.peek(done), RequestStatus::Done(_)));
        assert!(matches!(
            s.peek(failed),
            RequestStatus::Failed {
                reason: FailureReason::Execution(_)
            }
        ));
        assert!(matches!(s.peek(cancelled), RequestStatus::Cancelled));
        assert!(matches!(s.peek(expired), RequestStatus::Expired));
        assert!(matches!(s.peek(victim), RequestStatus::Shed));
        assert!(matches!(s.peek(on_arrival), RequestStatus::Shed));

        // Requests large enough that a kill can land mid-wave; each DRR
        // wave takes one per tenant. Those queued after the pause are
        // still queued at the kill.
        let big = |id: u64| StencilRequest::new_2d(id, StencilKernel::gaussian_2d(2), 384, 512);
        s.pause();
        for id in 10..14 {
            submit(big(id), 1 + id % 2);
        }
        s.resume();
        let start = Instant::now();
        while s.queue_depth() == 4 {
            assert!(start.elapsed() < Duration::from_secs(30), "no wave formed");
            std::thread::yield_now();
        }
        s.pause();
        let queued = [submit(big(14), 1), submit(big(15), 2)];
        let kr = s.kill();
        let unstarted: BTreeSet<Ticket> = kr.unstarted.iter().map(|&(t, _)| t).collect();
        assert!(queued.iter().all(|t| unstarted.contains(t)));

        let mut tally: BTreeMap<TenantId, [u64; 6]> = BTreeMap::new();
        let mut device_lost = BTreeSet::new();
        for &(tenant, t) in &tickets {
            let i = match s.peek(t) {
                RequestStatus::Done(_) => 0,
                RequestStatus::Failed { reason } => {
                    if reason == FailureReason::DeviceLost {
                        device_lost.insert(t);
                    }
                    1
                }
                RequestStatus::Shed => 2,
                RequestStatus::Expired => 3,
                RequestStatus::Cancelled => 4,
                other => panic!("ticket {} unresolved after the kill: {other:?}", t.id()),
            };
            let row = tally.entry(tenant).or_default();
            row[i] += 1;
            row[5] += 1;
        }
        let rows: BTreeMap<TenantId, [u64; 6]> = s
            .tenant_queue_stats()
            .into_iter()
            .map(|(tenant, q)| {
                let (done, failed) = (q.completed, q.failed);
                (
                    tenant,
                    [done, failed, q.shed, q.expired, q.cancelled, q.submitted],
                )
            })
            .collect();
        assert_eq!(
            tally, rows,
            "[completed, failed, shed, expired, cancelled, submitted]"
        );
        assert_eq!(
            kr.lost.iter().copied().collect::<BTreeSet<_>>(),
            device_lost
        );
        assert!(unstarted
            .iter()
            .all(|&t| matches!(s.peek(t), RequestStatus::Cancelled)));
    }

    #[test]
    fn retire_shuts_down_but_keeps_the_corpse_pollable() {
        let s = sched(SchedulerOptions::default());
        let t = s.submit(req(1, Priority::Normal)).unwrap();
        let report = s.drain();
        assert_eq!(report.outcomes.len(), 1);
        s.retire();
        assert!(matches!(
            s.submit(req(2, Priority::Normal)),
            Err(SubmitError::ShuttingDown)
        ));
        // History survives retirement.
        assert!(matches!(s.poll(t), RequestStatus::Done(_)));
        assert_eq!(s.drain().outcomes.len(), 1, "drain stays cumulative");
    }

    /// The nine `mixed_warm` scenarios (perfbench's workload): five 2D
    /// kernels, one 2¹⁸-point line and three volumes.
    fn mixed_warm(id: u64, seed: u64) -> Vec<StencilRequest> {
        use spider_stencil::dim3::Kernel3D;
        use spider_stencil::StencilShape;
        let planar = [
            (StencilKernel::heat_2d(0.12), 256, 256),
            (StencilKernel::gaussian_2d(2), 192, 256),
            (StencilKernel::random(StencilShape::box_2d(3), 31), 128, 160),
            (
                StencilKernel::random(StencilShape::star_2d(2), 32),
                256,
                192,
            ),
            (StencilKernel::jacobi_2d(), 96, 128),
        ]
        .map(|(k, rows, cols)| StencilRequest::new_2d(0, k, rows, cols));
        let volumes = [
            (Kernel3D::random_box(1, 41), 4, 64, 64),
            (Kernel3D::random_box(2, 42), 3, 48, 64),
            (Kernel3D::star_7point(-6.0, 1.0), 6, 64, 64),
        ]
        .map(|(k, planes, rows, cols)| StencilRequest::new_3d(0, k, planes, rows, cols));
        let line = StencilRequest::new_1d(0, StencilKernel::wave_1d(2), 1 << 18);
        planar
            .into_iter()
            .chain([line])
            .chain(volumes)
            .enumerate()
            .map(|(k, r)| {
                let id = id + k as u64;
                StencilRequest { id, ..r }.with_seed(seed + k as u64)
            })
            .collect()
    }

    /// The jobs a wave of plenty of work runs as on this host: one per
    /// core, at most one per group.
    fn fanned_jobs(groups: usize) -> u64 {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        cores.min(groups) as u64
    }

    /// The nine `mixed_warm` shapes twice, queued on a paused scheduler,
    /// run as one wave of one job per core, and every outcome equals the
    /// blocking `run_batch`'s: checksum, simulated time to the bit,
    /// counters and tiling.
    #[test]
    fn a_mixed_warm_wave_fans_out_and_matches_run_batch() {
        let s = sched(SchedulerOptions {
            start_paused: true,
            ..SchedulerOptions::default()
        });
        let reqs: Vec<StencilRequest> = [mixed_warm(0, 100), mixed_warm(9, 200)].concat();
        let tickets: Vec<Ticket> = reqs.iter().map(|r| s.submit(r.clone()).unwrap()).collect();
        s.drain();
        let q = s.queue_stats();
        assert_eq!((q.dispatch_waves, q.coalesced_groups), (1, 9));
        assert_eq!(q.wave_jobs, fanned_jobs(9), "one job per core");
        let snap = s.metrics_snapshot();
        assert_eq!(
            snap.counter_value("spider_scheduler_wave_jobs_total"),
            q.wave_jobs
        );
        let batch = sched(SchedulerOptions::default())
            .runtime()
            .run_batch(&reqs);
        assert!(batch.failures.is_empty());
        for (t, want) in tickets.iter().zip(&batch.outcomes) {
            let RequestStatus::Done(got) = s.poll(*t) else {
                panic!("request {} did not finish", want.id);
            };
            assert_eq!(got.id, want.id);
            assert_eq!(got.checksum, want.checksum, "request {}", want.id);
            assert_eq!(
                got.report.time_s().to_bits(),
                want.report.time_s().to_bits()
            );
            assert_eq!(got.report.counters, want.report.counters);
            assert_eq!(got.tiling, want.tiling);
            assert_eq!(got.coalesced, want.coalesced);
        }
    }

    /// `tenant_burst`'s 16×16 requests never pay for waking a core: a wave
    /// of 32 of them over four plans runs as one job.
    #[test]
    fn a_wave_of_tiny_requests_runs_as_one_job() {
        let s = sched(SchedulerOptions {
            start_paused: true,
            ..SchedulerOptions::default()
        });
        let kernels = [
            StencilKernel::heat_2d(0.12),
            StencilKernel::jacobi_2d(),
            StencilKernel::gaussian_2d(1),
            StencilKernel::gaussian_2d(2),
        ];
        for i in 0..32u64 {
            let k = kernels[i as usize % kernels.len()].clone();
            s.submit(StencilRequest::new_2d(i, k, 16, 16).with_seed(i))
                .unwrap();
        }
        const { assert!(32 * 256 < crate::runtime::MIN_WAVE_JOB_COST) };
        let report = s.drain();
        assert_eq!(report.outcomes.len(), 32);
        let q = report.queue.unwrap();
        assert_eq!((q.dispatch_waves, q.coalesced_groups), (1, 4));
        assert_eq!(q.wave_jobs, 1);
    }

    /// The members of each traced launch, in trace order. A group of one
    /// exec key launches once, so with one plan these are the wave sizes.
    fn launch_sizes(s: &SpiderScheduler) -> Vec<usize> {
        let trace = s.runtime().telemetry().trace();
        assert_eq!(trace.dropped_events(), 0);
        let members = |e: &spider_telemetry::Event| match e.kind {
            EventKind::Launch { members, .. } => Some(members),
            _ => None,
        };
        trace.snapshot().iter().filter_map(members).collect()
    }

    /// A tenant alone in the queue fills its wave up to one job's work:
    /// 300 16×16 requests of the weight-1 tenant go out as waves of 128,
    /// 128 and 44 (one weight's worth would be 300 waves of one), each one
    /// job. A request of the weight-4 tenant queued behind a backlog goes
    /// out in the next round, which two tenants share under plain DRR: 4
    /// and 1 quanta, so its wave holds it and the backlog's oldest request.
    #[test]
    fn a_lone_tenant_fills_its_wave_up_to_one_job() {
        const { assert!(128 * 256 == crate::runtime::MIN_WAVE_JOB_COST) };
        let tenants = || {
            sched(
                SchedulerOptions {
                    start_paused: true,
                    aging_step: None,
                    queue_capacity: 512,
                    ..SchedulerOptions::default()
                }
                .with_tenant(1u64, TenantConfig::weighted(4))
                .with_tenant(2u64, TenantConfig::weighted(1)),
            )
        };
        let tiny = |id: u64, tenant: u64| {
            StencilRequest::new_2d(id, StencilKernel::jacobi_2d(), 16, 16)
                .with_seed(id)
                .with_tenant(tenant)
        };

        let s = tenants();
        for id in 0..300 {
            s.submit(tiny(id, 2)).unwrap();
        }
        let q = s.drain().queue.unwrap();
        assert_eq!((q.completed, q.dispatch_waves, q.wave_jobs), (300, 3, 3));
        assert_eq!(launch_sizes(&s), [128, 128, 44]);

        let s = tenants();
        let backlog: Vec<Ticket> = (0..200).map(|id| s.submit(tiny(id, 2)).unwrap()).collect();
        let newcomer = s.submit(tiny(200, 1)).unwrap();
        let q = s.drain().queue.unwrap();
        assert_eq!((q.completed, q.dispatch_waves, q.wave_jobs), (201, 3, 3));
        assert_eq!(launch_sizes(&s), [2, 128, 71]);
        assert_eq!(s.completion_order()[..2], [backlog[0], newcomer]);
    }

    /// Every request grid comes from the runtime's one pool, and each job
    /// holds at most an input and a scratch grid: after a warm-up wave of
    /// the nine `mixed_warm` shapes twice, 500 more of them, at most nine
    /// in flight, add no allocation in their second half, and the pool
    /// ends with at most two free buffers per job.
    #[test]
    fn a_fanning_scheduler_recycles_every_grid_through_one_bounded_pool() {
        let s = sched(SchedulerOptions {
            start_paused: true,
            ..SchedulerOptions::default()
        });
        for r in [mixed_warm(0, 100), mixed_warm(9, 200)].concat() {
            s.submit(r).unwrap();
        }
        s.drain();
        let pool = s.runtime().pool();
        let shapes = mixed_warm(0, 0);
        let mut misses_halfway = 0;
        let mut window: VecDeque<Ticket> = VecDeque::new();
        for i in 0..500u64 {
            if i == 250 {
                misses_halfway = pool.stats().misses;
            }
            let shape = &shapes[(i % 9) as usize];
            let req = StencilRequest {
                id: 1000 + i,
                ..shape.clone()
            };
            window.push_back(s.submit(req.with_seed(1000 + i)).unwrap());
            while window.len() >= 9 {
                if !s.peek(window[0]).is_terminal() {
                    std::thread::sleep(Duration::from_micros(100));
                    continue;
                }
                window.pop_front();
            }
        }
        let report = s.drain();
        assert_eq!(report.outcomes.len(), 518);
        assert!(report.failures.is_empty());
        let (q, jobs) = (report.queue.unwrap(), fanned_jobs(9));
        assert!(
            q.wave_jobs >= q.dispatch_waves + jobs - 1,
            "the warm-up fanned out"
        );
        assert_eq!(pool.stats().misses, misses_halfway, "warm: no allocation");
        let free = pool.free_buffers();
        assert!(
            free <= 2 * jobs as usize,
            "{free} free buffers, {jobs} jobs"
        );
    }

    /// Every queue span of a wave starts when its request was queued: a
    /// member's wait is measured as it leaves the queue, right before its
    /// span's exit is stamped, not against one clock read taken before the
    /// wave's members are read.
    #[test]
    fn queue_spans_start_when_their_requests_were_queued() {
        // About ten events per request: the wave's fit the 4096-event ring.
        const WAVE: u64 = 64;
        const TOLERANCE_S: f64 = 50e-6;
        // The first request whose queue span starts off its `Queued` event.
        let attempt = || -> Result<(), String> {
            let s = sched(SchedulerOptions {
                start_paused: true,
                aging_step: None,
                ..SchedulerOptions::default()
            });
            for id in 0..WAVE {
                s.submit(req(id, Priority::Normal)).unwrap();
            }
            s.resume();
            s.drain();
            assert_eq!(s.queue_stats().dispatch_waves, 1, "one wave");
            let trace = s.runtime().telemetry().trace();
            assert_eq!(trace.dropped_events(), 0);
            for id in 0..WAVE {
                let events = trace.timeline(id);
                let queued = events
                    .iter()
                    .find(|e| matches!(e.kind, EventKind::Queued))
                    .map(|e| e.wall_s);
                let start = events.iter().find_map(|e| match e.kind {
                    EventKind::SpanExit {
                        phase: Phase::Queue,
                        elapsed_s,
                    } => Some(e.wall_s - elapsed_s),
                    _ => None,
                });
                let (Some(queued), Some(start)) = (queued, start) else {
                    panic!("request {id}: no queued event or queue span: {events:?}");
                };
                if (start - queued).abs() >= TOLERANCE_S {
                    return Err(format!(
                        "request {id}: queued at {queued:.6} s, its queue span starts at {start:.6} s"
                    ));
                }
            }
            Ok(())
        };
        // A thread preempted between a clock read and the stamp beside it
        // shifts one span by its stall; a shift that survives three fresh
        // schedulers is the code's.
        let mut last = Ok(());
        for _ in 0..3 {
            last = attempt();
            if last.is_ok() {
                break;
            }
        }
        if let Err(e) = last {
            panic!("{e}");
        }
    }

    /// Lifecycle position of an event in one request's stream.
    fn lifecycle_rank(kind: EventKind) -> u8 {
        match kind {
            EventKind::Admit => 0,
            EventKind::Queued => 1,
            EventKind::SpanExit { phase, .. } => match phase {
                Phase::Queue => 2,
                Phase::Resolve => 3,
                Phase::Tune => 5,
                Phase::Exec => 8,
            },
            EventKind::PlanResolve { .. } => 4,
            EventKind::Tune { .. } => 6,
            EventKind::Launch { .. } => 7,
            EventKind::Execute { .. } => 9,
            EventKind::Complete { .. } => 10,
        }
    }

    /// A group's events reach the ring in one batch, yet no verdict can be
    /// polled before its `Complete` event: while the dispatcher serves
    /// bursts of small requests, a polling thread renders each ticket's
    /// timeline at its first `Done` poll. Each request's events keep their
    /// lifecycle order and their stamps' order, and its spans nest inside
    /// its lifetime (the telemetry property tests' 1 µs tolerance).
    #[test]
    fn a_first_done_poll_finds_the_complete_event_in_the_ring() {
        const REQUESTS: u64 = 400;
        const TOL_S: f64 = 1e-6;
        // Up to 11 events a request (one-request groups): none dropped.
        let telemetry = spider_telemetry::TelemetryConfig {
            trace_capacity: 1 << 14,
            ..Default::default()
        };
        let rt = SpiderRuntime::new(
            GpuDevice::a100(),
            RuntimeOptions {
                telemetry,
                ..RuntimeOptions::default()
            },
        );
        let s = Arc::new(SpiderScheduler::new(
            Arc::new(rt),
            SchedulerOptions::default(),
        ));
        let (tx, rx) = std::sync::mpsc::channel::<Ticket>();
        let poller = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                let (mut pending, mut done) = (Vec::new(), 0);
                while done < REQUESTS {
                    pending.extend(rx.try_iter());
                    pending.retain(|&t| match s.poll(t) {
                        RequestStatus::Done(_) => {
                            let timeline = s.timeline(t).expect("telemetry is on");
                            assert!(timeline.contains("complete: done"), "{timeline}");
                            done += 1;
                            false
                        }
                        RequestStatus::Queued { .. } | RequestStatus::Running => true,
                        other => panic!("{t:?}: {other:?}"),
                    });
                    std::thread::yield_now();
                }
            })
        };
        let kernels = [
            StencilKernel::heat_2d(0.12),
            StencilKernel::jacobi_2d(),
            StencilKernel::gaussian_2d(1),
            StencilKernel::random(spider_stencil::StencilShape::box_2d(1), 9),
        ];
        for id in 0..REQUESTS {
            let kernel = kernels[id as usize % kernels.len()].clone();
            let r = StencilRequest::new_2d(id, kernel, 16, 16).with_seed(id);
            tx.send(s.submit(r).unwrap()).unwrap();
            std::thread::yield_now();
        }
        poller
            .join()
            .expect("every first Done poll found its Complete event");
        s.drain();
        let trace = s.runtime().telemetry().trace();
        assert_eq!(trace.dropped_events(), 0);
        for id in 0..REQUESTS {
            let events = trace.timeline(id);
            for pair in events.windows(2) {
                let (a, b) = (&pair[0], &pair[1]);
                assert!(
                    lifecycle_rank(a.kind) < lifecycle_rank(b.kind) && a.wall_s <= b.wall_s,
                    "request {id}: {a:?} before {b:?}"
                );
            }
            let (first, terminal) = (events[0].wall_s, events[events.len() - 1].wall_s);
            assert!(events[events.len() - 1].kind.terminal().is_some());
            let spans: Vec<(f64, f64)> = events
                .iter()
                .filter_map(|e| match e.kind {
                    EventKind::SpanExit { elapsed_s, .. } => Some((e.wall_s - elapsed_s, e.wall_s)),
                    _ => None,
                })
                .collect();
            for (i, &(a0, a1)) in spans.iter().enumerate() {
                assert!(
                    a0 >= first - TOL_S && a1 <= terminal + TOL_S,
                    "request {id}"
                );
                for &(b0, b1) in &spans[i + 1..] {
                    let disjoint = a1 <= b0 + TOL_S || b1 <= a0 + TOL_S;
                    let nested = (a0 >= b0 - TOL_S && a1 <= b1 + TOL_S)
                        || (b0 >= a0 - TOL_S && b1 <= a1 + TOL_S);
                    assert!(disjoint || nested, "request {id}: spans partly overlap");
                }
            }
        }
    }

    #[test]
    fn device_draining_error_renders_the_device_name() {
        let e = SubmitError::DeviceDraining {
            device: "dev3".into(),
        };
        assert_eq!(e.to_string(), "device dev3 is draining out of the cluster");
    }
}

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
//!   [`StencilRequest::plan_key`], and executes the groups through
//!   [`SpiderRuntime::run_group`] — one plan resolution and one configured
//!   executor per exec-key subgroup (the `spider_core` coalesced entry
//!   points). Requests below the top priority never ride along: strict
//!   priority ordering wins over batching greed, and stragglers still hit
//!   the plan cache when their turn comes.
//!
//! ## Ordering guarantees
//!
//! Waves are serialized: every request of a higher effective priority
//! completes before any request of a lower one starts (aging aside). Within
//! a wave, groups fan out over the runtime's workers
//! ([`crate::RuntimeOptions::workers`]); with one worker, group completion
//! order is deterministic (cohort submission order) — the configuration
//! the property tests and the demo use. The dispatcher thread is always one
//! of a wave's workers and spawns scoped threads only for the others, so a
//! wave that resolves to one worker (one group, `workers: 1`, or
//! `workers: 0` on fewer than four cores) spawns no thread at all.
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
//! | `poll` of a queued ticket | O(its position) |
//! | `poll` of any other ticket | O(1) |
//!
//! The m selected requests are the whole top cohort without tenants and
//! one DRR round of it with them; all of them dispatch unless
//! `max_coalesce` holds some back for a later wave.

use spider_core::sync::{LockRank, OrderedMutex, OrderedMutexGuard};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use spider_telemetry::{EventKind, MetricsRegistry, Phase, Telemetry, Terminal};

use crate::report::{QueueStats, RequestOutcome, RuntimeReport};
use crate::request::{Priority, StencilRequest, TenantId};
use crate::runtime::SpiderRuntime;

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
/// the global [`BackpressurePolicy`]. The cache fields bound the tenant's
/// footprint in the runtime's [`crate::PlanCache`]: `cache_reserve` entries
/// are protected from eviction by *other* tenants, `cache_cap` forces the
/// tenant to evict its own least-recently-used plan once it owns that many.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantConfig {
    /// Weighted-fair share (≥ 1; 0 is treated as 1).
    pub weight: u64,
    /// Max queued (not yet dispatched) requests for this tenant; `None` =
    /// bounded only by the global queue capacity.
    pub admission_quota: Option<usize>,
    /// Plan-cache entries other tenants may never evict this tenant below.
    pub cache_reserve: usize,
    /// Plan-cache entries this tenant may own before it starts evicting its
    /// own LRU plan on insert; `None` = bounded only by the cache capacity.
    pub cache_cap: Option<usize>,
}

impl Default for TenantConfig {
    fn default() -> Self {
        Self {
            weight: 1,
            admission_quota: None,
            cache_reserve: 0,
            cache_cap: None,
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

    pub fn with_cache_reserve(mut self, reserve: usize) -> Self {
        self.cache_reserve = reserve;
        self
    }

    pub fn with_cache_cap(mut self, cap: usize) -> Self {
        self.cache_cap = Some(cap);
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
    /// Cap on requests coalesced into one plan-key group per wave
    /// (`0` = unlimited).
    pub max_coalesce: usize,
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
            max_coalesce: 0,
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
        /// Position in the queue (0 = oldest).
        position: usize,
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
    /// The ticket is not from this scheduler.
    Unknown,
}

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
/// every submission surface (scheduler and cluster) through the
/// [`Submit`] trait.
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
    /// vocabulary so `Submit`-generic callers can match it.
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

/// The unified submission surface: submit work, get an opaque ticket,
/// fail with a [`SubmitError`]. Implemented by [`SpiderScheduler`]
/// (single-device serving) and `spider_cluster::SpiderCluster` (routed
/// fleet serving), so traffic generators and demos can drive either
/// through one trait bound.
pub trait Submit {
    /// The opaque completion handle this surface hands back.
    type Ticket;

    /// Submit under the surface's configured backpressure policy (may
    /// block, shed or reject — see the implementor's docs).
    fn submit(&self, req: StencilRequest) -> Result<Self::Ticket, SubmitError>;

    /// Non-blocking capacity probe: admit the request only if there is room
    /// right now; never parks the caller and never sheds queued work.
    fn try_submit(&self, req: StencilRequest) -> Result<Self::Ticket, SubmitError>;
}

/// Internal per-ticket state (the non-public side of [`RequestStatus`]).
#[derive(Debug)]
enum Slot {
    Queued,
    Running,
    Done(Box<RequestOutcome>),
    Failed(FailureReason),
    Shed,
    Expired,
    Cancelled,
}

struct SlotEntry {
    /// The caller's request id, echoed into drain-report failures.
    req_id: u64,
    /// The request's plan key (trace events are keyed by it; a kill must
    /// trace terminal verdicts for requests whose `QueuedEntry` is gone).
    plan_key: u64,
    /// The submitting tenant — kill-time accounting must land the failure
    /// in the right tenant row long after dispatch consumed the queue entry.
    tenant: TenantId,
    /// The request's device-loss retry attempt at submission, so kill-time
    /// terminal events chain onto the right life of a retried request.
    attempt: u32,
    slot: Slot,
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

    /// Remove every request whose deadline has passed at `now`; returned
    /// in ticket order.
    fn take_lapsed(&mut self, now: Instant) -> Vec<(u64, QueuedEntry)> {
        let mut lapsed: Vec<u64> = self
            .deadlines
            .iter()
            .take_while(|(at, _)| *at <= now)
            .map(|&(_, ticket)| ticket)
            .collect();
        lapsed.sort_unstable();
        lapsed
            .into_iter()
            .filter_map(|ticket| Some((ticket, self.remove(ticket)?)))
            .collect()
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
    slots: HashMap<u64, SlotEntry>,
    next_ticket: u64,
    paused: bool,
    shutdown: bool,
    /// Set by [`SpiderScheduler::kill`]: the simulated device is gone.
    /// Workers returning from an in-flight wave must not overwrite the
    /// `Failed(DeviceLost)` verdicts the kill already recorded.
    killed: bool,
    /// Tickets dispatched and currently executing.
    running: usize,
    stats: QueueStats,
    /// Per-tenant mirrors of `stats` (anonymous traffic included): every
    /// counter bump lands in exactly one tenant's entry, so the per-tenant
    /// rows sum to the global row — `drain` asserts it.
    tenant_stats: BTreeMap<TenantId, QueueStats>,
    /// Deficit-round-robin credit per tenant, in cost units (grid points ×
    /// sweeps). Carried across waves; forfeited when the tenant's cohort
    /// queue empties (classic DRR).
    deficits: BTreeMap<TenantId, u64>,
    /// Tickets in the order they reached a terminal state.
    completion_order: Vec<u64>,
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
                    slots: HashMap::new(),
                    next_ticket: 0,
                    paused: options.start_paused,
                    shutdown: false,
                    killed: false,
                    running: 0,
                    stats: QueueStats::default(),
                    tenant_stats: BTreeMap::new(),
                    deficits: BTreeMap::new(),
                    completion_order: Vec::new(),
                    first_submit: None,
                    last_terminal: None,
                    beats: 0,
                },
            ),
            work: Condvar::new(),
            space: Condvar::new(),
            idle: Condvar::new(),
        });
        // Registered cache reserves/caps apply to the runtime's plan cache.
        for (tenant, config) in &options.tenants {
            runtime.configure_tenant_cache(*tenant, config.cache_reserve, config.cache_cap);
        }
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
        let t = Arc::clone(self.runtime.telemetry());
        let mut st = self.lock();
        loop {
            if st.shutdown {
                return Err(SubmitError::ShuttingDown);
            }
            // Lapsed deadlines free capacity before any backpressure call —
            // and must wake submitters blocked under the `Block` policy.
            if expire_due(&mut st, &t) > 0 {
                self.shared.space.notify_all();
                self.shared.idle.notify_all();
            }
            // Admission quotas outrank the backpressure policy: an
            // over-quota tenant is refused outright rather than allowed to
            // park against (or shed) everyone else's queue share.
            if let Some(quota) = self.options.quota_of(req.tenant) {
                let queued = st.queue.queued_of(req.tenant);
                if queued >= quota {
                    st.stats.rejected += 1;
                    st.tenant_stats_mut(req.tenant).rejected += 1;
                    return Err(SubmitError::QuotaExceeded {
                        tenant: req.tenant,
                        quota,
                    });
                }
            }
            if st.queue.len() < self.options.queue_capacity {
                break;
            }
            match self.options.policy {
                BackpressurePolicy::Block => {
                    st = st.wait_on(&self.shared.space);
                }
                BackpressurePolicy::Reject => {
                    st.stats.rejected += 1;
                    st.tenant_stats_mut(req.tenant).rejected += 1;
                    return Err(SubmitError::QueueFull {
                        capacity: self.options.queue_capacity,
                    });
                }
                BackpressurePolicy::ShedLowestPriority => {
                    let now = Instant::now();
                    let (victim, victim_level) = st
                        .queue
                        .victim(now, self.options.aging_step)
                        .expect("full queue has a victim"); // guard: branch is only taken when the queue is full
                    if req.priority.level() <= victim_level {
                        // The newcomer is the least important: shed on
                        // arrival, but still hand back a pollable ticket.
                        let plan_key = req.plan_key();
                        let ticket = alloc_ticket(&mut st, &req, plan_key);
                        st.stats.submitted += 1;
                        {
                            let ts = st.tenant_stats_mut(req.tenant);
                            ts.submitted += 1;
                            ts.shed += 1;
                        }
                        t.record_attempt(req.id, plan_key, req.attempt, EventKind::Admit, 0.0);
                        t.record_attempt(
                            req.id,
                            plan_key,
                            req.attempt,
                            EventKind::Complete {
                                terminal: Terminal::Shed,
                            },
                            0.0,
                        );
                        finish(&mut st, ticket, Slot::Shed);
                        st.stats.shed += 1;
                        self.shared.idle.notify_all();
                        return Ok(Ticket { seq: ticket });
                    }
                    let entry = st.queue.remove(victim).expect("the victim is queued"); // guard: victim() returns a queued ticket
                    let waited = now.saturating_duration_since(entry.submitted).as_secs_f64();
                    trace_queue_exit(&t, &entry.req, waited, Terminal::Shed);
                    finish(&mut st, victim, Slot::Shed);
                    st.stats.shed += 1;
                    st.tenant_stats_mut(entry.req.tenant).shed += 1;
                    self.shared.idle.notify_all();
                }
            }
        }
        let ticket = admit(&mut st, req, &t);
        self.shared.work.notify_one();
        Ok(Ticket { seq: ticket })
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
        let t = Arc::clone(self.runtime.telemetry());
        let mut st = self.lock();
        if st.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        if expire_due(&mut st, &t) > 0 {
            self.shared.space.notify_all();
            self.shared.idle.notify_all();
        }
        if let Some(quota) = self.options.quota_of(req.tenant) {
            let queued = st.queue.queued_of(req.tenant);
            if queued >= quota {
                st.stats.rejected += 1;
                st.tenant_stats_mut(req.tenant).rejected += 1;
                return Err(SubmitError::QuotaExceeded {
                    tenant: req.tenant,
                    quota,
                });
            }
        }
        if st.queue.len() >= self.options.queue_capacity {
            return Err(SubmitError::QueueFull {
                capacity: self.options.queue_capacity,
            });
        }
        let ticket = admit(&mut st, req, &t);
        self.shared.work.notify_one();
        Ok(Ticket { seq: ticket })
    }

    /// Current status of a ticket. Polling a queued ticket whose deadline
    /// has passed expires it on the spot (lazy expiry — the dispatcher would
    /// do the same at dispatch time).
    pub fn poll(&self, ticket: Ticket) -> RequestStatus {
        let t = Arc::clone(self.runtime.telemetry());
        let mut st = self.lock();
        if expire_due(&mut st, &t) > 0 {
            self.shared.space.notify_all();
            self.shared.idle.notify_all();
        }
        let Some(entry) = st.slots.get(&ticket.seq) else {
            return RequestStatus::Unknown;
        };
        match &entry.slot {
            Slot::Queued => {
                let entry = st
                    .queue
                    .entries
                    .get(&ticket.seq)
                    .expect("queued slot has a queue entry"); // guard: Queued status implies a live queue entry
                RequestStatus::Queued {
                    position: st.queue.entries.range(..ticket.seq).count(),
                    effective_priority: Priority::from_level(effective_level(
                        entry.req.priority.level(),
                        entry.submitted,
                        Instant::now(),
                        self.options.aging_step,
                    )),
                }
            }
            Slot::Running => RequestStatus::Running,
            Slot::Done(outcome) => RequestStatus::Done(outcome.clone()),
            Slot::Failed(reason) => RequestStatus::Failed {
                reason: reason.clone(),
            },
            Slot::Shed => RequestStatus::Shed,
            Slot::Expired => RequestStatus::Expired,
            Slot::Cancelled => RequestStatus::Cancelled,
        }
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
        let mut st = self.lock();
        // Only queued tickets are in the queue: running, terminal and
        // unknown ones fall through here.
        let Some(entry) = st.queue.remove(ticket.seq) else {
            return false;
        };
        let waited = entry.submitted.elapsed().as_secs_f64();
        trace_queue_exit(
            self.runtime.telemetry(),
            &entry.req,
            waited,
            Terminal::Cancelled,
        );
        finish(&mut st, ticket.seq, Slot::Cancelled);
        st.stats.cancelled += 1;
        st.tenant_stats_mut(entry.req.tenant).cancelled += 1;
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
    ///   immediately, and whatever result its worker thread later produces
    ///   is discarded — the device it "ran" on no longer exists.
    ///
    /// Idempotent: a second kill returns an empty report. [`Self::poll`]
    /// and [`Self::drain`] keep working against the corpse (drain returns
    /// at once — the queue is empty and nothing counts as running), so
    /// completed work remains reported and departed-device accounting
    /// stays exact.
    pub fn kill(&self) -> KillReport {
        let t = Arc::clone(self.runtime.telemetry());
        let mut st = self.lock();
        if st.killed {
            return KillReport::default();
        }
        st.killed = true;
        st.shutdown = true;
        let mut unstarted = Vec::new();
        for (ticket, entry) in std::mem::take(&mut st.queue).entries {
            let waited = entry.submitted.elapsed().as_secs_f64();
            trace_queue_exit(&t, &entry.req, waited, Terminal::Cancelled);
            finish(&mut st, ticket, Slot::Cancelled);
            st.stats.cancelled += 1;
            st.tenant_stats_mut(entry.req.tenant).cancelled += 1;
            unstarted.push((Ticket { seq: ticket }, entry.req));
        }
        let mut running: Vec<u64> = st
            .slots
            .iter()
            .filter(|(_, e)| matches!(e.slot, Slot::Running))
            .map(|(&seq, _)| seq)
            .collect();
        running.sort_unstable();
        let mut lost = Vec::new();
        for seq in running {
            let (req_id, plan_key, tenant, attempt) = {
                let e = st.slots.get(&seq).expect("known ticket"); // guard: running list was built from slots moments ago
                (e.req_id, e.plan_key, e.tenant, e.attempt)
            };
            t.record_attempt(
                req_id,
                plan_key,
                attempt,
                EventKind::Complete {
                    terminal: Terminal::Failed,
                },
                0.0,
            );
            finish(&mut st, seq, Slot::Failed(FailureReason::DeviceLost));
            st.stats.failed += 1;
            st.tenant_stats_mut(tenant).failed += 1;
            lost.push(Ticket { seq });
        }
        st.running = 0;
        drop(st);
        self.shared.work.notify_all();
        self.shared.space.notify_all();
        self.shared.idle.notify_all();
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
        let t = Arc::clone(self.runtime.telemetry());
        let mut st = self.lock();
        loop {
            if expire_due(&mut st, &t) > 0 {
                self.shared.space.notify_all();
            }
            if st.queue.is_empty() && st.running == 0 {
                break;
            }
            st = st.wait_on(&self.shared.idle);
        }
        let mut done: Vec<(u64, &SlotEntry)> =
            st.slots.iter().map(|(&seq, entry)| (seq, entry)).collect();
        done.sort_by_key(|(seq, _)| *seq);
        let mut outcomes = Vec::new();
        let mut failures = Vec::new();
        for (_, entry) in done {
            match &entry.slot {
                Slot::Done(o) => outcomes.push((**o).clone()),
                Slot::Failed(e) => failures.push((entry.req_id, e.to_string())),
                _ => {}
            }
        }
        let wall_s = match (st.first_submit, st.last_terminal) {
            (Some(a), Some(b)) => b.saturating_duration_since(a).as_secs_f64(),
            _ => 0.0,
        };
        let stats = st.stats;
        let tenants: Vec<(TenantId, QueueStats)> =
            st.tenant_stats.iter().map(|(&t, &q)| (t, q)).collect();
        drop(st);
        // Conservation check: every counter bump lands in exactly one
        // tenant row, so the per-tenant rows must sum to the global row.
        // A mismatch means a code path updated one side and not the other.
        if !tenants.is_empty() {
            let sum = |field: fn(&QueueStats) -> u64| -> u64 {
                tenants.iter().map(|(_, q)| field(q)).sum()
            };
            for (name, field, global) in [
                (
                    "submitted",
                    (|q| q.submitted) as fn(&QueueStats) -> u64,
                    stats.submitted,
                ),
                ("completed", |q| q.completed, stats.completed),
                ("failed", |q| q.failed, stats.failed),
                ("shed", |q| q.shed, stats.shed),
                ("expired", |q| q.expired, stats.expired),
                ("cancelled", |q| q.cancelled, stats.cancelled),
                ("rejected", |q| q.rejected, stats.rejected),
                ("served_cost", |q| q.served_cost, stats.served_cost),
            ] {
                assert_eq!(
                    sum(field),
                    global,
                    "per-tenant {name} counters must sum to the global counter"
                );
            }
        }
        self.sync_metrics(&stats, &tenants);
        RuntimeReport {
            outcomes,
            failures,
            wall_s,
            cache: self.runtime.cache_stats(),
            queue: Some(stats),
            tenants,
            profile: self.runtime.telemetry().profiler().top(8),
        }
    }

    /// Per-tenant snapshot of the cumulative queue counters, sorted by
    /// tenant id (anonymous traffic under [`TenantId::ANONYMOUS`]).
    pub fn tenant_queue_stats(&self) -> Vec<(TenantId, QueueStats)> {
        self.lock()
            .tenant_stats
            .iter()
            .map(|(&t, &q)| (t, q))
            .collect()
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
        for (tenant, stats) in self.tenant_queue_stats() {
            let m = MetricsRegistry::new();
            m.counter("spider_scheduler_submitted_total")
                .set(stats.submitted);
            m.counter("spider_scheduler_completed_total")
                .set(stats.completed);
            m.counter("spider_scheduler_failed_total").set(stats.failed);
            m.counter("spider_scheduler_shed_total").set(stats.shed);
            m.counter("spider_scheduler_expired_total")
                .set(stats.expired);
            m.counter("spider_scheduler_cancelled_total")
                .set(stats.cancelled);
            m.counter("spider_scheduler_rejected_total")
                .set(stats.rejected);
            m.counter("spider_scheduler_served_cost_total")
                .set(stats.served_cost);
            m.histogram("spider_scheduler_wait_us")
                .set(stats.wait_hist.hist);
            let label = tenant.label();
            out.push_str(&m.snapshot().prometheus_text(&[("tenant", &label)]));
        }
        out
    }

    /// Push the scheduler's cumulative [`QueueStats`] into the shared
    /// metrics registry as authoritative values (and sync the runtime's own
    /// counters), so an exported snapshot reconciles exactly with the drain
    /// report. Per-tenant wait histograms land as
    /// `spider_scheduler_tenant_{id}_wait_us` (anonymous traffic as
    /// `spider_scheduler_anonymous_wait_us`) — the series tenant SLO
    /// burn-rate monitors watch. No-op when telemetry is disabled.
    fn sync_metrics(&self, stats: &QueueStats, tenants: &[(TenantId, QueueStats)]) {
        let t = self.runtime.telemetry();
        if !t.enabled() {
            return;
        }
        self.runtime.sync_metrics();
        let m = t.metrics();
        m.counter("spider_scheduler_submitted_total")
            .set(stats.submitted);
        m.counter("spider_scheduler_completed_total")
            .set(stats.completed);
        m.counter("spider_scheduler_failed_total").set(stats.failed);
        m.counter("spider_scheduler_shed_total").set(stats.shed);
        m.counter("spider_scheduler_expired_total")
            .set(stats.expired);
        m.counter("spider_scheduler_cancelled_total")
            .set(stats.cancelled);
        m.counter("spider_scheduler_rejected_total")
            .set(stats.rejected);
        m.counter("spider_scheduler_dispatch_waves_total")
            .set(stats.dispatch_waves);
        m.counter("spider_scheduler_coalesced_groups_total")
            .set(stats.coalesced_groups);
        m.counter("spider_scheduler_served_cost_total")
            .set(stats.served_cost);
        m.gauge("spider_scheduler_max_depth")
            .set(stats.max_depth as f64);
        m.histogram("spider_scheduler_wait_us")
            .set(stats.wait_hist.hist);
        for (tenant, q) in tenants {
            let name = format!(
                "spider_scheduler_{}_wait_us",
                tenant.label().replace('-', "_")
            );
            m.histogram(&name).set(q.wait_hist.hist);
        }
    }

    /// Mid-run variant of the drain-time metric sync: push the *current*
    /// cumulative queue counters and wait histograms (global and
    /// per-tenant) into the registry without waiting for quiescence. The
    /// sampling hook a metric time-series / alert engine calls between
    /// waves — a registry that only reconciles at drain cannot feed
    /// while-serving monitors. No-op when telemetry is disabled.
    pub fn sync_metrics_now(&self) {
        let (stats, tenants) = {
            let st = self.lock();
            let tenants: Vec<(TenantId, QueueStats)> =
                st.tenant_stats.iter().map(|(&t, &q)| (t, q)).collect();
            (st.stats, tenants)
        };
        self.sync_metrics(&stats, &tenants);
    }

    /// Monotone progress beat: advances on every admission, dispatched
    /// wave, completed execution group and productive expiry sweep. The
    /// heartbeat a fleet health monitor samples — see
    /// `spider_telemetry::watch::HealthMonitor`.
    pub fn last_progress(&self) -> u64 {
        self.lock().beats
    }

    /// Whether admitted work is still outstanding (queued or running) —
    /// the *busy* flag for missed-beat gating: an idle scheduler owes no
    /// beats, a busy one whose beat stops advancing is stalled.
    pub fn has_outstanding(&self) -> bool {
        let st = self.lock();
        !st.queue.is_empty() || st.running > 0
    }

    /// Render the traced lifecycle of a submitted request — every event
    /// from admission to its terminal state, with relative wall-clock
    /// offsets and simulated-time annotations. Returns `None` for unknown
    /// tickets, when telemetry is disabled, or when the ring has already
    /// dropped the request's events.
    pub fn timeline(&self, ticket: Ticket) -> Option<String> {
        let req_id = {
            let st = self.lock();
            st.slots.get(&ticket.seq).map(|e| e.req_id)?
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

    /// Snapshot of the cumulative queue counters.
    pub fn queue_stats(&self) -> QueueStats {
        self.lock().stats
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

impl Submit for SpiderScheduler {
    type Ticket = Ticket;

    fn submit(&self, req: StencilRequest) -> Result<Ticket, SubmitError> {
        SpiderScheduler::submit(self, req)
    }

    fn try_submit(&self, req: StencilRequest) -> Result<Ticket, SubmitError> {
        SpiderScheduler::try_submit(self, req)
    }
}

impl Drop for SpiderScheduler {
    fn drop(&mut self) {
        self.lock().shutdown = true;
        self.shared.work.notify_all();
        self.shared.space.notify_all();
        self.shared.idle.notify_all();
        if let Some(handle) = self.dispatcher.take() {
            let _ = handle.join();
        }
    }
}

/// Admit a request into the queue (capacity already checked by the
/// caller): allocate its ticket, record the submission and enqueue. Traces
/// the request's admission and opens its queue span (closed at dispatch,
/// or implicitly abandoned by shed/expire/cancel — terminal events carry
/// the verdict either way).
fn admit(st: &mut State, req: StencilRequest, t: &Telemetry) -> u64 {
    let plan_key = req.plan_key();
    let ticket = alloc_ticket(st, &req, plan_key);
    let now = Instant::now();
    st.stats.submitted += 1;
    st.first_submit.get_or_insert(now);
    st.beats += 1;
    t.record_attempt(req.id, plan_key, req.attempt, EventKind::Admit, 0.0);
    t.record_attempt(req.id, plan_key, req.attempt, EventKind::Queued, 0.0);
    t.record_attempt(
        req.id,
        plan_key,
        req.attempt,
        EventKind::SpanEnter {
            phase: Phase::Queue,
        },
        0.0,
    );
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
    ts.submitted += 1;
    ts.max_depth = ts.max_depth.max(tenant_depth);
    st.stats.max_depth = st.stats.max_depth.max(st.queue.len());
    ticket
}

/// Trace a queued request leaving the queue without executing: close its
/// queue span and record the terminal verdict.
fn trace_queue_exit(t: &Telemetry, req: &StencilRequest, waited_s: f64, terminal: Terminal) {
    t.record_attempt(
        req.id,
        req.plan_key(),
        req.attempt,
        EventKind::SpanExit {
            phase: Phase::Queue,
            elapsed_s: waited_s,
        },
        0.0,
    );
    t.record_attempt(
        req.id,
        req.plan_key(),
        req.attempt,
        EventKind::Complete { terminal },
        0.0,
    );
}

/// Allocate a ticket and its slot for `req`, whose plan key is
/// `plan_key` (does not enqueue).
fn alloc_ticket(st: &mut State, req: &StencilRequest, plan_key: u64) -> u64 {
    let ticket = st.next_ticket;
    st.next_ticket += 1;
    st.slots.insert(
        ticket,
        SlotEntry {
            req_id: req.id,
            plan_key,
            tenant: req.tenant,
            attempt: req.attempt,
            slot: Slot::Queued,
        },
    );
    ticket
}

/// Move a ticket to a terminal slot and record the completion.
fn finish(st: &mut State, ticket: u64, slot: Slot) {
    debug_assert!(!matches!(slot, Slot::Queued | Slot::Running));
    st.slots.get_mut(&ticket).expect("known ticket").slot = slot; // guard: finish() is called with tickets from slots
    st.completion_order.push(ticket);
    st.last_terminal = Some(Instant::now());
}

/// Expire every queued request whose deadline has passed, oldest first.
/// Returns how many were expired (callers notify `space`/`idle` when > 0).
fn expire_due(st: &mut State, t: &Telemetry) -> usize {
    let now = Instant::now();
    let lapsed = st.queue.take_lapsed(now);
    for (ticket, entry) in &lapsed {
        let waited = now.saturating_duration_since(entry.submitted).as_secs_f64();
        trace_queue_exit(t, &entry.req, waited, Terminal::Expired);
        finish(st, *ticket, Slot::Expired);
        st.stats.expired += 1;
        st.tenant_stats_mut(entry.req.tenant).expired += 1;
    }
    if !lapsed.is_empty() {
        // Retiring due work is progress too — lazy expiry driven by a poll
        // or submit must keep the heartbeat advancing.
        st.beats += 1;
    }
    lapsed.len()
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
fn drr_cost(req: &StencilRequest) -> u64 {
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
    let mut selected = Vec::new();
    // Lanes are keyed (tenant, level), so a tenant's lanes are adjacent.
    for lanes in cohort.chunk_by(|a, b| a.0 == b.0) {
        let tenant = lanes[0].0;
        let refill = options.weight_of(tenant).saturating_mul(quantum);
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
/// (oldest group first) under the coalescing cap, leave the queue as
/// `Running`; members over the cap stay queued for a later wave.
fn form_wave(st: &mut State, options: &SchedulerOptions, telemetry: &Telemetry) -> Vec<WaveGroup> {
    let now = Instant::now();
    let mut wave: Vec<WaveGroup> = Vec::new();
    let mut group_of: HashMap<u64, usize> = HashMap::new();
    for ticket in wave_members(st, options, now) {
        let key = st.slots[&ticket].plan_key;
        let g = match group_of.get(&key) {
            Some(&g)
                if options.max_coalesce != 0 && wave[g].tickets.len() >= options.max_coalesce =>
            {
                continue;
            }
            Some(&g) => g,
            None => {
                group_of.insert(key, wave.len());
                wave.push(WaveGroup::default());
                wave.len() - 1
            }
        };
        let entry = st.queue.remove(ticket).expect("wave members are queued"); // guard: members were read from the queue under this lock
        let wait = now.saturating_duration_since(entry.submitted).as_secs_f64();
        let cost = drr_cost(&entry.req);
        st.stats.total_wait_s += wait;
        st.stats.max_wait_s = st.stats.max_wait_s.max(wait);
        st.stats.wait_hist.record(wait);
        st.stats.served_cost += cost;
        {
            let ts = st.tenant_stats_mut(entry.req.tenant);
            ts.total_wait_s += wait;
            ts.max_wait_s = ts.max_wait_s.max(wait);
            ts.wait_hist.record(wait);
            ts.served_cost += cost;
        }
        // Close the queue span opened at admission and fold the wait into
        // the plan's queue-phase accumulator.
        telemetry.record_attempt(
            entry.req.id,
            key,
            entry.req.attempt,
            EventKind::SpanExit {
                phase: Phase::Queue,
                elapsed_s: wait,
            },
            0.0,
        );
        if telemetry.enabled() {
            telemetry.profiler().touch(key, &entry.req.scenario());
            telemetry.profiler().add_phase(key, Phase::Queue, wait);
        }
        st.slots.get_mut(&ticket).expect("known ticket").slot = Slot::Running; // guard: queued tickets have slots
        wave[g].tickets.push(ticket);
        wave[g].requests.push(entry.req);
    }
    st.running += wave.iter().map(|g| g.tickets.len()).sum::<usize>();
    st.beats += 1;
    st.stats.dispatch_waves += 1;
    st.stats.coalesced_groups += wave.len() as u64;
    wave
}

/// The dispatcher: form a wave under the state lock, then fan its groups
/// out over the runtime's workers ([`SpiderRuntime::fan_out`]), this thread
/// being one of them.
fn dispatcher_loop(shared: &Shared, runtime: &SpiderRuntime, options: &SchedulerOptions) {
    let telemetry = Arc::clone(runtime.telemetry());
    loop {
        let wave = {
            let mut st = shared.state.lock();
            loop {
                if st.shutdown {
                    return;
                }
                if expire_due(&mut st, &telemetry) > 0 {
                    shared.space.notify_all();
                    shared.idle.notify_all();
                }
                if !st.paused && !st.queue.is_empty() {
                    break;
                }
                st = st.wait_on(&shared.work);
            }
            form_wave(&mut st, options, &telemetry)
        };
        shared.space.notify_all();
        runtime.fan_out(wave.len(), |g| run_wave_group(shared, runtime, &wave[g]));
    }
}

/// Execute one wave group as one `run_group` call (shared plan + coalesced
/// executors inside) and mark its tickets' verdicts.
fn run_wave_group(shared: &Shared, runtime: &SpiderRuntime, group: &WaveGroup) {
    let results = runtime.run_group(&group.requests);
    let mut st = shared.state.lock();
    let mut finished = 0u64;
    for ((&ticket, result), req) in group.tickets.iter().zip(results).zip(&group.requests) {
        // A kill may already have recorded this slot's verdict
        // (`Failed(DeviceLost)`) and zeroed the running count while
        // the wave was in flight — the simulated device died under us,
        // so the result is discarded, not double-finished.
        if !matches!(st.slots.get(&ticket).map(|e| &e.slot), Some(Slot::Running)) {
            continue;
        }
        match result {
            Ok(outcome) => {
                finish(&mut st, ticket, Slot::Done(Box::new(outcome)));
                st.stats.completed += 1;
                st.tenant_stats_mut(req.tenant).completed += 1;
            }
            Err(e) => {
                finish(
                    &mut st,
                    ticket,
                    Slot::Failed(FailureReason::Execution(e.to_string())),
                );
                st.stats.failed += 1;
                st.tenant_stats_mut(req.tenant).failed += 1;
            }
        }
        st.running -= 1;
        finished += 1;
    }
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
        sched_on(2, options)
    }

    /// A scheduler over a runtime whose waves fan out over `workers`
    /// threads; `1` completes each wave's groups in cohort order.
    fn sched_on(workers: usize, options: SchedulerOptions) -> SpiderScheduler {
        let rt = SpiderRuntime::new(
            GpuDevice::a100(),
            RuntimeOptions {
                cache_capacity: 16,
                workers,
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
        let s = sched_on(
            1,
            SchedulerOptions {
                start_paused: true,
                aging_step: None,
                ..SchedulerOptions::default()
            },
        );
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
        let s = sched_on(
            1,
            SchedulerOptions {
                start_paused: true,
                aging_step: Some(step),
                ..SchedulerOptions::default()
            },
        );
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
        let s = sched_on(
            1,
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
        // traffic; `drain` asserts per-tenant conservation internally, so
        // this test failing inside drain is the defect signal.
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
        assert!(report.render().contains("tenant tenant-1"));
        assert!(report.rates_are_finite());
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
    fn submit_trait_drives_the_scheduler_generically() {
        fn pump<S: Submit>(surface: &S, reqs: Vec<StencilRequest>) -> Vec<S::Ticket> {
            reqs.into_iter()
                .map(|r| surface.submit(r).expect("admitted"))
                .collect()
        }
        let s = sched(SchedulerOptions::default());
        let tickets = pump(&s, (0..3).map(|i| req(i, Priority::Normal)).collect());
        s.drain();
        for t in tickets {
            assert!(matches!(s.poll(t), RequestStatus::Done(_)));
        }
    }

    #[test]
    fn registered_tenant_policies_reach_the_plan_cache() {
        // SpiderScheduler::new forwards cache_reserve/cache_cap to the
        // runtime's plan cache; serve one request per tenant and check the
        // footprint attribution.
        let s = sched(
            SchedulerOptions::default()
                .with_tenant(1u64, TenantConfig::default().with_cache_reserve(2))
                .with_tenant(2u64, TenantConfig::default().with_cache_cap(1)),
        );
        s.submit(
            StencilRequest::new_2d(1, StencilKernel::jacobi_2d(), 48, 64)
                .with_seed(1)
                .with_tenant(1u64),
        )
        .unwrap();
        s.submit(
            StencilRequest::new_2d(2, StencilKernel::heat_2d(0.12), 48, 64)
                .with_seed(2)
                .with_tenant(2u64),
        )
        .unwrap();
        s.drain();
        let footprint = s.runtime().tenant_cache_footprint();
        assert_eq!(
            footprint,
            vec![(TenantId::new(1), 1), (TenantId::new(2), 1)],
            "each tenant owns the plan it compiled"
        );
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
        // One worker, unpaused: let the dispatcher pick work up, then
        // kill mid-flight. Whatever had started must surface as
        // Failed { DeviceLost }, never as a silent disappearance.
        let s = sched_on(1, SchedulerOptions::default());
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

    #[test]
    fn device_draining_error_renders_the_device_name() {
        let e = SubmitError::DeviceDraining {
            device: "dev3".into(),
        };
        assert_eq!(e.to_string(), "device dev3 is draining out of the cluster");
    }
}

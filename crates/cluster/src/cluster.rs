//! The cluster itself: N devices behind one front door — with runtime
//! membership changes, graceful drains and failure recovery.
//!
//! ## Elasticity model
//!
//! Devices live in **slots** that are allocated once and never reused:
//! every [`ClusterTicket`] records the slot of the device serving it, and
//! slot indices stay valid across any sequence of
//! [`SpiderCluster::add_device`] / [`SpiderCluster::remove_device`] /
//! [`SpiderCluster::fail_device`] calls. A departed device's slot keeps
//! its (retired) scheduler handle, so old tickets keep resolving and the
//! fleet reports keep counting the work it served — the `departed`
//! roll-up, not an accounting hole.
//!
//! The rendezvous router hashes device *names only* (never slot
//! positions), so adding or removing a device remaps exactly the keys
//! that hash to it — every survivor keeps its plan-key partition, its
//! plan cache and its tuner memos (property-tested per removal position
//! in `router.rs`).
//!
//! ## Lock order
//!
//! `membership` (RwLock) → `state` (Mutex) → per-device scheduler /
//! telemetry locks (leaves). Blocking scheduler submits happen with *no*
//! cluster lock held.

use spider_core::sync::{
    LockRank, OrderedMutex, OrderedMutexGuard, OrderedReadGuard, OrderedRwLock, OrderedWriteGuard,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use spider_runtime::{
    PlanStore, RequestStatus, SpiderRuntime, SpiderScheduler, StencilRequest, Submit, SubmitError,
    Ticket,
};
use spider_telemetry::{HealthMonitor, HealthPolicy, HealthState, HealthTransition};

use crate::elastic::{FaultEvent, FaultPlan, RecoveryReport, RetryPolicy};
use crate::report::{ClusterReport, DeviceReport};
use crate::router::{Router, RoutingPolicy};
use crate::spec::DeviceSpec;

/// Construction-time knobs for [`SpiderCluster`].
#[derive(Debug, Clone, Copy)]
pub struct ClusterOptions {
    /// How requests map to devices.
    pub policy: RoutingPolicy,
    /// Work-stealing skew trigger: a device is *overloaded* when its queue
    /// depth reaches `steal_skew ×` the mean depth (mean floored at one, so
    /// shallow queues never churn). [`SpiderCluster::rebalance`] steals its
    /// youngest queued requests down to the mean. Values `< 1.0` are
    /// treated as `1.0`.
    pub steal_skew: f64,
    /// Upper bound on requests moved per rebalance pass (`0` = unlimited).
    pub max_steals_per_pass: usize,
    /// Run a rebalance pass automatically after every `n` submissions
    /// (`0` = only when [`SpiderCluster::rebalance`] is called).
    pub rebalance_every: usize,
    /// What happens to in-flight casualties when a device dies (see
    /// [`RetryPolicy`]).
    pub retry: RetryPolicy,
    /// Missed-heartbeat thresholds for [`SpiderCluster::health_tick`];
    /// [`HealthPolicy::disabled`] makes every health tick a no-op —
    /// exactly the pre-watchtower behavior.
    pub health: HealthPolicy,
}

impl Default for ClusterOptions {
    fn default() -> Self {
        Self {
            policy: RoutingPolicy::FingerprintAffinity,
            steal_skew: 2.0,
            max_steals_per_pass: 0,
            rebalance_every: 0,
            retry: RetryPolicy::default(),
            health: HealthPolicy::default(),
        }
    }
}

/// Why a membership operation was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// No live device has that name.
    UnknownDevice(String),
    /// Removing or killing this device would leave the cluster with no
    /// serving device — refused; a cluster never drains itself to zero.
    LastDevice,
    /// A live device already carries that name (departed names may be
    /// reused — replacing a dead shard under its old name is normal ops).
    DuplicateName(String),
    /// [`SpiderCluster::finish_drain`] on a device that was never marked
    /// by [`SpiderCluster::begin_drain`].
    NotDraining(String),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::UnknownDevice(n) => write!(f, "no live device named {n:?}"),
            ClusterError::LastDevice => {
                write!(f, "refusing to remove the cluster's last serving device")
            }
            ClusterError::DuplicateName(n) => {
                write!(f, "a live device named {n:?} already exists")
            }
            ClusterError::NotDraining(n) => {
                write!(f, "device {n:?} is not draining (call begin_drain first)")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

/// Opaque handle to a cluster submission. Stable across work stealing,
/// drains and device failures: the ticket keeps resolving even after its
/// request moves devices or its device leaves the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClusterTicket {
    seq: u64,
}

impl ClusterTicket {
    /// Monotonic cluster-wide submission sequence number.
    pub fn id(&self) -> u64 {
        self.seq
    }
}

/// What one [`SpiderCluster::health_tick`] observed and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HealthReport {
    /// Shard state changes this tick produced (keyed by device name).
    pub transitions: Vec<HealthTransition>,
    /// Recoveries triggered by `Dead` verdicts — each ran the standard
    /// [`SpiderCluster::fail_device`] kill/requeue/retry path, so its
    /// accounting is identical to an operator-declared kill's.
    pub recoveries: Vec<FaultEvent>,
}

impl HealthReport {
    /// True when this tick changed no shard's state and killed nothing.
    pub fn is_quiet(&self) -> bool {
        self.transitions.is_empty() && self.recoveries.is_empty()
    }
}

struct ClusterDevice {
    spec: DeviceSpec,
    runtime: Arc<SpiderRuntime>,
    scheduler: SpiderScheduler,
    /// Draining out: admissions routed here are refused with
    /// [`SubmitError::DeviceDraining`] until the drain completes.
    draining: AtomicBool,
    /// Left the cluster (gracefully or by death). The slot's scheduler is
    /// retired but still answers polls and reports.
    departed: AtomicBool,
    /// Hung by an armed [`FaultPlan`] hang trigger: dispatch is paused and
    /// stays paused — [`SpiderCluster::resume_all`] skips silenced devices,
    /// so nothing but the health-detection kill path ends the hang.
    silenced: AtomicBool,
}

impl ClusterDevice {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn departed(&self) -> bool {
        self.departed.load(Ordering::SeqCst)
    }

    fn silenced(&self) -> bool {
        self.silenced.load(Ordering::SeqCst)
    }
}

/// The mutable device roster. Slots only grow; `routable` lists the slot
/// indices the router currently spreads over (in router-identity order).
struct Membership {
    slots: Vec<Arc<ClusterDevice>>,
    routable: Vec<usize>,
    router: Router,
}

impl Membership {
    fn rebuild_router(&mut self, policy: RoutingPolicy) {
        let names: Vec<String> = self
            .routable
            .iter()
            .map(|&s| self.slots[s].spec.name.clone())
            .collect();
        self.router = Router::new(policy, &names);
    }

    /// Slot index of the live (non-departed) device named `name`.
    fn live_slot(&self, name: &str) -> Option<usize> {
        self.slots
            .iter()
            .position(|d| !d.departed() && d.spec.name == name)
    }

    fn live_count(&self) -> usize {
        self.slots.iter().filter(|d| !d.departed()).count()
    }
}

/// Where one cluster submission currently lives.
struct Pending {
    req: StencilRequest,
    device: usize,
    ticket: Ticket,
    /// Device-loss retries consumed so far (see [`RetryPolicy`]).
    attempts: u32,
    /// Prior `(slot, ticket)` segments this submission lived at before
    /// steals/requeues/retries moved it — oldest first. Departed slots
    /// keep answering for their history, so
    /// [`SpiderCluster::timeline`] chains every segment's trace into one
    /// lineage instead of losing the first life of a retried request.
    history: Vec<(usize, Ticket)>,
}

#[derive(Default)]
struct ClusterState {
    /// Every submission ever, keyed by cluster seq. Retained after the
    /// request completes — deliberately: [`SpiderCluster::poll`] must keep
    /// resolving old tickets, exactly like the per-device scheduler keeps
    /// its terminal slots for `poll`/`drain` (drain reports are cumulative
    /// by design). The rebalance path never walks this map.
    pending: HashMap<u64, Pending>,
    /// Per-slot cluster-ticket seqs in submission order — the rebalance
    /// working set. Unlike `pending`, this *is* pruned: each rebalance
    /// pass drops entries that moved away or reached a terminal state, so
    /// steal planning scans live queues, not lifetime history.
    device_order: Vec<Vec<u64>>,
    next_seq: u64,
    /// Per-slot router assignment counts (kept for departed slots too —
    /// the departed roll-up reports them).
    routed: Vec<u64>,
    steals: u64,
    rebalances: u64,
    steal_failures: u64,
    /// Unstarted requests moved off departing/failed devices exactly-once.
    requeued: u64,
    /// In-flight casualties re-routed under the retry policy.
    retried: u64,
    devices_added: u64,
    devices_removed: u64,
    devices_failed: u64,
    /// Armed fault-injection plan (see [`FaultPlan`]).
    faults: Option<FaultPlan>,
    first_submit: Option<Instant>,
}

/// Multi-device sharded serving: one [`SpiderRuntime`] + [`SpiderScheduler`]
/// per [`DeviceSpec`], a [`Router`] assigning requests by policy, work
/// stealing to flatten queue skew, and (optionally) a shared [`PlanStore`]
/// every device warm-starts from and persists into.
///
/// Membership is **elastic**: [`Self::add_device`] joins a device live,
/// [`Self::remove_device`] drains one out gracefully, and
/// [`Self::fail_device`] (or an armed [`FaultPlan`]) hard-kills one with
/// exactly-once recovery of its queue. See the module docs for the slot
/// and locking model.
///
/// Execution on a device is exactly the single-runtime path — same plan
/// cache, tuner, coalescing and pooling — so a sharded cluster's outputs
/// are bit-identical to one runtime serving the same requests (the property
/// tests pin this for every routing policy, membership churn included).
pub struct SpiderCluster {
    membership: OrderedRwLock<Membership>,
    options: ClusterOptions,
    /// The shared store new devices warm-start from (None = no
    /// persistence).
    store: Option<Arc<PlanStore>>,
    /// Cluster-level lifecycle counters
    /// (`spider_cluster_device_{added,removed,failed}_total`,
    /// `spider_cluster_{requeued,retried}_total`), merged into
    /// [`Self::fleet_metrics`].
    metrics: spider_telemetry::MetricsRegistry,
    state: OrderedMutex<ClusterState>,
    /// Missed-heartbeat detector over the live shards, driven by explicit
    /// [`Self::health_tick`] calls (leaf lock: taken after `membership`,
    /// never while holding `state`).
    health: OrderedMutex<HealthMonitor>,
}

impl SpiderCluster {
    /// Stand up one runtime + scheduler per spec, no persistence.
    pub fn new(specs: Vec<DeviceSpec>, options: ClusterOptions) -> Self {
        Self::build(specs, options, None)
    }

    /// Stand up the cluster over a shared [`PlanStore`]: every device's
    /// plan-cache misses consult the store before compiling, compiles write
    /// through, tuner memos import per spec fingerprint at construction,
    /// and [`Self::drain_all`] persists each device's memos back. Devices
    /// added later warm-start from the same store.
    pub fn with_store(
        specs: Vec<DeviceSpec>,
        options: ClusterOptions,
        store: Arc<PlanStore>,
    ) -> Self {
        Self::build(specs, options, Some(store))
    }

    fn build(
        specs: Vec<DeviceSpec>,
        options: ClusterOptions,
        store: Option<Arc<PlanStore>>,
    ) -> Self {
        assert!(!specs.is_empty(), "a cluster needs at least one device");
        let names: Vec<String> = specs.iter().map(|s| s.name.clone()).collect();
        let slots: Vec<Arc<ClusterDevice>> = specs
            .into_iter()
            .map(|spec| Arc::new(make_device(spec, store.as_ref())))
            .collect();
        let state = ClusterState {
            device_order: vec![Vec::new(); slots.len()],
            routed: vec![0; slots.len()],
            ..ClusterState::default()
        };
        let routable: Vec<usize> = (0..slots.len()).collect();
        Self {
            membership: OrderedRwLock::new(
                LockRank::ClusterMembership,
                "cluster.membership",
                Membership {
                    router: Router::new(options.policy, &names),
                    slots,
                    routable,
                },
            ),
            store,
            metrics: spider_telemetry::MetricsRegistry::new(),
            state: OrderedMutex::new(LockRank::ClusterState, "cluster.state", state),
            health: OrderedMutex::new(
                LockRank::ClusterHealth,
                "cluster.health",
                HealthMonitor::new(options.health),
            ),
            options,
        }
    }

    /// Number of live (non-departed) devices, draining ones included.
    pub fn devices(&self) -> usize {
        self.read_membership().live_count()
    }

    /// Live device names in slot (join) order.
    pub fn device_names(&self) -> Vec<String> {
        self.read_membership()
            .slots
            .iter()
            .filter(|d| !d.departed())
            .map(|d| d.spec.name.clone())
            .collect()
    }

    /// The spec a device slot was built from (slots never shift — see the
    /// module docs — so an index stays valid after membership changes).
    pub fn device_spec(&self, index: usize) -> DeviceSpec {
        self.read_membership().slots[index].spec.clone()
    }

    /// The runtime behind a device slot (statistics introspection).
    pub fn device_runtime(&self, index: usize) -> Arc<SpiderRuntime> {
        Arc::clone(&self.read_membership().slots[index].runtime)
    }

    pub fn options(&self) -> &ClusterOptions {
        &self.options
    }

    /// The active routing policy.
    pub fn routing_policy(&self) -> RoutingPolicy {
        self.options.policy
    }

    /// Pause dispatch on every live device (queues keep accepting
    /// submissions). With paused schedulers, submit → [`Self::rebalance`]
    /// → [`Self::drain_all`] is fully deterministic: queue depths at
    /// rebalance time do not race the dispatchers — what the scaling bench
    /// and several tests rely on.
    pub fn pause_all(&self) {
        for d in self
            .read_membership()
            .slots
            .iter()
            .filter(|d| !d.departed() && !d.silenced())
        {
            d.scheduler.pause();
        }
    }

    /// Resume dispatch on every live device ([`Self::drain_all`] also
    /// resumes). Devices a [`FaultPlan`] hang trigger silenced stay
    /// paused — the hang persists until health detection kills them.
    pub fn resume_all(&self) {
        for d in self
            .read_membership()
            .slots
            .iter()
            .filter(|d| !d.departed() && !d.silenced())
        {
            d.scheduler.resume();
        }
    }

    /// Current admission-queue depth per live device (slot order — aligned
    /// with [`Self::device_names`]).
    pub fn queue_depths(&self) -> Vec<usize> {
        self.read_membership()
            .slots
            .iter()
            .filter(|d| !d.departed())
            .map(|d| d.scheduler.queue_depth())
            .collect()
    }

    /// Fleet-cumulative queue-wait histogram (µs buckets), departed
    /// devices included so the series is monotone — the signal the
    /// [`crate::AutoScaler`] diffs between steps.
    pub fn fleet_wait_hist(&self) -> spider_telemetry::LogHistogram {
        let mut h = spider_telemetry::LogHistogram::default();
        for d in &self.read_membership().slots {
            h.merge(&d.scheduler.queue_stats().wait_hist.hist);
        }
        h
    }

    fn lock(&self) -> OrderedMutexGuard<'_, ClusterState> {
        self.state.lock()
    }

    fn read_membership(&self) -> OrderedReadGuard<'_, Membership> {
        self.membership.read()
    }

    fn write_membership(&self) -> OrderedWriteGuard<'_, Membership> {
        self.membership.write()
    }

    /// Pick the destination device for `req` under the configured policy.
    /// Only the load-aware policy pays for a fleet-wide depth snapshot
    /// (N scheduler locks); affinity and round-robin ignore loads.
    /// Returns the slot index and a handle that outlives membership
    /// changes.
    fn route(&self, req: &StencilRequest) -> (usize, Arc<ClusterDevice>) {
        let m = self.read_membership();
        let loads = if m.router.policy() == RoutingPolicy::LeastLoaded {
            m.routable
                .iter()
                .map(|&s| m.slots[s].scheduler.queue_depth())
                .collect()
        } else {
            vec![0; m.routable.len()]
        };
        let slot = m.routable[m.router.route(req, &loads)];
        (slot, Arc::clone(&m.slots[slot]))
    }

    /// Record an accepted submission in the cluster state and return its
    /// cluster-wide sequence number.
    fn record_submission(&self, req: StencilRequest, device: usize, ticket: Ticket) -> u64 {
        let mut st = self.lock();
        if st.first_submit.is_none() {
            st.first_submit = Some(Instant::now());
        }
        let seq = st.next_seq;
        st.next_seq += 1;
        st.pending.insert(
            seq,
            Pending {
                req,
                device,
                ticket,
                attempts: 0,
                history: Vec::new(),
            },
        );
        st.device_order[device].push(seq);
        st.routed[device] += 1;
        seq
    }

    fn maybe_rebalance(&self, seq: u64) {
        if self.options.rebalance_every > 0
            && (seq + 1).is_multiple_of(self.options.rebalance_every as u64)
        {
            self.rebalance();
        }
    }

    /// Consume one injected submit-path fault, if armed.
    fn take_submit_fault(&self) -> bool {
        self.lock()
            .faults
            .as_mut()
            .is_some_and(|f| f.take_submit_fault())
    }

    /// The shared submit core: route, refuse draining destinations with a
    /// typed error, re-route around devices that shut down between the
    /// route and the submit, and close the narrow race against a
    /// concurrent drain/kill.
    fn submit_inner(
        &self,
        req: StencilRequest,
        blocking: bool,
    ) -> Result<ClusterTicket, SubmitError> {
        if self.take_submit_fault() {
            return Err(SubmitError::QueueFull { capacity: 0 });
        }
        loop {
            let (slot, dev) = self.route(&req);
            if dev.draining() {
                // Typed refusal, never a silent drop: the caller sees
                // exactly which device is on its way out and can back off
                // or retry (the router stops mapping keys here the moment
                // the drain's unroute step runs).
                return Err(SubmitError::DeviceDraining {
                    device: dev.spec.name.clone(),
                });
            }
            let submitted = if blocking {
                dev.scheduler.submit(req.clone())
            } else {
                dev.scheduler.try_submit(req.clone())
            };
            let ticket = match submitted {
                Ok(t) => t,
                // The device retired or died between route and submit:
                // the roster has already moved on, so route again.
                Err(SubmitError::ShuttingDown) => continue,
                Err(e) => return Err(e),
            };
            if dev.draining() && dev.scheduler.cancel(ticket) {
                // A drain began between the draining check and the
                // submit, and our request was still queued: pull it back
                // (cancel-true ⇒ it never started there) and re-route.
                continue;
            }
            let seq = self.record_submission(req, slot, ticket);
            if dev.departed() {
                // The device died between submit and record, and the
                // recovery sweep may have run before our pending entry
                // existed — rescue it ourselves.
                self.rescue(seq);
            }
            self.maybe_rebalance(seq);
            return Ok(ClusterTicket { seq });
        }
    }

    /// Route and submit one request. The returned ticket stays valid across
    /// work stealing, drains and device failures. Blocks while the
    /// destination queue is full (unless its backpressure policy sheds or
    /// rejects); admission-quota rejections surface as
    /// [`SubmitError::QuotaExceeded`], and a draining destination refuses
    /// with [`SubmitError::DeviceDraining`].
    pub fn submit(&self, req: StencilRequest) -> Result<ClusterTicket, SubmitError> {
        self.submit_inner(req, true)
    }

    /// Non-blocking [`Self::submit`]: routes identically, but a full
    /// destination queue returns [`SubmitError::QueueFull`] immediately
    /// instead of parking. No fallback to other devices — the router's
    /// placement (plan-key affinity) is the point; [`Self::rebalance`]
    /// flattens persistent skew.
    pub fn try_submit(&self, req: StencilRequest) -> Result<ClusterTicket, SubmitError> {
        self.submit_inner(req, false)
    }

    /// Recovery for a submission that raced a device failure: the request
    /// landed (or died) on a device whose recovery sweep could not see it
    /// yet. Requeue or retry it through the same paths the sweep uses.
    fn rescue(&self, seq: u64) {
        let m = self.read_membership();
        let mut st = self.lock();
        let Some(p) = st.pending.get(&seq) else {
            return;
        };
        let dev = Arc::clone(&m.slots[p.device]);
        if !dev.departed() {
            return;
        }
        match dev.scheduler.poll(p.ticket) {
            // Cancelled by the kill sweep before it ever started: requeue
            // exactly-once (the sweep didn't know this seq, so only we
            // can).
            RequestStatus::Cancelled => {
                let req = p.req.clone();
                let unplaced = self.place_on_survivors(&m, &mut st, vec![(seq, req)], false);
                drop(st);
                drop(m);
                self.place_blocking(unplaced, false);
            }
            // Died mid-flight: retry under the policy.
            RequestStatus::Failed { .. } => {
                let attempts = p.attempts;
                if attempts < self.options.retry.max_attempts {
                    // Stamp the retry's lifecycle events with its attempt
                    // index so the chained timeline keeps both lives
                    // (attempt never feeds plan_key — same plan, same
                    // tiling, bit-identical outcome).
                    let p = st.pending.get_mut(&seq).expect("entry exists"); // guard: seq taken from pending under this same lock
                    p.req.attempt = attempts + 1;
                    let req = p.req.clone();
                    let unplaced = self.place_on_survivors(&m, &mut st, vec![(seq, req)], true);
                    drop(st);
                    drop(m);
                    self.place_blocking(unplaced, true);
                }
            }
            _ => {}
        }
    }

    /// Current status of a cluster ticket (resolved against whichever
    /// device currently owns the request — departed devices keep
    /// answering for the history they served).
    pub fn poll(&self, ticket: ClusterTicket) -> RequestStatus {
        let m = self.read_membership();
        let st = self.lock();
        match st.pending.get(&ticket.seq) {
            Some(p) => m.slots[p.device].scheduler.poll(p.ticket),
            None => RequestStatus::Unknown,
        }
    }

    /// Cancel a still-queued cluster ticket (see
    /// [`SpiderScheduler::cancel`] for the exact semantics).
    pub fn cancel(&self, ticket: ClusterTicket) -> bool {
        let m = self.read_membership();
        let st = self.lock();
        match st.pending.get(&ticket.seq) {
            Some(p) => m.slots[p.device].scheduler.cancel(p.ticket),
            None => false,
        }
    }

    /// Consume one injected steal-placement fault, if armed.
    fn take_steal_fault(st: &mut ClusterState) -> bool {
        st.faults.as_mut().is_some_and(|f| f.take_steal_fault())
    }

    /// One work-stealing pass: find devices whose queue depth exceeds
    /// [`ClusterOptions::steal_skew`] × the mean depth and move their
    /// excess down to the mean. Returns the number of requests moved.
    ///
    /// Stealing is **plan-key-aware**: the overloaded device's queued
    /// requests are grouped by plan key and moved in per-key chunks
    /// (largest keys first, each chunk filling one destination up to the
    /// mean before the next destination is picked), not as individual
    /// requests. Requests that share a plan key and land on one device
    /// coalesce into one batched launch there — the throughput the whole
    /// affinity design exists to protect — so a steal that scattered a
    /// key's requests one-by-one across the fleet would flatten queue
    /// *counts* while fragmenting every coalesced wave it touched (and
    /// measurably lose most of the scaling it was meant to win back).
    ///
    /// Mechanically it is cancel-and-requeue, built on the scheduler's
    /// guarantee that [`SpiderScheduler::cancel`] returns `true` only for
    /// requests that have not started — a moved request executes exactly
    /// once, on its new device. Resubmission uses the *non-blocking*
    /// [`SpiderScheduler::try_submit`] (a blocking submit here, while
    /// holding the cluster's own lock, could park on a full destination
    /// queue and freeze every other cluster operation) and falls back
    /// through every candidate with room — the source's just-freed slot
    /// last. Only when every queue in the fleet is simultaneously full
    /// does a stolen request stay cancelled; that is counted in
    /// [`ClusterReport::steal_failures`] rather than silently swallowed.
    ///
    /// Draining and departed devices are neither sources nor destinations.
    pub fn rebalance(&self) -> usize {
        let m = self.read_membership();
        // Steal candidates: routable, not draining.
        let cands: Vec<usize> = m
            .routable
            .iter()
            .copied()
            .filter(|&s| !m.slots[s].draining())
            .collect();
        if cands.len() < 2 {
            return 0;
        }
        let mut st = self.lock();
        let mut depths: Vec<usize> = cands
            .iter()
            .map(|&s| m.slots[s].scheduler.queue_depth())
            .collect();
        let total: usize = depths.iter().sum();
        let mean = (total as f64 / depths.len() as f64).max(1.0);
        let threshold = mean * self.options.steal_skew.max(1.0);
        let target = mean.ceil() as usize;
        let mut moved = 0usize;
        'sources: for src_pos in 0..cands.len() {
            let src = cands[src_pos];
            if (depths[src_pos] as f64) < threshold {
                continue;
            }
            // Group this device's *currently queued* submissions by plan
            // key (submission order kept within each group), pruning
            // `device_order` as we go: entries that moved away or reached
            // a terminal state are dropped so repeated rebalances neither
            // rescan a long-lived cluster's full history nor rank keys by
            // historical popularity instead of present queue depth.
            let mut by_key: Vec<(u64, Vec<u64>)> = Vec::new();
            let mut live = Vec::with_capacity(depths[src_pos]);
            for &seq in &st.device_order[src] {
                let Some(p) = st.pending.get(&seq) else {
                    continue;
                };
                if p.device != src {
                    continue; // moved away: no longer this device's entry
                }
                let status = m.slots[src].scheduler.poll(p.ticket);
                if status.is_terminal() {
                    continue; // done/failed/cancelled: prune
                }
                live.push(seq);
                if !matches!(status, RequestStatus::Queued { .. }) {
                    continue; // running: not stealable, but still live
                }
                let key = p.req.plan_key();
                match by_key.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, seqs)) => seqs.push(seq),
                    None => by_key.push((key, vec![seq])),
                }
            }
            st.device_order[src] = live;
            // Largest keys first: maximizes whole-group moves.
            by_key.sort_by_key(|(k, seqs)| (std::cmp::Reverse(seqs.len()), *k));
            for (_, seqs) in by_key {
                if depths[src_pos] <= target {
                    break;
                }
                // Chunk destination: the least-loaded other device, kept
                // until it fills to the mean. The chunk takes the key's
                // *youngest* members (queued tail), so whatever stays
                // behind keeps its arrival order.
                let mut chunk_dest: Option<usize> = None;
                for &seq in seqs.iter().rev() {
                    if depths[src_pos] <= target {
                        break;
                    }
                    if self.options.max_steals_per_pass > 0
                        && moved >= self.options.max_steals_per_pass
                    {
                        break 'sources;
                    }
                    let dest_pos = match chunk_dest {
                        Some(d) if depths[d] < target => d,
                        _ => {
                            let d = depths
                                .iter()
                                .enumerate()
                                .filter(|&(i, _)| i != src_pos)
                                .min_by_key(|&(i, &d)| (d, i))
                                .map(|(i, _)| i)
                                .expect("at least two candidates"); // guard: cands.len() >= 2 checked at function entry
                            chunk_dest = Some(d);
                            d
                        }
                    };
                    let Some(p) = st.pending.get(&seq) else {
                        continue;
                    };
                    if p.device != src {
                        continue; // defensive: moved since grouping
                    }
                    if !m.slots[src].scheduler.cancel(p.ticket) {
                        continue; // dispatched since grouping: not stealable
                    }
                    depths[src_pos] -= 1;
                    // Placement: the chunk's pinned destination first, then
                    // any other candidate with room, the source's freed
                    // slot last. try_submit never parks, so holding the
                    // cluster lock here is safe. An injected steal fault
                    // makes the pinned destination refuse — the fall-
                    // through must absorb it.
                    let mut order: Vec<usize> = (0..cands.len())
                        .filter(|&i| i != src_pos && i != dest_pos)
                        .collect();
                    order.sort_by_key(|&i| (depths[i], i));
                    if Self::take_steal_fault(&mut st) {
                        order.push(dest_pos); // preferred dest refused: last resort
                    } else {
                        order.insert(0, dest_pos);
                    }
                    order.push(src_pos);
                    let req = st.pending.get(&seq).expect("entry exists").req.clone(); // guard: seq survived the pending.get() probe just above
                    let placed = order.into_iter().find_map(|i| {
                        m.slots[cands[i]]
                            .scheduler
                            .try_submit(req.clone())
                            .ok()
                            .map(|ticket| (i, ticket))
                    });
                    match placed {
                        Some((i, ticket)) => {
                            let d = cands[i];
                            let p = st.pending.get_mut(&seq).expect("entry exists"); // guard: same entry fetched two statements earlier
                            p.history.push((p.device, p.ticket));
                            p.device = d;
                            p.ticket = ticket;
                            if d != src {
                                // (the source's order already holds `seq`;
                                // re-pushing it would create a duplicate a
                                // later pass could double-cancel on)
                                st.device_order[d].push(seq);
                            }
                            depths[i] += 1;
                            if d == src {
                                // Every other queue was full: the request
                                // went back where it came from (losing only
                                // its queue position). No progress — stop
                                // stealing from this device.
                                continue 'sources;
                            }
                            st.steals += 1;
                            moved += 1;
                        }
                        None => {
                            // The whole fleet's queues are full (the freed
                            // source slot included — a racing submitter
                            // took it). The request stays Cancelled;
                            // surfaced in the report rather than swallowed.
                            st.steal_failures += 1;
                        }
                    }
                }
            }
        }
        if moved > 0 {
            st.rebalances += 1;
        }
        moved
    }

    /// Place `(seq, req)` pairs onto non-draining routable survivors in
    /// plan-key chunks (largest keys first, chunk destination = least
    /// loaded, pinned per chunk). Placement is non-blocking; pairs no
    /// destination had room for come back for [`Self::place_blocking`].
    /// `retry` selects which counters the placements bump (requeue vs
    /// retry) and whether an attempt is consumed.
    fn place_on_survivors(
        &self,
        m: &Membership,
        st: &mut ClusterState,
        items: Vec<(u64, StencilRequest)>,
        retry: bool,
    ) -> Vec<(u64, StencilRequest)> {
        let dests: Vec<usize> = m
            .routable
            .iter()
            .copied()
            .filter(|&s| !m.slots[s].draining() && !m.slots[s].departed())
            .collect();
        if dests.is_empty() {
            return items;
        }
        let mut depths: Vec<usize> = dests
            .iter()
            .map(|&s| m.slots[s].scheduler.queue_depth())
            .collect();
        // Plan-key chunks, largest first — the same coalescing-preserving
        // shape the steal path uses.
        let mut by_key: Vec<(u64, Vec<(u64, StencilRequest)>)> = Vec::new();
        for (seq, req) in items {
            let key = req.plan_key();
            match by_key.iter_mut().find(|(k, _)| *k == key) {
                Some((_, v)) => v.push((seq, req)),
                None => by_key.push((key, vec![(seq, req)])),
            }
        }
        by_key.sort_by_key(|(k, v)| (std::cmp::Reverse(v.len()), *k));
        let mut unplaced = Vec::new();
        for (_, chunk) in by_key {
            let dest_pos = depths
                .iter()
                .enumerate()
                .min_by_key(|&(i, &d)| (d, i))
                .map(|(i, _)| i)
                .expect("non-empty dests"); // guard: dests verified non-empty before this point
            for (seq, req) in chunk {
                let mut order: Vec<usize> = (0..dests.len()).filter(|&i| i != dest_pos).collect();
                order.sort_by_key(|&i| (depths[i], i));
                if Self::take_steal_fault(st) {
                    order.push(dest_pos);
                } else {
                    order.insert(0, dest_pos);
                }
                let placed = order.into_iter().find_map(|i| {
                    m.slots[dests[i]]
                        .scheduler
                        .try_submit(req.clone())
                        .ok()
                        .map(|ticket| (i, ticket))
                });
                match placed {
                    Some((i, ticket)) => {
                        let d = dests[i];
                        depths[i] += 1;
                        self.commit_move(st, seq, d, ticket, retry);
                    }
                    None => unplaced.push((seq, req)),
                }
            }
        }
        unplaced
    }

    /// Re-point a pending entry at its new device and bump the recovery
    /// counters.
    fn commit_move(
        &self,
        st: &mut ClusterState,
        seq: u64,
        device: usize,
        ticket: Ticket,
        retry: bool,
    ) {
        let p = st.pending.get_mut(&seq).expect("pending entry exists"); // guard: callers pass a seq they just found in pending
        p.history.push((p.device, p.ticket));
        p.device = device;
        p.ticket = ticket;
        st.device_order[device].push(seq);
        if retry {
            p.attempts += 1;
            st.retried += 1;
            self.metrics.counter("spider_cluster_retried_total").inc();
        } else {
            st.requeued += 1;
            self.metrics.counter("spider_cluster_requeued_total").inc();
        }
    }

    /// Blocking fallback for pairs [`Self::place_on_survivors`] found no
    /// room for: park on the least-loaded live destination with **no**
    /// cluster lock held. Extremely rare — it needs every survivor queue
    /// simultaneously full — but "every queue full" must degrade to
    /// waiting, never to losing a request.
    fn place_blocking(&self, unplaced: Vec<(u64, StencilRequest)>, retry: bool) {
        for (seq, req) in unplaced {
            loop {
                let dev = {
                    let m = self.read_membership();
                    m.routable
                        .iter()
                        .copied()
                        .filter(|&s| !m.slots[s].draining() && !m.slots[s].departed())
                        .min_by_key(|&s| (m.slots[s].scheduler.queue_depth(), s))
                        .map(|s| (s, Arc::clone(&m.slots[s])))
                };
                let Some((slot, dev)) = dev else {
                    // No survivor at all (concurrent drains raced the
                    // LastDevice guard): surface as a steal failure.
                    self.lock().steal_failures += 1;
                    break;
                };
                match dev.scheduler.submit(req.clone()) {
                    Ok(ticket) => {
                        let m = self.read_membership();
                        let mut st = self.lock();
                        self.commit_move(&mut st, seq, slot, ticket, retry);
                        drop(st);
                        drop(m);
                        break;
                    }
                    Err(SubmitError::ShuttingDown) => continue, // died meanwhile: re-pick
                    Err(_) => {
                        // Policy refusal (reject/shed/quota): the request
                        // stays cancelled — counted, not swallowed.
                        self.lock().steal_failures += 1;
                        break;
                    }
                }
            }
        }
    }

    /// Join a new device live: it starts serving (and warm-starts from the
    /// shared store, when one is attached) immediately, and the rendezvous
    /// router moves exactly the plan keys that hash to it — every existing
    /// device keeps its partition. Queued work already placed elsewhere is
    /// *not* moved automatically; run [`Self::rebalance`] to shed backlog
    /// onto the newcomer.
    pub fn add_device(&self, spec: DeviceSpec) -> Result<(), ClusterError> {
        let mut m = self.write_membership();
        if m.slots
            .iter()
            .any(|d| !d.departed() && d.spec.name == spec.name)
        {
            return Err(ClusterError::DuplicateName(spec.name));
        }
        let dev = Arc::new(make_device(spec, self.store.as_ref()));
        let slot = m.slots.len();
        {
            let mut st = self.lock();
            st.device_order.push(Vec::new());
            st.routed.push(0);
            st.devices_added += 1;
        }
        m.slots.push(dev);
        m.routable.push(slot);
        m.rebuild_router(self.options.policy);
        self.metrics
            .counter("spider_cluster_device_added_total")
            .inc();
        Ok(())
    }

    /// Mark a device as draining: it stays in the router (so the refusal
    /// is observable) but every submission routed to it is refused with
    /// [`SubmitError::DeviceDraining`]. The drain completes with
    /// [`Self::finish_drain`]; [`Self::remove_device`] does both
    /// back-to-back.
    pub fn begin_drain(&self, name: &str) -> Result<(), ClusterError> {
        let m = self.write_membership();
        let slot = m
            .live_slot(name)
            .ok_or_else(|| ClusterError::UnknownDevice(name.to_string()))?;
        let serving = m
            .slots
            .iter()
            .filter(|d| !d.departed() && !d.draining())
            .count();
        if serving <= 1 && !m.slots[slot].draining() {
            return Err(ClusterError::LastDevice);
        }
        m.slots[slot].draining.store(true, Ordering::SeqCst);
        Ok(())
    }

    /// Complete a graceful drain begun with [`Self::begin_drain`]:
    ///
    /// 1. **Unroute** — rebuild the router without the device; rendezvous
    ///    remaps only its keys.
    /// 2. **Steal the queue** — cancel every still-queued request and
    ///    requeue it on the survivors in plan-key chunks (exactly-once:
    ///    cancel-true ⇒ never started).
    /// 3. **Wait out in-flight waves** — `scheduler.drain()`.
    /// 4. **Persist** what the device learned (when a store is attached).
    /// 5. **Retire** — the dispatcher thread exits; the slot stays
    ///    pollable and rolls into the `departed` report section.
    ///
    /// Returns the departed device's final report slice.
    pub fn finish_drain(&self, name: &str) -> Result<DeviceReport, ClusterError> {
        let (slot, dev) = {
            let mut m = self.write_membership();
            let slot = m
                .live_slot(name)
                .ok_or_else(|| ClusterError::UnknownDevice(name.to_string()))?;
            if !m.slots[slot].draining() {
                return Err(ClusterError::NotDraining(name.to_string()));
            }
            if let Some(pos) = m.routable.iter().position(|&s| s == slot) {
                m.routable.remove(pos);
                m.rebuild_router(self.options.policy);
            }
            (slot, Arc::clone(&m.slots[slot]))
        };
        // Steal-and-requeue the departing queue (plan-key chunks).
        let unplaced = {
            let m = self.read_membership();
            let mut st = self.lock();
            let mut items = Vec::new();
            let order = std::mem::take(&mut st.device_order[slot]);
            let mut live = Vec::new();
            for seq in order {
                let Some(p) = st.pending.get(&seq) else {
                    continue;
                };
                if p.device != slot {
                    continue;
                }
                let status = dev.scheduler.poll(p.ticket);
                if status.is_terminal() {
                    continue;
                }
                if matches!(status, RequestStatus::Queued { .. }) && dev.scheduler.cancel(p.ticket)
                {
                    items.push((seq, p.req.clone()));
                } else {
                    live.push(seq); // running: waited out below
                }
            }
            st.device_order[slot] = live;
            self.place_on_survivors(&m, &mut st, items, false)
        };
        self.place_blocking(unplaced, false);
        // Wait out in-flight waves (and any stragglers that raced the
        // draining flag — they simply execute here before retirement).
        dev.scheduler.drain();
        if dev.runtime.store().is_some() {
            let _ = dev.runtime.persist();
        }
        dev.scheduler.retire();
        dev.departed.store(true, Ordering::SeqCst);
        self.lock().devices_removed += 1;
        self.metrics
            .counter("spider_cluster_device_removed_total")
            .inc();
        Ok(self.device_report(slot, &dev))
    }

    /// Gracefully remove a device: [`Self::begin_drain`] +
    /// [`Self::finish_drain`]. No request is lost: queued work moves to
    /// survivors exactly-once, in-flight work completes on the departing
    /// device, and its cumulative counters stay in the fleet reports'
    /// `departed` roll-up.
    pub fn remove_device(&self, name: &str) -> Result<DeviceReport, ClusterError> {
        self.begin_drain(name)?;
        self.finish_drain(name)
    }

    /// Hard-kill a device, as a crash (or an armed [`FaultPlan`]) would,
    /// and recover:
    ///
    /// * its **queued** requests are requeued on survivors exactly-once
    ///   (they never started — [`spider_runtime::KillReport::unstarted`]);
    /// * its **in-flight** requests are casualties, re-routed at most
    ///   [`RetryPolicy::max_attempts`] times (the retry executes the same
    ///   content-addressed plan, so outcomes stay bit-identical) or left
    ///   surfacing [`spider_runtime::FailureReason::DeviceLost`];
    /// * the slot departs into the report roll-up, still pollable.
    pub fn fail_device(&self, name: &str) -> Result<RecoveryReport, ClusterError> {
        let (slot, dev) = {
            let mut m = self.write_membership();
            let slot = m
                .live_slot(name)
                .ok_or_else(|| ClusterError::UnknownDevice(name.to_string()))?;
            if m.live_count() <= 1 {
                return Err(ClusterError::LastDevice);
            }
            let dev = Arc::clone(&m.slots[slot]);
            dev.draining.store(true, Ordering::SeqCst);
            dev.departed.store(true, Ordering::SeqCst);
            if let Some(pos) = m.routable.iter().position(|&s| s == slot) {
                m.routable.remove(pos);
                m.rebuild_router(self.options.policy);
            }
            (slot, dev)
        };
        let kr = dev.scheduler.kill();
        let mut report = RecoveryReport::default();
        // Map the dead device's tickets back to cluster seqs. (A submission
        // racing the kill may not be recorded yet — its submitter's rescue
        // path covers it; see `submit_inner`.)
        let (unplaced_requeues, retries) = {
            let m = self.read_membership();
            let mut st = self.lock();
            let mut by_ticket: HashMap<Ticket, u64> = HashMap::new();
            for (&seq, p) in st.pending.iter() {
                if p.device == slot {
                    by_ticket.insert(p.ticket, seq);
                }
            }
            let mut requeues = Vec::new();
            for (ticket, req) in kr.unstarted {
                if let Some(&seq) = by_ticket.get(&ticket) {
                    requeues.push((seq, req));
                }
            }
            report.requeued = requeues.len();
            let unplaced = self.place_on_survivors(&m, &mut st, requeues, false);
            let mut retries = Vec::new();
            for ticket in kr.lost {
                let Some(&seq) = by_ticket.get(&ticket) else {
                    continue;
                };
                let p = st.pending.get_mut(&seq).expect("mapped entry exists"); // guard: seq comes from iterating this very map
                if p.attempts < self.options.retry.max_attempts {
                    // Attempt-stamp the retry (see `rescue`): the second
                    // life's trace chains onto the first in `timeline`.
                    p.req.attempt = p.attempts + 1;
                    retries.push((seq, p.req.clone()));
                } else {
                    report.abandoned += 1;
                }
            }
            (unplaced, retries)
        };
        // (the blocking fallback parks rather than loses, so the report
        // counts every requeue/retry it was handed, landed or parked)
        self.place_blocking(unplaced_requeues, false);
        if !retries.is_empty() {
            if !self.options.retry.backoff.is_zero() {
                std::thread::sleep(self.options.retry.backoff);
            }
            report.retried = retries.len();
            let unplaced = {
                let m = self.read_membership();
                let mut st = self.lock();
                self.place_on_survivors(&m, &mut st, retries, true)
            };
            self.place_blocking(unplaced, true);
        }
        {
            let mut st = self.lock();
            st.devices_failed += 1;
        }
        self.metrics
            .counter("spider_cluster_device_failed_total")
            .inc();
        Ok(report)
    }

    /// Arm (or replace) the fault-injection plan. Triggers fire only from
    /// [`Self::fault_tick`] and the submit/steal paths — deterministically,
    /// never from a background thread.
    pub fn inject_faults(&self, plan: FaultPlan) {
        self.lock().faults = Some(plan);
    }

    /// Evaluate the armed triggers. A **hang** trigger fires first (and
    /// silently — that is its point): once the target has dispatched its
    /// threshold waves, dispatch pauses and the device stops beating
    /// without any operator declaration; only [`Self::health_tick`]
    /// noticing the missed heartbeats ends the hang. A **kill** trigger
    /// hard-kills the target (consuming the trigger) and returns the
    /// recovery report. The harness calls this between traffic pulses —
    /// mid-batch by construction.
    pub fn fault_tick(&self) -> Option<FaultEvent> {
        // Hang trigger: pause + silence, no event (a silent failure
        // announces nothing — detection is the watchtower's job).
        let hung = {
            let m = self.read_membership();
            let mut st = self.lock();
            st.faults.as_mut().and_then(|f| {
                let trigger = f.hang.as_ref()?;
                let slot = m.live_slot(&trigger.device)?;
                let waves = m.slots[slot].scheduler.queue_stats().dispatch_waves;
                if waves >= trigger.after_waves {
                    f.hang.take().map(|_| Arc::clone(&m.slots[slot]))
                } else {
                    None
                }
            })
        };
        if let Some(dev) = hung {
            dev.silenced.store(true, Ordering::SeqCst);
            dev.scheduler.pause();
            self.metrics
                .counter("spider_cluster_fault_hangs_total")
                .inc();
        }
        let target = {
            let m = self.read_membership();
            let mut st = self.lock();
            let f = st.faults.as_mut()?;
            let trigger = f.kill.as_ref()?;
            let slot = m.live_slot(&trigger.device)?;
            let waves = m.slots[slot].scheduler.queue_stats().dispatch_waves;
            if waves >= trigger.after_waves {
                f.kill.take().map(|k| k.device)
            } else {
                None
            }
        }?;
        let recovery = self.fail_device(&target).ok()?;
        Some(FaultEvent {
            device: target,
            recovery,
        })
    }

    /// One heartbeat-detection round: observe every live shard's progress
    /// beat ([`SpiderScheduler::last_progress`]) and busy flag, classify
    /// (`Healthy → Suspect → Dead` under [`ClusterOptions::health`]), and
    /// recover every shard declared `Dead` through the standard
    /// [`Self::fail_device`] kill/requeue/retry path — detection-triggered
    /// recovery is the *same code* an operator-declared kill runs, so
    /// outcomes stay bit-identical.
    ///
    /// Deterministic and explicit, like [`Self::fault_tick`]: nothing runs
    /// from a background thread, and a disabled [`HealthPolicy`] makes
    /// this a no-op. Space ticks further apart than the longest healthy
    /// dispatch wave (the thresholds count *ticks*, not wall time).
    pub fn health_tick(&self) -> HealthReport {
        let mut report = HealthReport::default();
        let dead: Vec<String> = {
            let m = self.read_membership();
            let mut mon = self.health.lock();
            for d in m.slots.iter() {
                if d.departed() {
                    // Departed shards leave monitoring — a retired
                    // scheduler owes no beats.
                    mon.forget(&d.spec.name);
                } else {
                    mon.observe(
                        &d.spec.name,
                        d.scheduler.last_progress(),
                        d.scheduler.has_outstanding(),
                    );
                }
            }
            let transitions = mon.tick();
            let mut dead = Vec::new();
            for t in &transitions {
                match t.to {
                    HealthState::Suspect => {
                        self.metrics
                            .counter("spider_cluster_health_suspect_total")
                            .inc();
                    }
                    HealthState::Dead => {
                        self.metrics
                            .counter("spider_cluster_health_dead_total")
                            .inc();
                        dead.push(t.shard.clone());
                    }
                    HealthState::Healthy => {}
                }
            }
            report.transitions = transitions;
            dead
        };
        // Act on the verdicts with no membership or monitor lock held —
        // `fail_device` takes the membership write lock itself.
        for name in dead {
            if let Ok(recovery) = self.fail_device(&name) {
                self.health.lock().forget(&name);
                report.recoveries.push(FaultEvent {
                    device: name,
                    recovery,
                });
            }
        }
        report
    }

    /// Every monitored shard's current health classification
    /// (name-sorted; empty before the first [`Self::health_tick`] or when
    /// detection is disabled).
    pub fn health_states(&self) -> Vec<(String, HealthState)> {
        self.health.lock().states()
    }

    /// Build one device's report slice (callable for live and departed
    /// slots alike — a departed scheduler's `drain` returns immediately).
    fn device_report(&self, slot: usize, dev: &ClusterDevice) -> DeviceReport {
        let report = dev.scheduler.drain();
        let routed = self.lock().routed[slot];
        DeviceReport {
            name: dev.spec.name.clone(),
            cache: dev.runtime.cache_stats(),
            store: dev.runtime.store_stats(),
            routed,
            report,
        }
    }

    /// Block until every live device's queue is empty, then aggregate the
    /// fleet report — departed devices included in the `departed` roll-up,
    /// so a removed device's served work never vanishes from fleet totals.
    /// When a [`PlanStore`] is attached, each live device persists its
    /// plans and tuner memos first (best effort), so the next process
    /// warm-starts from everything this one learned.
    pub fn drain_all(&self) -> ClusterReport {
        let m = self.read_membership();
        let mut devices = Vec::new();
        let mut departed = Vec::new();
        for dev in m.slots.iter().filter(|d| !d.departed()) {
            dev.scheduler.drain();
        }
        for dev in m.slots.iter().filter(|d| !d.departed()) {
            if dev.runtime.store().is_some() {
                let _ = dev.runtime.persist();
            }
        }
        for (slot, dev) in m.slots.iter().enumerate() {
            let report = self.device_report(slot, dev);
            if dev.departed() {
                departed.push(report);
            } else {
                devices.push(report);
            }
        }
        let st = self.lock();
        let wall_s = st
            .first_submit
            .map(|t| t.elapsed().as_secs_f64())
            .unwrap_or(0.0);
        ClusterReport {
            devices,
            departed,
            wall_s,
            steals: st.steals,
            rebalances: st.rebalances,
            steal_failures: st.steal_failures,
            requeued: st.requeued,
            retried: st.retried,
            devices_added: st.devices_added,
            devices_removed: st.devices_removed,
            devices_failed: st.devices_failed,
        }
    }

    /// Submit a whole batch, rebalance once, and drain — the blocking
    /// convenience wrapper (and the shape the bit-identity property tests
    /// drive).
    pub fn run_batch(&self, requests: &[StencilRequest]) -> Result<ClusterReport, SubmitError> {
        for req in requests {
            self.submit(req.clone())?;
        }
        self.rebalance();
        Ok(self.drain_all())
    }

    /// Persist every live device's cached plans and tuner memos into the
    /// attached store. Returns total plans written (0 without a store).
    pub fn persist_all(&self) -> std::io::Result<usize> {
        let mut total = 0;
        for d in self
            .read_membership()
            .slots
            .iter()
            .filter(|d| !d.departed())
        {
            total += d.runtime.persist()?;
        }
        Ok(total)
    }

    /// Fleet-wide metrics snapshot: every device (departed ones included —
    /// their final counters must not vanish from fleet totals) syncs its
    /// cumulative counters into its registry, then the per-device
    /// snapshots merge (counters and gauges add, histograms merge
    /// bucket-wise), plus the cluster's own lifecycle counters
    /// (`spider_cluster_device_{added,removed,failed}_total`,
    /// `spider_cluster_{requeued,retried}_total`). Per-device telemetry is
    /// absent when disabled on every device; the cluster counters are
    /// always present.
    pub fn fleet_metrics(&self) -> spider_telemetry::MetricsSnapshot {
        let mut merged = spider_telemetry::MetricsSnapshot::default();
        for d in &self.read_membership().slots {
            d.runtime.sync_metrics();
            d.scheduler.sync_metrics_now();
            merged.merge(&d.runtime.telemetry().metrics().snapshot());
        }
        merged.merge(&self.metrics.snapshot());
        merged
    }

    /// Prometheus text exposition of the whole fleet: one block per device
    /// (labelled `device="<name>"`, departed devices included with their
    /// final counters), then the merged fleet snapshot with no labels.
    pub fn fleet_prometheus_text(&self) -> String {
        let mut out = String::new();
        for d in &self.read_membership().slots {
            d.runtime.sync_metrics();
            d.scheduler.sync_metrics_now();
            let snap = d.runtime.telemetry().metrics().snapshot();
            out.push_str(&snap.prometheus_text(&[("device", &d.spec.name)]));
        }
        out.push_str(&self.fleet_metrics().prometheus_text(&[]));
        out
    }

    /// Fleet-wide per-plan phase profile: each device's profiler snapshot
    /// (departed devices' history included), merged by plan key and sorted
    /// heaviest-first.
    pub fn fleet_profile(&self) -> Vec<spider_telemetry::PlanProfile> {
        let per_device: Vec<Vec<spider_telemetry::PlanProfile>> = self
            .read_membership()
            .slots
            .iter()
            .map(|d| d.runtime.telemetry().profiler().snapshot())
            .collect();
        spider_telemetry::merge_profiles(&per_device)
    }

    /// Export the whole fleet's trace rings as one Chrome trace-event JSON
    /// document, loadable in `chrome://tracing` or Perfetto: one named
    /// track per device slot — departed devices included; their final
    /// moments are usually the interesting part — with each coalesced
    /// wave as a single batched slice. See
    /// [`spider_telemetry::chrome_trace_json`] for the event mapping.
    pub fn export_chrome_trace(&self) -> String {
        let tracks: Vec<(String, Vec<spider_telemetry::Event>)> = self
            .read_membership()
            .slots
            .iter()
            .map(|d| {
                (
                    d.spec.name.clone(),
                    d.runtime.telemetry().trace().snapshot(),
                )
            })
            .collect();
        spider_telemetry::chrome_trace_json(&tracks)
    }

    /// Render the traced lifecycle of a cluster submission across *every*
    /// device it lived on. A request that was stolen, requeued off a
    /// drain, or retried after a device loss renders one chained timeline
    /// — each segment under a `── device <name> ──` banner, oldest first —
    /// instead of losing its earlier lives (departed slots keep answering
    /// for the history they served). Single-segment requests render with
    /// no banner, exactly as before. `None` for unknown tickets or when
    /// telemetry is disabled everywhere the request lived.
    pub fn timeline(&self, ticket: ClusterTicket) -> Option<String> {
        let m = self.read_membership();
        let segments: Vec<(usize, Ticket)> = {
            let st = self.lock();
            let p = st.pending.get(&ticket.seq)?;
            let mut v = p.history.clone();
            v.push((p.device, p.ticket));
            v
        };
        if let [(device, dev_ticket)] = segments[..] {
            return m.slots[device].scheduler.timeline(dev_ticket);
        }
        let mut out = String::new();
        for (device, dev_ticket) in segments {
            if let Some(tl) = m.slots[device].scheduler.timeline(dev_ticket) {
                out.push_str(&format!("── device {} ──\n", m.slots[device].spec.name));
                out.push_str(&tl);
            }
        }
        if out.is_empty() {
            None
        } else {
            Some(out)
        }
    }
}

fn make_device(spec: DeviceSpec, store: Option<&Arc<PlanStore>>) -> ClusterDevice {
    let device = spider_gpu_sim::GpuDevice::new(spec.specs.clone());
    let runtime = Arc::new(match store {
        Some(store) => SpiderRuntime::with_store(device, spec.runtime, Arc::clone(store)),
        None => SpiderRuntime::new(device, spec.runtime),
    });
    let scheduler = SpiderScheduler::new(Arc::clone(&runtime), spec.scheduler.clone());
    ClusterDevice {
        spec,
        runtime,
        scheduler,
        draining: AtomicBool::new(false),
        departed: AtomicBool::new(false),
        silenced: AtomicBool::new(false),
    }
}

/// The cluster front door satisfies the same [`Submit`] contract as a
/// single-device [`SpiderScheduler`], so serving code can be generic over
/// "something I can submit stencil requests to".
impl Submit for SpiderCluster {
    type Ticket = ClusterTicket;

    fn submit(&self, req: StencilRequest) -> Result<ClusterTicket, SubmitError> {
        SpiderCluster::submit(self, req)
    }

    fn try_submit(&self, req: StencilRequest) -> Result<ClusterTicket, SubmitError> {
        SpiderCluster::try_submit(self, req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elastic::{FaultPlan, RetryPolicy};
    use spider_runtime::{FailureReason, Priority, SchedulerOptions};
    use spider_stencil::{StencilKernel, StencilShape};

    fn specs(n: usize, paused: bool) -> Vec<DeviceSpec> {
        (0..n)
            .map(|i| {
                DeviceSpec::a100(format!("dev{i}")).with_scheduler_options(SchedulerOptions {
                    start_paused: paused,
                    aging_step: None,
                    ..SchedulerOptions::default()
                })
            })
            .collect()
    }

    fn mixed_requests(n: usize) -> Vec<StencilRequest> {
        let kernels = [
            StencilKernel::heat_2d(0.12),
            StencilKernel::gaussian_2d(2),
            StencilKernel::jacobi_2d(),
            StencilKernel::random(StencilShape::star_2d(2), 7),
        ];
        (0..n as u64)
            .map(|i| {
                let k = kernels[(i as usize) % kernels.len()].clone();
                StencilRequest::new_2d(i, k, 64, 96).with_seed(i)
            })
            .collect()
    }

    #[test]
    fn submit_poll_drain_roundtrip() {
        let cluster = SpiderCluster::new(specs(2, false), ClusterOptions::default());
        let tickets: Vec<ClusterTicket> = mixed_requests(8)
            .into_iter()
            .map(|r| cluster.submit(r).unwrap())
            .collect();
        let report = cluster.drain_all();
        assert_eq!(report.total_completed(), 8);
        assert_eq!(report.total_failed(), 0);
        for t in tickets {
            assert!(matches!(cluster.poll(t), RequestStatus::Done(_)));
        }
        assert!(report.rates_are_finite());
        assert_eq!(
            report.devices.iter().map(|d| d.routed).sum::<u64>(),
            8,
            "every request routed exactly once"
        );
    }

    #[test]
    fn affinity_routes_equal_plans_to_one_device() {
        let cluster = SpiderCluster::new(specs(4, false), ClusterOptions::default());
        let k = StencilKernel::gaussian_2d(2);
        for i in 0..12u64 {
            cluster
                .submit(StencilRequest::new_2d(i, k.clone(), 64, 64).with_seed(i))
                .unwrap();
        }
        let report = cluster.drain_all();
        let serving: Vec<&DeviceReport> = report.devices.iter().filter(|d| d.routed > 0).collect();
        assert_eq!(serving.len(), 1, "one plan key must shard to one device");
        assert_eq!(serving[0].routed, 12);
        // 1 compile, 11 hits on that shard.
        assert_eq!(serving[0].cache.misses, 1);
        assert_eq!(serving[0].cache.hits, 11);
    }

    #[test]
    fn rebalance_steals_from_skewed_queues() {
        // Pause dispatch so queues build deterministically; affinity
        // concentrates one kernel's requests on one device.
        let cluster = SpiderCluster::new(specs(2, true), ClusterOptions::default());
        let k = StencilKernel::jacobi_2d();
        let tickets: Vec<ClusterTicket> = (0..10u64)
            .map(|i| {
                cluster
                    .submit(StencilRequest::new_2d(i, k.clone(), 48, 64).with_seed(i))
                    .unwrap()
            })
            .collect();
        let before = cluster.queue_depths();
        assert_eq!(before.iter().sum::<usize>(), 10);
        assert!(
            before.contains(&10),
            "affinity concentrates one kernel on one device: {before:?}"
        );
        let moved = cluster.rebalance();
        assert!(moved >= 4, "rebalance must flatten the skew, moved {moved}");
        let after = cluster.queue_depths();
        assert!(
            after.iter().all(|&d| d > 0),
            "both devices busy after stealing: {after:?}"
        );
        let report = cluster.drain_all();
        assert_eq!(report.total_completed(), 10, "no steal loses a request");
        assert_eq!(report.steals, moved as u64);
        assert_eq!(report.rebalances, 1);
        assert_eq!(report.steal_failures, 0);
        // Every ticket still resolves (stolen ones on their new device).
        for t in tickets {
            assert!(matches!(cluster.poll(t), RequestStatus::Done(_)));
        }
        // The source device counts the cancellations.
        let cancelled: u64 = report
            .devices
            .iter()
            .filter_map(|d| d.report.queue.as_ref())
            .map(|q| q.cancelled)
            .sum();
        assert_eq!(cancelled, moved as u64);
    }

    #[test]
    fn rebalance_below_skew_is_a_no_op() {
        let cluster = SpiderCluster::new(
            specs(2, true),
            ClusterOptions {
                policy: RoutingPolicy::RoundRobin,
                ..ClusterOptions::default()
            },
        );
        for (i, req) in mixed_requests(6).into_iter().enumerate() {
            cluster
                .submit(req.with_priority(if i % 2 == 0 {
                    Priority::Normal
                } else {
                    Priority::High
                }))
                .unwrap();
        }
        assert_eq!(cluster.queue_depths(), vec![3, 3]);
        assert_eq!(cluster.rebalance(), 0, "balanced queues steal nothing");
        let report = cluster.drain_all();
        assert_eq!(report.steals, 0);
        assert_eq!(report.rebalances, 0);
        assert_eq!(report.total_completed(), 6);
    }

    #[test]
    fn cluster_tickets_cancel() {
        let cluster = SpiderCluster::new(specs(2, true), ClusterOptions::default());
        let t = cluster
            .submit(StencilRequest::new_2d(
                1,
                StencilKernel::jacobi_2d(),
                48,
                48,
            ))
            .unwrap();
        assert!(cluster.cancel(t));
        assert!(matches!(cluster.poll(t), RequestStatus::Cancelled));
        assert!(!cluster.cancel(t));
        let report = cluster.drain_all();
        assert_eq!(report.total_completed(), 0);
        assert!(
            report.rates_are_finite(),
            "all-cancelled fleet stays finite"
        );
    }

    #[test]
    fn volumetric_requests_shard_steal_and_account() {
        use spider_stencil::dim3::Kernel3D;
        // Affinity concentrates one 3D kernel's volumes on one device...
        let cluster = SpiderCluster::new(specs(3, true), ClusterOptions::default());
        let k3 = Kernel3D::random_box(1, 13);
        let tickets: Vec<ClusterTicket> = (0..9u64)
            .map(|i| {
                cluster
                    .submit(StencilRequest::new_3d(i, k3.clone(), 3, 32, 48).with_seed(i))
                    .unwrap()
            })
            .collect();
        let before = cluster.queue_depths();
        assert!(
            before.contains(&9),
            "affinity must stack one 3D plan key on one device: {before:?}"
        );
        // ...and stealing spreads them without losing or duplicating any.
        let moved = cluster.rebalance();
        assert!(moved > 0, "skewed volumes must steal");
        let report = cluster.drain_all();
        assert_eq!(report.total_completed(), 9);
        assert_eq!(report.total_volumetric(), 9);
        assert_eq!(report.total_volumetric_points(), 9 * 3 * 32 * 48);
        assert!(report.render().contains("volumetric: 9 of 9"));
        for t in tickets {
            assert!(matches!(cluster.poll(t), RequestStatus::Done(_)));
        }
        // Mixed traffic: 2D and 3D coexist in one fleet and the volumetric
        // accounting counts only the volumes.
        let mixed = SpiderCluster::new(specs(2, false), ClusterOptions::default());
        for req in mixed_requests(4) {
            mixed.submit(req).unwrap();
        }
        mixed
            .submit(StencilRequest::new_3d(100, k3, 2, 32, 32))
            .unwrap();
        let report = mixed.drain_all();
        assert_eq!(report.total_completed(), 5);
        assert_eq!(report.total_volumetric(), 1);
        assert!(report.rates_are_finite());
    }

    #[test]
    fn unknown_cluster_tickets_poll_unknown() {
        let cluster = SpiderCluster::new(specs(1, false), ClusterOptions::default());
        assert!(matches!(
            cluster.poll(ClusterTicket { seq: 123 }),
            RequestStatus::Unknown
        ));
    }

    // ───────────────────────── elasticity ─────────────────────────

    #[test]
    fn add_device_joins_live_and_serves() {
        let cluster = SpiderCluster::new(specs(2, false), ClusterOptions::default());
        for req in mixed_requests(4) {
            cluster.submit(req).unwrap();
        }
        cluster.add_device(specs(3, false).pop().unwrap()).unwrap();
        assert_eq!(cluster.devices(), 3);
        assert_eq!(
            cluster.device_names(),
            vec!["dev0", "dev1", "dev2"],
            "join order"
        );
        // The newcomer is routable: some plan key must hash to it.
        for req in mixed_requests(16).into_iter().skip(4) {
            cluster.submit(req).unwrap();
        }
        let report = cluster.drain_all();
        assert_eq!(report.total_completed(), 16);
        assert_eq!(report.devices_added, 1);
        assert_eq!(report.devices.len(), 3);
        assert!(report.departed.is_empty());
    }

    #[test]
    fn duplicate_live_names_are_refused() {
        let cluster = SpiderCluster::new(specs(2, false), ClusterOptions::default());
        assert_eq!(
            cluster.add_device(DeviceSpec::a100("dev1")),
            Err(ClusterError::DuplicateName("dev1".into()))
        );
        // A departed name may be reused (replacing a dead shard).
        cluster.remove_device("dev1").unwrap();
        cluster.add_device(DeviceSpec::a100("dev1")).unwrap();
        assert_eq!(cluster.devices(), 2);
    }

    #[test]
    fn remove_device_drains_gracefully_and_loses_nothing() {
        let cluster = SpiderCluster::new(specs(3, true), ClusterOptions::default());
        let tickets: Vec<ClusterTicket> = mixed_requests(24)
            .into_iter()
            .map(|r| cluster.submit(r).unwrap())
            .collect();
        // Pick the device with the deepest queue and drain it out while
        // every request is still queued (dispatch paused).
        let depths = cluster.queue_depths();
        let names = cluster.device_names();
        let victim = &names[depths
            .iter()
            .enumerate()
            .max_by_key(|&(_, &d)| d)
            .unwrap()
            .0];
        let moved = depths.iter().max().copied().unwrap();
        assert!(moved > 0, "victim must hold queued work: {depths:?}");
        let dr = cluster.remove_device(victim).unwrap();
        assert_eq!(dr.name, *victim);
        assert_eq!(cluster.devices(), 2);
        assert!(!cluster.device_names().contains(victim));
        let report = cluster.drain_all();
        assert_eq!(report.total_completed(), 24, "drain loses zero requests");
        assert_eq!(report.devices_removed, 1);
        assert_eq!(report.requeued as usize, moved);
        assert_eq!(report.departed.len(), 1);
        assert_eq!(report.departed[0].name, *victim);
        for t in tickets {
            assert!(matches!(cluster.poll(t), RequestStatus::Done(_)));
        }
    }

    #[test]
    fn removing_the_last_device_is_refused() {
        let cluster = SpiderCluster::new(specs(2, false), ClusterOptions::default());
        cluster.remove_device("dev0").unwrap();
        assert!(matches!(
            cluster.remove_device("dev1"),
            Err(ClusterError::LastDevice)
        ));
        assert_eq!(cluster.fail_device("dev1"), Err(ClusterError::LastDevice));
        assert!(matches!(
            cluster.remove_device("nope"),
            Err(ClusterError::UnknownDevice(n)) if n == "nope"
        ));
    }

    #[test]
    fn draining_devices_refuse_submits_with_a_typed_error() {
        // Affinity: one kernel's requests all route to one device. Mark it
        // draining and the next submit must be refused, not dropped.
        let cluster = SpiderCluster::new(specs(2, true), ClusterOptions::default());
        let k = StencilKernel::jacobi_2d();
        cluster
            .submit(StencilRequest::new_2d(0, k.clone(), 48, 48))
            .unwrap();
        let victim = {
            let depths = cluster.queue_depths();
            let names = cluster.device_names();
            names[depths.iter().position(|&d| d > 0).unwrap()].clone()
        };
        cluster.begin_drain(&victim).unwrap();
        match cluster.submit(StencilRequest::new_2d(1, k, 48, 48)) {
            Err(SubmitError::DeviceDraining { device }) => assert_eq!(device, victim),
            other => panic!("expected DeviceDraining, got {other:?}"),
        }
        cluster.finish_drain(&victim).unwrap();
        // Unrouted now: the same kernel re-routes to the survivor.
        assert!(matches!(
            cluster.finish_drain(&victim),
            Err(ClusterError::UnknownDevice(n)) if n == victim
        ));
        let report = cluster.drain_all();
        assert_eq!(report.total_completed(), 1);
    }

    #[test]
    fn finish_drain_requires_begin_drain() {
        let cluster = SpiderCluster::new(specs(2, false), ClusterOptions::default());
        assert!(matches!(
            cluster.finish_drain("dev0"),
            Err(ClusterError::NotDraining(n)) if n == "dev0"
        ));
    }

    #[test]
    fn killed_device_requeues_queued_work_exactly_once() {
        let cluster = SpiderCluster::new(specs(3, true), ClusterOptions::default());
        let tickets: Vec<ClusterTicket> = mixed_requests(18)
            .into_iter()
            .map(|r| cluster.submit(r).unwrap())
            .collect();
        let depths = cluster.queue_depths();
        let names = cluster.device_names();
        let (victim_pos, &victim_depth) =
            depths.iter().enumerate().max_by_key(|&(_, &d)| d).unwrap();
        let victim = names[victim_pos].clone();
        assert!(victim_depth > 0);
        // Dispatch is paused: nothing has started, so the kill finds only
        // queued work and recovery requeues all of it.
        let recovery = cluster.fail_device(&victim).unwrap();
        assert_eq!(recovery.requeued, victim_depth);
        assert_eq!(recovery.retried, 0);
        assert_eq!(recovery.abandoned, 0);
        assert_eq!(cluster.devices(), 2);
        let report = cluster.drain_all();
        assert_eq!(report.total_completed(), 18, "kill loses zero queued work");
        assert_eq!(report.devices_failed, 1);
        assert_eq!(report.requeued, victim_depth as u64);
        // Exactly-once: completions across survivors + departed == 18,
        // with no duplicates (each ticket resolves Done exactly once).
        for t in tickets {
            assert!(matches!(cluster.poll(t), RequestStatus::Done(_)));
        }
    }

    #[test]
    fn fault_tick_kills_mid_batch_and_recovers() {
        let cluster = SpiderCluster::new(specs(2, false), ClusterOptions::default());
        // Wave threshold 0: fires on the first tick.
        cluster.inject_faults(FaultPlan::kill_after("dev0", 0));
        let tickets: Vec<ClusterTicket> = mixed_requests(8)
            .into_iter()
            .map(|r| cluster.submit(r).unwrap())
            .collect();
        let event = cluster.fault_tick().expect("trigger must fire");
        assert_eq!(event.device, "dev0");
        assert!(cluster.fault_tick().is_none(), "trigger is consumed");
        let report = cluster.drain_all();
        assert_eq!(report.devices_failed, 1);
        // Every ticket resolves: completed (on a survivor, the victim
        // pre-kill, or after a retry) or surfaced as a device loss.
        for t in tickets {
            match cluster.poll(t) {
                RequestStatus::Done(_)
                | RequestStatus::Failed {
                    reason: FailureReason::DeviceLost,
                } => {}
                s => panic!("unresolved ticket after fault: {s:?}"),
            }
        }
    }

    #[test]
    fn injected_submit_faults_surface_and_clear() {
        let cluster = SpiderCluster::new(specs(2, false), ClusterOptions::default());
        cluster.inject_faults(FaultPlan::default().with_failed_submits(2));
        let req = mixed_requests(1).pop().unwrap();
        assert!(matches!(
            cluster.submit(req.clone()),
            Err(SubmitError::QueueFull { capacity: 0 })
        ));
        assert!(matches!(
            cluster.try_submit(req.clone()),
            Err(SubmitError::QueueFull { capacity: 0 })
        ));
        cluster.submit(req).unwrap();
        let report = cluster.drain_all();
        assert_eq!(report.total_completed(), 1);
    }

    #[test]
    fn in_flight_casualties_retry_and_stay_bit_identical() {
        // Reference: the same requests on one runtime.
        let reqs = mixed_requests(6);
        let single = SpiderCluster::new(specs(1, false), ClusterOptions::default());
        let mut want = std::collections::HashMap::new();
        let single_tickets: Vec<(u64, ClusterTicket)> = reqs
            .iter()
            .map(|r| (r.id, single.submit(r.clone()).unwrap()))
            .collect();
        single.drain_all();
        for (id, t) in single_tickets {
            match single.poll(t) {
                RequestStatus::Done(c) => {
                    want.insert(id, c.checksum);
                }
                s => panic!("reference must complete: {s:?}"),
            }
        }
        // Cluster with retries enabled: kill a device mid-flight; the
        // casualties re-route and their checksums match the reference.
        let cluster = SpiderCluster::new(
            specs(3, false),
            ClusterOptions {
                retry: RetryPolicy {
                    max_attempts: 2,
                    ..RetryPolicy::default()
                },
                ..ClusterOptions::default()
            },
        );
        let tickets: Vec<(u64, ClusterTicket)> = reqs
            .iter()
            .map(|r| (r.id, cluster.submit(r.clone()).unwrap()))
            .collect();
        let victim = cluster.device_names()[0].clone();
        cluster.fail_device(&victim).unwrap();
        cluster.drain_all();
        for (id, t) in tickets {
            match cluster.poll(t) {
                RequestStatus::Done(c) => {
                    assert_eq!(c.checksum, want[&id], "retries stay bit-identical");
                }
                RequestStatus::Failed {
                    reason: FailureReason::DeviceLost,
                } => {
                    // Only possible once the retry budget is spent.
                }
                s => panic!("unresolved ticket after recovery: {s:?}"),
            }
        }
    }

    #[test]
    fn fleet_metrics_include_cluster_lifecycle_counters() {
        let cluster = SpiderCluster::new(specs(2, false), ClusterOptions::default());
        cluster.add_device(DeviceSpec::a100("dev2")).unwrap();
        cluster.remove_device("dev2").unwrap();
        let snap = cluster.fleet_metrics();
        assert_eq!(snap.counter_value("spider_cluster_device_added_total"), 1);
        assert_eq!(snap.counter_value("spider_cluster_device_removed_total"), 1);
        let text = cluster.fleet_prometheus_text();
        assert!(text.contains("spider_cluster_device_added_total 1"));
    }

    /// One kernel → one plan key → affinity concentrates every request on
    /// one device; returns `(cluster, victim_name, tickets)` with the
    /// victim's queue holding all `n` requests and dispatch paused.
    fn loaded_cluster(
        n: usize,
        options: ClusterOptions,
    ) -> (SpiderCluster, String, Vec<ClusterTicket>) {
        let cluster = SpiderCluster::new(specs(3, true), options);
        let k = StencilKernel::jacobi_2d();
        let tickets: Vec<ClusterTicket> = (0..n as u64)
            .map(|i| {
                cluster
                    .submit(StencilRequest::new_2d(i, k.clone(), 48, 64).with_seed(i))
                    .unwrap()
            })
            .collect();
        let depths = cluster.queue_depths();
        let names = cluster.device_names();
        let victim_pos = depths
            .iter()
            .position(|&d| d == n)
            .expect("one shard holds all");
        (cluster, names[victim_pos].clone(), tickets)
    }

    #[test]
    fn health_tick_detects_a_silent_device_and_recovers() {
        // Nobody declares this failure: a hang trigger freezes the victim
        // mid-batch, and only the missed-heartbeat monitor notices.
        let (cluster, victim, tickets) = loaded_cluster(12, ClusterOptions::default());
        cluster.inject_faults(FaultPlan::hang_after(&victim, 0));
        assert!(cluster.fault_tick().is_none(), "a hang announces nothing");
        // Survivors run normally; the silenced victim ignores the resume.
        cluster.resume_all();
        let mut suspected_at = None;
        let mut dead_at = None;
        for round in 0..10 {
            let report = cluster.health_tick();
            for t in &report.transitions {
                assert_eq!(t.shard, victim, "only the hung shard transitions");
                match t.to {
                    HealthState::Suspect => suspected_at = Some(round),
                    HealthState::Dead => dead_at = Some(round),
                    HealthState::Healthy => {}
                }
            }
            if let Some(r) = report.recoveries.first() {
                assert_eq!(r.device, victim);
                assert_eq!(r.recovery.requeued, 12, "paused queue requeues whole");
                assert_eq!(r.recovery.retried, 0);
                assert_eq!(r.recovery.abandoned, 0);
                break;
            }
        }
        let policy = HealthPolicy::default();
        assert_eq!(
            suspected_at,
            Some(policy.suspect_after as usize),
            "suspect after the configured missed beats (baseline tick first)"
        );
        assert_eq!(dead_at, Some(policy.dead_after as usize));
        // The dead shard was forgotten after recovery; survivors stay
        // monitored and healthy.
        let states = cluster.health_states();
        assert_eq!(states.len(), 2);
        assert!(states
            .iter()
            .all(|(n, s)| *n != victim && *s == HealthState::Healthy));
        let report = cluster.drain_all();
        assert_eq!(
            report.total_completed(),
            12,
            "detection loses zero requests"
        );
        assert_eq!(report.devices_failed, 1);
        for t in tickets {
            assert!(matches!(cluster.poll(t), RequestStatus::Done(_)));
        }
        let snap = cluster.fleet_metrics();
        assert_eq!(snap.counter_value("spider_cluster_health_suspect_total"), 1);
        assert_eq!(snap.counter_value("spider_cluster_health_dead_total"), 1);
        assert_eq!(snap.counter_value("spider_cluster_fault_hangs_total"), 1);
    }

    #[test]
    fn disabled_health_monitor_changes_nothing() {
        // Same hang, detection off: ticks observe nothing, classify
        // nothing, kill nothing — and drain_all (which resumes every live
        // scheduler) serves the backlog exactly as before the watchtower.
        let (cluster, victim, tickets) = loaded_cluster(
            8,
            ClusterOptions {
                health: HealthPolicy::disabled(),
                ..ClusterOptions::default()
            },
        );
        cluster.inject_faults(FaultPlan::hang_after(&victim, 0));
        cluster.fault_tick();
        cluster.resume_all();
        for _ in 0..10 {
            assert!(cluster.health_tick().is_quiet());
        }
        assert!(cluster.health_states().is_empty());
        assert_eq!(cluster.devices(), 3, "nothing was killed");
        let report = cluster.drain_all();
        assert_eq!(report.total_completed(), 8);
        assert_eq!(report.devices_failed, 0);
        for t in tickets {
            assert!(matches!(cluster.poll(t), RequestStatus::Done(_)));
        }
    }

    #[test]
    fn healthy_fleet_health_ticks_are_quiet() {
        let cluster = SpiderCluster::new(specs(2, false), ClusterOptions::default());
        for r in mixed_requests(8) {
            cluster.submit(r).unwrap();
        }
        cluster.drain_all();
        // Idle shards owe no beats: tick as often as you like, a drained
        // fleet never trips the detector.
        for _ in 0..10 {
            assert!(cluster.health_tick().is_quiet());
        }
        assert!(cluster
            .health_states()
            .iter()
            .all(|(_, s)| *s == HealthState::Healthy));
    }

    #[test]
    fn timeline_chains_across_a_device_loss() {
        let (cluster, victim, tickets) = loaded_cluster(6, ClusterOptions::default());
        cluster.fail_device(&victim).unwrap();
        cluster.drain_all();
        let tl = cluster.timeline(tickets[0]).expect("timeline renders");
        assert_eq!(
            tl.matches("── device ").count(),
            2,
            "one banner per life:\n{tl}"
        );
        assert!(tl.contains(&victim), "first life on the victim:\n{tl}");
        assert!(
            tl.contains("complete: done"),
            "second life completes:\n{tl}"
        );
    }

    #[test]
    fn fleet_metrics_stay_labelled_and_monotone_across_churn() {
        // Satellite: departed devices' labelled series persist and fleet
        // totals never move backwards across add/remove/kill churn.
        let cluster = SpiderCluster::new(specs(3, false), ClusterOptions::default());
        cluster.run_batch(&mixed_requests(12)).unwrap();
        let before = cluster.fleet_metrics();
        let completed_before = before.counter_value("spider_scheduler_completed_total");
        assert_eq!(completed_before, 12);
        cluster.add_device(DeviceSpec::a100("late")).unwrap();
        cluster.run_batch(&mixed_requests(12)).unwrap();
        let victim = cluster.device_names()[0].clone();
        cluster.fail_device(&victim).unwrap();
        cluster.remove_device("late").unwrap();
        cluster.drain_all();
        let after = cluster.fleet_metrics();
        assert!(
            after.counter_value("spider_scheduler_completed_total") >= completed_before,
            "fleet totals are monotone across churn"
        );
        assert_eq!(
            after.counter_value("spider_scheduler_completed_total")
                + after.counter_value("spider_scheduler_failed_total"),
            24,
            "departed devices' served work stays in the totals"
        );
        let text = cluster.fleet_prometheus_text();
        for name in [victim.as_str(), "late"] {
            assert!(
                text.contains(&format!("device=\"{name}\"")),
                "departed {name} keeps its labelled series"
            );
        }
        // The trace-ring drop counter (satellite: previously unexported)
        // shows up in the fleet text.
        assert!(text.contains("spider_telemetry_dropped_events_total"));
    }
}

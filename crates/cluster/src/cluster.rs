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
    FailureReason, RequestStatus, SpiderRuntime, SpiderScheduler, StencilRequest, SubmitError,
    Ticket,
};
use spider_telemetry::{MetricValue, MetricsSnapshot};

use crate::elastic::{FaultEvent, FaultPlan, RecoveryReport};
use crate::health::{HealthMonitor, HealthState, HealthTransition};
use crate::report::{ClusterReport, DeviceReport};
use crate::router::Router;
use crate::spec::DeviceSpec;

/// Construction-time knobs for [`SpiderCluster`].
#[derive(Debug, Clone, Copy)]
pub struct ClusterOptions {
    /// Work-stealing skew trigger: a device is *overloaded* when its queue
    /// depth reaches `steal_skew ×` the mean depth (mean floored at one, so
    /// shallow queues never churn). [`SpiderCluster::rebalance`] steals its
    /// youngest queued requests down to the mean. Values `< 1.0` are
    /// treated as `1.0`.
    pub steal_skew: f64,
}

impl Default for ClusterOptions {
    fn default() -> Self {
        Self { steal_skew: 2.0 }
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
    fn rebuild_router(&mut self) {
        let names: Vec<String> = self
            .routable
            .iter()
            .map(|&s| self.slots[s].spec.name.clone())
            .collect();
        self.router = Router::new(&names);
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
    /// Device-loss retries consumed so far: 0 or 1.
    attempts: u32,
    /// Prior `(slot, ticket)` segments this submission lived at before
    /// steals/requeues/retries moved it — oldest first. Departed slots
    /// keep answering for their history, so
    /// [`SpiderCluster::timeline`] chains every segment's trace into one
    /// lineage instead of losing the first life of a retried request.
    history: Vec<(usize, Ticket)>,
    /// An evacuation (requeue or retry) found no survivor to admit it: the
    /// ticket polls `Failed { reason: DeviceLost }` rather than the
    /// cancellation its old device recorded.
    lost: bool,
}

#[derive(Default)]
struct ClusterState {
    /// Every submission ever, keyed by cluster seq. Retained after the
    /// request completes — deliberately: [`SpiderCluster::poll`] must keep
    /// resolving old tickets, exactly like the per-device scheduler keeps
    /// its terminal slots for `poll`/`drain` (drain reports are cumulative
    /// by design). No move walks this map: they go through `device_order`.
    pending: HashMap<u64, Pending>,
    /// Per-slot cluster-ticket seqs in the order they arrived there — what
    /// steals and drains walk ([`SpiderCluster::queued`]) and what a kill
    /// maps its tickets through. Unlike `pending`, this *is* pruned: each
    /// walk drops entries that moved away or reached a terminal state, and
    /// a kill empties its slot's list.
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
    /// In-flight casualties re-routed for their one retry.
    retried: u64,
    /// Requeues and retries no survivor admitted (see [`Pending::lost`]).
    unplaced: u64,
    devices_added: u64,
    devices_removed: u64,
    devices_failed: u64,
    /// Devices frozen by a hang trigger (see [`FaultPlan`]).
    fault_hangs: u64,
    /// Health transitions into `Suspect` and into `Dead`.
    health_suspects: u64,
    health_deaths: u64,
    /// Armed fault-injection plan (see [`FaultPlan`]).
    faults: Option<FaultPlan>,
    first_submit: Option<Instant>,
}

/// What a move through [`SpiderCluster::place`] counts as.
#[derive(Debug, Clone, Copy)]
enum Move {
    /// Work stealing off the device at fleet position `from`: a chunk
    /// keeps its destination while that holds fewer than `fill` requests.
    Steal { from: usize, fill: usize },
    /// An unstarted request leaving a draining or dead device.
    Requeue,
    /// An in-flight casualty's next attempt after a device loss.
    Retry,
}

/// The devices a move may land on — routable, neither draining nor
/// departed, in slot order — with their queue depths as the moves so far
/// left them.
struct Fleet {
    slots: Vec<usize>,
    depths: Vec<usize>,
}

impl Fleet {
    fn serving(m: &Membership) -> Self {
        let slots: Vec<usize> = m
            .routable
            .iter()
            .copied()
            .filter(|&s| !m.slots[s].draining() && !m.slots[s].departed())
            .collect();
        let depths = slots
            .iter()
            .map(|&s| m.slots[s].scheduler.queue_depth())
            .collect();
        Self { slots, depths }
    }

    /// Position of the least-loaded device other than `skip` (ties: the
    /// lowest slot).
    fn least_loaded(&self, skip: Option<usize>) -> Option<usize> {
        (0..self.slots.len())
            .filter(|&i| Some(i) != skip)
            .min_by_key(|&i| (self.depths[i], i))
    }
}

/// Group `items` by plan key, each group in input order, largest group
/// first (ties: lowest key) — the shape every move takes, so requests that
/// coalesce into one launch move together.
fn key_chunks<T>(items: Vec<T>, key: impl Fn(&T) -> u64) -> Vec<Vec<T>> {
    let mut chunks: Vec<(u64, Vec<T>)> = Vec::new();
    for item in items {
        let k = key(&item);
        match chunks.iter_mut().find(|(c, _)| *c == k) {
            Some((_, chunk)) => chunk.push(item),
            None => chunks.push((k, vec![item])),
        }
    }
    chunks.sort_by_key(|(k, chunk)| (std::cmp::Reverse(chunk.len()), *k));
    chunks.into_iter().map(|(_, chunk)| chunk).collect()
}

/// Multi-device sharded serving: one [`SpiderRuntime`] + [`SpiderScheduler`]
/// per [`DeviceSpec`], a [`Router`] assigning each request to the device
/// its plan key hashes to, and work stealing to flatten queue skew.
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
/// tests pin this, steals and membership churn included).
pub struct SpiderCluster {
    membership: OrderedRwLock<Membership>,
    options: ClusterOptions,
    state: OrderedMutex<ClusterState>,
    /// Missed-heartbeat detector over the live shards, driven by explicit
    /// [`Self::health_tick`] calls (leaf lock: taken after `membership`,
    /// never while holding `state`).
    health: OrderedMutex<HealthMonitor>,
}

impl SpiderCluster {
    /// Stand up one runtime + scheduler per spec.
    pub fn new(specs: Vec<DeviceSpec>, options: ClusterOptions) -> Self {
        assert!(!specs.is_empty(), "a cluster needs at least one device");
        let names: Vec<String> = specs.iter().map(|s| s.name.clone()).collect();
        let slots: Vec<Arc<ClusterDevice>> = specs
            .into_iter()
            .map(|spec| Arc::new(make_device(spec)))
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
                    router: Router::new(&names),
                    slots,
                    routable,
                },
            ),
            state: OrderedMutex::new(LockRank::ClusterState, "cluster.state", state),
            health: OrderedMutex::new(
                LockRank::ClusterHealth,
                "cluster.health",
                HealthMonitor::default(),
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

    pub fn options(&self) -> &ClusterOptions {
        &self.options
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

    fn lock(&self) -> OrderedMutexGuard<'_, ClusterState> {
        self.state.lock()
    }

    fn read_membership(&self) -> OrderedReadGuard<'_, Membership> {
        self.membership.read()
    }

    fn write_membership(&self) -> OrderedWriteGuard<'_, Membership> {
        self.membership.write()
    }

    /// The destination device for `req`: the routable device its plan key
    /// rendezvous-hashes to. Returns the slot index and a handle that
    /// outlives membership changes.
    fn route(&self, req: &StencilRequest) -> (usize, Arc<ClusterDevice>) {
        let m = self.read_membership();
        let slot = m.routable[m.router.rendezvous(req.plan_key())];
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
                lost: false,
            },
        );
        st.device_order[device].push(seq);
        st.routed[device] += 1;
        seq
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
        let (unplaced, kind) = {
            let m = self.read_membership();
            let mut st = self.lock();
            let Some(p) = st.pending.get_mut(&seq) else {
                return;
            };
            let dev = &m.slots[p.device];
            if !dev.departed() {
                return;
            }
            let (req, kind) = match dev.scheduler.peek(p.ticket) {
                // Cancelled by the kill sweep before it ever started:
                // requeue exactly-once (the sweep didn't know this seq, so
                // only we can).
                RequestStatus::Cancelled => (p.req.clone(), Move::Requeue),
                // Died mid-flight: retry it, unless this was its retry.
                RequestStatus::Failed { .. } => match Self::retry(p) {
                    Some(req) => (req, Move::Retry),
                    None => return,
                },
                _ => return,
            };
            let mut fleet = Fleet::serving(&m);
            let unplaced = self.place(&m, &mut st, &mut fleet, vec![(seq, req)], kind);
            (unplaced, kind)
        };
        self.place_blocking(unplaced, kind);
    }

    /// Current status of a cluster ticket (resolved against whichever
    /// device currently owns the request — departed devices keep
    /// answering for the history they served). An evacuated request no
    /// survivor admitted polls `Failed { reason: DeviceLost }`.
    pub fn poll(&self, ticket: ClusterTicket) -> RequestStatus {
        let m = self.read_membership();
        let st = self.lock();
        match st.pending.get(&ticket.seq) {
            Some(p) if p.lost => RequestStatus::Failed {
                reason: FailureReason::DeviceLost,
            },
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

    /// One work-stealing pass: every serving device whose queue depth
    /// reaches [`ClusterOptions::steal_skew`] × the mean depth gives its
    /// excess, down to the mean, to the rest of the fleet. Returns the
    /// number of requests that changed device.
    ///
    /// Stealing is **plan-key-aware**: a source gives its largest keys
    /// first, each key's youngest requests first (what stays behind keeps
    /// its arrival order), and the stolen requests go through the one
    /// placement path every cross-device move takes: per-key chunks, each
    /// filling the least-loaded device up to the mean before the next is
    /// picked. Requests that share a plan key and land on one device
    /// coalesce into one batched launch there — the throughput the whole
    /// affinity design exists to protect — so a steal that scattered a
    /// key's requests one-by-one across the fleet would flatten queue
    /// *counts* while fragmenting every coalesced wave it touched (and
    /// measurably lose most of the scaling it was meant to win back).
    ///
    /// Mechanically it is cancel-and-requeue, built on the scheduler's
    /// guarantee that [`SpiderScheduler::cancel`] returns `true` only for
    /// requests that have not started — a moved request executes exactly
    /// once, on its new device. Placement uses the *non-blocking*
    /// [`SpiderScheduler::try_submit`] and falls through every other
    /// device, the source's own queue last: a request that finds room
    /// only there returns to the tail of its source's queue. Only when
    /// every queue in the fleet is full at once does a stolen request stay
    /// cancelled; that is counted in [`ClusterReport::steal_failures`]
    /// rather than silently swallowed.
    ///
    /// Draining and departed devices are neither sources nor destinations.
    pub fn rebalance(&self) -> usize {
        let m = self.read_membership();
        let mut fleet = Fleet::serving(&m);
        if fleet.slots.len() < 2 {
            return 0;
        }
        let mut st = self.lock();
        let steals = st.steals;
        let total: usize = fleet.depths.iter().sum();
        let mean = (total as f64 / fleet.slots.len() as f64).max(1.0);
        let threshold = mean * self.options.steal_skew.max(1.0);
        let fill = mean.ceil() as usize;
        for from in 0..fleet.slots.len() {
            if (fleet.depths[from] as f64) < threshold {
                continue;
            }
            let slot = fleet.slots[from];
            let dev = &m.slots[slot];
            let queued = Self::queued(&mut st, dev, slot);
            let items: Vec<(u64, StencilRequest)> =
                key_chunks(queued, |seq| st.pending[seq].req.plan_key())
                    .into_iter()
                    .flat_map(|chunk| chunk.into_iter().rev())
                    .filter_map(|seq| Self::cancel_for_move(&st, dev, seq))
                    .take(fleet.depths[from].saturating_sub(fill))
                    .collect();
            fleet.depths[from] -= items.len();
            let unplaced = self.place(&m, &mut st, &mut fleet, items, Move::Steal { from, fill });
            st.steal_failures += unplaced.len() as u64;
        }
        let moved = (st.steals - steals) as usize;
        if moved > 0 {
            st.rebalances += 1;
        }
        moved
    }

    /// The one walk of a slot's queued requests. It prunes the slot's
    /// order list — entries that moved away or reached a terminal state
    /// drop out, so walks scan live queues, not lifetime history — and
    /// returns the still-queued seqs, oldest first. Running requests stay
    /// listed but are not returned: they cannot move.
    fn queued(st: &mut ClusterState, dev: &ClusterDevice, slot: usize) -> Vec<u64> {
        let mut queued = Vec::new();
        let mut order = std::mem::take(&mut st.device_order[slot]);
        order.retain(|&seq| {
            let Some(p) = st.pending.get(&seq).filter(|p| p.device == slot) else {
                return false;
            };
            match dev.scheduler.peek(p.ticket) {
                RequestStatus::Queued { .. } => {
                    queued.push(seq);
                    true
                }
                status => !status.is_terminal(),
            }
        });
        st.device_order[slot] = order;
        queued
    }

    /// Cancel `seq` on `dev` for a move: `Some` only when the cancel
    /// proves the request never started there, so it runs exactly once.
    fn cancel_for_move(
        st: &ClusterState,
        dev: &ClusterDevice,
        seq: u64,
    ) -> Option<(u64, StencilRequest)> {
        let p = &st.pending[&seq];
        dev.scheduler.cancel(p.ticket).then(|| (seq, p.req.clone()))
    }

    /// The one retry decision for an in-flight casualty of a device loss:
    /// a first casualty gets `attempt` 1 stamped on its request and is
    /// returned for placement (`attempt` never feeds `plan_key`, so the
    /// retry is bit-identical, and the chained timeline keeps both lives);
    /// a retry that dies too returns `None` — the failure stays surfaced.
    fn retry(p: &mut Pending) -> Option<StencilRequest> {
        (p.attempts == 0).then(|| {
            p.req.attempt = 1;
            p.req.clone()
        })
    }

    /// The one placement path: every request that changes device — a
    /// steal, a drain's or kill's requeue, a device-loss retry, a rescue —
    /// comes here, already cancelled (or dead) where it was.
    ///
    /// Requests move in plan-key chunks, largest first. A chunk goes to
    /// the least-loaded device of `fleet` (never the steal's source) and
    /// stays there while that device holds fewer than the move's fill
    /// bound — the mean for steals, unbounded for evacuations — then
    /// moves on to the next least-loaded one. A request its destination
    /// refuses, or an injected steal fault diverts, falls through to the
    /// other devices, least loaded first, and last to the steal's source.
    /// `try_submit` never parks, so this runs under the cluster lock;
    /// what found no room anywhere is returned.
    fn place(
        &self,
        m: &Membership,
        st: &mut ClusterState,
        fleet: &mut Fleet,
        items: Vec<(u64, StencilRequest)>,
        kind: Move,
    ) -> Vec<(u64, StencilRequest)> {
        let (from, fill) = match kind {
            Move::Steal { from, fill } => (Some(from), fill),
            Move::Requeue | Move::Retry => (None, usize::MAX),
        };
        let mut unplaced = Vec::new();
        for chunk in key_chunks(items, |(_, req)| req.plan_key()) {
            let mut dest = None;
            for (seq, req) in chunk {
                let Some(d) = dest
                    .filter(|&d| fleet.depths[d] < fill)
                    .or_else(|| fleet.least_loaded(from))
                else {
                    unplaced.push((seq, req));
                    continue;
                };
                dest = Some(d);
                let mut order: Vec<usize> = (0..fleet.slots.len())
                    .filter(|&i| i != d && Some(i) != from)
                    .collect();
                order.sort_by_key(|&i| (fleet.depths[i], i));
                if st.faults.as_mut().is_some_and(|f| f.take_steal_fault()) {
                    order.push(d);
                } else {
                    order.insert(0, d);
                }
                order.extend(from);
                let placed = order.into_iter().find_map(|i| {
                    m.slots[fleet.slots[i]]
                        .scheduler
                        .try_submit(req.clone())
                        .ok()
                        .map(|ticket| (i, ticket))
                });
                match placed {
                    Some((i, ticket)) => {
                        fleet.depths[i] += 1;
                        Self::commit_move(st, seq, fleet.slots[i], ticket, kind);
                    }
                    None => unplaced.push((seq, req)),
                }
            }
        }
        unplaced
    }

    /// Re-point a moved request's entry at its new device and count the
    /// move.
    fn commit_move(st: &mut ClusterState, seq: u64, device: usize, ticket: Ticket, kind: Move) {
        let p = st.pending.get_mut(&seq).expect("pending entry exists"); // guard: callers pass a seq they just found in pending
        let home = p.device == device;
        p.history.push((p.device, p.ticket));
        p.device = device;
        p.ticket = ticket;
        match kind {
            // Back on its own source: no steal, and the source's order
            // list still holds it.
            Move::Steal { .. } if home => return,
            Move::Steal { .. } => st.steals += 1,
            Move::Requeue => st.requeued += 1,
            Move::Retry => {
                p.attempts += 1;
                st.retried += 1;
            }
        }
        st.device_order[device].push(seq);
    }

    /// The one blocking fallback, for evacuated requests (requeues and
    /// retries) [`Self::place`] found no room for: park on the
    /// least-loaded serving device with **no** cluster lock held.
    /// Extremely rare — it needs every serving queue full at once — but
    /// "every queue full" must degrade to waiting, never to losing a
    /// request silently. A request nothing admits (no survivor at all, or
    /// a policy refusal: reject, shed, quota) fails as a device loss and is
    /// counted as unplaced. Returns how many failed so.
    fn place_blocking(&self, unplaced: Vec<(u64, StencilRequest)>, kind: Move) -> usize {
        let mut lost = 0;
        for (seq, req) in unplaced {
            let placed = loop {
                let dest = {
                    let m = self.read_membership();
                    let fleet = Fleet::serving(&m);
                    fleet
                        .least_loaded(None)
                        .map(|i| (fleet.slots[i], Arc::clone(&m.slots[fleet.slots[i]])))
                };
                let Some((slot, dev)) = dest else {
                    break None;
                };
                match dev.scheduler.submit(req.clone()) {
                    Ok(ticket) => break Some((slot, ticket)),
                    Err(SubmitError::ShuttingDown) => continue, // died meanwhile: re-pick
                    Err(_) => break None,
                }
            };
            let mut st = self.lock();
            match placed {
                Some((slot, ticket)) => Self::commit_move(&mut st, seq, slot, ticket, kind),
                None => {
                    if let Some(p) = st.pending.get_mut(&seq) {
                        p.lost = true;
                    }
                    st.unplaced += 1;
                    lost += 1;
                }
            }
        }
        lost
    }

    /// Join a new device live: it starts serving immediately, and the
    /// rendezvous router moves exactly the plan keys that hash to it —
    /// every existing device keeps its partition. Queued work already
    /// placed elsewhere is *not* moved automatically; run
    /// [`Self::rebalance`] to shed backlog onto the newcomer.
    pub fn add_device(&self, spec: DeviceSpec) -> Result<(), ClusterError> {
        let mut m = self.write_membership();
        if m.slots
            .iter()
            .any(|d| !d.departed() && d.spec.name == spec.name)
        {
            return Err(ClusterError::DuplicateName(spec.name));
        }
        let dev = Arc::new(make_device(spec));
        let slot = m.slots.len();
        {
            let mut st = self.lock();
            st.device_order.push(Vec::new());
            st.routed.push(0);
            st.devices_added += 1;
        }
        m.slots.push(dev);
        m.routable.push(slot);
        m.rebuild_router();
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
    /// 2. **Requeue the queue** — cancel every still-queued request and
    ///    place it on the survivors through the one placement path, each
    ///    plan-key chunk on one survivor (exactly-once: cancel-true ⇒
    ///    never started).
    /// 3. **Wait out in-flight waves** — `scheduler.drain()`.
    /// 4. **Retire** — the dispatcher thread exits; the slot stays
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
                m.rebuild_router();
            }
            (slot, Arc::clone(&m.slots[slot]))
        };
        // Requeue the departing queue on the serving devices.
        let unplaced = {
            let m = self.read_membership();
            let mut st = self.lock();
            let items = Self::queued(&mut st, &dev, slot)
                .into_iter()
                .filter_map(|seq| Self::cancel_for_move(&st, &dev, seq))
                .collect();
            let mut fleet = Fleet::serving(&m);
            self.place(&m, &mut st, &mut fleet, items, Move::Requeue)
        };
        self.place_blocking(unplaced, Move::Requeue);
        // Wait out in-flight waves (and any stragglers that raced the
        // draining flag — they simply execute here before retirement).
        dev.scheduler.drain();
        dev.scheduler.retire();
        dev.departed.store(true, Ordering::SeqCst);
        self.lock().devices_removed += 1;
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
    /// * its tickets map back to cluster submissions through the slot's
    ///   own order list (not the cluster's lifetime history);
    /// * its **queued** requests are requeued on survivors exactly-once
    ///   (they never started — [`spider_runtime::KillReport::unstarted`]);
    /// * its **in-flight** requests are casualties, retried once (the retry
    ///   executes the same content-addressed plan, so outcomes stay
    ///   bit-identical); a retry that dies too is abandoned, surfacing
    ///   [`spider_runtime::FailureReason::DeviceLost`];
    /// * requeues and retries both take the one placement path steals
    ///   take, keeping each plan-key chunk on one survivor;
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
                m.rebuild_router();
            }
            (slot, dev)
        };
        let kr = dev.scheduler.kill();
        let mut report = RecoveryReport::default();
        let (requeues, retries) = {
            let m = self.read_membership();
            let mut st = self.lock();
            // Map the dead device's tickets back to cluster seqs through
            // its order list. (A submission racing the kill may not be
            // recorded yet — its submitter's rescue path covers it; see
            // `submit_inner`.)
            let order = std::mem::take(&mut st.device_order[slot]);
            let by_ticket: HashMap<Ticket, u64> = order
                .into_iter()
                .filter_map(|seq| {
                    let p = st.pending.get(&seq).filter(|p| p.device == slot)?;
                    Some((p.ticket, seq))
                })
                .collect();
            let requeues: Vec<(u64, StencilRequest)> = kr
                .unstarted
                .into_iter()
                .filter_map(|(ticket, req)| Some((*by_ticket.get(&ticket)?, req)))
                .collect();
            let mut retries = Vec::new();
            for &seq in kr.lost.iter().filter_map(|t| by_ticket.get(t)) {
                let p = st.pending.get_mut(&seq).expect("mapped entry exists"); // guard: by_ticket maps only seqs found in pending under this lock
                match Self::retry(p) {
                    Some(req) => retries.push((seq, req)),
                    None => report.abandoned += 1,
                }
            }
            report.requeued = requeues.len();
            report.retried = retries.len();
            let mut fleet = Fleet::serving(&m);
            (
                self.place(&m, &mut st, &mut fleet, requeues, Move::Requeue),
                self.place(&m, &mut st, &mut fleet, retries, Move::Retry),
            )
        };
        // The report counts the requeues and retries that landed, placed
        // or parked; what nothing admitted fails and counts as unplaced.
        let lost = (
            self.place_blocking(requeues, Move::Requeue),
            self.place_blocking(retries, Move::Retry),
        );
        report.requeued -= lost.0;
        report.retried -= lost.1;
        report.unplaced = lost.0 + lost.1;
        self.lock().devices_failed += 1;
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
        // announces nothing — detection is `health_tick`'s job).
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
            self.lock().fault_hangs += 1;
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
    /// (`Suspect` after [`SUSPECT_AFTER_TICKS`] beatless-while-busy ticks,
    /// `Dead` after [`DEAD_AFTER_TICKS`]), and recover every shard declared
    /// `Dead` through the standard [`Self::fail_device`] kill/requeue/retry
    /// path — detection-triggered recovery is the *same code* an
    /// operator-declared kill runs, so outcomes stay bit-identical.
    ///
    /// Deterministic and explicit, like [`Self::fault_tick`]: nothing runs
    /// from a background thread, so a cluster that is never health-ticked
    /// is never classified. Space ticks further apart than the longest
    /// healthy dispatch wave (the thresholds count *ticks*, not wall time).
    ///
    /// [`SUSPECT_AFTER_TICKS`]: crate::SUSPECT_AFTER_TICKS
    /// [`DEAD_AFTER_TICKS`]: crate::DEAD_AFTER_TICKS
    pub fn health_tick(&self) -> HealthReport {
        let mut report = HealthReport::default();
        let (suspects, dead): (u64, Vec<String>) = {
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
            let mut suspects = 0;
            let mut dead = Vec::new();
            for t in &transitions {
                match t.to {
                    HealthState::Suspect => suspects += 1,
                    HealthState::Dead => dead.push(t.shard.clone()),
                    HealthState::Healthy => {}
                }
            }
            report.transitions = transitions;
            (suspects, dead)
        };
        // Counted once the monitor lock is released: cluster state ranks
        // below it.
        {
            let mut st = self.lock();
            st.health_suspects += suspects;
            st.health_deaths += dead.len() as u64;
        }
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
    /// (name-sorted; empty before the first [`Self::health_tick`]).
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
            routed,
            report,
        }
    }

    /// Block until every live device's queue is empty, then aggregate the
    /// fleet report — departed devices included in the `departed` roll-up,
    /// so a removed device's served work never vanishes from fleet totals.
    pub fn drain_all(&self) -> ClusterReport {
        let m = self.read_membership();
        let mut devices = Vec::new();
        let mut departed = Vec::new();
        for dev in m.slots.iter().filter(|d| !d.departed()) {
            dev.scheduler.drain();
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
            unplaced: st.unplaced,
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

    /// Fleet-wide metrics snapshot, read when called. Every device's
    /// [`SpiderScheduler::metrics_snapshot`] (departed ones included —
    /// their final counters must not vanish from fleet totals) is merged:
    /// counters and gauges add, histograms merge bucket-wise. Last come the
    /// cluster's own lifecycle counters (`spider_cluster_*`, from its
    /// state), each once it has counted. Device metrics are absent when
    /// telemetry is disabled on every device; the lifecycle counters are
    /// not.
    pub fn fleet_metrics(&self) -> MetricsSnapshot {
        let mut fleet = MetricsSnapshot::default();
        for d in &self.read_membership().slots {
            fleet.merge(&d.scheduler.metrics_snapshot());
        }
        let mut lifecycle = MetricsSnapshot::default();
        {
            let st = self.lock();
            lifecycle.counter("spider_cluster_requeued_total", st.requeued);
            lifecycle.counter("spider_cluster_retried_total", st.retried);
            lifecycle.counter("spider_cluster_unplaced_total", st.unplaced);
            lifecycle.counter("spider_cluster_device_added_total", st.devices_added);
            lifecycle.counter("spider_cluster_device_removed_total", st.devices_removed);
            lifecycle.counter("spider_cluster_device_failed_total", st.devices_failed);
            lifecycle.counter("spider_cluster_fault_hangs_total", st.fault_hangs);
            lifecycle.counter("spider_cluster_health_suspect_total", st.health_suspects);
            lifecycle.counter("spider_cluster_health_dead_total", st.health_deaths);
        }
        // A lifecycle counter appears once it has counted, so a quiet
        // fleet exports only what happened to it.
        lifecycle
            .values
            .retain(|_, v| *v != MetricValue::Counter(0));
        fleet.merge(&lifecycle);
        fleet
    }

    /// Prometheus text exposition of the whole fleet: one block per device
    /// (its [`SpiderScheduler::metrics_snapshot`] labelled
    /// `device="<name>"`, departed devices included with their final
    /// counters), then the merged fleet snapshot with no labels.
    pub fn fleet_prometheus_text(&self) -> String {
        let mut out = String::new();
        for d in &self.read_membership().slots {
            let snap = d.scheduler.metrics_snapshot();
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

fn make_device(spec: DeviceSpec) -> ClusterDevice {
    let device = spider_gpu_sim::GpuDevice::new(spec.specs.clone());
    let runtime = Arc::new(SpiderRuntime::new(device, spec.runtime));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::{DEAD_AFTER_TICKS, SUSPECT_AFTER_TICKS};
    use spider_runtime::{BackpressurePolicy, Priority, SchedulerOptions};
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

    /// A box r2 kernel whose plan key rendezvous routes to `names[slot]`.
    fn kernel_on(names: &[&str], slot: usize) -> StencilKernel {
        let names: Vec<String> = names.iter().map(|n| n.to_string()).collect();
        let router = Router::new(&names);
        (0..)
            .map(|seed| StencilKernel::random(StencilShape::box_2d(2), seed))
            .find(|k| {
                let key = StencilRequest::new_2d(0, k.clone(), 32, 32).plan_key();
                router.rendezvous(key) == slot
            })
            .expect("an unbounded search finds a kernel")
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
        let cluster = SpiderCluster::new(specs(2, true), ClusterOptions::default());
        let kernels = [0, 1].map(|slot| kernel_on(&["dev0", "dev1"], slot));
        for i in 0..6u64 {
            let req = StencilRequest::new_2d(i, kernels[i as usize % 2].clone(), 64, 96);
            cluster
                .submit(req.with_seed(i).with_priority(if i % 2 == 0 {
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

    /// Three paused devices of capacity 14 under `Reject`, with 40
    /// requests accepted, of three kernels routed one to each device: 14,
    /// 13 and 13 queued.
    fn full_rejecting_fleet() -> (SpiderCluster, Vec<ClusterTicket>) {
        let specs: Vec<DeviceSpec> = (0..3)
            .map(|i| {
                DeviceSpec::a100(format!("dev{i}")).with_scheduler_options(SchedulerOptions {
                    start_paused: true,
                    queue_capacity: 14,
                    policy: BackpressurePolicy::Reject,
                    ..SchedulerOptions::default()
                })
            })
            .collect();
        let cluster = SpiderCluster::new(specs, ClusterOptions::default());
        let kernels = [0, 1, 2].map(|slot| kernel_on(&["dev0", "dev1", "dev2"], slot));
        let tickets: Vec<ClusterTicket> = (0..40u64)
            .map(|i| {
                let k = kernels[i as usize % 3].clone();
                let req = StencilRequest::new_2d(i, k, 64, 96).with_seed(i);
                cluster.submit(req).unwrap()
            })
            .collect();
        assert_eq!(cluster.queue_depths(), vec![14, 13, 13]);
        (cluster, tickets)
    }

    /// Every ticket ends `Done` or `Failed { DeviceLost }`; returns how
    /// many failed.
    fn lost_tickets(cluster: &SpiderCluster, tickets: &[ClusterTicket]) -> usize {
        tickets
            .iter()
            .filter(|&&t| match cluster.poll(t) {
                RequestStatus::Done(_) => false,
                RequestStatus::Failed {
                    reason: FailureReason::DeviceLost,
                } => true,
                other => panic!("ticket {} ended {other:?}", t.id()),
            })
            .count()
    }

    /// Under `Reject`, an evacuated request that no survivor admits fails
    /// as a device loss instead of staying silently cancelled, and the
    /// recovery report counts only what landed: dev0 (14 queued) dies
    /// while the survivors have room for 2.
    #[test]
    fn an_evacuation_nothing_admits_fails_and_is_counted() {
        let (cluster, tickets) = full_rejecting_fleet();
        let recovery = cluster.fail_device("dev0").unwrap();
        assert_eq!(
            recovery,
            RecoveryReport {
                requeued: 2,
                retried: 0,
                abandoned: 0,
                unplaced: 12,
            }
        );
        let report = cluster.drain_all();
        assert_eq!(
            (report.requeued, report.retried, report.unplaced),
            (2, 0, 12),
            "the recovery report equals the counters"
        );
        assert_eq!(report.steal_failures, 0);
        assert_eq!(lost_tickets(&cluster, &tickets), 12);
        assert_eq!(report.total_completed(), 28);
        let metrics = cluster.fleet_metrics();
        assert_eq!(metrics.counter_value("spider_cluster_unplaced_total"), 12);
        assert!(report
            .render()
            .contains("2 requeued, 0 retried, 12 unplaced"));
    }

    /// A drain's requeues fail the same way: dev1 (13 queued) leaves while
    /// only dev2 has room, for one.
    #[test]
    fn a_drain_requeue_nothing_admits_fails_and_is_counted() {
        let (cluster, tickets) = full_rejecting_fleet();
        cluster.remove_device("dev1").unwrap();
        let report = cluster.drain_all();
        assert_eq!((report.requeued, report.unplaced), (1, 12));
        assert_eq!(lost_tickets(&cluster, &tickets), 12);
        assert_eq!(report.total_completed(), 28);
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
        // Kill a device mid-flight: the casualties re-route once and their
        // checksums match the reference.
        let cluster = SpiderCluster::new(specs(3, false), ClusterOptions::default());
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
                s => panic!("not done after one kill: {s:?}"),
            }
        }
    }

    /// A device failed while a request runs on it: the attempts it kills
    /// are retried elsewhere, and the fleet's profiler, its exported
    /// completion counter and its report all count each completion once,
    /// the killed attempts not among them.
    #[test]
    fn a_failed_device_counts_each_completion_once() {
        let cluster = SpiderCluster::new(
            vec![DeviceSpec::a100("gpu0"), DeviceSpec::a100("gpu1")],
            ClusterOptions::default(),
        );
        let kernels = [0, 1].map(|slot| kernel_on(&["gpu0", "gpu1"], slot));
        let tickets: Vec<ClusterTicket> = (0..4u64)
            .map(|i| {
                let k = kernels[i as usize % 2].clone();
                let req = StencilRequest::new_2d(i, k, 1024, 1024);
                cluster.submit(req.with_steps(3).with_seed(i)).unwrap()
            })
            .collect();
        // The first request's kernel routes to gpu0.
        let start = Instant::now();
        while !matches!(cluster.poll(tickets[0]), RequestStatus::Running) {
            assert!(start.elapsed().as_secs() < 30, "never ran");
            std::thread::yield_now();
        }
        cluster.fail_device("gpu0").unwrap();
        let report = cluster.drain_all();
        let profiled: u64 = cluster
            .fleet_profile()
            .iter()
            .map(|p| p.stats.requests)
            .sum();
        let exported = cluster
            .fleet_metrics()
            .counter_value("spider_runtime_requests_completed_total");
        let completed = report.total_completed() as u64;
        assert_eq!((profiled, exported), (completed, completed));
    }

    /// The retry bound: a request whose device dies while it runs is
    /// retried once, and when the device its retry runs on dies too, it is
    /// abandoned — once — and polls `Failed { DeviceLost }`. Its first
    /// life's events carry `attempt` 0 and its retry's carry 1.
    #[test]
    fn a_retry_that_dies_too_is_abandoned_once() {
        let cluster = SpiderCluster::new(specs(3, false), ClusterOptions::default());
        let req = StencilRequest::new_2d(0, StencilKernel::gaussian_2d(2), 1024, 1024);
        let t = cluster.submit(req.with_steps(3)).unwrap();
        // Wait until the request runs, then kill the device it runs on.
        let kill_where_it_runs = || {
            let start = Instant::now();
            while !matches!(cluster.poll(t), RequestStatus::Running) {
                assert!(start.elapsed().as_secs() < 30, "never ran");
                std::thread::yield_now();
            }
            let slot = cluster.lock().pending[&t.seq].device;
            let name = cluster.read_membership().slots[slot].spec.name.clone();
            (slot, cluster.fail_device(&name).unwrap())
        };
        let recovery = |retried, abandoned| RecoveryReport {
            retried,
            abandoned,
            ..RecoveryReport::default()
        };
        let (first, lost) = kill_where_it_runs();
        assert_eq!(lost, recovery(1, 0));
        let (second, lost) = kill_where_it_runs();
        assert_eq!(lost, recovery(0, 1));
        assert_ne!(first, second);
        assert!(matches!(
            cluster.poll(t),
            RequestStatus::Failed {
                reason: FailureReason::DeviceLost
            }
        ));
        let report = cluster.drain_all();
        assert_eq!((report.retried, report.devices_failed), (1, 2));
        assert_eq!(report.total_completed(), 0);
        let m = cluster.read_membership();
        let attempts = |slot: usize| -> Vec<u32> {
            let trace = m.slots[slot].runtime.telemetry().trace().timeline(0);
            trace.iter().map(|e| e.attempt).collect()
        };
        let (lived, retried) = (attempts(first), attempts(second));
        assert!(
            !lived.is_empty() && lived.iter().all(|&a| a == 0),
            "{lived:?}"
        );
        assert!(
            !retried.is_empty() && retried.iter().all(|&a| a == 1),
            "{retried:?}"
        );
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
        assert_eq!(
            suspected_at,
            Some(SUSPECT_AFTER_TICKS as usize),
            "suspect after the threshold's missed beats (baseline tick first)"
        );
        assert_eq!(dead_at, Some(DEAD_AFTER_TICKS as usize));
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
    fn an_unticked_health_monitor_changes_nothing() {
        // Same hang, never health-ticked: nothing is classified or killed,
        // and drain_all (which resumes every live scheduler) serves the
        // backlog.
        let (cluster, victim, tickets) = loaded_cluster(8, ClusterOptions::default());
        cluster.inject_faults(FaultPlan::hang_after(&victim, 0));
        cluster.fault_tick();
        cluster.resume_all();
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

    /// Slot of the device serving each ticket, one digit per ticket.
    fn placement(cluster: &SpiderCluster, tickets: &[ClusterTicket]) -> String {
        let st = cluster.lock();
        tickets
            .iter()
            .map(|t| char::from_digit(st.pending[&t.seq].device as u32, 10).unwrap())
            .collect()
    }

    #[test]
    fn placement_is_pinned_across_steal_drain_kill_and_rebalance() {
        // Six plan keys in skewed proportions over six paused devices:
        // affinity stacks them unevenly, the steal fills destinations up to
        // the mean, the drain and the kill keep each chunk on one
        // destination (three injected steal faults divert the kill's first
        // placements), and the last rebalance steals from what the
        // evacuations piled up. One digit per request: the slot serving it.
        let cluster = SpiderCluster::new(specs(6, true), ClusterOptions { steal_skew: 1.2 });
        let kernels: Vec<StencilKernel> = (0..6)
            .map(|s| StencilKernel::random(StencilShape::box_2d(1), s))
            .collect();
        let pattern = [5, 4, 5, 3, 5, 4, 2, 5, 4, 1, 0, 5];
        let tickets: Vec<ClusterTicket> = (0..48u64)
            .map(|i| {
                let k = kernels[pattern[i as usize % pattern.len()]].clone();
                cluster
                    .submit(StencilRequest::new_2d(i, k, 32, 32).with_seed(i))
                    .unwrap()
            })
            .collect();
        assert_eq!(
            placement(&cluster, &tickets),
            "020102402450020102402450020102402450020102402450"
        );
        assert_eq!(cluster.rebalance(), 16);
        assert_eq!(
            placement(&cluster, &tickets),
            "020102402450020102412451121132435453353135435453"
        );
        // Drain a deepest shard (all tie), then kill the next deepest.
        assert_eq!(cluster.queue_depths(), vec![8; 6]);
        cluster.remove_device("dev0").unwrap();
        assert_eq!(
            placement(&cluster, &tickets),
            "121112412451121112412451121132435453353135435453"
        );
        assert_eq!(cluster.queue_depths(), vec![16, 8, 8, 8, 8]);
        cluster.inject_faults(FaultPlan::default().with_failed_steals(3));
        let recovery = cluster.fail_device("dev1").unwrap();
        assert_eq!(recovery.requeued, 16);
        assert_eq!(
            placement(&cluster, &tickets),
            "222322422452222322422455423332435453353335435453"
        );
        assert_eq!(cluster.queue_depths(), vec![17, 13, 9, 9]);
        assert_eq!(cluster.rebalance(), 5);
        assert_eq!(
            placement(&cluster, &tickets),
            "222322452455424342422455423332435453353335435453"
        );
        let report = cluster.drain_all();
        assert_eq!(report.total_completed(), 48);
        assert_eq!(report.steals, 21);
        assert_eq!(report.requeued, 24);
        assert_eq!(report.steal_failures, 0);
        for t in tickets {
            assert!(matches!(cluster.poll(t), RequestStatus::Done(_)));
        }
    }

    #[test]
    fn killing_a_device_that_received_steals_requeues_its_whole_queue() {
        // The victim first receives stolen work, then has most of its own
        // backlog stolen, so its order list holds entries that moved away.
        // The kill must map exactly the tickets still queued there.
        let cluster = SpiderCluster::new(specs(3, true), ClusterOptions::default());
        let slot_of = |k: &StencilKernel| {
            cluster
                .route(&StencilRequest::new_2d(0, k.clone(), 32, 32))
                .0
        };
        let jacobi = StencilKernel::jacobi_2d();
        let first = slot_of(&jacobi);
        let mut tickets: Vec<ClusterTicket> = (0..12u64)
            .map(|i| {
                cluster
                    .submit(StencilRequest::new_2d(i, jacobi.clone(), 32, 32).with_seed(i))
                    .unwrap()
            })
            .collect();
        assert_eq!(cluster.rebalance(), 8);
        let received = cluster.queue_depths();
        let other = [
            StencilKernel::heat_2d(0.12),
            StencilKernel::gaussian_2d(2),
            StencilKernel::random(StencilShape::star_2d(2), 7),
        ]
        .into_iter()
        .find(|k| slot_of(k) != first)
        .expect("some kernel routes elsewhere");
        let victim_slot = slot_of(&other);
        for i in 12..36u64 {
            tickets.push(
                cluster
                    .submit(StencilRequest::new_2d(i, other.clone(), 32, 32).with_seed(i))
                    .unwrap(),
            );
        }
        assert_eq!(received[victim_slot], 4, "the victim received steals");
        assert_eq!(cluster.rebalance(), 16, "the victim's backlog is stolen");
        let victim = cluster.device_names()[victim_slot].clone();
        let depth = cluster.queue_depths()[victim_slot];
        assert!(depth > 0);
        let recovery = cluster.fail_device(&victim).unwrap();
        assert_eq!(recovery.requeued, depth);
        assert_eq!(recovery.retried, 0);
        assert_eq!(recovery.abandoned, 0);
        let report = cluster.drain_all();
        assert_eq!(report.total_completed(), 36);
        for t in tickets {
            assert!(matches!(cluster.poll(t), RequestStatus::Done(_)));
        }
    }

    #[test]
    fn a_steal_with_room_only_on_its_source_returns_there() {
        // dev1's queue holds two requests and is full: everything dev0's
        // excess tries to move there comes back to dev0's queue, nothing
        // counts as a steal, and nothing is lost.
        let mut fleet = specs(2, true);
        fleet[1].scheduler.queue_capacity = 2;
        fleet[1].scheduler.policy = spider_runtime::BackpressurePolicy::Reject;
        let cluster = SpiderCluster::new(fleet, ClusterOptions { steal_skew: 1.2 });
        let kernels: Vec<StencilKernel> = (0..8)
            .map(|s| StencilKernel::random(StencilShape::box_2d(1), s))
            .collect();
        let on = |slot: usize| {
            kernels
                .iter()
                .find(|k| {
                    cluster
                        .route(&StencilRequest::new_2d(0, (*k).clone(), 32, 32))
                        .0
                        == slot
                })
                .expect("some kernel routes to each device")
                .clone()
        };
        let (deep, full) = (on(0), on(1));
        let tickets: Vec<ClusterTicket> = (0..22u64)
            .map(|i| {
                let k = if i < 20 { deep.clone() } else { full.clone() };
                cluster
                    .submit(StencilRequest::new_2d(i, k, 32, 32).with_seed(i))
                    .unwrap()
            })
            .collect();
        assert_eq!(cluster.queue_depths(), vec![20, 2]);
        assert_eq!(cluster.rebalance(), 0);
        assert_eq!(cluster.queue_depths(), vec![20, 2]);
        let report = cluster.drain_all();
        assert_eq!(report.steals, 0);
        assert_eq!(report.steal_failures, 0);
        // The pass did not stop at the first refusal: all nine of the
        // excess went out and came back, and dev0 counts each cancel.
        let dev0 = report.devices[0].report.queue.as_ref().unwrap();
        assert_eq!(dev0.cancelled, 9);
        assert_eq!(report.total_completed(), 22);
        for t in tickets {
            assert!(matches!(cluster.poll(t), RequestStatus::Done(_)));
        }
    }

    #[test]
    fn all_cancelled_fleet_renders_no_negative_zero() {
        // No outcome anywhere: every busy time is an empty sum, which
        // must render as 0.0us, never -0.0us.
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
        let text = cluster.drain_all().render();
        assert!(!text.contains("-0.0"), "{text}");
    }
}

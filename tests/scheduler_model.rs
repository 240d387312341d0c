//! Model-based test of the async scheduler's queue.
//!
//! [`Model`] is a sequential reference implementation of what
//! `SpiderScheduler` does with its admission queue when nothing ages and one
//! worker runs each wave's groups in order: lapsed deadlines expire at the
//! next submit, poll or dispatch; admission quotas are checked before the
//! backpressure policy; `ShedLowestPriority` evicts the lowest level, then
//! the youngest; and each wave takes the top-level cohort, cuts it to one
//! deficit-round-robin round when tenants are registered, and groups it by
//! plan key under `max_coalesce`. The queue is a plain `Vec` scanned on
//! every operation, so the model is obviously right and obviously slow.
//!
//! Random submit/cancel sequences run against a paused scheduler and the
//! model side by side. After `drain`, the completion order and every
//! per-tenant counter must be equal.

use std::cmp::Reverse;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use proptest::prelude::*;
use spider::prelude::*;

/// The deterministic per-tenant counters (wait times are wall clock and
/// are left out; `dispatched` is the wait histogram's sample count).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Counters {
    submitted: u64,
    completed: u64,
    failed: u64,
    shed: u64,
    expired: u64,
    cancelled: u64,
    rejected: u64,
    served_cost: u64,
    max_depth: u64,
    dispatched: u64,
}

impl Counters {
    fn of(q: &QueueStats) -> Self {
        Self {
            submitted: q.submitted,
            completed: q.completed,
            failed: q.failed,
            shed: q.shed,
            expired: q.expired,
            cancelled: q.cancelled,
            rejected: q.rejected,
            served_cost: q.served_cost,
            max_depth: q.max_depth as u64,
            dispatched: q.wait_hist.count(),
        }
    }
}

/// One queued request as the model sees it.
#[derive(Debug, Clone, Copy)]
struct Entry {
    ticket: u64,
    tenant: TenantId,
    level: u8,
    /// Stands in for the plan key: one per kernel.
    key: u8,
    /// Deficit-round-robin cost: grid points × sweeps.
    cost: u64,
    /// Submitted with an already-lapsed deadline.
    doomed: bool,
}

#[derive(Default)]
struct Model {
    capacity: usize,
    shed: bool,
    max_coalesce: usize,
    /// Registered tenants; empty = tenant-unaware (whole-cohort waves).
    weights: Vec<(TenantId, u64)>,
    quotas: Vec<(TenantId, usize)>,
    queue: Vec<Entry>,
    next_ticket: u64,
    deficits: BTreeMap<TenantId, u64>,
    order: Vec<u64>,
    rows: BTreeMap<TenantId, Counters>,
    waves: u64,
    groups: u64,
    max_depth: u64,
}

impl Model {
    fn row(&mut self, tenant: TenantId) -> &mut Counters {
        self.rows.entry(tenant).or_default()
    }

    fn queued(&self, tenant: TenantId) -> usize {
        self.queue.iter().filter(|e| e.tenant == tenant).count()
    }

    fn expire(&mut self) {
        let (due, live): (Vec<Entry>, Vec<Entry>) = self.queue.iter().partition(|e| e.doomed);
        self.queue = live;
        for e in due {
            self.row(e.tenant).expired += 1;
            self.order.push(e.ticket);
        }
    }

    /// The ticket handed back, or `None` when the submission is refused.
    fn submit(&mut self, mut e: Entry) -> Option<u64> {
        self.expire();
        let quota = self.quotas.iter().find(|q| q.0 == e.tenant).map(|q| q.1);
        let full = self.queue.len() >= self.capacity;
        if quota.is_some_and(|q| self.queued(e.tenant) >= q) || (full && !self.shed) {
            self.row(e.tenant).rejected += 1;
            return None;
        }
        e.ticket = self.next_ticket;
        self.next_ticket += 1;
        if full {
            let victim = (0..self.queue.len())
                .min_by_key(|&i| (self.queue[i].level, Reverse(self.queue[i].ticket)))
                .expect("a full queue has a victim");
            if e.level <= self.queue[victim].level {
                let row = self.row(e.tenant);
                row.submitted += 1;
                row.shed += 1;
                self.order.push(e.ticket);
                return Some(e.ticket);
            }
            let v = self.queue.remove(victim);
            self.row(v.tenant).shed += 1;
            self.order.push(v.ticket);
        }
        self.queue.push(e);
        let depth = self.queued(e.tenant) as u64;
        let row = self.row(e.tenant);
        row.submitted += 1;
        row.max_depth = row.max_depth.max(depth);
        self.max_depth = self.max_depth.max(self.queue.len() as u64);
        Some(e.ticket)
    }

    /// A poll (which expires lapsed deadlines) followed by a cancel.
    fn cancel(&mut self, ticket: u64) -> bool {
        self.expire();
        let Some(i) = self.queue.iter().position(|e| e.ticket == ticket) else {
            return false;
        };
        let e = self.queue.remove(i);
        self.row(e.tenant).cancelled += 1;
        self.order.push(e.ticket);
        true
    }

    fn drr_round(&mut self, cohort: &[usize]) -> Vec<usize> {
        let quantum = cohort
            .iter()
            .map(|&i| self.queue[i].cost)
            .max()
            .unwrap_or(1);
        let mut per_tenant: BTreeMap<TenantId, VecDeque<usize>> = BTreeMap::new();
        for &i in cohort {
            per_tenant
                .entry(self.queue[i].tenant)
                .or_default()
                .push_back(i);
        }
        let mut selected = Vec::new();
        for (tenant, mut pending) in per_tenant {
            let weight = self
                .weights
                .iter()
                .find(|w| w.0 == tenant)
                .map_or(1, |w| w.1);
            let deficit = self.deficits.entry(tenant).or_insert(0);
            *deficit += weight * quantum;
            while let Some(&i) = pending.front() {
                if *deficit < self.queue[i].cost {
                    break;
                }
                *deficit -= self.queue[i].cost;
                selected.push(i);
                pending.pop_front();
            }
            if pending.is_empty() {
                *deficit = 0;
            }
        }
        selected.sort_unstable();
        selected
    }

    fn drain(&mut self) {
        self.expire();
        while !self.queue.is_empty() {
            let top = self.queue.iter().map(|e| e.level).max().unwrap_or(0);
            let cohort: Vec<usize> = (0..self.queue.len())
                .filter(|&i| self.queue[i].level == top)
                .collect();
            let members = if self.weights.is_empty() {
                cohort
            } else {
                self.drr_round(&cohort)
            };
            let mut groups: Vec<(u8, Vec<usize>)> = Vec::new();
            for i in members {
                let key = self.queue[i].key;
                match groups.iter_mut().find(|g| g.0 == key) {
                    Some(g) if self.max_coalesce == 0 || g.1.len() < self.max_coalesce => {
                        g.1.push(i)
                    }
                    Some(_) => {}
                    None => groups.push((key, vec![i])),
                }
            }
            let mut dispatched = vec![false; self.queue.len()];
            for &i in groups.iter().flat_map(|g| &g.1) {
                dispatched[i] = true;
                let e = self.queue[i];
                let row = self.row(e.tenant);
                row.served_cost += e.cost;
                row.dispatched += 1;
            }
            for &i in groups.iter().flat_map(|g| &g.1) {
                let e = self.queue[i];
                self.row(e.tenant).completed += 1;
                self.order.push(e.ticket);
            }
            self.waves += 1;
            self.groups += groups.len() as u64;
            let mut i = 0;
            self.queue.retain(|_| {
                i += 1;
                !dispatched[i - 1]
            });
        }
    }
}

/// One runtime for every case: plans and tunings stay warm, and nothing
/// about the runtime can change which requests a wave takes.
fn runtime() -> Arc<SpiderRuntime> {
    static RUNTIME: OnceLock<Arc<SpiderRuntime>> = OnceLock::new();
    Arc::clone(RUNTIME.get_or_init(|| {
        Arc::new(SpiderRuntime::new(
            GpuDevice::a100(),
            RuntimeOptions {
                cache_capacity: 8,
                workers: 1,
                tuner_dry_run_cap: 1 << 12,
                tuner_shortlist: 2,
                ..RuntimeOptions::default()
            },
        ))
    }))
}

fn kernel(k: u8) -> StencilKernel {
    match k {
        0 => StencilKernel::jacobi_2d(),
        1 => StencilKernel::heat_2d(0.12),
        _ => StencilKernel::gaussian_2d(1),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Each op is (kind, tenant, priority, kernel, extent, doom, pick):
    /// kind 0 cancels the `pick`-th ticket handed out so far, any other kind
    /// submits; doom 0 submits with a deadline that has already lapsed.
    #[test]
    fn scheduler_matches_the_reference_model(
        ops in prop::collection::vec((0u8..5, 0u64..3, 0u8..3, 0u8..3, 0usize..2, 0u8..5, 0usize..64), 1..48),
        tenancy in any::<bool>(),
        weights in (1u64..5, 1u64..5),
        quotas in (0usize..4, 0usize..4),
        capacity in 2usize..16,
        shed in any::<bool>(),
        max_coalesce in 0usize..3,
    ) {
        let mut options = SchedulerOptions {
            queue_capacity: capacity,
            policy: if shed { BackpressurePolicy::ShedLowestPriority } else { BackpressurePolicy::Reject },
            aging_step: None,
            start_paused: true,
            max_coalesce,
            ..SchedulerOptions::default()
        };
        let mut model = Model {
            capacity,
            shed,
            max_coalesce,
            ..Model::default()
        };
        if tenancy {
            for (id, weight, quota) in [(1, weights.0, quotas.0), (2, weights.1, quotas.1)] {
                let tenant = TenantId::new(id);
                let mut config = TenantConfig::weighted(weight);
                if quota > 0 {
                    config = config.with_admission_quota(quota);
                    model.quotas.push((tenant, quota));
                }
                options = options.with_tenant(tenant, config);
                model.weights.push((tenant, weight));
            }
        }
        let sched = SpiderScheduler::new(runtime(), options);

        let mut tickets: Vec<Ticket> = Vec::new();
        for (i, &(kind, tenant, level, k, extent, doom, pick)) in ops.iter().enumerate() {
            if kind == 0 {
                let Some(&t) = tickets.get(pick % tickets.len().max(1)) else {
                    continue;
                };
                // Poll first, so lapsed deadlines expire here on both sides
                // and the paused dispatcher's own expiry sweep cannot race
                // the cancel.
                sched.poll(t);
                prop_assert_eq!(sched.cancel(t), model.cancel(t.id()), "op {}: cancel {}", i, t.id());
                continue;
            }
            let (tenant, cols) = (TenantId::new(tenant), 16 * (1 + extent));
            let mut req = StencilRequest::builder(i as u64, kernel(k), GridSpec::D2 { rows: 16, cols })
                .tenant(tenant)
                .priority(Priority::from_level(level))
                .build();
            if doom == 0 {
                req = req.with_deadline(Deadline::within(Duration::ZERO));
            }
            let got = sched.submit(req).ok();
            let want = model.submit(Entry {
                ticket: 0,
                tenant,
                level,
                key: k,
                cost: 16 * cols as u64,
                doomed: doom == 0,
            });
            prop_assert_eq!(got.map(|t| t.id()), want, "op {}: submit", i);
            tickets.extend(got);
        }
        sched.drain();
        model.drain();

        let order: Vec<u64> = sched.completion_order().iter().map(Ticket::id).collect();
        prop_assert_eq!(&order, &model.order, "completion order");
        let rows: BTreeMap<TenantId, Counters> = sched
            .tenant_queue_stats()
            .iter()
            .map(|(t, q)| (*t, Counters::of(q)))
            .collect();
        prop_assert_eq!(&rows, &model.rows, "per-tenant counters");
        let q = sched.queue_stats();
        prop_assert_eq!(
            (q.dispatch_waves, q.coalesced_groups, q.max_depth as u64),
            (model.waves, model.groups, model.max_depth),
            "waves, groups and peak depth"
        );
    }
}

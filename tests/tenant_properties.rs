//! Property tests for multi-tenant serving: weighted-fair dispatch must be
//! invisible in the data (bit-identical to the blocking path) and visible
//! in the schedule (served work tracks configured weights, a victim's
//! completion position is bounded regardless of a noisy neighbor's
//! backlog).

use std::sync::Arc;

use proptest::prelude::*;
use spider::prelude::*;

/// Equal-cost requests (one kernel, one extent) so deficit-round-robin
/// costs are uniform and served-work ratios read as request-count ratios.
fn uniform_request(id: u64, tenant: TenantId) -> StencilRequest {
    StencilRequest::new(
        id,
        StencilKernel::jacobi_2d(),
        GridSpec::D2 { rows: 40, cols: 56 },
    )
    .with_seed(1000 + id)
    .with_tenant(tenant)
}

/// A small-cache runtime with a short tuner shortlist; a scheduler over it
/// runs each wave's groups in cohort order.
fn scheduler_runtime() -> SpiderRuntime {
    SpiderRuntime::new(
        GpuDevice::a100(),
        RuntimeOptions {
            cache_capacity: 8,
            tuner_dry_run_cap: 1 << 12,
            tuner_shortlist: 2,
            ..RuntimeOptions::default()
        },
    )
}

/// Deterministic first-come-first-served waves: paused start, no aging —
/// each wave fully completes before the next is formed.
fn deterministic_options() -> SchedulerOptions {
    SchedulerOptions {
        start_paused: true,
        aging_step: None,
        ..SchedulerOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Weighted-fair scheduling reorders *when* requests run, never *what*
    /// they compute: outcomes are bit-identical to blocking `run_batch`,
    /// and the per-tenant rows account for every request.
    #[test]
    fn weighted_fair_is_bit_identical_to_run_batch(
        n in 2usize..8,
        tenant_bits in any::<u64>(),
        w1 in 1u64..8,
        w2 in 1u64..8,
    ) {
        let requests: Vec<StencilRequest> = (0..n as u64)
            .map(|i| {
                let tenant = match (tenant_bits >> (2 * i)) & 3 {
                    0 => TenantId::ANONYMOUS,
                    1 | 2 => TenantId::new(1),
                    _ => TenantId::new(2),
                };
                uniform_request(i, tenant)
            })
            .collect();

        let blocking = scheduler_runtime().run_batch(&requests);
        prop_assert!(blocking.failures.is_empty());

        let sched = SpiderScheduler::new(
            Arc::new(scheduler_runtime()),
            SchedulerOptions::default()
                .with_tenant(TenantId::new(1), TenantConfig::weighted(w1))
                .with_tenant(TenantId::new(2), TenantConfig::weighted(w2)),
        );
        let tickets: Vec<Ticket> = requests
            .iter()
            .map(|r| sched.submit(r.clone()).unwrap())
            .collect();
        let report = sched.drain();
        prop_assert_eq!(report.outcomes.len(), n);

        for (req, t) in requests.iter().zip(&tickets) {
            let RequestStatus::Done(outcome) = sched.poll(*t) else {
                return Err(TestCaseError::fail(format!("ticket for {} not Done", req.id)));
            };
            let want = blocking.outcomes.iter().find(|o| o.id == req.id).unwrap();
            prop_assert_eq!(
                outcome.checksum, want.checksum,
                "request {} diverged from run_batch under weighted-fair dispatch", req.id
            );
            prop_assert_eq!(&outcome.report.counters, &want.report.counters);
        }
        // Per-tenant rows account for exactly the assigned requests.
        for tenant in [TenantId::ANONYMOUS, TenantId::new(1), TenantId::new(2)] {
            let assigned = requests.iter().filter(|r| r.tenant == tenant).count() as u64;
            let row = report.tenant_queue(tenant);
            prop_assert_eq!(row.map_or(0, |q| q.submitted), assigned);
            prop_assert_eq!(row.map_or(0, |q| q.completed), assigned);
        }
    }

    /// Under saturation (everything queued before dispatch), each wave
    /// serves tenants in proportion to their weights: after every wave
    /// boundary while both tenants are backlogged, the completion prefix
    /// holds exactly `w` heavy completions per light one.
    #[test]
    fn served_work_tracks_weight_ratio_under_saturation(
        w in 2u64..7,
        waves in 2usize..4,
    ) {
        let heavy = TenantId::new(1);
        let light = TenantId::new(2);
        let n_heavy = w as usize * waves;
        let n_light = waves;

        let sched = SpiderScheduler::new(
            Arc::new(scheduler_runtime()),
            deterministic_options()
                .with_tenant(heavy, TenantConfig::weighted(w))
                .with_tenant(light, TenantConfig::weighted(1)),
        );
        let mut owner = std::collections::HashMap::new();
        for i in 0..(n_heavy + n_light) as u64 {
            let tenant = if (i as usize) < n_heavy { heavy } else { light };
            let t = sched.submit(uniform_request(i, tenant)).unwrap();
            owner.insert(t, tenant);
        }
        prop_assert_eq!(sched.queue_depth(), n_heavy + n_light);
        sched.resume();
        let report = sched.drain();

        let order = sched.completion_order();
        prop_assert_eq!(order.len(), n_heavy + n_light);
        // Equal costs ⇒ quantum = cost ⇒ wave i dispatches exactly w heavy
        // + 1 light while both are backlogged.
        for i in 1..=waves {
            let prefix = &order[..i * (w as usize + 1)];
            let heavy_done = prefix.iter().filter(|t| owner[t] == heavy).count();
            prop_assert_eq!(
                heavy_done, i * w as usize,
                "after wave {i}: {heavy_done} heavy completions, want {} (w = {w})",
                i * w as usize
            );
        }
        // Served cost follows the same ratio over the backlogged phase.
        let hq = report.tenant_queue(heavy).unwrap();
        let lq = report.tenant_queue(light).unwrap();
        prop_assert_eq!(hq.served_cost, w * lq.served_cost);
    }

    /// A noisy neighbor with an arbitrarily deep backlog cannot starve a
    /// weighted victim: the victim's *last* completion position is bounded
    /// by its own demand and weight — `ceil(nV / wV)` waves of at most
    /// `wV + 1` completions each — independent of how much the bully
    /// queued. (This is the deterministic form of the bounded-p99 claim:
    /// queueing delay is completion position in disguise.)
    #[test]
    fn noisy_neighbor_cannot_starve_a_weighted_victim(
        victim_weight in 2u64..5,
        n_victim in 2usize..6,
        n_noisy in 10usize..20,
    ) {
        let victim = TenantId::new(1);
        let noisy = TenantId::new(2);
        let sched = SpiderScheduler::new(
            Arc::new(scheduler_runtime()),
            deterministic_options()
                .with_tenant(victim, TenantConfig::weighted(victim_weight))
                .with_tenant(noisy, TenantConfig::weighted(1)),
        );
        // Bully queues its whole backlog first, then the victim arrives.
        let mut victim_tickets = Vec::new();
        for i in 0..n_noisy as u64 {
            sched.submit(uniform_request(i, noisy)).unwrap();
        }
        for i in 0..n_victim as u64 {
            victim_tickets.push(sched.submit(uniform_request(1000 + i, victim)).unwrap());
        }
        sched.resume();
        let report = sched.drain();

        let order = sched.completion_order();
        let last_victim = victim_tickets
            .iter()
            .map(|t| order.iter().position(|x| x == t).unwrap())
            .max()
            .unwrap();
        let victim_waves = n_victim.div_ceil(victim_weight as usize);
        let bound = victim_waves * (victim_weight as usize + 1);
        prop_assert!(
            last_victim < bound,
            "victim's last completion at position {last_victim}, bound {bound} \
             (weight {victim_weight}, {n_victim} victim vs {n_noisy} noisy requests)"
        );
        prop_assert_eq!(report.tenant_queue(victim).unwrap().completed, n_victim as u64);
        prop_assert_eq!(report.tenant_queue(noisy).unwrap().completed, n_noisy as u64);
    }
}

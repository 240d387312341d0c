//! Multi-tenant SLO serving demo: weighted-fair scheduling, admission
//! quotas, tenant-aware plan caching and per-tenant telemetry.
//!
//! Four scenes, each asserting one tenancy guarantee:
//!
//! 1. **Weighted fairness** — two saturating tenants at 4:1 weights: each
//!    dispatch wave serves exactly 4 heavy requests per light one, and the
//!    drained served-cost ratio equals the weight ratio.
//! 2. **Noisy neighbor** — the traffic harness's canonical scene (a paced
//!    victim vs a closed-loop bully) twice: tenant-unaware FIFO lets the
//!    bully inflate the victim's p99 wait; weights + an admission quota
//!    bound it.
//! 3. **Admission quotas** — an over-quota tenant is *refused* (a typed
//!    [`SubmitError::QuotaExceeded`], never a block), through the same
//!    [`Submit`] trait the cluster implements.
//! 4. **Tenant-aware cache + telemetry** — a cache reserve keeps a
//!    protected tenant's plans resident under bully churn, and every
//!    per-tenant counter exports with a `tenant="…"` label.
//!
//! ```text
//! cargo run --release --example multi_tenant_serving
//! ```

use std::sync::Arc;

use spider::prelude::*;
use spider_bench::traffic;

/// Equal-cost requests (one kernel, one extent): DRR costs are uniform, so
/// served-work ratios read directly as request-count ratios.
fn uniform_request(id: u64, tenant: TenantId) -> StencilRequest {
    StencilRequest::builder(
        id,
        StencilKernel::jacobi_2d(),
        GridSpec::D2 { rows: 48, cols: 64 },
    )
    .seed(500 + id)
    .tenant(tenant)
    .build()
}

/// A runtime fanning groups out over `workers` threads (`1` =
/// deterministic completion order within a wave).
fn runtime(workers: usize) -> Arc<SpiderRuntime> {
    Arc::new(SpiderRuntime::new(
        GpuDevice::a100(),
        RuntimeOptions {
            cache_capacity: 8,
            workers,
            ..RuntimeOptions::default()
        },
    ))
}

fn scene_1_weighted_fairness() {
    println!("── scene 1: weighted-fair scheduling at 4:1 ────────────────────");
    let heavy = TenantId::new(1);
    let light = TenantId::new(2);
    let sched = SpiderScheduler::new(
        runtime(1),
        SchedulerOptions {
            start_paused: true,
            aging_step: None,
            ..SchedulerOptions::default()
        }
        .with_tenant(heavy, TenantConfig::weighted(4))
        .with_tenant(light, TenantConfig::weighted(1)),
    );
    // Saturate: 12 heavy + 3 light queued before anything dispatches.
    let mut owner = std::collections::HashMap::new();
    for i in 0..15u64 {
        let tenant = if i < 12 { heavy } else { light };
        owner.insert(sched.submit(uniform_request(i, tenant)).unwrap(), tenant);
    }
    sched.resume();
    let report = sched.drain();

    // Every wave serves 4 heavy per light while both are backlogged.
    let order = sched.completion_order();
    for wave in 1..=3 {
        let served = &order[..wave * 5];
        let h = served.iter().filter(|t| owner[t] == heavy).count();
        println!(
            "  after wave {wave}: {h} heavy / {} light completions",
            wave * 5 - h
        );
        assert_eq!(
            h,
            wave * 4,
            "each wave must serve weight-many heavy requests"
        );
    }
    let hq = report.tenant_queue(heavy).unwrap();
    let lq = report.tenant_queue(light).unwrap();
    assert_eq!(hq.served_cost, 4 * lq.served_cost, "served cost tracks 4:1");
    println!(
        "  served cost: heavy {} / light {} = {:.1}:1\n",
        hq.served_cost,
        lq.served_cost,
        hq.served_cost as f64 / lq.served_cost as f64
    );
}

fn scene_2_noisy_neighbor() {
    println!("── scene 2: noisy neighbor, FIFO vs weighted + quota ───────────");
    let spec = traffic::noisy_neighbor_spec(24, 96);

    // Tenant-unaware baseline: no registered tenants, pure FIFO waves.
    let fifo = traffic::run(&spec, SchedulerOptions::default());
    // Tenant-aware: victim weighted 4:1 and the bully's queue depth capped.
    let fair = traffic::run(&spec, traffic::noisy_neighbor_options(Some(16)));

    let p99 =
        |out: &traffic::TrafficOutcome, t: TenantId| out.tenant(t).map_or(0.0, |s| s.p99_wait_us);
    let fifo_victim = p99(&fifo, traffic::VICTIM);
    let fair_victim = p99(&fair, traffic::VICTIM);
    println!("  victim p99 wait: FIFO {fifo_victim:9.0}us (unbounded — queued behind the blast)");
    println!(
        "  victim p99 wait: fair {fair_victim:9.0}us ({} bully submissions refused by quota)",
        fair.tenant(traffic::NOISY).unwrap().rejected
    );
    assert_eq!(fair.tenant(traffic::VICTIM).unwrap().completed, 24);
    assert!(
        fair.tenant(traffic::NOISY).unwrap().rejected > 0,
        "a 96-request blast must trip quota 16"
    );
    assert!(
        fair_victim <= fifo_victim,
        "weights + quota must not serve the victim worse than FIFO \
         (fair {fair_victim}us vs fifo {fifo_victim}us)"
    );
    println!();
}

fn scene_3_admission_quota() {
    println!("── scene 3: admission quotas refuse, never block ───────────────");
    let capped = TenantId::new(7);
    let sched = SpiderScheduler::new(
        runtime(0),
        SchedulerOptions {
            start_paused: true,
            ..SchedulerOptions::default()
        }
        .with_tenant(capped, TenantConfig::weighted(1).with_admission_quota(2)),
    );

    // Generic over the `Submit` trait — the same code drives a
    // `SpiderCluster` (which also implements it).
    fn offer<S: Submit>(target: &S, req: StencilRequest) -> Result<S::Ticket, SubmitError> {
        target.submit(req)
    }
    offer(&sched, uniform_request(0, capped)).unwrap();
    offer(&sched, uniform_request(1, capped)).unwrap();
    let refused = offer(&sched, uniform_request(2, capped));
    let Err(SubmitError::QuotaExceeded { tenant, quota }) = refused else {
        panic!("third submission must be refused, got {refused:?}");
    };
    println!("  third submission refused: {tenant} at quota {quota}");
    sched.resume();
    let report = sched.drain();
    let row = report.tenant_queue(capped).unwrap();
    assert_eq!((row.completed, row.rejected), (2, 1));
    // Quota frees as the queue drains: the refused request resubmits fine.
    offer(&sched, uniform_request(2, capped)).unwrap();
    let report = sched.drain();
    // Counters are cumulative: 3 completed across both drains, 1 refusal.
    assert_eq!(report.tenant_queue(capped).unwrap().completed, 3);
    println!("  resubmission after drain admitted\n");
}

fn scene_4_cache_and_telemetry() {
    println!("── scene 4: cache reserves and tenant-labelled telemetry ───────");
    let protected = TenantId::new(1);
    let bully = TenantId::new(2);
    let sched = SpiderScheduler::new(
        runtime(0), // capacity 8
        SchedulerOptions::default()
            .with_tenant(protected, TenantConfig::weighted(1).with_cache_reserve(2))
            .with_tenant(bully, TenantConfig::weighted(1)),
    );
    // The protected tenant warms two plans, then the bully churns eight
    // distinct kernels through the 8-entry cache.
    for (i, radius) in [(0u64, 1usize), (1, 2)] {
        let k = StencilKernel::gaussian_2d(radius);
        sched
            .submit(
                StencilRequest::builder(i, k, GridSpec::D2 { rows: 48, cols: 64 })
                    .tenant(protected)
                    .build(),
            )
            .unwrap();
    }
    for i in 0..8u64 {
        let k = StencilKernel::random(StencilShape::box_2d(1), 7_000 + i);
        sched
            .submit(
                StencilRequest::builder(100 + i, k, GridSpec::D2 { rows: 48, cols: 64 })
                    .tenant(bully)
                    .build(),
            )
            .unwrap();
    }
    sched.drain();
    let footprint = sched.runtime().tenant_cache_footprint();
    println!("  cache footprint after churn: {footprint:?}");
    let protected_entries = footprint
        .iter()
        .find(|(t, _)| *t == protected)
        .map_or(0, |&(_, n)| n);
    assert!(
        protected_entries >= 2,
        "the reserve must keep both protected plans resident"
    );

    let prom = sched.tenant_prometheus_text();
    let labelled = prom
        .lines()
        .filter(|l| l.contains("tenant=\"tenant-1\"") && l.starts_with("spider_scheduler"))
        .count();
    assert!(labelled > 0, "tenant-1 must export labelled series");
    for line in prom.lines().filter(|l| l.contains("submitted_total")) {
        println!("  {line}");
    }
    println!("  ok: per-tenant series labelled for scraping\n");
}

fn main() {
    scene_1_weighted_fairness();
    scene_2_noisy_neighbor();
    scene_3_admission_quota();
    scene_4_cache_and_telemetry();
    println!("multi-tenant serving demo: all scenes passed");
}

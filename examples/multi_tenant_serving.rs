//! Multi-tenant SLO serving demo: weighted-fair scheduling, admission
//! quotas and per-tenant telemetry.
//!
//! Four scenes, each asserting one tenancy guarantee on deterministic
//! quantities (completion positions and counts, never wall-clock waits):
//!
//! 1. **Weighted fairness** — two saturating tenants at 4:1 weights: each
//!    dispatch wave serves exactly 4 heavy requests per light one, and the
//!    drained served-cost ratio equals the weight ratio.
//! 2. **Noisy neighbor** — a bully's 96-request blast queued ahead of a
//!    victim's 24 requests, twice: tenant-unaware FIFO finishes the victim
//!    last, at completion position 120; victim weight 4:1 plus a bully
//!    admission quota of 16 refuses 80 of the blast and finishes the
//!    victim at position 30.
//! 3. **Admission quotas** — an over-quota tenant is *refused* (a typed
//!    [`SubmitError::QuotaExceeded`], never a block).
//! 4. **Tenant-labelled telemetry** — every per-tenant counter exports
//!    with a `tenant="…"` label.
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
    StencilRequest::new(
        id,
        StencilKernel::jacobi_2d(),
        GridSpec::D2 { rows: 48, cols: 64 },
    )
    .with_seed(500 + id)
    .with_tenant(tenant)
}

/// An 8-plan runtime; a scheduler over it completes each wave's groups in
/// cohort order.
fn runtime() -> Arc<SpiderRuntime> {
    Arc::new(SpiderRuntime::new(
        GpuDevice::a100(),
        RuntimeOptions {
            cache_capacity: 8,
            ..RuntimeOptions::default()
        },
    ))
}

fn scene_1_weighted_fairness() {
    println!("── scene 1: weighted-fair scheduling at 4:1 ────────────────────");
    let heavy = TenantId::new(1);
    let light = TenantId::new(2);
    let sched = SpiderScheduler::new(
        runtime(),
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

/// Queue the bully's 96-request blast, then the victim's 24 requests, on a
/// paused scheduler without aging, and serve them. Every request shares
/// one plan key, so each wave is one group that completes in submission
/// order. Returns the victim's last completion position (1-based) and how
/// many bully submissions the admission quota refused.
fn blast_then_victim(options: SchedulerOptions) -> (usize, usize) {
    let sched = SpiderScheduler::new(
        runtime(),
        SchedulerOptions {
            start_paused: true,
            aging_step: None,
            ..options
        },
    );
    let mut refused = 0;
    for i in 0..96u64 {
        match sched.submit(uniform_request(i, traffic::NOISY)) {
            Ok(_) => {}
            Err(SubmitError::QuotaExceeded { .. }) => refused += 1,
            Err(e) => panic!("bully submission {i}: {e}"),
        }
    }
    let victim: Vec<Ticket> = (0..24u64)
        .map(|i| sched.submit(uniform_request(1000 + i, traffic::VICTIM)))
        .collect::<Result<_, _>>()
        .unwrap();
    sched.resume();
    sched.drain();
    let order = sched.completion_order();
    let last = victim
        .iter()
        .map(|t| order.iter().position(|x| x == t).unwrap() + 1)
        .max()
        .unwrap();
    (last, refused)
}

fn scene_2_noisy_neighbor() {
    println!("── scene 2: noisy neighbor, FIFO vs weighted + quota ───────────");
    // Tenant-unaware baseline: no registered tenants, pure FIFO waves.
    let (fifo_last, fifo_refused) = blast_then_victim(SchedulerOptions::default());
    println!("  FIFO: victim finishes at completion position {fifo_last} (behind the whole blast)");
    assert_eq!((fifo_last, fifo_refused), (120, 0));
    // Tenant-aware: victim weighted 4:1 and the bully's queue depth capped.
    let (fair_last, fair_refused) = blast_then_victim(traffic::noisy_neighbor_options(Some(16)));
    println!(
        "  fair: victim finishes at completion position {fair_last} \
         ({fair_refused} bully submissions refused by quota 16)"
    );
    assert_eq!(
        (fair_last, fair_refused),
        (30, 80),
        "quota 16 admits 16 of the blast; each wave then serves 4 victim \
         requests per bully one, so the victim's 24 finish in 6 waves of 5"
    );
    println!();
}

fn scene_3_admission_quota() {
    println!("── scene 3: admission quotas refuse, never block ───────────────");
    let capped = TenantId::new(7);
    let sched = SpiderScheduler::new(
        runtime(),
        SchedulerOptions {
            start_paused: true,
            ..SchedulerOptions::default()
        }
        .with_tenant(capped, TenantConfig::weighted(1).with_admission_quota(2)),
    );
    sched.submit(uniform_request(0, capped)).unwrap();
    sched.submit(uniform_request(1, capped)).unwrap();
    let refused = sched.submit(uniform_request(2, capped));
    let Err(SubmitError::QuotaExceeded { tenant, quota }) = refused else {
        panic!("third submission must be refused, got {refused:?}");
    };
    println!("  third submission refused: {tenant} at quota {quota}");
    sched.resume();
    let report = sched.drain();
    let row = report.tenant_queue(capped).unwrap();
    assert_eq!((row.completed, row.rejected), (2, 1));
    // Quota frees as the queue drains: the refused request resubmits fine.
    sched.submit(uniform_request(2, capped)).unwrap();
    let report = sched.drain();
    // Counters are cumulative: 3 completed across both drains, 1 refusal.
    assert_eq!(report.tenant_queue(capped).unwrap().completed, 3);
    println!("  resubmission after drain admitted\n");
}

fn scene_4_tenant_telemetry() {
    println!("── scene 4: tenant-labelled telemetry ──────────────────────────");
    let (first, second) = (TenantId::new(1), TenantId::new(2));
    let sched = SpiderScheduler::new(
        runtime(),
        SchedulerOptions::default()
            .with_tenant(first, TenantConfig::weighted(1))
            .with_tenant(second, TenantConfig::weighted(1)),
    );
    for i in 0..4u64 {
        let tenant = if i % 2 == 0 { first } else { second };
        sched.submit(uniform_request(i, tenant)).unwrap();
    }
    sched.drain();

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
    scene_4_tenant_telemetry();
    println!("multi-tenant serving demo: all scenes passed");
}

//! Cluster scaling: the device-count throughput curve and the PlanStore
//! warm-start comparison, written to `BENCH_cluster.json`.
//!
//! Two clock domains, kept strictly apart (see `ClusterReport`'s docs):
//!
//! * The **scaling curve** (`cluster_warm_<n>dev_requests_per_sec`) is
//!   *simulated*: completed requests over the fleet's simulated makespan.
//!   It is deterministic — same workload, same routing, same stealing —
//!   which is what lets the bench gate enforce it by the `*_per_sec`
//!   suffix convention without wall-clock noise. The paused-submit →
//!   rebalance → drain discipline pins the steal decisions too.
//! * The **warm-start comparison** (`planstore_*`) is *host wall-clock*:
//!   the first-batch latency of a cold cluster (compile + tuner dry-runs
//!   everywhere) versus one warm-started from a prior process's store
//!   (deserialize + memo import). Wall-clock numbers are machine-sensitive,
//!   so they carry no gated suffix — the gate sees only the ratio-free
//!   rates above.

use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, Criterion};
use spider_cluster::{ClusterOptions, DeviceSpec, SpiderCluster};
use spider_runtime::{PlanStore, SchedulerOptions, StencilRequest};
use spider_stencil::{StencilKernel, StencilShape};

/// Distinct stencil kernels in the plan-diverse workload.
const DISTINCT_PLANS: usize = 16;

/// Requests per measured batch.
const BATCH: usize = 96;

/// 16 *distinct* plans (random coefficient sets ⇒ distinct fingerprints ⇒
/// distinct rendezvous keys) of *equal cost* (same shape and radius, and
/// `workload` gives every kernel the same extent mix). Equal-cost keys make
/// the scaling curve measure the sharding machinery itself: count-balanced
/// queues — what work stealing produces — are then also time-balanced, so
/// residual makespan skew is attributable to routing, not to one shard
/// having drawn the expensive radii.
fn kernels() -> Vec<StencilKernel> {
    (0..DISTINCT_PLANS as u64)
        .map(|i| {
            if i % 2 == 0 {
                StencilKernel::random(StencilShape::box_2d(2), 100 + i)
            } else {
                StencilKernel::random(StencilShape::star_2d(2), 200 + i)
            }
        })
        .collect()
}

/// Plan-diverse workload: every kernel appears `BATCH / DISTINCT_PLANS`
/// times on one shared extent, so every request costs the same simulated
/// time and the device-count curve isolates sharding quality (see
/// [`kernels`]). Seeds still vary per request — grids differ, plans repeat.
fn workload(id_base: u64) -> Vec<StencilRequest> {
    let kernels = kernels();
    (0..BATCH as u64)
        .map(|i| {
            let k = kernels[(i as usize) % kernels.len()].clone();
            StencilRequest::new_2d(id_base + i, k, 96, 128).with_seed(id_base + i)
        })
        .collect()
}

/// Devices with paused-start schedulers (deterministic steal decisions).
fn specs(n: usize) -> Vec<DeviceSpec> {
    (0..n)
        .map(|i| {
            DeviceSpec::a100(format!("dev{i}")).with_scheduler_options(SchedulerOptions {
                start_paused: true,
                aging_step: None,
                ..SchedulerOptions::default()
            })
        })
        .collect()
}

/// Cluster options for the scaling curve: affinity routing with a tight
/// steal threshold. Rendezvous hashing gives perfect locality but not
/// perfect key-count balance (16 kernels over N shards rarely split
/// evenly); work stealing is the mechanism that flattens the residual
/// queue skew, so the bench exercises both together — which is also how
/// a production deployment would run.
fn options() -> ClusterOptions {
    ClusterOptions {
        steal_skew: 1.2,
        ..ClusterOptions::default()
    }
}

/// One deterministic measured batch: paused submit, one rebalance pass,
/// drain. Returns (simulated req/s, simulated GStencil/s, fleet hit rate,
/// steals).
fn measure(cluster: &SpiderCluster, id_base: u64) -> (f64, f64, f64, u64) {
    cluster.pause_all();
    for req in workload(id_base) {
        cluster.submit(req).expect("Block policy admits");
    }
    cluster.rebalance();
    let report = cluster.drain_all();
    assert_eq!(report.total_completed() % BATCH, 0, "lost requests");
    assert!(report.rates_are_finite());
    (
        report.simulated_requests_per_sec(),
        report.simulated_gstencils_per_sec(),
        report.fleet_hit_rate(),
        report.steals,
    )
}

/// The elasticity scene: scale 2→8→2 under steady pulsed load, one
/// membership change per pulse, with every queue movement going through
/// the graceful-drain machinery. Fully deterministic: paused submits pin
/// the routing and steal decisions, each membership op moves queued work
/// while it is still queued, and the drain between pulses keeps queue
/// depths bounded. Returns (simulated req/s over the whole run, requests
/// lost — which the gate requires to be **zero**).
fn measure_elastic() -> (f64, u64) {
    let cluster = SpiderCluster::new(specs(2), options());
    let mut submitted = 0usize;
    let mut id = 50_000u64;
    let mut pulse = |cluster: &SpiderCluster| {
        cluster.pause_all();
        for req in workload(id) {
            cluster.submit(req).expect("Block policy admits");
        }
        submitted += BATCH;
        id += 10_000;
    };
    // Grow 2→8: each pulse lands on the old fleet, then a device joins and
    // a rebalance pass sheds backlog onto it while everything is queued.
    for n in 2..8usize {
        pulse(&cluster);
        cluster
            .add_device(specs(n + 1).pop().expect("spec"))
            .expect("fresh name");
        cluster.rebalance();
        cluster.drain_all();
    }
    assert_eq!(cluster.devices(), 8);
    // Shrink 8→2: each pulse lands on the full fleet, then the youngest
    // device drains out — its queued share moves to survivors exactly-once.
    while cluster.devices() > 2 {
        pulse(&cluster);
        let victim = cluster.device_names().pop().expect("non-empty fleet");
        cluster
            .remove_device(&victim)
            .expect("never the last device");
        cluster.rebalance();
        cluster.drain_all();
    }
    let report = cluster.drain_all();
    assert!(report.rates_are_finite());
    assert_eq!(report.devices_added, 6);
    assert_eq!(report.devices_removed, 6);
    let lost = submitted - report.total_completed();
    (report.simulated_requests_per_sec(), lost as u64)
}

fn bench_cluster(c: &mut Criterion) {
    let mut group = c.benchmark_group("cluster_scaling");
    group.bench_function("warm_batch_4dev", |b| {
        let cluster = SpiderCluster::new(specs(4), options());
        let mut id = 0u64;
        measure(&cluster, id); // warm caches
        b.iter(|| {
            id += 10_000;
            measure(&cluster, id)
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(4)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_cluster
}

fn emit_json() {
    // Scaling curve: warm batch at 1/2/4/8 devices. The second measured
    // batch is the warm one (plan caches and tuner memos populated by the
    // first), and its simulated rates are deterministic.
    let mut per_dev = Vec::new();
    for n in [1usize, 2, 4, 8] {
        let cluster = SpiderCluster::new(specs(n), options());
        measure(&cluster, 0); // cold batch: populate caches/memos
        let (rps, gsps, hit_rate, steals) = measure(&cluster, 10_000);
        per_dev.push((n, rps, gsps, hit_rate, steals));
    }
    let rps_at = |n: usize| {
        per_dev
            .iter()
            .find(|&&(d, ..)| d == n)
            .map(|&(_, rps, ..)| rps)
            .expect("measured")
    };

    // Warm-start comparison (host wall clock): cold first batch vs a
    // first batch warm-started from the store the cold cluster persisted.
    let dir = std::env::temp_dir().join(format!("spider-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(PlanStore::open(&dir).expect("open store"));
    let cold_cluster = SpiderCluster::with_store(specs(4), options(), Arc::clone(&store));
    let t0 = Instant::now();
    measure(&cold_cluster, 0);
    let cold_first_batch_s = t0.elapsed().as_secs_f64();
    // drain_all already persisted plans + memos; a "new process" opens the
    // same directory.
    let store2 = Arc::new(PlanStore::open(&dir).expect("reopen store"));
    let warm_cluster = SpiderCluster::with_store(specs(4), options(), store2);
    let t1 = Instant::now();
    measure(&warm_cluster, 0);
    let warm_first_batch_s = t1.elapsed().as_secs_f64();
    let warm_compiles: u64 = {
        let r = warm_cluster.drain_all();
        r.devices
            .iter()
            .map(|d| d.cache.misses - d.cache.store_hits)
            .sum()
    };
    assert_eq!(warm_compiles, 0, "warm start must not compile");
    let _ = std::fs::remove_dir_all(&dir);

    // Elasticity scene: 2→8→2 under pulsed load. The lost-request count is
    // a hard zero — the gate fails the build on any other value.
    let (elastic_rps, elastic_lost) = measure_elastic();
    assert_eq!(elastic_lost, 0, "elastic scale curve lost requests");

    let &(_, _, gsps_4dev, hit_rate_4dev, steals_4dev) =
        per_dev.iter().find(|&&(d, ..)| d == 4).expect("measured");
    spider_bench::write_bench_json(
        "cluster_scaling",
        "BENCH_CLUSTER_JSON",
        "BENCH_cluster.json",
        &[
            ("batch_requests", BATCH as f64, 0),
            ("distinct_plans", DISTINCT_PLANS as f64, 0),
            ("cluster_warm_1dev_requests_per_sec", rps_at(1), 1),
            ("cluster_warm_2dev_requests_per_sec", rps_at(2), 1),
            ("cluster_warm_4dev_requests_per_sec", rps_at(4), 1),
            ("cluster_warm_8dev_requests_per_sec", rps_at(8), 1),
            ("cluster_warm_4dev_gstencils_per_sec", gsps_4dev, 4),
            ("cluster_scaling_2dev_vs_1dev", rps_at(2) / rps_at(1), 3),
            ("cluster_scaling_4dev_vs_1dev", rps_at(4) / rps_at(1), 3),
            ("cluster_scaling_8dev_vs_1dev", rps_at(8) / rps_at(1), 3),
            ("cluster_warm_4dev_hit_rate", hit_rate_4dev, 4),
            ("cluster_warm_4dev_steals", steals_4dev as f64, 0),
            ("elastic_requests_per_sec", elastic_rps, 1),
            ("elastic_lost_requests", elastic_lost as f64, 0),
            ("planstore_cold_first_batch_ms", cold_first_batch_s * 1e3, 3),
            (
                "planstore_warmstart_first_batch_ms",
                warm_first_batch_s * 1e3,
                3,
            ),
            (
                "planstore_warm_start_speedup",
                cold_first_batch_s / warm_first_batch_s,
                3,
            ),
        ],
    );
}

fn main() {
    benches();
    emit_json();
}

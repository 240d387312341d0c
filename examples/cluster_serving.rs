//! Cluster serving demo: sharded multi-device serving with a
//! fingerprint-affinity router and work stealing.
//!
//! Three scenes, each asserting one cluster guarantee:
//!
//! 1. **Affinity sharding** — a plan-diverse workload over 4 devices:
//!    every plan key serves on exactly one shard, so per-device hit rates
//!    match the single-device ideal while the fleet's simulated makespan
//!    shrinks.
//! 2. **Scaling** — the same workload on 1 vs 4 devices: aggregate
//!    simulated req/s grows with the device count (reported with the
//!    per-device vs makespan clocks explicitly separated).
//! 3. **Work stealing** — a single hot kernel stacks one shard; a
//!    rebalance pass cancels its queued tail and requeues it on idle
//!    shards; nothing is lost or duplicated.
//!
//! ```text
//! cargo run --release --example cluster_serving
//! ```

use spider::prelude::*;

fn specs(n: usize) -> Vec<DeviceSpec> {
    (0..n)
        .map(|i| DeviceSpec::a100(format!("dev{i}")))
        .collect()
}

/// Devices whose schedulers start paused, without aging: each queues its
/// whole share before its first wave (`drain_all` resumes it), so waves —
/// and the simulated clocks — do not depend on host timing.
fn paused_specs(n: usize) -> Vec<DeviceSpec> {
    specs(n)
        .into_iter()
        .map(|s| {
            let sched = SchedulerOptions {
                start_paused: true,
                aging_step: None,
                ..s.scheduler.clone()
            };
            s.with_scheduler_options(sched)
        })
        .collect()
}

/// Plan-diverse workload: 8 kernels × `copies` requests, mixed extents.
fn diverse_workload(copies: usize) -> Vec<StencilRequest> {
    let kernels = [
        StencilKernel::heat_2d(0.12),
        StencilKernel::gaussian_2d(1),
        StencilKernel::gaussian_2d(2),
        StencilKernel::jacobi_2d(),
        StencilKernel::random(StencilShape::box_2d(2), 21),
        StencilKernel::random(StencilShape::box_2d(3), 22),
        StencilKernel::random(StencilShape::star_2d(2), 23),
        StencilKernel::random(StencilShape::star_2d(3), 24),
    ];
    let mut reqs = Vec::new();
    let mut id = 0u64;
    for copy in 0..copies {
        for (k, kernel) in kernels.iter().enumerate() {
            let (rows, cols) = [(96, 128), (128, 96), (64, 160)][k % 3];
            reqs.push(StencilRequest::new_2d(id, kernel.clone(), rows, cols).with_seed(700 + id));
            let _ = copy;
            id += 1;
        }
    }
    reqs
}

fn scene_1_affinity_sharding() {
    println!("── scene 1: fingerprint-affinity sharding ──────────────────────");
    // Stealing disabled (infinite skew threshold): this scene demonstrates
    // *pure* affinity — every plan key pinned to one shard, no duplicate
    // compiles anywhere. Scene 3 shows what stealing adds.
    let cluster = SpiderCluster::new(
        specs(4),
        ClusterOptions {
            steal_skew: f64::INFINITY,
        },
    );
    let report = cluster.run_batch(&diverse_workload(6)).unwrap();
    println!("{}", report.render());
    // Each of the 8 plan keys lives on exactly one shard: fleet-wide
    // misses equal the number of distinct plans.
    let misses: u64 = report.devices.iter().map(|d| d.cache.misses).sum();
    assert_eq!(misses, 8, "one compile per distinct plan, fleet-wide");
    assert!(report.fleet_hit_rate() > 0.8);
    assert!(report.rates_are_finite());
}

fn scene_2_device_scaling() {
    println!("── scene 2: 1 → 4 device scaling (simulated clocks) ────────────");
    let workload = diverse_workload(6);
    let mut baseline = 0.0;
    for n in [1usize, 4] {
        let cluster = SpiderCluster::new(paused_specs(n), ClusterOptions::default());
        let report = cluster.run_batch(&workload).unwrap();
        let rps = report.simulated_requests_per_sec();
        println!(
            "  {n} device(s): makespan {:8.1}us | busy {:8.1}us | speedup {:4.2}x | {:9.0} sim req/s | {:7.1} wall req/s",
            report.simulated_makespan_s() * 1e6,
            report.simulated_busy_s() * 1e6,
            report.parallel_speedup(),
            rps,
            report.wall_requests_per_sec(),
        );
        if n == 1 {
            baseline = rps;
        } else {
            assert!(
                rps > 2.0 * baseline,
                "4 devices must beat 1 by >2x on a plan-diverse workload"
            );
        }
    }
    println!();
}

fn scene_3_work_stealing() {
    println!("── scene 3: work stealing off a hot shard ──────────────────────");
    // Every request shares one kernel: affinity stacks a single device.
    let hot = StencilKernel::gaussian_2d(2);
    let cluster = SpiderCluster::new(paused_specs(3), ClusterOptions::default());
    for i in 0..18u64 {
        cluster
            .submit(StencilRequest::new_2d(i, hot.clone(), 96, 128).with_seed(i))
            .unwrap();
    }
    let before = cluster.queue_depths();
    let moved = cluster.rebalance();
    let after = cluster.queue_depths();
    println!("  depths before {before:?} → after {after:?} ({moved} stolen)");
    assert!(moved > 0, "total skew must trigger stealing");
    let report = cluster.drain_all();
    println!("{}", report.render());
    assert_eq!(report.total_completed(), 18, "no steal loses a request");
    assert_eq!(report.steals, moved as u64);
}

fn main() {
    scene_1_affinity_sharding();
    scene_2_device_scaling();
    scene_3_work_stealing();
    println!("cluster serving demo: all scenes passed");
}

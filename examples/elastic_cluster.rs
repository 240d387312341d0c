//! Elastic cluster demo: live membership changes, graceful drains,
//! mid-batch device failure with exactly-once recovery, and the
//! autoscaler's 2→8→2 curve — all with zero lost requests and
//! bit-identical outputs.
//!
//! Four scenes, each asserting one elasticity guarantee:
//!
//! 1. **Live add under load** — a 2-device fleet takes traffic, a third
//!    device joins mid-stream, and the batch completes with nothing lost;
//!    the rendezvous router moved only the keys that hash to the newcomer.
//! 2. **Graceful drain** — the busiest device is removed while its whole
//!    queue is still pending: every queued request moves to the survivors
//!    exactly-once, in-flight waves are waited out, and the departed
//!    device's counters stay in the fleet report's `departed` roll-up.
//! 3. **Mid-batch kill + recovery** — a `FaultPlan` hard-kills a device
//!    after its first dispatch wave; unstarted work requeues exactly-once,
//!    in-flight casualties re-route under the retry policy, and every
//!    ticket resolves (`Done` bit-identical, or a typed `DeviceLost`).
//! 4. **Autoscaler 2→8→2** — queue-wait pressure grows the fleet to its
//!    max, quiet queues shrink it back, and every request submitted across
//!    the whole curve completes.
//!
//! ```text
//! cargo run --release --example elastic_cluster
//! ```

use std::time::Duration;

use spider::prelude::*;

fn specs(n: usize) -> Vec<DeviceSpec> {
    (0..n)
        .map(|i| DeviceSpec::a100(format!("dev{i}")))
        .collect()
}

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

/// Plan-diverse workload: 8 kernels × `copies`, so rendezvous spreads the
/// key space and every scene has multi-shard traffic.
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
    for _ in 0..copies {
        for (k, kernel) in kernels.iter().enumerate() {
            let (rows, cols) = [(96, 128), (128, 96), (64, 160)][k % 3];
            reqs.push(StencilRequest::new_2d(id, kernel.clone(), rows, cols).with_seed(700 + id));
            id += 1;
        }
    }
    reqs
}

/// Submit with drain-awareness: a request refused because its shard is
/// draining re-routes on the next attempt (the router drops the shard the
/// moment its drain unroutes it).
fn submit_elastic(cluster: &SpiderCluster, req: StencilRequest) -> ClusterTicket {
    loop {
        match cluster.submit(req.clone()) {
            Ok(t) => return t,
            Err(SubmitError::DeviceDraining { .. }) => std::thread::yield_now(),
            Err(e) => panic!("unexpected submit refusal: {e}"),
        }
    }
}

fn scene_1_live_add_under_load() {
    println!("── scene 1: live device add under load ─────────────────────────");
    let cluster = SpiderCluster::new(specs(2), ClusterOptions::default());
    let workload = diverse_workload(6);
    let (first, second) = workload.split_at(workload.len() / 2);
    let mut tickets = Vec::new();
    for req in first {
        tickets.push(cluster.submit(req.clone()).unwrap());
    }
    // A third device joins while the first half is still in flight.
    cluster.add_device(DeviceSpec::a100("dev2")).unwrap();
    assert_eq!(cluster.devices(), 3);
    for req in second {
        tickets.push(cluster.submit(req.clone()).unwrap());
    }
    let report = cluster.drain_all();
    println!("{}", report.render());
    assert_eq!(report.total_completed(), workload.len(), "nothing lost");
    assert_eq!(report.devices_added, 1);
    for t in tickets {
        assert!(matches!(cluster.poll(t), RequestStatus::Done(_)));
    }
    let newcomer = report.devices.iter().find(|d| d.name == "dev2").unwrap();
    println!(
        "  newcomer dev2: routed {} of {} post-join requests\n",
        newcomer.routed,
        second.len()
    );
}

fn scene_2_graceful_drain() {
    println!("── scene 2: graceful drain to fewer devices ────────────────────");
    let cluster = SpiderCluster::new(paused_specs(3), ClusterOptions::default());
    let workload = diverse_workload(4);
    let tickets: Vec<ClusterTicket> = workload
        .iter()
        .map(|r| cluster.submit(r.clone()).unwrap())
        .collect();
    let depths = cluster.queue_depths();
    let names = cluster.device_names();
    let victim_pos = depths
        .iter()
        .enumerate()
        .max_by_key(|&(_, &d)| d)
        .unwrap()
        .0;
    let victim = names[victim_pos].clone();
    println!("  depths {depths:?} — draining busiest device {victim}");
    let dr = cluster.remove_device(&victim).unwrap();
    println!(
        "  {} departed having served {} requests; {} were requeued",
        dr.name,
        dr.report.outcomes.len(),
        depths[victim_pos]
    );
    let report = cluster.drain_all();
    println!("{}", report.render());
    assert_eq!(report.total_completed(), workload.len(), "drain lost work");
    assert_eq!(report.requeued as usize, depths[victim_pos]);
    assert_eq!(report.departed.len(), 1);
    assert_eq!(report.departed[0].name, victim);
    for t in tickets {
        assert!(matches!(cluster.poll(t), RequestStatus::Done(_)));
    }
    println!();
}

fn scene_3_mid_batch_kill() {
    println!("── scene 3: mid-batch device kill with recovery ────────────────");
    let cluster = SpiderCluster::new(
        specs(3),
        ClusterOptions {
            retry: RetryPolicy {
                max_attempts: 2,
                backoff: Duration::ZERO,
            },
            ..ClusterOptions::default()
        },
    );
    // Reference checksums from a lone runtime.
    let workload = diverse_workload(6);
    let solo = SpiderRuntime::with_defaults(GpuDevice::a100());
    let want: std::collections::HashMap<u64, u64> = solo
        .run_batch(&workload)
        .outcomes
        .iter()
        .map(|o| (o.id, o.checksum))
        .collect();
    // Kill dev0 once it has dispatched its first wave.
    cluster.inject_faults(FaultPlan::kill_after("dev0", 1));
    let mut tickets = Vec::new();
    let mut event = None;
    for req in &workload {
        tickets.push((req.id, submit_elastic(&cluster, req.clone())));
        if event.is_none() {
            event = cluster.fault_tick();
        }
    }
    while event.is_none() {
        event = cluster.fault_tick();
        std::thread::yield_now();
    }
    let event = event.unwrap();
    println!(
        "  killed {} mid-batch: {} requeued, {} retried, {} abandoned",
        event.device, event.recovery.requeued, event.recovery.retried, event.recovery.abandoned
    );
    let report = cluster.drain_all();
    println!("{}", report.render());
    assert_eq!(report.devices_failed, 1);
    let (mut done, mut lost) = (0usize, 0usize);
    for (id, t) in tickets {
        match cluster.poll(t) {
            RequestStatus::Done(o) => {
                assert_eq!(o.checksum, want[&id], "recovery broke bit-identity");
                done += 1;
            }
            RequestStatus::Failed {
                reason: FailureReason::DeviceLost,
            } => lost += 1,
            s => panic!("unresolved ticket {id} after kill: {s:?}"),
        }
    }
    println!(
        "  every ticket resolved: {done} done (bit-identical), {lost} surfaced as DeviceLost\n"
    );
}

fn scene_4_autoscaler_curve() {
    println!("── scene 4: autoscaler 2→8→2 curve ─────────────────────────────");
    let cluster = SpiderCluster::new(specs(2), ClusterOptions::default());
    let mut scaler = AutoScaler::new(
        ScalePolicy {
            p99_wait_hi: Duration::from_micros(20),
            depth_lo: 1,
            cooldown: 0,
            min_devices: 2,
            max_devices: 8,
        },
        DeviceSpec::a100("auto"),
    );
    let mut tickets = Vec::new();
    let mut curve = vec![cluster.devices()];
    let mut id = 10_000u64;
    // Pressure phase: steady traffic pulses; queue waits push p99 over the
    // threshold and the fleet grows toward max_devices. The short sleep
    // lets dispatch waves run between pulses so the wait histogram the
    // scaler diffs actually moves.
    for _ in 0..12 {
        for mut req in diverse_workload(2) {
            req.id = id;
            id += 1;
            tickets.push(submit_elastic(&cluster, req));
        }
        std::thread::sleep(Duration::from_millis(3));
        match scaler.step(&cluster) {
            ScaleAction::ScaledUp(name) => println!("  + scaled up: {name}"),
            ScaleAction::ScaledDown(name) => println!("  - scaled down: {name}"),
            ScaleAction::Hold => {}
        }
        curve.push(cluster.devices());
    }
    let peak = *curve.iter().max().unwrap();
    // Quiet phase: drain the backlog, then idle steps shrink the fleet.
    cluster.drain_all();
    for _ in 0..12 {
        match scaler.step(&cluster) {
            ScaleAction::ScaledUp(name) => println!("  + scaled up: {name}"),
            ScaleAction::ScaledDown(name) => println!("  - scaled down: {name}"),
            ScaleAction::Hold => {}
        }
        curve.push(cluster.devices());
    }
    println!("  device curve: {curve:?}");
    let report = cluster.drain_all();
    assert!(peak > 2, "pressure must grow the fleet (peak {peak})");
    assert_eq!(cluster.devices(), 2, "quiet queues must shrink back to min");
    let lost = tickets
        .iter()
        .filter(|t| !matches!(cluster.poll(**t), RequestStatus::Done(_)))
        .count();
    assert_eq!(lost, 0, "the scale curve must lose zero requests");
    println!(
        "  peak {peak} devices, back to {}, {} requests served, 0 lost\n",
        cluster.devices(),
        tickets.len()
    );
    assert_eq!(report.total_failed(), 0);
}

fn main() {
    scene_1_live_add_under_load();
    scene_2_graceful_drain();
    scene_3_mid_batch_kill();
    scene_4_autoscaler_curve();
    println!("All elasticity invariants held.");
}

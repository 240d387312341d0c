//! Fleet watchtower demo: the observability layer watching a cluster —
//! heartbeat health detection, SLO burn-rate alerts, metric time-series,
//! and an exportable Chrome trace timeline.
//!
//! Four scenes, each asserting one watchtower guarantee:
//!
//! 1. **Silent failure detection** — a device hangs mid-batch *without
//!    any operator declaration*; `health_tick()` walks it
//!    Healthy → Suspect → Dead on missed heartbeats and recovers its whole
//!    queue through the standard kill/requeue path. Zero lost requests.
//! 2. **Burn-rate alert round trip** — a noisy neighbor saturates the
//!    queue, the victim tenant's p99-wait SLO burns >10× budget and the
//!    alert fires; once contention ends the short window recovers and the
//!    alert resolves. Both transitions land as structured trace events and
//!    exported `spider_watch_*` metrics.
//! 3. **Time-series-driven autoscaling** — the `AutoScaler` now reads the
//!    same [`SnapshotSeries`] windows the alert engine does; queue-wait
//!    pressure grows the fleet, quiet windows shrink it back.
//! 4. **Trace export** — the fleet's trace rings export as Chrome
//!    trace-event JSON (one track per device, coalesced waves as batched
//!    slices), ready for `chrome://tracing` or Perfetto.
//!
//! ```text
//! cargo run --release --example fleet_watchtower
//! ```

use std::sync::Arc;
use std::time::Duration;

use spider::prelude::*;
use spider::telemetry::{validate_json, EventKind};

fn paused_specs(n: usize) -> Vec<DeviceSpec> {
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

fn scene_1_silent_failure_detection() {
    println!("── scene 1: silent failure detected by heartbeats ──────────────");
    let cluster = SpiderCluster::new(paused_specs(3), ClusterOptions::default());
    // One kernel → one plan key → affinity concentrates the whole batch on
    // a single shard, which is exactly the shard we will silence.
    let kernel = StencilKernel::jacobi_2d();
    let workload: Vec<StencilRequest> = (0..12u64)
        .map(|i| StencilRequest::new_2d(i, kernel.clone(), 96, 128).with_seed(i))
        .collect();
    let tickets: Vec<ClusterTicket> = workload
        .iter()
        .map(|r| cluster.submit(r.clone()).unwrap())
        .collect();
    let names = cluster.device_names();
    let victim_pos = cluster
        .queue_depths()
        .iter()
        .position(|&d| d == 12)
        .unwrap();
    let victim = names[victim_pos].clone();
    // The hang trigger silences the device: no kill event, no error, no
    // declaration — it simply stops making progress.
    cluster.inject_faults(FaultPlan::hang_after(&victim, 0));
    assert!(cluster.fault_tick().is_none(), "a hang announces nothing");
    cluster.resume_all();
    println!("  {victim} silenced; nothing declared the failure");
    let policy = HealthPolicy::default();
    for round in 0..=(policy.dead_after as usize + 1) {
        let report = cluster.health_tick();
        for t in &report.transitions {
            println!(
                "  tick {round}: {} {:?} → {:?} ({} beats missed)",
                t.shard, t.from, t.to, t.missed
            );
        }
        if let Some(event) = report.recoveries.first() {
            println!(
                "  tick {round}: recovered through the standard path — {} requeued, {} retried, {} abandoned",
                event.recovery.requeued, event.recovery.retried, event.recovery.abandoned
            );
            break;
        }
    }
    let report = cluster.drain_all();
    assert_eq!(
        report.total_completed(),
        workload.len(),
        "zero lost requests"
    );
    assert_eq!(report.devices_failed, 1);
    for t in &tickets {
        assert!(matches!(cluster.poll(*t), RequestStatus::Done(_)));
    }
    // The survivors carry chained timelines: one banner per life.
    let timeline = cluster.timeline(tickets[0]).unwrap();
    let lives = timeline.matches("── device ").count();
    println!(
        "  all {} requests done; first ticket lived on {lives} devices:\n",
        workload.len()
    );
    for line in timeline.lines().take(4) {
        println!("    {line}");
    }
    println!("    ...\n");
}

fn scene_2_burn_rate_alert_round_trip() {
    println!("── scene 2: SLO burn-rate alert fires and resolves ─────────────");
    let noisy = TenantId::new(1);
    let victim = TenantId::new(2);
    let runtime = Arc::new(SpiderRuntime::new(
        GpuDevice::a100(),
        RuntimeOptions {
            workers: 1,
            ..RuntimeOptions::default()
        },
    ));
    let sched = SpiderScheduler::new(
        Arc::clone(&runtime),
        SchedulerOptions {
            start_paused: true,
            aging_step: None,
            ..SchedulerOptions::default()
        }
        .with_tenant(noisy, TenantConfig::weighted(1))
        .with_tenant(victim, TenantConfig::weighted(1)),
    );
    let request = |id: u64, tenant: TenantId| {
        StencilRequest::builder(
            id,
            StencilKernel::jacobi_2d(),
            GridSpec::D2 { rows: 40, cols: 56 },
        )
        .seed(id)
        .tenant(tenant)
        .build()
    };
    // The victim's SLO: 90% of requests wait under ~4ms in queue.
    let slo = SloObjective {
        threshold_us: 4096.0,
        objective: 0.9,
    };
    let mut engine = AlertEngine::new(vec![AlertRule::burn_rate(
        "victim-wait-slo",
        "spider_scheduler_tenant_2_wait_us",
        slo,
        3.0,
        2,
        1,
    )]);
    let mut series = SnapshotSeries::new(16);
    let telemetry = runtime.telemetry();
    series.record(telemetry.metrics().snapshot());

    // Saturation: the noisy neighbor floods the paused queue; every victim
    // request waits far past the threshold.
    for i in 0..12u64 {
        sched.submit(request(i, noisy)).unwrap();
    }
    for i in 12..16u64 {
        sched.submit(request(i, victim)).unwrap();
    }
    std::thread::sleep(Duration::from_millis(15));
    sched.resume();
    sched.drain();
    series.record(telemetry.metrics().snapshot());
    for t in engine.evaluate_recorded(&series, telemetry) {
        println!("  FIRING  {} (burn {:.1}× budget)", t.rule, t.value);
    }
    assert!(engine.is_firing("victim-wait-slo"));

    // Contention ends: victim-only traffic is served immediately, the
    // short window recovers, the alert resolves.
    for i in 16..22u64 {
        let t = sched.submit(request(i, victim)).unwrap();
        sched.drain();
        assert!(matches!(sched.poll(t), RequestStatus::Done(_)));
    }
    series.record(telemetry.metrics().snapshot());
    for t in engine.evaluate_recorded(&series, telemetry) {
        println!("  resolved {} (burn {:.3}× budget)", t.rule, t.value);
    }
    assert!(!engine.is_firing("victim-wait-slo"));
    let events = telemetry.trace().snapshot();
    let fired = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::AlertFired { .. }))
        .count();
    let resolved = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::AlertResolved { .. }))
        .count();
    println!("  trace ring recorded {fired} fired + {resolved} resolved transition events\n");
    assert_eq!((fired, resolved), (1, 1));
}

fn scene_3_series_driven_autoscaler() {
    println!("── scene 3: autoscaler driven by snapshot time-series ──────────");
    let cluster = SpiderCluster::new(
        (0..2)
            .map(|i| DeviceSpec::a100(format!("dev{i}")))
            .collect(),
        ClusterOptions::default(),
    );
    let mut scaler = AutoScaler::new(
        ScalePolicy {
            p99_wait_hi: Duration::from_micros(20),
            depth_lo: 1,
            cooldown: 0,
            min_devices: 2,
            max_devices: 6,
        },
        DeviceSpec::a100("auto"),
    );
    let kernels = [
        StencilKernel::heat_2d(0.12),
        StencilKernel::gaussian_2d(2),
        StencilKernel::jacobi_2d(),
        StencilKernel::random(StencilShape::star_2d(2), 7),
    ];
    let mut curve = vec![cluster.devices()];
    let mut id = 0u64;
    for _ in 0..10 {
        for kernel in &kernels {
            for _ in 0..3 {
                cluster
                    .submit(StencilRequest::new_2d(id, kernel.clone(), 96, 128).with_seed(id))
                    .unwrap();
                id += 1;
            }
        }
        std::thread::sleep(Duration::from_millis(3));
        // Each step records a fleet snapshot into the scaler's internal
        // SnapshotSeries and reads the windowed p99 delta — the same data
        // path the alert engine evaluates.
        match scaler.step(&cluster) {
            ScaleAction::ScaledUp(name) => println!("  + scaled up: {name}"),
            ScaleAction::ScaledDown(name) => println!("  - scaled down: {name}"),
            ScaleAction::Hold => {}
        }
        curve.push(cluster.devices());
    }
    let peak = *curve.iter().max().unwrap();
    cluster.drain_all();
    for _ in 0..10 {
        match scaler.step(&cluster) {
            ScaleAction::ScaledUp(name) => println!("  + scaled up: {name}"),
            ScaleAction::ScaledDown(name) => println!("  - scaled down: {name}"),
            ScaleAction::Hold => {}
        }
        curve.push(cluster.devices());
    }
    println!("  device curve: {curve:?}");
    assert!(peak > 2, "pressure grew the fleet");
    assert_eq!(*curve.last().unwrap(), 2, "quiet windows shrank it back");
    println!();
}

fn scene_4_trace_export() {
    println!("── scene 4: Chrome trace export ────────────────────────────────");
    let cluster = SpiderCluster::new(paused_specs(3), ClusterOptions::default());
    let kernels = [
        StencilKernel::heat_2d(0.12),
        StencilKernel::gaussian_2d(2),
        StencilKernel::jacobi_2d(),
    ];
    let reqs: Vec<StencilRequest> = (0..12u64)
        .map(|i| StencilRequest::new_2d(i, kernels[(i % 3) as usize].clone(), 48, 64).with_seed(i))
        .collect();
    cluster.run_batch(&reqs).unwrap();
    let json = cluster.export_chrome_trace();
    validate_json(&json).expect("export is strictly valid JSON");
    let tracks = json.matches("\"thread_name\"").count();
    let slices = json.matches("\"ph\":\"X\"").count();
    println!(
        "  exported {} bytes: {tracks} device tracks, {slices} slices",
        json.len()
    );
    let path = std::path::Path::new("target").join("fleet_watchtower_trace.json");
    if std::fs::write(&path, &json).is_ok() {
        println!(
            "  wrote {} — load it in chrome://tracing or ui.perfetto.dev",
            path.display()
        );
    }
    assert_eq!(tracks, 3);
    println!();
}

fn main() {
    scene_1_silent_failure_detection();
    scene_2_burn_rate_alert_round_trip();
    scene_3_series_driven_autoscaler();
    scene_4_trace_export();
    println!("fleet watchtower: all scenes passed");
}

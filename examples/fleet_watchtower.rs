//! Fleet watchtower demo: watching a cluster — heartbeat health detection
//! and an exportable Chrome trace timeline.
//!
//! Two scenes, each asserting one watchtower guarantee:
//!
//! 1. **Silent failure detection** — a device hangs mid-batch *without
//!    any operator declaration*; `health_tick()` walks it
//!    Healthy → Suspect → Dead on missed heartbeats and recovers its whole
//!    queue through the standard kill/requeue path. Zero lost requests.
//! 2. **Trace export** — the fleet's trace rings export as Chrome
//!    trace-event JSON (one track per device, coalesced waves as batched
//!    slices), ready for `chrome://tracing` or Perfetto.
//!
//! ```text
//! cargo run --release --example fleet_watchtower
//! ```

use spider::cluster::DEAD_AFTER_TICKS;
use spider::prelude::*;
use spider::telemetry::validate_json;

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
    for round in 0..=(DEAD_AFTER_TICKS as usize + 1) {
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

fn scene_2_trace_export() {
    println!("── scene 2: Chrome trace export ────────────────────────────────");
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
    scene_2_trace_export();
    println!("fleet watchtower: all scenes passed");
}

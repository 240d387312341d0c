//! Telemetry demo: request-lifecycle tracing, metrics export and per-phase
//! profiling across the serving stack.
//!
//! Four scenes, each asserting one observability guarantee:
//!
//! 1. **Request timeline** — a request's full traced lifecycle (admit →
//!    queued → plan-resolve → tune → execute → complete) renders as a
//!    human-readable timeline, reconstructed from the bounded trace ring.
//! 2. **Prometheus export** — the scheduler's metrics snapshot exports
//!    Prometheus text and flat JSON whose counters reconcile *exactly* with
//!    the drain report's `QueueStats`/`CacheStats` fields.
//! 3. **Top-plans profile** — per-plan-key phase accumulators (queue /
//!    resolve / tune / exec) rank the workload's heaviest plans and export
//!    folded stacks for flamegraph tooling.
//! 4. **Cluster-wide snapshot** — a multi-device fleet merges per-device
//!    snapshots and profiles into one fleet view, with per-device labels
//!    in the Prometheus text.
//!
//! ```text
//! cargo run --release --example telemetry_serving
//! ```

use std::sync::Arc;

use spider::prelude::*;
use spider::telemetry::Phase;

fn runtime() -> SpiderRuntime {
    SpiderRuntime::new(
        GpuDevice::a100(),
        RuntimeOptions {
            cache_capacity: 32,
            ..RuntimeOptions::default()
        },
    )
}

/// Mixed traffic: three kernels (three plan keys), repeated so coalescing
/// and cache hits both happen.
fn mixed_traffic(n_rounds: u64) -> Vec<StencilRequest> {
    let kernels = [
        StencilKernel::heat_2d(0.12),
        StencilKernel::gaussian_2d(2),
        StencilKernel::jacobi_2d(),
    ];
    let mut reqs = Vec::new();
    let mut id = 0u64;
    for round in 0..n_rounds {
        for kernel in &kernels {
            reqs.push(
                StencilRequest::new_2d(id, kernel.clone(), 96, 128).with_seed(round * 100 + id),
            );
            id += 1;
        }
    }
    reqs
}

fn scene_1_request_timeline() {
    println!("=== scene 1: request-lifecycle timeline ===");
    let sched = SpiderScheduler::new(
        Arc::new(runtime()),
        SchedulerOptions {
            start_paused: true, // queue first, so the queue span is visible
            ..SchedulerOptions::default()
        },
    );
    let tickets: Vec<Ticket> = mixed_traffic(2)
        .into_iter()
        .map(|r| sched.submit(r).unwrap())
        .collect();
    let report = sched.drain();
    assert!(report.failures.is_empty());

    // Any ticket's lifecycle can be reconstructed from the ring.
    let timeline = sched.timeline(tickets[4]).expect("telemetry is on");
    println!("{timeline}");
    for needle in [
        "admit",
        "queued",
        "plan-resolve",
        "tune",
        "execute",
        "complete: done",
    ] {
        assert!(
            timeline.contains(needle),
            "timeline must show the {needle} event"
        );
    }
    assert!(
        timeline.contains("[sim "),
        "execute events carry the simulated clock"
    );
    // The drop counter proves ring-buffer accounting, not event loss.
    let t = sched.runtime().telemetry();
    assert_eq!(t.trace().dropped_events(), 0, "ring never overflowed here");
    println!(
        "OK: {} events traced for {} requests, 0 dropped\n",
        t.trace().len(),
        tickets.len()
    );
}

fn scene_2_prometheus_export() {
    println!("=== scene 2: Prometheus / JSON export reconciles with the drain report ===");
    let sched = SpiderScheduler::new(Arc::new(runtime()), SchedulerOptions::default());
    for req in mixed_traffic(3) {
        sched.submit(req).unwrap();
    }
    let report = sched.drain();
    let q = report.queue.expect("drain attaches queue stats");

    let snap = sched.metrics_snapshot();
    // Counters reconcile exactly: same sources of truth, one export away.
    assert_eq!(
        snap.counter_value("spider_scheduler_submitted_total"),
        q.submitted
    );
    assert_eq!(
        snap.counter_value("spider_scheduler_completed_total"),
        q.completed
    );
    assert_eq!(
        snap.counter_value("spider_runtime_requests_completed_total"),
        report.outcomes.len() as u64
    );
    assert_eq!(
        snap.counter_value("spider_plan_cache_hits_total"),
        report.cache.hits
    );
    assert_eq!(
        snap.counter_value("spider_plan_cache_misses_total"),
        report.cache.misses
    );

    let prom = snap.prometheus_text(&[]);
    let head: String = prom.lines().take(8).collect::<Vec<_>>().join("\n");
    println!("{head}\n  ...");
    assert!(prom.contains("# TYPE spider_plan_cache_hits_total counter"));
    assert!(prom.contains("# TYPE spider_runtime_service_time_us histogram"));
    assert!(prom.contains("spider_runtime_service_time_us_bucket{le=\"+Inf\"}"));

    let json = snap.json();
    assert!(json.contains("\"spider_scheduler_wait_us_p99\""));
    println!("json keys include wait p99 and service-time quantiles");
    println!("OK: every exported counter matches its report field exactly\n");
}

fn scene_3_top_plans_profile() {
    println!("=== scene 3: per-plan phase profile ===");
    let rt = runtime();
    // Uneven traffic: jacobi dominates, so it must rank first by requests.
    let mut traffic = mixed_traffic(2);
    for i in 0..6u64 {
        traffic.push(
            StencilRequest::new_2d(200 + i, StencilKernel::jacobi_2d(), 192, 224).with_seed(33 + i),
        );
    }
    let report = rt.run_batch(&traffic);
    assert!(report.failures.is_empty());

    // The drain report now carries the top-plans table...
    let rendered = report.render();
    assert!(rendered.contains("top plans by wall time:"));
    println!(
        "{}",
        rendered
            .lines()
            .skip_while(|l| !l.starts_with("top plans"))
            .collect::<Vec<_>>()
            .join("\n")
    );

    // ...backed by per-plan accumulators with per-phase wall time.
    let profiles = rt.telemetry().profiler().snapshot();
    assert_eq!(profiles.len(), 3, "three plan keys profiled");
    let jacobi = profiles
        .iter()
        .find(|p| p.label.contains("jacobi") || p.stats.requests == 8)
        .expect("dominant plan profiled");
    assert_eq!(jacobi.stats.requests, 8, "2 rounds + 6 extra");
    assert!(jacobi.stats.exec_wall_s > 0.0);
    assert_eq!(jacobi.stats.compiles, 1, "one compile per plan key");

    // Folded-stack export: one line per plan;phase, flamegraph-ready.
    let folded = rt.telemetry().profiler().folded();
    assert!(folded.lines().any(|l| l.contains(";exec ")));
    println!("folded stacks ({} lines):", folded.lines().count());
    for line in folded.lines().take(4) {
        println!("  {line}");
    }
    println!("OK: profile ranks plans, phases add up, folded export ready\n");
}

fn scene_4_cluster_snapshot() {
    println!("=== scene 4: cluster-wide fleet snapshot ===");
    let specs: Vec<DeviceSpec> = (0..3)
        .map(|i| DeviceSpec::a100(format!("dev{i}")))
        .collect();
    let cluster = SpiderCluster::new(specs, ClusterOptions::default());
    let traffic = mixed_traffic(4);
    let n = traffic.len();
    let tickets: Vec<ClusterTicket> = traffic
        .into_iter()
        .map(|r| cluster.submit(r).unwrap())
        .collect();
    let report = cluster.drain_all();
    assert_eq!(report.total_completed(), n);

    // Per-device snapshots merge into one fleet snapshot.
    let fleet = cluster.fleet_metrics();
    assert_eq!(
        fleet.counter_value("spider_runtime_requests_completed_total"),
        n as u64,
        "fleet counter = sum over devices"
    );
    let prom = cluster.fleet_prometheus_text();
    assert!(prom.contains("device=\"dev0\""));
    assert!(prom.contains("device=\"dev2\""));
    println!(
        "fleet Prometheus export: {} lines across {} devices + merged block",
        prom.lines().count(),
        cluster.devices()
    );

    // Fleet profile: plan keys merge across devices; with affinity routing
    // each plan served on one device, so 3 profiles with all the requests.
    let profile = cluster.fleet_profile();
    assert_eq!(profile.len(), 3);
    assert_eq!(
        profile.iter().map(|p| p.stats.requests).sum::<u64>(),
        n as u64
    );
    assert!(profile.iter().all(|p| p.stats.total_wall_s() > 0.0));
    let queue_s: f64 = profile.iter().map(|p| p.stats.queue_s).sum();
    println!(
        "fleet profile: {} plans, {:.2}ms total queue time",
        profile.len(),
        queue_s * 1e3
    );
    let _ = Phase::Queue; // (re-exported for downstream consumers)

    // Cluster tickets resolve to a timeline on their owning device.
    let tl = cluster
        .timeline(tickets[0])
        .expect("telemetry on fleet-wide");
    assert!(tl.contains("complete: done"));
    println!("OK: fleet metrics, profile and timelines all resolve\n");
}

fn main() {
    scene_1_request_timeline();
    scene_2_prometheus_export();
    scene_3_top_plans_profile();
    scene_4_cluster_snapshot();
    println!("OK: tracing, metrics export and phase profiling hold across the stack.");
}

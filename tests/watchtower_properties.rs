//! Property and integration tests for the fleet watchtower: silent-failure
//! detection must be invisible in the data (a device that hangs without any
//! declaration is detected by `health_tick` within the missed-beat
//! threshold and recovered through the *same* kill/requeue/retry path an
//! operator-declared `fail_device` runs — zero lost requests, bit-identical
//! outputs), a disabled monitor must reproduce pre-watchtower behavior
//! exactly, tenant SLO burn-rate alerts must fire and resolve as structured
//! events, and the exported Chrome trace must be schema-valid JSON with one
//! track per device.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use spider::prelude::*;
use spider::telemetry::{validate_json, EventKind, MetricsSnapshot};

/// Paused start, no aging: queues build deterministically and
/// nothing dispatches until the harness says so.
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

/// A workload sharing ONE plan key (one kernel; extents/steps/seeds vary —
/// plan keys ignore extents), so fingerprint affinity concentrates every
/// request on a single device: the hang victim is busy, every survivor is
/// provably idle, and detection timing is exact.
fn arb_single_key_workload() -> impl Strategy<Value = Vec<StencilRequest>> {
    (
        0u64..4,
        proptest::collection::vec((24usize..72, 32usize..80, 1usize..=2, any::<u64>()), 4..10),
    )
        .prop_map(|(kseed, items)| {
            let kernel = StencilKernel::random(StencilShape::star_2d(2), kseed);
            items
                .into_iter()
                .enumerate()
                .map(|(i, (rows, cols, steps, seed))| {
                    StencilRequest::new_2d(i as u64, kernel.clone(), rows, cols)
                        .with_steps(steps)
                        .with_seed(seed)
                })
                .collect()
        })
}

fn single_runtime() -> SpiderRuntime {
    SpiderRuntime::with_defaults(GpuDevice::a100())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole acceptance property. Three twins serve one workload:
    ///
    /// * **A** — the victim is silenced mid-batch by a hang trigger
    ///   (nothing declares the failure); `health_tick` must detect it in
    ///   exactly `dead_after` ticks after the baseline and recover through
    ///   the standard requeue path.
    /// * **B** — the same device is killed by an explicit operator
    ///   `fail_device`.
    /// * **C** — the same hang with the [`HealthMonitor`] disabled: ticks
    ///   observe and classify nothing, and today's behavior is reproduced
    ///   exactly (the backlog simply drains once the harness resumes it).
    ///
    /// A and B must lose zero requests and produce checksums bit-identical
    /// to each other and to a single-runtime reference.
    #[test]
    fn silent_hang_recovery_matches_explicit_kill(workload in arb_single_key_workload()) {
        let n = workload.len();
        let want: BTreeMap<u64, u64> = single_runtime()
            .run_batch(&workload)
            .outcomes
            .iter()
            .map(|o| (o.id, o.checksum))
            .collect();
        prop_assert_eq!(want.len(), n, "reference completes everything");

        // Twin A: silent hang, watchtower detection.
        let watched = SpiderCluster::new(paused_specs(3), ClusterOptions::default());
        let tickets_a: Vec<(u64, ClusterTicket)> = workload
            .iter()
            .map(|r| (r.id, watched.submit(r.clone()).unwrap()))
            .collect();
        let depths = watched.queue_depths();
        let names = watched.device_names();
        let victim_pos = depths.iter().position(|&d| d == n).expect("one plan key, one shard");
        let victim = names[victim_pos].clone();
        watched.inject_faults(FaultPlan::hang_after(&victim, 0));
        prop_assert!(watched.fault_tick().is_none(), "a hang announces nothing");
        watched.resume_all(); // survivors run (they are idle); the victim ignores this
        let policy = HealthPolicy::default();
        let mut recovered_at = None;
        for round in 0..(policy.dead_after as usize + 3) {
            let report = watched.health_tick();
            for t in &report.transitions {
                prop_assert_eq!(&t.shard, &victim, "only the hung shard transitions");
            }
            if let Some(r) = report.recoveries.first() {
                prop_assert_eq!(&r.device, &victim);
                prop_assert_eq!(r.recovery.requeued, n, "paused queue requeues whole");
                prop_assert_eq!(r.recovery.retried, 0);
                prop_assert_eq!(r.recovery.abandoned, 0);
                recovered_at = Some(round);
                break;
            }
        }
        // Tick 0 establishes the beat baseline; the verdict lands exactly
        // `dead_after` ticks later — within the threshold, never before.
        prop_assert_eq!(recovered_at, Some(policy.dead_after as usize));
        let report_a = watched.drain_all();
        prop_assert_eq!(report_a.total_completed(), n, "detection loses zero requests");
        prop_assert_eq!(report_a.devices_failed, 1);

        // Twin B: operator-declared kill of the same device.
        let declared = SpiderCluster::new(paused_specs(3), ClusterOptions::default());
        let tickets_b: Vec<(u64, ClusterTicket)> = workload
            .iter()
            .map(|r| (r.id, declared.submit(r.clone()).unwrap()))
            .collect();
        declared.fail_device(&victim).unwrap();
        let report_b = declared.drain_all();
        prop_assert_eq!(report_b.total_completed(), n);

        // Detection-triggered recovery is the explicit-kill path: same
        // accounting, same outcomes, bit-identical checksums.
        prop_assert_eq!(report_a.requeued, report_b.requeued);
        prop_assert_eq!(report_a.devices_failed, report_b.devices_failed);
        for ((id, ta), (_, tb)) in tickets_a.iter().zip(&tickets_b) {
            let (RequestStatus::Done(a), RequestStatus::Done(b)) =
                (watched.poll(*ta), declared.poll(*tb))
            else {
                return Err(TestCaseError::fail(format!("ticket {id} unresolved")));
            };
            prop_assert_eq!(a.checksum, want[id], "watched twin diverged on {}", id);
            prop_assert_eq!(b.checksum, want[id], "declared twin diverged on {}", id);
        }
        // The recovered requests render chained timelines: one banner per
        // life (victim, then survivor).
        let tl = watched.timeline(tickets_a[0].1).expect("timeline renders");
        prop_assert_eq!(tl.matches("\u{2500}\u{2500} device ").count(), 2, "{}", tl);

        // Twin C: same hang, detection disabled — pre-watchtower behavior.
        let blind = SpiderCluster::new(
            paused_specs(3),
            ClusterOptions {
                health: HealthPolicy::disabled(),
                ..ClusterOptions::default()
            },
        );
        for r in &workload {
            blind.submit(r.clone()).unwrap();
        }
        blind.inject_faults(FaultPlan::hang_after(&victim, 0));
        blind.fault_tick();
        blind.resume_all();
        for _ in 0..10 {
            prop_assert!(blind.health_tick().is_quiet(), "disabled monitor is a no-op");
        }
        prop_assert!(blind.health_states().is_empty());
        prop_assert_eq!(blind.devices(), 3, "nothing was killed");
        let report_c = blind.drain_all(); // drain resumes the hung scheduler
        prop_assert_eq!(report_c.total_completed(), n);
        prop_assert_eq!(report_c.devices_failed, 0);
    }
}

/// An in-flight casualty (killed mid-wave, not merely queued) retries with
/// a bumped attempt index: the chained timeline keeps both lives and the
/// exported Chrome trace carries `"attempt":1` events.
#[test]
fn in_flight_casualty_chains_attempts_across_devices() {
    let cluster = SpiderCluster::new(paused_specs(2), ClusterOptions::default());
    let kernel = StencilKernel::jacobi_2d();
    let tickets: Vec<ClusterTicket> = (0..4u64)
        .map(|i| {
            cluster
                .submit(StencilRequest::new_2d(i, kernel.clone(), 384, 512).with_seed(i))
                .unwrap()
        })
        .collect();
    let names = cluster.device_names();
    let victim_pos = cluster
        .queue_depths()
        .iter()
        .position(|&d| d == 4)
        .expect("one plan key, one shard");
    let victim = names[victim_pos].clone();
    cluster.resume_all();
    // Wait until the wave is actually executing — the kill must find
    // running work, not a queue.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if matches!(cluster.poll(tickets[0]), RequestStatus::Running) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "request never started: {:?}",
            cluster.poll(tickets[0])
        );
        std::thread::sleep(Duration::from_micros(50));
    }
    cluster.fail_device(&victim).unwrap();
    cluster.drain_all();
    for t in &tickets {
        assert!(
            matches!(cluster.poll(*t), RequestStatus::Done(_)),
            "casualty must retry to completion: {:?}",
            cluster.poll(*t)
        );
    }
    // The first ticket died mid-flight on the victim and completed its
    // second life elsewhere: two device banners, a device-lost first life,
    // a completed second one.
    let tl = cluster.timeline(tickets[0]).expect("timeline renders");
    assert_eq!(tl.matches("\u{2500}\u{2500} device ").count(), 2, "{tl}");
    assert!(
        tl.contains("complete: failed"),
        "first life surfaced:\n{tl}"
    );
    assert!(
        tl.contains("complete: done"),
        "second life completed:\n{tl}"
    );
    // The retry's events are attempt-stamped in the exported trace.
    let json = cluster.export_chrome_trace();
    validate_json(&json).expect("export is valid JSON");
    assert!(
        json.contains("\"attempt\":1"),
        "retry events carry attempt 1"
    );
}

/// Alert round trip: a noisy neighbor saturates the queue and the victim
/// tenant's burn-rate alert fires; once contention ends (quotas throttle
/// the noisy tenant), the short window recovers and the alert resolves —
/// both transitions recorded as structured trace events and exported
/// metrics.
#[test]
fn tenant_burn_rate_alert_fires_and_resolves() {
    let noisy = TenantId::new(1);
    let victim = TenantId::new(2);
    let runtime = Arc::new(SpiderRuntime::with_defaults(GpuDevice::a100()));
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
        StencilRequest::new(
            id,
            StencilKernel::jacobi_2d(),
            GridSpec::D2 { rows: 40, cols: 56 },
        )
        .with_seed(id)
        .with_tenant(tenant)
    };

    // The victim's SLO: 90% of requests under ~4ms queue wait. Saturation
    // burns >10× budget; uncontended traffic burns ~0.
    let slo = SloObjective {
        threshold_us: 4096.0,
        objective: 0.9,
    };
    let mut engine = AlertEngine::new(vec![AlertRule::burn_rate(
        "victim-wait-slo",
        "spider_scheduler_tenant_2_wait_us",
        slo,
        3.0,
        2, // long window: ticks
        1, // short window: ticks
    )]);
    let mut series = SnapshotSeries::new(16);
    let telemetry = runtime.telemetry();

    // Baseline tick: no tenant rows yet, nothing fires.
    series.record(sched.metrics_snapshot());
    assert!(engine.evaluate_recorded(&series, telemetry).is_empty());

    // Phase 1 — saturation: the noisy neighbor floods the paused queue,
    // every victim request provably waits far past the SLO threshold.
    for i in 0..12u64 {
        sched.submit(request(i, noisy)).unwrap();
    }
    for i in 12..16u64 {
        sched.submit(request(i, victim)).unwrap();
    }
    std::thread::sleep(Duration::from_millis(15));
    sched.resume();
    sched.drain();
    series.record(sched.metrics_snapshot());
    let fired = engine.evaluate_recorded(&series, telemetry);
    assert_eq!(fired.len(), 1, "saturation fires the victim's alert");
    assert!(fired[0].firing);
    assert!(
        fired[0].value > 3.0,
        "burn {} must exceed max",
        fired[0].value
    );
    assert!(engine.is_firing("victim-wait-slo"));

    // Phase 2 — quotas end the contention: victim-only traffic served
    // immediately. The short window recovers; the alert resolves.
    for i in 16..22u64 {
        let t = sched.submit(request(i, victim)).unwrap();
        sched.drain();
        assert!(matches!(sched.poll(t), RequestStatus::Done(_)));
    }
    series.record(sched.metrics_snapshot());
    let resolved = engine.evaluate_recorded(&series, telemetry);
    assert_eq!(resolved.len(), 1, "recovery resolves the alert");
    assert!(!resolved[0].firing);
    assert!(!engine.is_firing("victim-wait-slo"));

    // Both transitions are structured events in the trace ring and
    // exported metrics.
    let events = telemetry.trace().snapshot();
    assert_eq!(
        events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::AlertFired { .. }))
            .count(),
        1
    );
    assert_eq!(
        events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::AlertResolved { .. }))
            .count(),
        1
    );
    let mut snap = MetricsSnapshot::default();
    engine.write_metrics(&mut snap);
    assert_eq!(snap.counter_value("spider_watch_alerts_fired_total"), 1);
    assert_eq!(snap.counter_value("spider_watch_alerts_resolved_total"), 1);
    assert_eq!(snap.gauge_value("spider_watch_alerts_firing"), 0.0);
}

/// The fleet trace export is loadable Chrome trace-event JSON: strictly
/// valid syntax, one named track (thread metadata) per device slot, and
/// coalesced waves as single batched slices.
#[test]
fn chrome_trace_export_has_one_track_per_device() {
    let cluster = SpiderCluster::new(paused_specs(3), ClusterOptions::default());
    let kernels = [
        StencilKernel::heat_2d(0.12),
        StencilKernel::gaussian_2d(2),
        StencilKernel::jacobi_2d(),
    ];
    let reqs: Vec<StencilRequest> = (0..9u64)
        .map(|i| StencilRequest::new_2d(i, kernels[(i % 3) as usize].clone(), 48, 64).with_seed(i))
        .collect();
    cluster.run_batch(&reqs).unwrap();
    let json = cluster.export_chrome_trace();
    validate_json(&json).expect("export is strictly valid JSON");
    assert!(json.contains("\"displayTimeUnit\":\"ms\""));
    assert_eq!(
        json.matches("\"thread_name\"").count(),
        3,
        "one track per device"
    );
    for name in cluster.device_names() {
        assert!(
            json.contains(&format!("\"name\":\"{name}\"")),
            "track for {name}"
        );
    }
    assert!(
        json.contains("wave "),
        "coalesced waves export as batched slices"
    );
}

//! Property and integration tests for the fleet watchtower: silent-failure
//! detection must be invisible in the data (a device that hangs without any
//! declaration is detected by `health_tick` within the missed-beat
//! threshold and recovered through the *same* kill/requeue/retry path an
//! operator-declared `fail_device` runs — zero lost requests, bit-identical
//! outputs), and the exported Chrome trace must be schema-valid JSON with
//! one track per device.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use spider::cluster::DEAD_AFTER_TICKS;
use spider::prelude::*;
use spider::telemetry::validate_json;

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

    /// The tentpole acceptance property. Two twins serve one workload:
    ///
    /// * **A** — the victim is silenced mid-batch by a hang trigger
    ///   (nothing declares the failure); `health_tick` must detect it in
    ///   exactly [`DEAD_AFTER_TICKS`] ticks after the baseline and recover
    ///   through the standard requeue path.
    /// * **B** — the same device is killed by an explicit operator
    ///   `fail_device`.
    ///
    /// Both must lose zero requests and produce checksums bit-identical to
    /// each other and to a single-runtime reference.
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
        let mut recovered_at = None;
        for round in 0..(DEAD_AFTER_TICKS as usize + 3) {
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
        // `DEAD_AFTER_TICKS` ticks later — within the threshold, never
        // before.
        prop_assert_eq!(recovered_at, Some(DEAD_AFTER_TICKS as usize));
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

//! Property tests for the cluster layer: sharding must be invisible in the
//! data (a cluster's outputs are bit-identical to a single runtime's, also
//! for requests that steals, drains and retries move across devices), and
//! a restarted runtime must re-tune to the same tilings and serve the same
//! outputs and performance counters.

use proptest::prelude::*;
use spider::core::ExecMode;
use spider::prelude::*;

fn arb_shape() -> impl Strategy<Value = StencilShape> {
    (1usize..=3, any::<bool>()).prop_map(|(r, star)| {
        if star {
            StencilShape::star_2d(r)
        } else {
            StencilShape::box_2d(r)
        }
    })
}

/// A small heterogeneous workload: kernels drawn from a few seeds (so plan
/// keys repeat and sharding/affinity matters), varied extents and sweeps.
fn arb_workload() -> impl Strategy<Value = Vec<StencilRequest>> {
    proptest::collection::vec(
        (
            arb_shape(),
            0u64..4,     // kernel seed: few distinct → shared plan keys
            24usize..80, // rows
            32usize..96, // cols
            1usize..=2,  // steps
            any::<u64>(),
        ),
        3..12,
    )
    .prop_map(|entries| {
        entries
            .into_iter()
            .enumerate()
            .map(|(i, (shape, kseed, rows, cols, steps, gseed))| {
                StencilRequest::new_2d(i as u64, StencilKernel::random(shape, kseed), rows, cols)
                    .with_steps(steps)
                    .with_seed(gseed)
            })
            .collect()
    })
}

fn cluster_of(n: usize) -> SpiderCluster {
    SpiderCluster::new(
        (0..n)
            .map(|i| DeviceSpec::a100(format!("dev{i}")))
            .collect(),
        ClusterOptions::default(),
    )
}

fn single_runtime() -> SpiderRuntime {
    SpiderRuntime::with_defaults(GpuDevice::a100())
}

/// id → checksum for every completed outcome across the fleet.
fn checksums(report: &ClusterReport) -> std::collections::BTreeMap<u64, u64> {
    report
        .devices
        .iter()
        .flat_map(|d| d.report.outcomes.iter())
        .map(|o| (o.id, o.checksum))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Sharding invisibility: a multi-device cluster completes exactly the
    /// submitted requests with checksums bit-identical to a lone
    /// `SpiderRuntime` executing the same batch.
    #[test]
    fn sharded_cluster_matches_single_runtime(
        workload in arb_workload(),
        devices in 2usize..=4,
    ) {
        let solo = single_runtime();
        let solo_report = solo.run_batch(&workload);
        prop_assert!(solo_report.failures.is_empty());
        let want: std::collections::BTreeMap<u64, u64> = solo_report
            .outcomes
            .iter()
            .map(|o| (o.id, o.checksum))
            .collect();

        let report = cluster_of(devices).run_batch(&workload).expect("Block policy admits");
        prop_assert_eq!(report.total_completed(), workload.len());
        prop_assert_eq!(report.total_failed(), 0);
        prop_assert_eq!(&checksums(&report), &want, "diverged from single runtime");
        prop_assert!(report.rates_are_finite());
    }

    /// Work stealing preserves the data too: force total skew (every
    /// request shares one plan key, so affinity stacks one device), steal,
    /// so the key serves on several devices, and compare against the
    /// single-runtime checksums.
    #[test]
    fn stealing_rebalance_is_bit_identical(
        kseed in 0u64..8,
        n in 6usize..14,
    ) {
        let kernel = StencilKernel::random(StencilShape::box_2d(2), kseed);
        let workload: Vec<StencilRequest> = (0..n as u64)
            .map(|i| StencilRequest::new_2d(i, kernel.clone(), 48, 64).with_seed(i * 31))
            .collect();
        let solo = single_runtime();
        let want: std::collections::BTreeMap<u64, u64> = solo
            .run_batch(&workload)
            .outcomes
            .iter()
            .map(|o| (o.id, o.checksum))
            .collect();

        // Paused schedulers: the queue builds fully, the rebalance pass has
        // real skew to flatten, then drain executes everything.
        let cluster = SpiderCluster::new(
            (0..3)
                .map(|i| {
                    DeviceSpec::a100(format!("dev{i}")).with_scheduler_options(SchedulerOptions {
                        start_paused: true,
                        aging_step: None,
                        ..SchedulerOptions::default()
                    })
                })
                .collect(),
            ClusterOptions::default(),
        );
        for req in &workload {
            cluster.submit(req.clone()).expect("Block policy admits");
        }
        let moved = cluster.rebalance();
        prop_assert!(moved > 0, "total skew must trigger stealing");
        let report = cluster.drain_all();
        prop_assert_eq!(report.steals, moved as u64);
        prop_assert_eq!(report.total_completed(), workload.len());
        prop_assert_eq!(&checksums(&report), &want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Volumetric sharding invisibility: a mixed 2D/3D workload served by a
    /// multi-device cluster is bit-identical — outputs *and* `PerfCounters`
    /// — to a lone `SpiderRuntime`.
    #[test]
    fn sharded_3d_matches_single_runtime_all_policies(
        n_2d in 2usize..5,
        n_3d in 2usize..5,
        kseed in 0u64..8,
        devices in 2usize..=3,
    ) {
        let mut workload: Vec<StencilRequest> = (0..n_2d as u64)
            .map(|i| {
                StencilRequest::new_2d(
                    i,
                    StencilKernel::random(StencilShape::box_2d(1), kseed + (i % 2)),
                    40,
                    56,
                )
                .with_seed(i * 13)
            })
            .collect();
        for j in 0..n_3d as u64 {
            let k3 = Kernel3D::random_box(1, 100 + kseed + (j % 2));
            workload.push(
                StencilRequest::new_3d(50 + j, k3, 3, 28, 36).with_seed(j * 17),
            );
        }

        let solo_report = single_runtime().run_batch(&workload);
        prop_assert!(solo_report.failures.is_empty());
        prop_assert_eq!(solo_report.volumetric_completed(), n_3d);
        let want: std::collections::BTreeMap<u64, (u64, PerfCounters)> = solo_report
            .outcomes
            .iter()
            .map(|o| (o.id, (o.checksum, o.report.counters)))
            .collect();

        let report = cluster_of(devices).run_batch(&workload).expect("Block policy admits");
        prop_assert_eq!(report.total_completed(), workload.len());
        prop_assert_eq!(report.total_volumetric(), n_3d);
        for d in &report.devices {
            for o in &d.report.outcomes {
                let (checksum, counters) = want.get(&o.id).expect("known id");
                prop_assert_eq!(o.checksum, *checksum, "request {} output diverged", o.id);
                prop_assert_eq!(
                    &o.report.counters, counters,
                    "request {} counters diverged", o.id
                );
            }
        }
        prop_assert!(report.rates_are_finite());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A *restarted* runtime keeps no memos: it tunes each 3D scenario
    /// afresh, reaches the same plane tilings as the process before it,
    /// and its outputs are bit-identical to direct `Spider3DExecutor::run`
    /// on freshly compiled plans.
    #[test]
    fn restarted_runtime_retunes_3d_to_the_same_plane_tilings(
        kseed in 0u64..100,
        planes in 2usize..4,
        rows in 20usize..36,
        cols in 24usize..40,
    ) {
        let batch: Vec<StencilRequest> = (0..4u64)
            .map(|i| {
                let k3 = Kernel3D::random_box(1, kseed + (i % 2));
                StencilRequest::new_3d(i, k3, planes, rows, cols).with_seed(i * 3)
            })
            .collect();
        let first = SpiderRuntime::with_defaults(GpuDevice::a100()).run_batch(&batch);
        prop_assert!(first.failures.is_empty());

        // Process 2: a fresh runtime. Each of the batch's two scenarios
        // tunes again (its first request misses the memo; the copy that
        // coalesces with it reads the memo its head settled, as in process
        // 1) and picks the same tiling.
        let second = SpiderRuntime::with_defaults(GpuDevice::a100()).run_batch(&batch);
        prop_assert!(second.failures.is_empty());
        prop_assert!(!second.outcomes[0].tuner_memo_hit && !second.outcomes[1].tuner_memo_hit);
        for (a, b) in first.outcomes.iter().zip(&second.outcomes) {
            prop_assert_eq!(b.tiling, a.tiling, "request {} re-tuned differently", b.id);
            prop_assert_eq!(b.tuner_memo_hit, a.tuner_memo_hit, "request {}", b.id);
        }
        // Bit-identity against direct execution of fresh compiles, under
        // the tiling the runtime actually used.
        let device = GpuDevice::a100();
        for (req, out) in batch.iter().zip(&second.outcomes) {
            prop_assert_eq!(out.id, req.id);
            let plan = Spider3DPlan::compile(req.kernel.as_volumetric().unwrap()).unwrap();
            let mut volume = req.materialize_3d();
            let exec = Spider3DExecutor::with_config(
                &device,
                ExecMode::SparseTcOptimized,
                spider::core::exec::ExecConfig {
                    tiling: out.tiling,
                    ..spider::core::exec::ExecConfig::default()
                },
            );
            let direct = exec.run(&plan, &mut volume, req.steps).unwrap();
            prop_assert_eq!(
                out.checksum,
                spider::runtime::output_checksum(volume.padded()),
                "restarted runtime diverged from direct execution on {}", out.id
            );
            prop_assert_eq!(&out.report.counters, &direct.counters);
        }
    }
}

/// id → checksum across the whole fleet, departed devices included.
fn checksums_all(report: &ClusterReport) -> std::collections::BTreeMap<u64, u64> {
    report
        .all_devices()
        .flat_map(|d| d.report.outcomes.iter())
        .map(|o| (o.id, o.checksum))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Failure tolerance: kill a random device mid-batch. Every ticket must
    /// end `Done`, bit-identical to the single-runtime reference — queued
    /// work requeues and each in-flight casualty's one retry lands on a
    /// survivor — and no request may execute twice (requeue is
    /// exactly-once).
    #[test]
    fn killing_a_random_device_mid_batch_resolves_every_ticket(
        workload in arb_workload(),
        victim_idx in 0usize..3,
    ) {
        let want: std::collections::BTreeMap<u64, u64> = single_runtime()
            .run_batch(&workload)
            .outcomes
            .iter()
            .map(|o| (o.id, o.checksum))
            .collect();

        let cluster = SpiderCluster::new(
            (0..3)
                .map(|i| {
                    DeviceSpec::a100(format!("dev{i}")).with_scheduler_options(SchedulerOptions {
                        aging_step: None,
                        ..SchedulerOptions::default()
                    })
                })
                .collect(),
            ClusterOptions::default(),
        );
        let tickets: Vec<(u64, spider::cluster::ClusterTicket)> = workload
            .iter()
            .map(|r| (r.id, cluster.submit(r.clone()).expect("Block policy admits")))
            .collect();
        // Mid-batch: dispatchers are already running; kill now.
        let victim = cluster.device_names()[victim_idx].clone();
        cluster.fail_device(&victim).expect("3 devices: never the last");
        let report = cluster.drain_all();
        prop_assert_eq!(report.devices_failed, 1);

        // Exactly-once: no id may complete twice anywhere in the fleet.
        let mut seen = std::collections::BTreeSet::new();
        for o in report.all_devices().flat_map(|d| d.report.outcomes.iter()) {
            prop_assert!(seen.insert(o.id), "request {} executed twice", o.id);
        }

        // Every ticket completes, bit-identical.
        for (id, t) in tickets {
            match cluster.poll(t) {
                RequestStatus::Done(o) => {
                    prop_assert_eq!(o.checksum, want[&id], "request {} diverged after recovery", id);
                }
                s => return Err(TestCaseError::fail(format!(
                    "ticket {id} not done after one kill: {s:?}"
                ))),
            }
        }
    }

    /// Graceful drain loses zero requests: with dispatch paused (everything
    /// still queued), removing any device moves its whole queue to the
    /// survivors exactly-once, and the batch completes bit-identical to the
    /// single-runtime reference.
    #[test]
    fn graceful_drain_loses_zero_requests(
        workload in arb_workload(),
        victim_idx in 0usize..3,
    ) {
        let want: std::collections::BTreeMap<u64, u64> = single_runtime()
            .run_batch(&workload)
            .outcomes
            .iter()
            .map(|o| (o.id, o.checksum))
            .collect();

        let cluster = SpiderCluster::new(
            (0..3)
                .map(|i| {
                    DeviceSpec::a100(format!("dev{i}")).with_scheduler_options(SchedulerOptions {
                        start_paused: true,
                        aging_step: None,
                        ..SchedulerOptions::default()
                    })
                })
                .collect(),
            ClusterOptions::default(),
        );
        let tickets: Vec<(u64, spider::cluster::ClusterTicket)> = workload
            .iter()
            .map(|r| (r.id, cluster.submit(r.clone()).expect("Block policy admits")))
            .collect();
        let victim = cluster.device_names()[victim_idx].clone();
        let moved = cluster.queue_depths()[victim_idx];
        cluster.remove_device(&victim).expect("3 devices: never the last");
        let report = cluster.drain_all();
        prop_assert_eq!(report.total_completed(), workload.len(), "drain lost a request");
        prop_assert_eq!(report.total_failed(), 0);
        prop_assert_eq!(report.requeued as usize, moved, "queued work requeues exactly-once");
        prop_assert_eq!(report.devices_removed, 1);
        prop_assert_eq!(&checksums_all(&report), &want, "drain changed outputs");
        for (_, t) in tickets {
            prop_assert!(matches!(cluster.poll(t), RequestStatus::Done(_)));
        }
    }
}

//! Property tests for the cluster layer: sharding must be invisible in the
//! data (a cluster's outputs are bit-identical to a single runtime's for
//! every routing policy), and the plan store's serialize → deserialize →
//! execute round trip must preserve outputs and performance counters
//! exactly.

use proptest::prelude::*;
use spider::core::{ExecMode, SpiderExecutor, SpiderPlan};
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

fn cluster_of(n: usize, policy: RoutingPolicy) -> SpiderCluster {
    SpiderCluster::new(
        (0..n)
            .map(|i| DeviceSpec::a100(format!("dev{i}")))
            .collect(),
        ClusterOptions {
            policy,
            ..ClusterOptions::default()
        },
    )
}

fn single_runtime() -> SpiderRuntime {
    SpiderRuntime::new(
        GpuDevice::a100(),
        RuntimeOptions {
            workers: 1,
            ..RuntimeOptions::default()
        },
    )
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

    /// Sharding invisibility: for every routing policy, a multi-device
    /// cluster completes exactly the submitted requests with checksums
    /// bit-identical to a lone `SpiderRuntime` executing the same batch.
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

        for policy in [
            RoutingPolicy::FingerprintAffinity,
            RoutingPolicy::LeastLoaded,
            RoutingPolicy::RoundRobin,
        ] {
            let cluster = cluster_of(devices, policy);
            let report = cluster.run_batch(&workload).expect("Block policy admits");
            prop_assert_eq!(report.total_completed(), workload.len(), "policy {}", policy);
            prop_assert_eq!(report.total_failed(), 0);
            let got = checksums(&report);
            prop_assert_eq!(&got, &want, "policy {} diverged from single runtime", policy);
            prop_assert!(report.rates_are_finite());
        }
    }

    /// Work stealing preserves the data too: force total skew (every
    /// request shares one plan key, so affinity stacks one device), steal,
    /// and compare against the single-runtime checksums.
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
    /// — to a lone `SpiderRuntime`, under every routing policy.
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

        for policy in [
            RoutingPolicy::FingerprintAffinity,
            RoutingPolicy::LeastLoaded,
            RoutingPolicy::RoundRobin,
        ] {
            let cluster = cluster_of(devices, policy);
            let report = cluster.run_batch(&workload).expect("Block policy admits");
            prop_assert_eq!(report.total_completed(), workload.len(), "policy {}", policy);
            prop_assert_eq!(report.total_volumetric(), n_3d, "policy {}", policy);
            for d in &report.devices {
                for o in &d.report.outcomes {
                    let (checksum, counters) = want.get(&o.id).expect("known id");
                    prop_assert_eq!(
                        o.checksum, *checksum,
                        "policy {}: request {} output diverged", policy, o.id
                    );
                    prop_assert_eq!(
                        &o.report.counters, counters,
                        "policy {}: request {} counters diverged", policy, o.id
                    );
                }
            }
            prop_assert!(report.rates_are_finite());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// PlanStore round trip: a plan that went through `to_bytes` →
    /// `from_bytes` executes bit-identically to the freshly compiled one —
    /// same output grid bits *and* same `PerfCounters` (the simulated
    /// machine cannot tell the plans apart).
    #[test]
    fn plan_serialization_roundtrip_preserves_execution(
        shape in arb_shape(),
        kseed in any::<u64>(),
        rows in 24usize..72,
        cols in 32usize..96,
        gseed in any::<u64>(),
    ) {
        let kernel = StencilKernel::random(shape, kseed);
        let compiled = SpiderPlan::compile(&kernel).unwrap();
        let restored = SpiderPlan::from_bytes(&compiled.to_bytes()).unwrap();
        prop_assert_eq!(compiled.fingerprint(), restored.fingerprint());

        let device = GpuDevice::a100();
        let radius = kernel.radius();
        let mut grid_a = Grid2D::<f32>::random(rows, cols, radius, gseed);
        let mut grid_b = grid_a.clone();
        let exec = SpiderExecutor::new(&device, ExecMode::SparseTcOptimized);
        let ra = exec.run_2d(&compiled, &mut grid_a, 2).unwrap();
        let rb = exec.run_2d(&restored, &mut grid_b, 2).unwrap();
        prop_assert_eq!(grid_a.padded(), grid_b.padded(), "grid bits diverged");
        prop_assert_eq!(ra.counters, rb.counters, "counters diverged");
        prop_assert_eq!(ra.points, rb.points);
    }

    /// The 3D container round trip preserves execution exactly: a
    /// `Spider3DPlan` restored from bytes sweeps a volume bit-identically
    /// to the freshly compiled plan, counters included.
    #[test]
    fn plan3d_serialization_roundtrip_preserves_execution(
        radius in 1usize..=2,
        kseed in any::<u64>(),
        planes in 2usize..4,
        rows in 18usize..36,
        cols in 20usize..40,
        gseed in any::<u64>(),
    ) {
        let kernel = Kernel3D::random_box(radius, kseed);
        let compiled = Spider3DPlan::compile(&kernel).unwrap();
        let restored = Spider3DPlan::from_bytes(&compiled.to_bytes()).unwrap();
        prop_assert_eq!(compiled.fingerprint(), restored.fingerprint());

        let device = GpuDevice::a100();
        let mut vol_a = Grid3D::<f32>::random(planes, rows, cols, radius, gseed);
        let mut vol_b = vol_a.clone();
        let exec = Spider3DExecutor::new(&device, ExecMode::SparseTcOptimized);
        let ra = exec.run(&compiled, &mut vol_a, 2).unwrap();
        let rb = exec.run(&restored, &mut vol_b, 2).unwrap();
        prop_assert_eq!(vol_a.padded(), vol_b.padded(), "volume bits diverged");
        prop_assert_eq!(ra.counters, rb.counters, "counters diverged");
        prop_assert_eq!(ra.points, rb.points);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The tentpole acceptance property: a *restarted* store-backed runtime
    /// serves a 3D batch with **zero compiles** (every plan loads from
    /// disk, every tiling from a persisted memo) and the outputs are
    /// bit-identical to direct `Spider3DExecutor::run` on freshly compiled
    /// plans.
    #[test]
    fn restarted_runtime_serves_3d_with_zero_compiles(
        kseed in 0u64..100,
        planes in 2usize..4,
        rows in 20usize..36,
        cols in 24usize..40,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "spider-3d-warm-{}-{kseed}-{planes}x{rows}x{cols}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let batch: Vec<StencilRequest> = (0..4u64)
            .map(|i| {
                let k3 = Kernel3D::random_box(1, kseed + (i % 2));
                StencilRequest::new_3d(i, k3, planes, rows, cols).with_seed(i * 3)
            })
            .collect();
        let opts = RuntimeOptions { workers: 1, ..RuntimeOptions::default() };

        // Process 1 serves and persists (write-through + explicit persist).
        let store = std::sync::Arc::new(PlanStore::open(&dir).unwrap());
        let rt1 = SpiderRuntime::with_store(GpuDevice::a100(), opts, store);
        let first = rt1.run_batch(&batch);
        prop_assert!(first.failures.is_empty());
        rt1.persist().unwrap();

        // Process 2: fresh store handle, fresh runtime — zero compiles.
        let store2 = std::sync::Arc::new(PlanStore::open(&dir).unwrap());
        let rt2 = SpiderRuntime::with_store(GpuDevice::a100(), opts, store2);
        let second = rt2.run_batch(&batch);
        prop_assert!(second.failures.is_empty());
        let stats = rt2.cache_stats();
        prop_assert_eq!(
            stats.misses - stats.store_hits, 0,
            "a restarted runtime must not compile 3D plans"
        );
        prop_assert!(
            second.outcomes.iter().all(|o| o.tuner_memo_hit),
            "every plane tiling must come from a persisted memo"
        );
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
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// End-to-end persistence: a store-backed cluster that served a workload
/// warm-starts a *second* cluster over the same directory — plans load
/// instead of compiling, tilings come from imported memos, and the outputs
/// are bit-identical.
#[test]
fn cluster_warm_start_from_store_is_bit_identical() {
    let dir = std::env::temp_dir().join(format!("spider-cluster-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let workload: Vec<StencilRequest> = (0..10u64)
        .map(|i| {
            let k = match i % 3 {
                0 => StencilKernel::heat_2d(0.12),
                1 => StencilKernel::gaussian_2d(2),
                _ => StencilKernel::jacobi_2d(),
            };
            StencilRequest::new_2d(i, k, 64, 96).with_seed(i * 7)
        })
        .collect();
    let specs = |n: usize| -> Vec<DeviceSpec> {
        (0..n)
            .map(|i| DeviceSpec::a100(format!("dev{i}")))
            .collect()
    };

    let store = std::sync::Arc::new(PlanStore::open(&dir).unwrap());
    let first = SpiderCluster::with_store(specs(2), ClusterOptions::default(), store);
    let report1 = first.run_batch(&workload).unwrap();
    assert_eq!(report1.total_completed(), workload.len());
    let want = checksums(&report1);

    // "Second process": fresh store handle over the same directory.
    let store2 = std::sync::Arc::new(PlanStore::open(&dir).unwrap());
    let second = SpiderCluster::with_store(specs(2), ClusterOptions::default(), store2);
    let report2 = second.run_batch(&workload).unwrap();
    assert_eq!(&checksums(&report2), &want, "warm start changed outputs");
    let store_hits: u64 = report2.devices.iter().map(|d| d.cache.store_hits).sum();
    let compiles: u64 = report2
        .devices
        .iter()
        .map(|d| d.cache.misses - d.cache.store_hits)
        .sum();
    assert!(store_hits >= 3, "cold caches must load from the store");
    assert_eq!(compiles, 0, "warm start must not compile anything");
    let memo_hits = report2
        .devices
        .iter()
        .flat_map(|d| d.report.outcomes.iter())
        .filter(|o| o.tuner_memo_hit)
        .count();
    assert_eq!(
        memo_hits,
        workload.len(),
        "every tiling must come from a persisted memo"
    );
    std::fs::remove_dir_all(&dir).unwrap();
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

    /// Failure tolerance: kill a random device mid-batch under each router
    /// policy. Every ticket must resolve — `Done` bit-identical to the
    /// single-runtime reference, or `Failed { DeviceLost }` exactly when it
    /// was in flight on the victim with the retry budget spent — and no
    /// request may execute twice (requeue is exactly-once).
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

        for policy in [
            RoutingPolicy::FingerprintAffinity,
            RoutingPolicy::LeastLoaded,
            RoutingPolicy::RoundRobin,
        ] {
            let cluster = SpiderCluster::new(
                (0..3)
                    .map(|i| {
                        DeviceSpec::a100(format!("dev{i}")).with_scheduler_options(
                            SchedulerOptions {
                                aging_step: None,
                                ..SchedulerOptions::default()
                            },
                        )
                    })
                    .collect(),
                ClusterOptions {
                    policy,
                    ..ClusterOptions::default()
                },
            );
            let tickets: Vec<(u64, spider::cluster::ClusterTicket)> = workload
                .iter()
                .map(|r| (r.id, cluster.submit(r.clone()).expect("Block policy admits")))
                .collect();
            // Mid-batch: dispatchers are already running; kill now.
            let victim = cluster.device_names()[victim_idx].clone();
            cluster.fail_device(&victim).expect("3 devices: never the last");
            let report = cluster.drain_all();
            prop_assert_eq!(report.devices_failed, 1, "policy {}", policy);

            // Exactly-once: no id may complete twice anywhere in the fleet.
            let mut seen = std::collections::BTreeSet::new();
            for o in report.all_devices().flat_map(|d| d.report.outcomes.iter()) {
                prop_assert!(
                    seen.insert(o.id),
                    "policy {}: request {} executed twice", policy, o.id
                );
            }

            // Every ticket resolves, and Done stays bit-identical.
            for (id, t) in tickets {
                match cluster.poll(t) {
                    RequestStatus::Done(o) => {
                        prop_assert_eq!(
                            o.checksum, want[&id],
                            "policy {}: request {} diverged after recovery", policy, id
                        );
                    }
                    RequestStatus::Failed { reason: FailureReason::DeviceLost } => {
                        // In flight on the victim, retry budget spent.
                    }
                    s => return Err(TestCaseError::fail(format!(
                        "policy {policy}: ticket {id} unresolved after kill: {s:?}"
                    ))),
                }
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

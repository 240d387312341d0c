//! Volumetric serving: 3D stencil requests as first-class citizens of the
//! runtime, the async scheduler and the sharded cluster.
//!
//! SPIDER's 3D kernels decompose into `2r+1` 2D plane slices, and every
//! step of a volume executes as one batched-launch wave of plane sweeps —
//! exactly the shape the serving stack exploits. This demo walks the full
//! 3D request lifecycle in four scenes:
//!
//! 1. **Runtime**: a batch of volumes through `run_batch` — one 3D plan
//!    compile per kernel, cache hits for every repeat, bit-identical to a
//!    direct `Spider3DExecutor` run.
//! 2. **Scheduler**: mixed 2D/3D traffic through one async queue — volumes
//!    coalesce into plan-key waves next to planes.
//! 3. **Persistence**: a "restarted" runtime serves the same volumes with
//!    zero compiles (plans from disk, tilings from persisted memos).
//! 4. **Cluster**: affinity-sharded volumes across devices, with work
//!    stealing flattening a stacked queue, losslessly.

use std::sync::Arc;

use spider::prelude::*;

/// The volumetric workload: heat-like box volumes and a 7-point Laplacian
/// star, a few sizes each.
fn volume_batch(id_base: u64, copies: usize) -> Vec<StencilRequest> {
    let kernels = [
        (Kernel3D::random_box(1, 41), 4usize, 48usize, 64usize),
        (Kernel3D::random_box(2, 42), 3, 40, 48),
        (Kernel3D::star_7point(-6.0, 1.0), 6, 56, 56),
    ];
    let mut batch = Vec::new();
    let mut id = id_base;
    for (kernel, planes, rows, cols) in kernels {
        for _ in 0..copies {
            batch
                .push(StencilRequest::new_3d(id, kernel.clone(), planes, rows, cols).with_seed(id));
            id += 1;
        }
    }
    batch
}

fn plane_batch(id_base: u64, copies: usize) -> Vec<StencilRequest> {
    let kernels = [
        (StencilKernel::heat_2d(0.12), 128usize, 160usize),
        (StencilKernel::gaussian_2d(2), 96, 128),
    ];
    let mut batch = Vec::new();
    let mut id = id_base;
    for (kernel, rows, cols) in kernels {
        for _ in 0..copies {
            batch.push(StencilRequest::new_2d(id, kernel.clone(), rows, cols).with_seed(id));
            id += 1;
        }
    }
    batch
}

fn options() -> RuntimeOptions {
    RuntimeOptions {
        cache_capacity: 32,
        workers: 2,
        tuner_dry_run_cap: 1 << 13,
        tuner_shortlist: 2,
        ..RuntimeOptions::default()
    }
}

fn main() {
    scene_runtime();
    scene_scheduler();
    scene_persistence();
    scene_cluster();
    println!("\nall volumetric serving scenes passed");
}

/// Scene 1: volumes through the blocking runtime, bit-identical to direct
/// execution.
fn scene_runtime() {
    println!("=== scene 1: volumes through SpiderRuntime::run_batch ===");
    let rt = SpiderRuntime::new(GpuDevice::a100(), options());
    let batch = volume_batch(0, 3);
    let report = rt.run_batch(&batch);
    println!("{}", report.render());
    assert!(report.failures.is_empty());
    assert_eq!(report.volumetric_completed(), batch.len());
    // 3 kernels → 3 compiles; the other 6 requests hit.
    assert_eq!(rt.cache_stats().misses, 3);
    assert_eq!(rt.cache_stats().hits as usize, batch.len() - 3);

    // Bit-identity against a direct Spider3DExecutor run under the same
    // plane tiling the runtime chose.
    let probe = &batch[0];
    let outcome = report.outcomes.iter().find(|o| o.id == probe.id).unwrap();
    let plan = Spider3DPlan::compile(probe.kernel.as_volumetric().unwrap()).unwrap();
    let mut volume = probe.materialize_3d();
    Spider3DExecutor::with_config(
        rt.device(),
        probe.mode,
        spider::core::exec::ExecConfig {
            tiling: outcome.tiling,
            ..spider::core::exec::ExecConfig::default()
        },
    )
    .run(&plan, &mut volume, probe.steps)
    .unwrap();
    assert_eq!(
        outcome.checksum,
        spider::runtime::output_checksum(volume.padded()),
        "runtime-served volume must be bit-identical to direct execution"
    );
    println!("direct-execution bit-identity: ok\n");
}

/// Scene 2: mixed 2D/3D traffic through the async scheduler.
fn scene_scheduler() {
    println!("=== scene 2: mixed 2D/3D traffic through SpiderScheduler ===");
    let rt = Arc::new(SpiderRuntime::new(GpuDevice::a100(), options()));
    let sched = SpiderScheduler::new(
        Arc::clone(&rt),
        SchedulerOptions {
            start_paused: true, // saturate the queue, then one mixed wave
            ..SchedulerOptions::default()
        },
    );
    let mut tickets = Vec::new();
    for req in plane_batch(0, 3) {
        tickets.push(sched.submit(req).unwrap());
    }
    for req in volume_batch(100, 2) {
        tickets.push(sched.submit(req).unwrap());
    }
    let report = sched.drain();
    println!("{}", report.render());
    let q = report.queue.as_ref().unwrap();
    assert_eq!(report.outcomes.len(), tickets.len());
    assert_eq!(report.volumetric_completed(), 6);
    assert!(
        q.coalesced_groups >= 5,
        "2 planar + 3 volumetric plan keys coalesce into ≥5 groups"
    );
    for t in tickets {
        assert!(matches!(sched.poll(t), RequestStatus::Done(_)));
    }
    let coalesced_volumes = report
        .outcomes
        .iter()
        .filter(|o| o.volumetric && o.coalesced)
        .count();
    assert!(
        coalesced_volumes >= 4,
        "same-kernel volumes must share coalesced subgroups"
    );
    println!("mixed wave coalescing: ok\n");
}

/// Scene 3: zero-compile warm start for volumes from a `PlanStore`.
fn scene_persistence() {
    println!("=== scene 3: restarted runtime serves volumes with zero compiles ===");
    let dir =
        std::env::temp_dir().join(format!("spider-volumetric-serving-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let batch = volume_batch(0, 2);

    // "Process 1" serves and persists.
    let store = Arc::new(PlanStore::open(&dir).unwrap());
    let rt1 = SpiderRuntime::with_store(GpuDevice::a100(), options(), Arc::clone(&store));
    let first = rt1.run_batch(&batch);
    assert!(first.failures.is_empty());
    rt1.persist().unwrap();
    println!(
        "process 1: {} compiles, {} plans persisted",
        rt1.cache_stats().misses,
        store.plans_on_disk()
    );

    // "Process 2": fresh runtime over the same directory.
    let store2 = Arc::new(PlanStore::open(&dir).unwrap());
    let rt2 = SpiderRuntime::with_store(GpuDevice::a100(), options(), store2);
    let second = rt2.run_batch(&batch);
    let stats = rt2.cache_stats();
    println!(
        "process 2: {} store hits, {} compiles, {} memoized tilings",
        stats.store_hits,
        stats.misses - stats.store_hits,
        second.outcomes.iter().filter(|o| o.tuner_memo_hit).count(),
    );
    assert_eq!(stats.misses - stats.store_hits, 0, "warm start: 0 compiles");
    assert!(second.outcomes.iter().all(|o| o.tuner_memo_hit));
    for (a, b) in first.outcomes.iter().zip(&second.outcomes) {
        assert_eq!(a.checksum, b.checksum, "warm start changed volume bits");
    }
    println!("zero-compile warm start: ok\n");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Scene 4: volumes across a sharded cluster with stealing.
fn scene_cluster() {
    println!("=== scene 4: affinity-sharded volumes with work stealing ===");
    let specs: Vec<DeviceSpec> = (0..3)
        .map(|i| {
            DeviceSpec::a100(format!("dev{i}")).with_scheduler_options(SchedulerOptions {
                start_paused: true,
                aging_step: None,
                ..SchedulerOptions::default()
            })
        })
        .collect();
    let cluster = SpiderCluster::new(specs, ClusterOptions::default());
    // One 3D kernel, many volumes: affinity stacks one device...
    let k3 = Kernel3D::random_box(1, 77);
    let mut tickets = Vec::new();
    for i in 0..9u64 {
        tickets.push(
            cluster
                .submit(StencilRequest::new_3d(i, k3.clone(), 3, 40, 48).with_seed(i))
                .unwrap(),
        );
    }
    // ...and 2D traffic shards alongside.
    for req in plane_batch(100, 2) {
        tickets.push(cluster.submit(req).unwrap());
    }
    let before = cluster.queue_depths();
    let moved = cluster.rebalance();
    let after = cluster.queue_depths();
    println!("queues before {before:?} → after {after:?} ({moved} volumes stolen)");
    assert!(moved > 0, "stacked volumes must trigger stealing");
    let report = cluster.drain_all();
    println!("{}", report.render());
    assert_eq!(report.total_completed(), tickets.len());
    assert_eq!(report.total_volumetric(), 9);
    assert!(report.rates_are_finite());
    for t in tickets {
        assert!(matches!(cluster.poll(t), RequestStatus::Done(_)));
    }
    println!("sharded volumetric serving: ok");
}

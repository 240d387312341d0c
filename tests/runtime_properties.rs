//! Property tests for the serving layer: a cached plan must be
//! indistinguishable from a freshly compiled one (bit-identical execution),
//! the LRU plan cache must respect its capacity bound under arbitrary
//! access interleavings, and the async scheduler must complete every
//! non-shed ticket exactly once with results bit-identical to the blocking
//! path, in priority order, without ever executing an expired request.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use spider::core::{ExecConfig, ExecMode, SpiderExecutor, SpiderPlan};
use spider::prelude::*;
use spider::runtime::PlanCache;

fn arb_shape() -> impl Strategy<Value = StencilShape> {
    (1usize..=3, any::<bool>()).prop_map(|(r, star)| {
        if star {
            StencilShape::star_2d(r)
        } else {
            StencilShape::box_2d(r)
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Executing through the runtime's cached plan is bit-identical to a
    /// fresh `SpiderPlan::compile` + manual executor run on the same input:
    /// plan reuse must never change a single output bit.
    #[test]
    fn cached_execution_is_bit_identical_to_fresh(
        shape in arb_shape(),
        seed in 0u64..300,
        rows in 17usize..60,
        cols in 17usize..70,
    ) {
        let kernel = StencilKernel::random(shape, seed);
        let rt = SpiderRuntime::with_defaults(GpuDevice::a100());
        let req = StencilRequest::new_2d(seed, kernel.clone(), rows, cols).with_seed(seed + 1);

        // First execution compiles and fills the cache; second one must hit.
        let cold = rt.execute(&req).unwrap();
        let warm = rt.execute(&req).unwrap();
        prop_assert!(!cold.cache_hit);
        prop_assert!(warm.cache_hit);
        prop_assert_eq!(cold.checksum, warm.checksum);

        // Fresh pipeline, no runtime: same grid, same executor settings.
        let plan = SpiderPlan::compile(&kernel).unwrap();
        let mut grid = req.materialize_2d();
        let config = ExecConfig { tiling: cold.tiling, ..ExecConfig::default() };
        SpiderExecutor::with_config(rt.device(), ExecMode::SparseTcOptimized, config)
            .run_2d(&plan, &mut grid, 1)
            .unwrap();
        let fresh_hash = spider::runtime::output_checksum(grid.padded());
        prop_assert_eq!(
            cold.checksum, fresh_hash,
            "cached-plan output diverged from fresh compile on {} {}x{}",
            shape.name(), rows, cols
        );
    }

    /// The LRU cache never exceeds its capacity, evicts exactly when full,
    /// and keeps the most recently touched entries across arbitrary
    /// insert/touch interleavings.
    #[test]
    fn lru_eviction_respects_capacity(
        capacity in 1usize..8,
        ops in 5usize..40,
        seed in 0u64..1000,
    ) {
        let cache = PlanCache::new(capacity);
        let mut rng = seed | 1;
        let mut next = move || {
            rng ^= rng >> 12;
            rng ^= rng << 25;
            rng ^= rng >> 27;
            rng
        };
        // A pool of distinct kernels, addressed by index.
        let pool: Vec<spider::runtime::RequestKernel> = (0..10)
            .map(|i| {
                spider::runtime::RequestKernel::Planar(StencilKernel::random(
                    StencilShape::box_2d(1),
                    7000 + i,
                ))
            })
            .collect();
        // Reference LRU: most-recent at the back.
        let mut reference: Vec<u64> = Vec::new();
        for _ in 0..ops {
            let k = &pool[(next() % pool.len() as u64) as usize];
            let key = k.fingerprint();
            let (_, hit) = cache.get_or_compile(key, k).unwrap();
            let was_resident = reference.contains(&key);
            prop_assert_eq!(hit, was_resident, "hit/miss must match reference model");
            reference.retain(|&x| x != key);
            reference.push(key);
            if reference.len() > capacity {
                reference.remove(0);
            }
            prop_assert!(cache.len() <= capacity, "capacity exceeded");
            prop_assert_eq!(cache.len(), reference.len());
        }
        // Exactly the reference-resident keys are cached.
        for key in &reference {
            prop_assert!(cache.peek(*key).is_some(), "resident key missing");
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.hits + stats.misses, ops as u64);
        prop_assert_eq!(
            stats.evictions,
            stats.insertions - cache.len() as u64,
            "every insertion beyond the resident set must have evicted"
        );
    }
}

// --------------------------------------------------------- volumetric --

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// 3D requests through the runtime are bit-identical — output *and*
    /// `PerfCounters` — to a fresh `Spider3DExecutor` run of a freshly
    /// compiled `Spider3DPlan` on the same volume: caching, pooling and
    /// the serving wrapper must be invisible in the data.
    #[test]
    fn cached_3d_execution_is_bit_identical_to_fresh(
        radius in 1usize..=2,
        kseed in 0u64..200,
        planes in 2usize..5,
        rows in 18usize..40,
        cols in 20usize..44,
        steps in 1usize..=2,
    ) {
        let kernel = Kernel3D::random_box(radius, kseed);
        let rt = SpiderRuntime::with_defaults(GpuDevice::a100());
        let req = StencilRequest::new_3d(1, kernel.clone(), planes, rows, cols)
            .with_steps(steps)
            .with_seed(kseed + 7);
        let cold = rt.execute(&req).unwrap();
        let warm = rt.execute(&req).unwrap();
        prop_assert!(!cold.cache_hit && warm.cache_hit);
        prop_assert!(cold.volumetric && warm.volumetric);
        prop_assert_eq!(cold.checksum, warm.checksum);
        prop_assert_eq!(&cold.report.counters, &warm.report.counters);

        // Fresh pipeline, no runtime, under the runtime's plane tiling.
        let plan = Spider3DPlan::compile(&kernel).unwrap();
        let mut volume = req.materialize_3d();
        let config = ExecConfig { tiling: cold.tiling, ..ExecConfig::default() };
        let fresh = Spider3DExecutor::with_config(rt.device(), ExecMode::SparseTcOptimized, config)
            .run(&plan, &mut volume, steps)
            .unwrap();
        prop_assert_eq!(
            cold.checksum,
            spider::runtime::output_checksum(volume.padded()),
            "cached 3D output diverged from fresh compile"
        );
        prop_assert_eq!(&cold.report.counters, &fresh.counters, "counters diverged");
        prop_assert_eq!(cold.report.points, fresh.points);
    }
}

// ---------------------------------------------------------- scheduler --

/// A small heterogeneous request pool: 3 kernels, priorities chosen by the
/// caller, ids equal to the index.
fn pooled_request(i: u64, kernel_pick: usize, priority: Priority) -> StencilRequest {
    let kernel = match kernel_pick % 3 {
        0 => StencilKernel::jacobi_2d(),
        1 => StencilKernel::gaussian_2d(1),
        _ => StencilKernel::heat_2d(0.15),
    };
    StencilRequest::new_2d(i, kernel, 40, 56)
        .with_seed(1000 + i)
        .with_priority(priority)
}

/// A small-cache runtime with a short tuner shortlist; a scheduler over it
/// runs each wave's groups in cohort order.
fn scheduler_runtime() -> SpiderRuntime {
    SpiderRuntime::new(
        GpuDevice::a100(),
        RuntimeOptions {
            cache_capacity: 8,
            tuner_dry_run_cap: 1 << 12,
            tuner_shortlist: 2,
            ..RuntimeOptions::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every admitted ticket reaches a terminal state exactly once, the
    /// drain report's counters add up, and the scheduler's outcomes are
    /// bit-identical to what blocking `run_batch` computes for the same
    /// requests.
    #[test]
    fn scheduler_completes_every_ticket_once_and_matches_run_batch(
        n in 2usize..10,
        kernel_seed in 0usize..27,
        priority_bits in any::<u64>(),
    ) {
        let requests: Vec<StencilRequest> = (0..n as u64)
            .map(|i| {
                let priority = match (priority_bits >> (2 * i)) & 3 {
                    0 => Priority::Low,
                    1 | 2 => Priority::Normal,
                    _ => Priority::High,
                };
                pooled_request(i, kernel_seed + i as usize, priority)
            })
            .collect();

        let blocking = scheduler_runtime().run_batch(&requests);
        prop_assert!(blocking.failures.is_empty());

        let sched = SpiderScheduler::new(
            Arc::new(scheduler_runtime()),
            SchedulerOptions { start_paused: true, ..SchedulerOptions::default() },
        );
        let tickets: Vec<Ticket> = requests
            .iter()
            .map(|r| sched.submit(r.clone()).unwrap())
            .collect();
        let report = sched.drain();

        // Exactly-once completion: every ticket terminal, each appearing
        // exactly once in the completion order.
        let order = sched.completion_order();
        prop_assert_eq!(order.len(), n, "every ticket completes exactly once");
        for &t in &tickets {
            prop_assert_eq!(order.iter().filter(|&&x| x == t).count(), 1);
            prop_assert!(sched.poll(t).is_terminal());
        }
        let q = report.queue.unwrap();
        prop_assert_eq!(q.submitted, n as u64);
        prop_assert_eq!(q.completed, n as u64);
        prop_assert_eq!(q.shed + q.expired + q.rejected + q.failed, 0);
        prop_assert!(report.rates_are_finite());

        // Bit-identity with the blocking path, request by request.
        prop_assert_eq!(report.outcomes.len(), blocking.outcomes.len());
        for (req, t) in requests.iter().zip(&tickets) {
            let RequestStatus::Done(async_outcome) = sched.poll(*t) else {
                return Err(TestCaseError::fail(format!("ticket for {} not Done", req.id)));
            };
            let blocking_outcome = blocking
                .outcomes
                .iter()
                .find(|o| o.id == req.id)
                .expect("blocking outcome");
            prop_assert_eq!(
                async_outcome.checksum, blocking_outcome.checksum,
                "request {} diverged from run_batch", req.id
            );
            prop_assert_eq!(async_outcome.tiling, blocking_outcome.tiling);
        }
    }

    /// With the queue saturated before dispatch, completion order respects
    /// effective priority: no lower-priority request finishes before a
    /// higher-priority one (aging disabled so base priority is effective).
    #[test]
    fn scheduler_priority_order_holds_under_full_queue(
        n in 3usize..9,
        kernel_seed in 0usize..9,
        priority_bits in any::<u64>(),
    ) {
        let sched = SpiderScheduler::new(
            Arc::new(scheduler_runtime()),
            SchedulerOptions {
                queue_capacity: n,
                start_paused: true,
                aging_step: None,
                ..SchedulerOptions::default()
            },
        );
        let mut tickets = Vec::new();
        for i in 0..n as u64 {
            let priority = match (priority_bits >> (2 * i)) & 3 {
                0 => Priority::Low,
                1 | 2 => Priority::Normal,
                _ => Priority::High,
            };
            let t = sched.submit(pooled_request(i, kernel_seed + i as usize, priority)).unwrap();
            tickets.push((t, priority));
        }
        prop_assert_eq!(sched.queue_depth(), n, "queue saturated before dispatch");
        sched.resume();
        sched.drain();
        let order = sched.completion_order();
        for &(ta, pa) in &tickets {
            for &(tb, pb) in &tickets {
                if pa > pb {
                    let pos_a = order.iter().position(|&x| x == ta).unwrap();
                    let pos_b = order.iter().position(|&x| x == tb).unwrap();
                    prop_assert!(
                        pos_a < pos_b,
                        "{pa} ticket finished at {pos_a}, after {pb} at {pos_b}"
                    );
                }
            }
        }
    }

    /// Mixed 2D/3D traffic through the async scheduler is bit-identical to
    /// the blocking `run_batch` path, volumes and planes coalesce under one
    /// queue, and every ticket completes exactly once.
    #[test]
    fn scheduler_mixed_2d_3d_matches_run_batch(
        n_2d in 2usize..6,
        n_3d in 1usize..4,
        kernel_seed in 0usize..9,
        vol_seed in 0u64..50,
    ) {
        let mut requests: Vec<StencilRequest> = (0..n_2d as u64)
            .map(|i| pooled_request(i, kernel_seed + i as usize, Priority::Normal))
            .collect();
        // Volumes drawn from two kernels so some share a plan key.
        for j in 0..n_3d as u64 {
            let k3 = Kernel3D::random_box(1, vol_seed + (j % 2));
            requests.push(
                StencilRequest::new_3d(100 + j, k3, 3, 32, 40).with_seed(vol_seed + j),
            );
        }

        let blocking = scheduler_runtime().run_batch(&requests);
        prop_assert!(blocking.failures.is_empty());
        prop_assert_eq!(blocking.volumetric_completed(), n_3d);

        let sched = SpiderScheduler::new(
            Arc::new(scheduler_runtime()),
            SchedulerOptions { start_paused: true, ..SchedulerOptions::default() },
        );
        let tickets: Vec<Ticket> = requests
            .iter()
            .map(|r| sched.submit(r.clone()).unwrap())
            .collect();
        let report = sched.drain();
        prop_assert_eq!(report.outcomes.len(), requests.len());
        prop_assert_eq!(report.volumetric_completed(), n_3d);
        prop_assert!(report.rates_are_finite());
        for (req, t) in requests.iter().zip(&tickets) {
            let RequestStatus::Done(async_outcome) = sched.poll(*t) else {
                return Err(TestCaseError::fail(format!("ticket for {} not Done", req.id)));
            };
            let want = blocking.outcomes.iter().find(|o| o.id == req.id).unwrap();
            prop_assert_eq!(
                async_outcome.checksum, want.checksum,
                "request {} diverged from run_batch", req.id
            );
            prop_assert_eq!(&async_outcome.report.counters, &want.report.counters);
            prop_assert_eq!(async_outcome.volumetric, want.volumetric);
        }
    }

    /// Requests whose deadline lapses while queued expire without executing:
    /// their kernels are never compiled, never touch the plan cache, and the
    /// drain report stays NaN-free even when *everything* expires.
    #[test]
    fn scheduler_never_executes_expired_deadlines(
        n_live in 0usize..4,
        n_doomed in 1usize..4,
        seed in 0u64..1000,
    ) {
        let rt = Arc::new(scheduler_runtime());
        let sched = SpiderScheduler::new(
            Arc::clone(&rt),
            SchedulerOptions { start_paused: true, ..SchedulerOptions::default() },
        );
        // Live requests share one kernel; doomed ones get unique random
        // kernels, so any compile of theirs would show up in cache misses.
        let mut doomed = Vec::new();
        for i in 0..n_doomed as u64 {
            let kernel = StencilKernel::random(StencilShape::box_2d(2), 5000 + seed + i);
            let t = sched
                .submit(
                    StencilRequest::new_2d(900 + i, kernel, 48, 48)
                        .with_deadline(Deadline::within(Duration::ZERO)),
                )
                .unwrap();
            doomed.push(t);
        }
        let mut live = Vec::new();
        for i in 0..n_live as u64 {
            live.push(sched.submit(pooled_request(i, 0, Priority::Normal)).unwrap());
        }
        let report = sched.drain();

        for &t in &doomed {
            prop_assert!(matches!(sched.poll(t), RequestStatus::Expired));
        }
        for &t in &live {
            prop_assert!(matches!(sched.poll(t), RequestStatus::Done(_)));
        }
        let q = report.queue.unwrap();
        prop_assert_eq!(q.expired, n_doomed as u64);
        prop_assert_eq!(q.completed, n_live as u64);
        prop_assert_eq!(report.outcomes.len(), n_live);
        // All live requests share one kernel: at most one compile total.
        prop_assert!(
            rt.cache_stats().misses <= 1,
            "an expired request's kernel was compiled ({} misses)",
            rt.cache_stats().misses
        );
        prop_assert!(report.rates_are_finite(), "fully-expired batches must not NaN");
    }
}

//! Async serving demo: mixed-priority traffic with deadlines and
//! backpressure through the submit/poll scheduler.
//!
//! Four scenes, each asserting one scheduler guarantee:
//!
//! 1. **Priority under saturation** — a paused scheduler is filled to
//!    capacity with interleaved low/normal/high traffic, then resumed:
//!    every high-priority request completes before every normal one, and
//!    every normal before every low.
//! 2. **Deadlines** — requests whose deadline lapses while queued complete
//!    as `Expired` without executing (their unique kernel is never
//!    compiled).
//! 3. **Backpressure** — a `Reject` scheduler refuses submissions beyond
//!    capacity; a `ShedLowestPriority` scheduler evicts the least important
//!    queued request instead.
//! 4. **Bit-identity** — the scheduler's results are bit-identical to the
//!    blocking `run_batch` path for the same requests.
//!
//! ```text
//! cargo run --release --example async_serving
//! ```

use std::sync::Arc;
use std::time::Duration;

use spider::prelude::*;

/// A runtime fanning groups out over `workers` threads (`1` =
/// deterministic completion order within a wave).
fn runtime(workers: usize) -> SpiderRuntime {
    SpiderRuntime::new(
        GpuDevice::a100(),
        RuntimeOptions {
            cache_capacity: 32,
            workers,
            ..RuntimeOptions::default()
        },
    )
}

/// The mixed workload: three kernels, three priorities, interleaved so
/// arrival order and priority order disagree everywhere.
fn mixed_traffic() -> Vec<StencilRequest> {
    let kernels = [
        StencilKernel::heat_2d(0.12),
        StencilKernel::gaussian_2d(2),
        StencilKernel::jacobi_2d(),
    ];
    let mut reqs = Vec::new();
    let mut id = 0u64;
    for round in 0..3 {
        for (k, kernel) in kernels.iter().enumerate() {
            let priority = match (round + k) % 3 {
                0 => Priority::Low,
                1 => Priority::Normal,
                _ => Priority::High,
            };
            reqs.push(
                StencilRequest::builder(
                    id,
                    kernel.clone(),
                    GridSpec::D2 {
                        rows: 128,
                        cols: 160,
                    },
                )
                .seed(500 + id)
                .priority(priority)
                .build(),
            );
            id += 1;
        }
    }
    reqs
}

fn scene_1_priority_ordering() {
    println!("=== scene 1: priority ordering under a saturated queue ===");
    let traffic = mixed_traffic();
    let sched = SpiderScheduler::new(
        Arc::new(runtime(1)),
        SchedulerOptions {
            // Capacity equals the traffic volume: after the last submit the
            // queue is exactly full — saturated — and nothing has run yet.
            queue_capacity: traffic.len(),
            start_paused: true,
            aging_step: None,
            ..SchedulerOptions::default()
        },
    );
    let mut tickets = Vec::new();
    for req in &traffic {
        let priority = req.priority;
        tickets.push((sched.submit(req.clone()).unwrap(), priority));
    }
    assert_eq!(sched.queue_depth(), traffic.len(), "queue saturated");
    sched.resume();
    let report = sched.drain();
    print!("{}", report.render());

    let order = sched.completion_order();
    let position = |t: Ticket| order.iter().position(|&x| x == t).unwrap();
    let mut by_priority: Vec<(Priority, usize)> =
        tickets.iter().map(|&(t, p)| (p, position(t))).collect();
    by_priority.sort_by_key(|&(_, pos)| pos);
    println!("completion order (priority@position):");
    for (p, pos) in &by_priority {
        println!("  #{pos:<2} {p}");
    }
    for &(ta, pa) in &tickets {
        for &(tb, pb) in &tickets {
            if pa > pb {
                assert!(
                    position(ta) < position(tb),
                    "{pa} ticket completed after a {pb} one"
                );
            }
        }
    }
    assert_eq!(report.outcomes.len(), traffic.len());

    // Queueing-delay distribution: every dispatched ticket lands in exactly
    // one fixed log-scale bucket, so the counts add up to the dispatch
    // count and the tail is visible beyond the scalar mean/max.
    let q = report.queue.expect("drain attaches queue stats");
    assert_eq!(q.wait_hist.count(), q.completed + q.failed);
    println!(
        "wait-time distribution ({} dispatched): {}",
        q.wait_hist.count(),
        q.wait_hist.render()
    );
    println!("OK: all high-priority requests completed before normal, normal before low\n");
}

fn scene_2_deadlines() {
    println!("=== scene 2: deadline expiry without execution ===");
    let rt = Arc::new(runtime(0));
    let sched = SpiderScheduler::new(
        Arc::clone(&rt),
        SchedulerOptions {
            start_paused: true,
            ..SchedulerOptions::default()
        },
    );
    // The doomed request uses a kernel nothing else shares: if it ever
    // executed, the plan cache would record a compile for it.
    let doomed_kernel = StencilKernel::random(StencilShape::box_2d(3), 0xDEAD);
    let doomed = sched
        .submit(
            StencilRequest::builder(100, doomed_kernel, GridSpec::D2 { rows: 96, cols: 96 })
                .deadline(Deadline::within(Duration::ZERO))
                .build(),
        )
        .unwrap();
    let live = sched
        .submit(StencilRequest::new_2d(
            101,
            StencilKernel::heat_2d(0.1),
            96,
            96,
        ))
        .unwrap();
    let report = sched.drain();
    print!("{}", report.render());

    assert!(matches!(sched.poll(doomed), RequestStatus::Expired));
    assert!(matches!(sched.poll(live), RequestStatus::Done(_)));
    let q = report.queue.unwrap();
    assert_eq!(q.expired, 1, "exactly one deadline expiry");
    assert_eq!(
        rt.cache_stats().misses,
        1,
        "the expired request's kernel was never compiled"
    );
    assert!(
        report.rates_are_finite(),
        "expiry must not poison the rates"
    );
    println!("OK: 1 request expired unexecuted; its kernel was never compiled\n");
}

fn scene_3_backpressure() {
    println!("=== scene 3: backpressure — Reject and ShedLowestPriority ===");
    // Reject: over-capacity submissions are refused outright.
    let reject = SpiderScheduler::new(
        Arc::new(runtime(0)),
        SchedulerOptions {
            queue_capacity: 3,
            policy: BackpressurePolicy::Reject,
            start_paused: true,
            ..SchedulerOptions::default()
        },
    );
    let mut rejected = 0;
    for i in 0..5u64 {
        match reject.submit(StencilRequest::new_2d(
            i,
            StencilKernel::jacobi_2d(),
            64,
            64,
        )) {
            Ok(_) => {}
            Err(SubmitError::QueueFull { capacity }) => {
                println!("  request {i} rejected (queue full at {capacity})");
                rejected += 1;
            }
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    let report = reject.drain();
    assert_eq!(rejected, 2, "two submissions over capacity");
    assert_eq!(report.queue.unwrap().rejected, 2);
    assert_eq!(report.outcomes.len(), 3);

    // ShedLowestPriority: the queued Low is evicted to admit a High.
    let shed = SpiderScheduler::new(
        Arc::new(runtime(0)),
        SchedulerOptions {
            queue_capacity: 2,
            policy: BackpressurePolicy::ShedLowestPriority,
            start_paused: true,
            aging_step: None,
            ..SchedulerOptions::default()
        },
    );
    let low = shed
        .submit(
            StencilRequest::builder(
                10,
                StencilKernel::jacobi_2d(),
                GridSpec::D2 { rows: 64, cols: 64 },
            )
            .priority(Priority::Low)
            .build(),
        )
        .unwrap();
    shed.submit(StencilRequest::new_2d(
        11,
        StencilKernel::jacobi_2d(),
        64,
        64,
    ))
    .unwrap();
    shed.submit(
        StencilRequest::new_2d(12, StencilKernel::jacobi_2d(), 64, 64)
            .with_priority(Priority::High),
    )
    .unwrap();
    assert!(matches!(shed.poll(low), RequestStatus::Shed));
    let report = shed.drain();
    assert_eq!(report.queue.unwrap().shed, 1);
    assert_eq!(report.outcomes.len(), 2);
    println!("  low-priority request shed to admit high-priority traffic");
    println!("OK: {rejected} rejected under Reject; 1 shed under ShedLowestPriority\n");
}

fn scene_4_bit_identity() {
    println!("=== scene 4: scheduler results are bit-identical to run_batch ===");
    let mut traffic = mixed_traffic();
    // Duplicate one scenario at equal priority so dispatch waves contain
    // plan-sharing cohorts — the executor-coalescing path.
    for i in 0..3u64 {
        traffic.push(
            StencilRequest::new_2d(900 + i, StencilKernel::jacobi_2d(), 128, 160)
                .with_seed(1500 + i),
        );
    }

    let blocking = runtime(0).run_batch(&traffic);
    assert!(blocking.failures.is_empty());

    let sched = SpiderScheduler::new(
        Arc::new(runtime(0)),
        SchedulerOptions {
            start_paused: true, // whole workload queued => full waves
            ..SchedulerOptions::default()
        },
    );
    let mut tickets = Vec::new();
    for req in &traffic {
        tickets.push(sched.submit(req.clone()).unwrap());
    }
    let async_report = sched.drain();
    assert!(async_report.failures.is_empty());

    for (req, ticket) in traffic.iter().zip(&tickets) {
        let RequestStatus::Done(async_outcome) = sched.poll(*ticket) else {
            panic!("request {} did not complete", req.id);
        };
        let blocking_outcome = blocking
            .outcomes
            .iter()
            .find(|o| o.id == req.id)
            .expect("blocking outcome exists");
        assert_eq!(
            async_outcome.checksum, blocking_outcome.checksum,
            "request {} diverged between scheduler and run_batch",
            req.id
        );
        assert_eq!(async_outcome.tiling, blocking_outcome.tiling);
    }
    let coalesced = async_report.outcomes.iter().filter(|o| o.coalesced).count();
    println!(
        "  {} requests, {} served through shared (coalesced) executors",
        traffic.len(),
        coalesced
    );
    assert!(
        coalesced > 0,
        "the workload repeats kernels; some must coalesce"
    );
    println!("OK: every checksum matches the blocking path bit for bit\n");
}

fn main() {
    scene_1_priority_ordering();
    scene_2_deadlines();
    scene_3_backpressure();
    scene_4_bit_identity();
    println!("OK: priority ordering, deadline expiry, backpressure and bit-identity all hold.");
}

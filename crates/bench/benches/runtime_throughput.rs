//! Serving-layer throughput: mixed batches through `spider-runtime`.
//!
//! Two criterion benches (cold = fresh runtime per batch, warm = shared
//! runtime with populated caches) plus a direct measured run that writes
//! `BENCH_runtime.json` — the machine-readable requests/sec + GStencil/s
//! data point for the performance trajectory.

use std::sync::Arc;

use criterion::{criterion_group, Criterion};
use spider_bench::traffic;
use spider_gpu_sim::GpuDevice;
use spider_runtime::{
    RuntimeOptions, SchedulerOptions, SpiderRuntime, SpiderScheduler, StencilRequest,
};
use spider_stencil::dim3::Kernel3D;
use spider_stencil::{StencilKernel, StencilShape};

/// The mixed serving workload: six scenario types, `copies` requests each.
fn build_batch(id_base: u64, copies: usize) -> Vec<StencilRequest> {
    let kernels_2d = [
        (StencilKernel::heat_2d(0.12), 256usize, 256usize),
        (StencilKernel::gaussian_2d(2), 192, 256),
        (StencilKernel::random(StencilShape::box_2d(3), 31), 128, 160),
        (
            StencilKernel::random(StencilShape::star_2d(2), 32),
            256,
            192,
        ),
        (StencilKernel::jacobi_2d(), 96, 128),
    ];
    let mut batch = Vec::new();
    let mut id = id_base;
    for (kernel, rows, cols) in kernels_2d {
        for _ in 0..copies {
            batch.push(StencilRequest::new_2d(id, kernel.clone(), rows, cols).with_seed(id));
            id += 1;
        }
    }
    for _ in 0..copies {
        batch.push(StencilRequest::new_1d(id, StencilKernel::wave_1d(2), 1 << 18).with_seed(id));
        id += 1;
    }
    batch
}

/// The volumetric workload: three 3D kernels, `copies` volumes each, sized
/// so one volume's plane-sweep work is comparable to one 2D request above
/// (mixed-traffic throughput should not be dragged by request weight).
fn build_volume_batch(id_base: u64, copies: usize) -> Vec<StencilRequest> {
    let kernels = [
        (Kernel3D::random_box(1, 41), 4usize, 64usize, 64usize),
        (Kernel3D::random_box(2, 42), 3, 48, 64),
        (Kernel3D::star_7point(-6.0, 1.0), 6, 64, 64),
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

fn options() -> RuntimeOptions {
    RuntimeOptions {
        cache_capacity: 32,
        ..RuntimeOptions::default()
    }
}

fn bench_runtime(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime_throughput");
    group.bench_function("cold_batch_12", |b| {
        b.iter(|| {
            let rt = SpiderRuntime::new(GpuDevice::a100(), options());
            rt.run_batch(&build_batch(0, 2))
        })
    });
    let warm_rt = SpiderRuntime::new(GpuDevice::a100(), options());
    warm_rt.run_batch(&build_batch(0, 1)); // populate caches
    group.bench_function("warm_batch_12", |b| {
        b.iter(|| warm_rt.run_batch(&build_batch(0, 2)))
    });
    // Async path: submit the same batch through the scheduler and drain.
    // Plan cache and tuner memos are shared with the warm runtime above.
    let sched_rt = Arc::new(SpiderRuntime::new(GpuDevice::a100(), options()));
    sched_rt.run_batch(&build_batch(0, 1));
    group.bench_function("sched_warm_batch_12", |b| {
        b.iter(|| {
            let sched = SpiderScheduler::new(Arc::clone(&sched_rt), SchedulerOptions::default());
            for req in build_batch(0, 2) {
                sched.submit(req).expect("Block policy admits everything");
            }
            sched.drain()
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(4)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_runtime
}

/// Direct measurement written to `BENCH_runtime.json` (no criterion
/// overhead): one cold batch, then `WARM_BATCHES` warm batches.
fn emit_json() {
    const WARM_BATCHES: usize = 5;
    let rt = SpiderRuntime::new(GpuDevice::a100(), options());
    let cold = rt.run_batch(&build_batch(0, 2));
    let mut warm_reports = Vec::new();
    for b in 1..=WARM_BATCHES {
        warm_reports.push(rt.run_batch(&build_batch(1000 * b as u64, 2)));
    }
    let warm_wall: f64 = warm_reports.iter().map(|r| r.wall_s).sum();
    let warm_requests: usize = warm_reports.iter().map(|r| r.outcomes.len()).sum();
    let warm_hit_rate =
        warm_reports.iter().map(|r| r.batch_hit_rate()).sum::<f64>() / WARM_BATCHES as f64;
    let sim_gsps = warm_reports
        .last()
        .map(|r| r.simulated_gstencils_per_sec())
        .unwrap_or(0.0);
    // Scheduler (async submit/poll) throughput over the same warm runtime:
    // submit WARM_BATCHES batches, drain, measure completed requests over
    // the first-submit → last-completion wall clock.
    let sched = SpiderScheduler::new(Arc::new(rt), SchedulerOptions::default());
    for b in 0..WARM_BATCHES {
        for req in build_batch(10_000 * (b as u64 + 1), 2) {
            sched.submit(req).expect("Block policy admits everything");
        }
    }
    let sched_report = sched.drain();
    let sched_rps = sched_report.requests_per_sec();
    let sched_queue = sched_report.queue.expect("drain attaches queue stats");
    let stats = sched.runtime().cache_stats();

    // Volumetric serving: warm batches of 3D volumes through their own
    // runtime (cache/tuner stats above stay pure-2D).
    let vol_rt = SpiderRuntime::new(GpuDevice::a100(), options());
    vol_rt.run_batch(&build_volume_batch(0, 1)); // populate caches
    let mut vol_reports = Vec::new();
    for b in 1..=WARM_BATCHES {
        vol_reports.push(vol_rt.run_batch(&build_volume_batch(1000 * b as u64, 2)));
    }
    let vol_wall: f64 = vol_reports.iter().map(|r| r.wall_s).sum();
    let vol_requests: usize = vol_reports.iter().map(|r| r.outcomes.len()).sum();
    let vol_rps = vol_requests as f64 / vol_wall;
    let vol_sim_gsps = vol_reports
        .last()
        .map(|r| r.simulated_gstencils_per_sec())
        .unwrap_or(0.0);

    // Mixed 2D/3D scheduler throughput: the pure-2D scheduler workload plus
    // volumes, through one warm queue. The acceptance target is that mixing
    // volumes in keeps request throughput within 15% of the pure-2D
    // scheduler rate above (per-request work is comparable by design).
    let mixed_rt = Arc::new(SpiderRuntime::new(GpuDevice::a100(), options()));
    mixed_rt.run_batch(&build_batch(0, 1));
    mixed_rt.run_batch(&build_volume_batch(500, 1));
    let mixed_sched = SpiderScheduler::new(mixed_rt, SchedulerOptions::default());
    for b in 0..WARM_BATCHES {
        let base = 20_000 * (b as u64 + 1);
        for req in build_batch(base, 2) {
            mixed_sched.submit(req).expect("Block policy admits");
        }
        for req in build_volume_batch(base + 500, 2) {
            mixed_sched.submit(req).expect("Block policy admits");
        }
    }
    let mixed_report = mixed_sched.drain();
    let mixed_rps = mixed_report.requests_per_sec();

    // Telemetry overhead guard: the same warm 2D workload with telemetry on
    // (the default) and explicitly off. `telemetry_on_requests_per_sec`
    // carries the gated `_per_sec` suffix, so instrumentation creeping past
    // the 15% tolerance fails the bench gate. Every lock this workload
    // takes is a ranked `spider_core::sync` lock, so the same key gates
    // the wrappers' release-build cost.
    let telemetry_rps = |opts: RuntimeOptions| {
        let rt = SpiderRuntime::new(GpuDevice::a100(), opts);
        rt.run_batch(&build_batch(0, 1)); // populate caches
        let mut wall = 0.0;
        let mut requests = 0usize;
        for b in 1..=WARM_BATCHES {
            let r = rt.run_batch(&build_batch(30_000 * b as u64, 2));
            wall += r.wall_s;
            requests += r.outcomes.len();
        }
        requests as f64 / wall
    };
    let telemetry_on_rps = telemetry_rps(options());
    let telemetry_off_rps = telemetry_rps(RuntimeOptions {
        telemetry: spider_telemetry::TelemetryConfig::disabled(),
        ..options()
    });

    // Watchtower overhead guard: the same warm workload with the full
    // watch machinery running in the serving loop — a `SnapshotSeries`
    // recording every batch, a burn-rate `AlertEngine` evaluated against
    // it, and a `HealthMonitor` observed + ticked per batch. Pairs with
    // `telemetry_on_requests_per_sec` above under the gated `_per_sec`
    // suffix, so the watchtower creeping past the 15% tolerance fails the
    // bench gate.
    let watchtower_on_rps = {
        use spider_telemetry::{
            AlertEngine, AlertRule, HealthMonitor, HealthPolicy, SloObjective, SnapshotSeries,
        };
        let rt = SpiderRuntime::new(GpuDevice::a100(), options());
        rt.run_batch(&build_batch(0, 1)); // populate caches
        let mut series = SnapshotSeries::new(64);
        let mut engine = AlertEngine::new(vec![AlertRule::burn_rate(
            "warm-wait-slo",
            "spider_runtime_wait_us",
            SloObjective {
                threshold_us: 4096.0,
                objective: 0.99,
            },
            10.0,
            4,
            1,
        )]);
        let mut monitor = HealthMonitor::new(HealthPolicy::default());
        let mut wall = 0.0;
        let mut requests = 0usize;
        for b in 1..=WARM_BATCHES {
            let r = rt.run_batch(&build_batch(30_000 * b as u64, 2));
            wall += r.wall_s;
            requests += r.outcomes.len();
            series.record(rt.telemetry().metrics().snapshot());
            engine.evaluate_recorded(&series, rt.telemetry());
            monitor.observe("bench-dev", b as u64, true);
            monitor.tick();
        }
        requests as f64 / wall
    };

    // Multi-tenant SLO scene: the canonical noisy-neighbor traffic (paced
    // victim vs closed-loop bully) under weights + admission quota. The
    // victim's p99 wait carries the inverted-gate `_p99_wait_us` suffix —
    // a scheduler change that lets the bully inflate the victim's tail
    // past tolerance fails the bench gate even with throughput flat.
    let slo = traffic::run(
        &traffic::noisy_neighbor_spec(24, 96),
        traffic::noisy_neighbor_options(Some(16)),
    );
    let victim = slo.tenant(traffic::VICTIM).expect("victim row");
    let noisy = slo.tenant(traffic::NOISY).expect("noisy row");
    let fairness = slo.fairness_ratio(traffic::VICTIM, traffic::NOISY);

    spider_bench::write_bench_json(
        "runtime_throughput",
        "BENCH_RUNTIME_JSON",
        "BENCH_runtime.json",
        &[
            ("batch_size", cold.outcomes.len() as f64, 0),
            ("warm_batches", WARM_BATCHES as f64, 0),
            ("cold_requests_per_sec", cold.requests_per_sec(), 3),
            ("warm_requests_per_sec", warm_requests as f64 / warm_wall, 3),
            ("warm_batch_hit_rate", warm_hit_rate, 4),
            ("simulated_gstencils_per_sec", sim_gsps, 4),
            ("scheduler_requests_per_sec", sched_rps, 3),
            ("scheduler_mean_wait_ms", sched_queue.mean_wait_s() * 1e3, 3),
            ("scheduler_p99_wait_us", sched_queue.p99_wait_s() * 1e6, 1),
            (
                "scheduler_dispatch_waves",
                sched_queue.dispatch_waves as f64,
                0,
            ),
            (
                "scheduler_coalesced_groups",
                sched_queue.coalesced_groups as f64,
                0,
            ),
            ("volume_requests_per_sec", vol_rps, 3),
            ("volume_simulated_gstencils_per_sec", vol_sim_gsps, 4),
            ("mixed_scheduler_requests_per_sec", mixed_rps, 3),
            (
                "mixed_volumetric_requests",
                mixed_report.volumetric_completed() as f64,
                0,
            ),
            ("telemetry_on_requests_per_sec", telemetry_on_rps, 3),
            ("telemetry_off_requests_per_sec", telemetry_off_rps, 3),
            ("watchtower_on_requests_per_sec", watchtower_on_rps, 3),
            ("traffic_victim_p99_wait_us", victim.p99_wait_us, 1),
            ("traffic_noisy_p99_wait_ms", noisy.p99_wait_us / 1e3, 3),
            ("traffic_victim_completed", victim.completed as f64, 0),
            ("traffic_noisy_rejected", noisy.rejected as f64, 0),
            ("traffic_fairness_victim_per_noisy", fairness, 4),
            ("cache_hits", stats.hits as f64, 0),
            ("cache_misses", stats.misses as f64, 0),
            ("cached_plans", sched.runtime().cached_plans() as f64, 0),
            (
                "tuned_scenarios",
                sched.runtime().tuned_scenarios() as f64,
                0,
            ),
        ],
    );
}

fn main() {
    benches();
    emit_json();
}

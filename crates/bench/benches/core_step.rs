//! Core execution-step throughput, independent of the serving layer.
//!
//! `BENCH_runtime.json` measures the whole serving stack (queues, caches,
//! tuner, coalescing); this bench pins the *functional execution core* by
//! itself so a regression in one layer cannot hide behind an improvement in
//! the other. It emits `BENCH_core.json` with two families of metrics:
//!
//! * `core_*_gstencils_per_sec` — *simulated* throughput of one sweep per
//!   dimension/mode at a fixed representative extent. Deterministic by
//!   construction (counters + roofline model), so the bench gate can hold
//!   them to the same 15% tolerance without CI noise.
//! * `host_*_mpoints` — host-side functional sweep rate (million stencil
//!   points per wall second). This is the number the zero-copy executor
//!   work moves; it is informational (not gated) because shared CI runners
//!   make wall clocks noisy.
//!
//! Every timed sweep starts from the same input, restored outside the
//! timer. Sweeping one grid over and over overflows FP16 (the 256×512 box
//! r2 grid on its 9th sweep, the 8×96² volume on its 14th, the 2¹⁸ line on
//! its 49th), and every sweep after that takes the emulated MMA path,
//! several times slower than the tap schedule.

use std::cell::RefCell;
use std::time::Instant;

use criterion::{criterion_group, BatchSize, Bencher, Criterion};
use spider_core::exec::{ExecMode, SpiderExecutor};
use spider_core::exec3d::{Spider3DExecutor, Spider3DPlan};
use spider_core::plan::SpiderPlan;
use spider_gpu_sim::GpuDevice;
use spider_stencil::dim3::{Grid3D, Kernel3D};
use spider_stencil::{Grid1D, Grid2D, StencilKernel, StencilShape};

const SEED: u64 = 0xC0DE;

fn kernel_2d() -> StencilKernel {
    StencilKernel::random(StencilShape::box_2d(2), SEED)
}

fn kernel_1d() -> StencilKernel {
    StencilKernel::random(StencilShape::d1(3), SEED)
}

fn mode_tag(mode: ExecMode) -> &'static str {
    match mode {
        ExecMode::DenseTc => "dense",
        ExecMode::SparseTc => "sparse",
        ExecMode::SparseTcOptimized => "sparse_opt",
    }
}

const MODES: [ExecMode; 3] = [
    ExecMode::DenseTc,
    ExecMode::SparseTc,
    ExecMode::SparseTcOptimized,
];

/// Time `sweep` over a copy of `input` restored before every iteration,
/// outside the timer (see the module docs).
fn bench_fresh<G: Clone>(b: &mut Bencher, input: &G, sweep: impl Fn(&mut G)) {
    let grid = RefCell::new(input.clone());
    b.iter_batched(
        || grid.borrow_mut().clone_from(input),
        |()| sweep(&mut grid.borrow_mut()),
        BatchSize::PerIteration,
    );
}

fn bench_core(c: &mut Criterion) {
    let dev = GpuDevice::a100();
    let mut group = c.benchmark_group("core_step");
    let plan2 = SpiderPlan::compile(&kernel_2d()).unwrap();
    let grid = Grid2D::<f32>::random(256, 512, 2, SEED);
    for mode in MODES {
        let exec = SpiderExecutor::new(&dev, mode);
        group.bench_function(format!("step_2d_{}", mode_tag(mode)), |b| {
            bench_fresh(b, &grid, |g| {
                exec.run_2d(&plan2, g, 1).unwrap();
            })
        });
    }
    let plan1 = SpiderPlan::compile(&kernel_1d()).unwrap();
    let exec = SpiderExecutor::new(&dev, ExecMode::SparseTcOptimized);
    let line = Grid1D::<f32>::random(1 << 18, 3, SEED);
    group.bench_function("step_1d_sparse_opt", |b| {
        bench_fresh(b, &line, |g| {
            exec.run_1d(&plan1, g, 1).unwrap();
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_core
}

/// Host functional sweep rate in Mpoints/s: the median of `reps` timed
/// sweeps, each over a copy of `input` restored outside the timer, after
/// one untimed sweep that warms the pool.
fn host_mpoints<G: Clone>(points: usize, reps: usize, input: &G, sweep: impl Fn(&mut G)) -> f64 {
    let mut grid = input.clone();
    sweep(&mut grid);
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            grid.clone_from(input);
            let t = Instant::now();
            sweep(&mut grid);
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    points as f64 / times[reps / 2] / 1e6
}

fn emit_json() {
    let dev = GpuDevice::a100();
    let mut fields: Vec<(String, f64, usize)> = Vec::new();

    // Simulated throughput (deterministic, gated): one sweep at a
    // serving-representative extent per dimension and mode.
    let plan2 = SpiderPlan::compile(&kernel_2d()).unwrap();
    for mode in MODES {
        let exec = SpiderExecutor::new(&dev, mode);
        let report = exec.estimate_2d(&plan2, 2048, 2048);
        fields.push((
            format!("core_2d_{}_gstencils_per_sec", mode_tag(mode)),
            report.gstencils_per_sec(),
            4,
        ));
    }
    let plan1 = SpiderPlan::compile(&kernel_1d()).unwrap();
    for mode in MODES {
        let exec = SpiderExecutor::new(&dev, mode);
        let report = exec.estimate_1d(&plan1, 1 << 22);
        fields.push((
            format!("core_1d_{}_gstencils_per_sec", mode_tag(mode)),
            report.gstencils_per_sec(),
            4,
        ));
    }
    let kernel3 = Kernel3D::random_box(1, SEED);
    let plan3 = Spider3DPlan::compile(&kernel3).unwrap();
    for mode in MODES {
        let exec3 = Spider3DExecutor::new(&dev, mode);
        let mut vol = Grid3D::<f32>::random(8, 96, 96, 1, SEED);
        let report = exec3.run(&plan3, &mut vol, 1).unwrap();
        fields.push((
            format!("core_3d_{}_gstencils_per_sec", mode_tag(mode)),
            report.gstencils_per_sec(),
            4,
        ));
    }

    // Host functional sweep rates (informational).
    let exec = SpiderExecutor::new(&dev, ExecMode::SparseTcOptimized);
    let grid = Grid2D::<f32>::random(256, 512, 2, SEED);
    fields.push((
        "host_2d_sparse_opt_mpoints".into(),
        host_mpoints(256 * 512, 9, &grid, |g| {
            exec.run_2d(&plan2, g, 1).unwrap();
        }),
        4,
    ));
    let line = Grid1D::<f32>::random(1 << 18, 3, SEED);
    fields.push((
        "host_1d_sparse_opt_mpoints".into(),
        host_mpoints(1 << 18, 9, &line, |g| {
            exec.run_1d(&plan1, g, 1).unwrap();
        }),
        4,
    ));
    let exec3 = Spider3DExecutor::new(&dev, ExecMode::SparseTcOptimized);
    let vol = Grid3D::<f32>::random(8, 96, 96, 1, SEED);
    fields.push((
        "host_3d_sparse_opt_mpoints".into(),
        host_mpoints(8 * 96 * 96, 5, &vol, |g| {
            exec3.run(&plan3, g, 1).unwrap();
        }),
        4,
    ));

    spider_bench::write_bench_json("core_step", "BENCH_CORE_JSON", "BENCH_core.json", &fields);
}

fn main() {
    benches();
    emit_json();
}

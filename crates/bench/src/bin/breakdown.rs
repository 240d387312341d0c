//! `breakdown` — diagnostic view of the roofline terms per method.
//!
//! Prints the compute / DRAM / shared-memory / issue time components (in
//! picoseconds per point) for every method on a chosen shape, which is how
//! the simulator's timing model was calibrated.

use spider_baselines::BaselineKind;
use spider_bench::suite::{baseline_result, benchmark_kernel, spider_result};
use spider_core::ExecMode;
use spider_gpu_sim::timing::KernelReport;
use spider_gpu_sim::GpuDevice;
use spider_stencil::{Dim, StencilShape};

fn row(name: &str, report: &KernelReport, norm: f64) {
    let pts = report.points as f64;
    let b = &report.breakdown;
    let ps = |s: f64| s / pts * 1e12;
    println!(
        "{:<18} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>7.2} {:>10.1} {:>8.2} {:>8.2}",
        name,
        ps(b.compute_s),
        ps(b.dram_s),
        ps(b.smem_s),
        ps(b.issue_s),
        b.occupancy,
        report.gstencils_per_sec() * norm,
        report.counters.gmem_transaction_bytes() as f64 / pts,
        report.counters.instructions as f64 / pts,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let shape = match args.first().map(|s| s.as_str()) {
        Some("1d1r") => StencilShape::d1(1),
        Some("1d2r") => StencilShape::d1(2),
        Some("box2") => StencilShape::box_2d(2),
        Some("box3") => StencilShape::box_2d(3),
        Some("star2") => StencilShape::star_2d(2),
        _ => StencilShape::box_2d(1),
    };
    let n: usize = args.get(1).and_then(|v| v.parse().ok()).unwrap_or(10_240);
    let (rows, cols) = match shape.dim {
        Dim::D1 => (1, n * 1000),
        Dim::D2 => (n, n),
    };
    let dev = GpuDevice::a100();
    let kernel = benchmark_kernel(shape, 0xF16);
    println!(
        "{} ({rows},{cols}) — per-point ps: compute | dram | smem | issue | occ | GSt/s | B/pt | instr/pt",
        shape.name()
    );
    for kind in BaselineKind::all() {
        if let Some(r) = baseline_result(&dev, kind, &kernel, rows, cols) {
            let b = kind.instantiate();
            row(b.name(), &r.report, b.precision_normalization());
        }
    }
    for mode in [
        ExecMode::DenseTc,
        ExecMode::SparseTc,
        ExecMode::SparseTcOptimized,
    ] {
        let r = spider_result(&dev, &kernel, rows, cols, mode);
        row(&r.method, &r.report, 1.0);
    }
}

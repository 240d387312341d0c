//! Shared sweep machinery: run SPIDER and every baseline on one problem.

use spider_baselines::BaselineKind;
use spider_core::{ExecMode, SpiderExecutor, SpiderPlan};
use spider_gpu_sim::timing::KernelReport;
use spider_gpu_sim::GpuDevice;
use spider_stencil::{Dim, StencilKernel, StencilShape};

/// One method's result on one problem.
#[derive(Debug, Clone)]
pub struct MethodResult {
    pub method: String,
    /// Precision-normalized GStencils/s (the paper's y-axis).
    pub gstencils: f64,
    pub report: KernelReport,
}

/// Deterministic *symmetric* benchmark kernel for a shape — symmetric so
/// that LoRAStencil participates, as in the paper's comparison.
pub fn benchmark_kernel(shape: StencilShape, seed: u64) -> StencilKernel {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545F4914F6CDD1D) >> 40) as f64 / (1u64 << 24) as f64 + 0.05
    };
    match shape.dim {
        Dim::D1 => {
            let r = shape.radius;
            let half: Vec<f64> = (0..=r).map(|_| next()).collect();
            let coeffs: Vec<f64> = (0..2 * r + 1)
                .map(|i| half[(i as isize - r as isize).unsigned_abs()])
                .collect();
            StencilKernel::d1(r, &coeffs)
        }
        Dim::D2 => {
            let r = shape.radius as isize;
            let mut vals = std::collections::BTreeMap::new();
            for lo in 0..=r {
                for hi in lo..=r {
                    vals.insert((lo, hi), next());
                }
            }
            // Fully symmetric (transpose + both axes): LoRAStencil's regime.
            StencilKernel::from_fn_2d(shape, |di, dj| {
                let (a, b) = (di.abs().min(dj.abs()), di.abs().max(dj.abs()));
                vals[&(a, b)]
            })
        }
    }
}

/// The paper's Fig 10 problem list: `(shape, rows, cols)`.
pub fn fig10_problems(scale: usize) -> Vec<(StencilShape, usize, usize)> {
    let n1 = (10_240_000 / scale).max(4096);
    let n2 = (10_240 / scale).max(128);
    let mut out = vec![(StencilShape::d1(1), 1, n1), (StencilShape::d1(2), 1, n1)];
    for r in 1..=3 {
        out.push((StencilShape::box_2d(r), n2, n2));
        out.push((StencilShape::star_2d(r), n2, n2));
    }
    out
}

/// SPIDER's estimate on a problem (counter-extrapolated; see DESIGN.md).
pub fn spider_result(
    device: &GpuDevice,
    kernel: &StencilKernel,
    rows: usize,
    cols: usize,
    mode: ExecMode,
) -> MethodResult {
    let plan = SpiderPlan::compile(kernel).expect("plan compiles");
    let exec = SpiderExecutor::new(device, mode);
    let report = if kernel.shape().dim == Dim::D1 {
        exec.estimate_1d(&plan, cols)
    } else {
        exec.estimate_2d(&plan, rows, cols)
    };
    MethodResult {
        method: match mode {
            ExecMode::DenseTc => "SPIDER w. TC".into(),
            ExecMode::SparseTc => "SPIDER w. SpTC".into(),
            ExecMode::SparseTcOptimized => "SPIDER".into(),
        },
        gstencils: report.gstencils_per_sec(),
        report,
    }
}

/// One baseline's estimate on a problem.
pub fn baseline_result(
    device: &GpuDevice,
    kind: BaselineKind,
    kernel: &StencilKernel,
    rows: usize,
    cols: usize,
) -> Option<MethodResult> {
    let b = kind.instantiate();
    if !b.supports(kernel) {
        return None;
    }
    let report = if kernel.shape().dim == Dim::D1 {
        b.estimate_1d(kernel, cols, device)
    } else {
        b.estimate_2d(kernel, rows, cols, device)
    };
    Some(MethodResult {
        method: b.name().to_string(),
        gstencils: b.normalized_gstencils(&report),
        report,
    })
}

/// All methods (six baselines + SPIDER) on one problem.
pub fn all_methods(
    device: &GpuDevice,
    kernel: &StencilKernel,
    rows: usize,
    cols: usize,
) -> Vec<MethodResult> {
    let mut out: Vec<MethodResult> = BaselineKind::all()
        .into_iter()
        .filter_map(|k| baseline_result(device, k, kernel, rows, cols))
        .collect();
    out.push(spider_result(
        device,
        kernel,
        rows,
        cols,
        ExecMode::SparseTcOptimized,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_kernels_are_symmetric() {
        for (shape, _, _) in fig10_problems(8) {
            let k = benchmark_kernel(shape, 42);
            assert!(k.is_symmetric(), "{}", shape.name());
        }
    }

    #[test]
    fn benchmark_kernel_deterministic() {
        let a = benchmark_kernel(StencilShape::box_2d(2), 7);
        let b = benchmark_kernel(StencilShape::box_2d(2), 7);
        assert_eq!(a.coeffs(), b.coeffs());
    }

    #[test]
    fn fig10_problem_list_matches_paper() {
        let p = fig10_problems(1);
        assert_eq!(p.len(), 8);
        assert_eq!(p[0].2, 10_240_000);
        assert_eq!(p[2].1, 10_240);
    }

    #[test]
    fn all_methods_returns_everyone_on_symmetric_kernels() {
        let dev = GpuDevice::a100();
        let k = benchmark_kernel(StencilShape::box_2d(1), 3);
        let results = all_methods(&dev, &k, 1024, 1024);
        assert_eq!(results.len(), 7, "6 baselines + SPIDER");
        assert!(results.iter().all(|r| r.gstencils > 0.0));
    }

    #[test]
    fn lorastencil_drops_out_for_asymmetric_kernels() {
        let dev = GpuDevice::a100();
        let k = StencilKernel::random(StencilShape::box_2d(1), 5);
        assert!(!k.is_symmetric());
        let results = all_methods(&dev, &k, 512, 512);
        assert_eq!(results.len(), 6);
        assert!(!results.iter().any(|r| r.method == "LoRAStencil"));
    }
}

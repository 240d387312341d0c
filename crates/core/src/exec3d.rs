//! 3D SPIDER execution by plane decomposition — an extension beyond the
//! paper's 1D/2D evaluation (its §2.2 defines 3D stencils; §6 leaves them
//! to future work).
//!
//! A Box-3D kernel of radius `r` splits into `2r+1` 2D plane slices:
//! `out[z] = Σ_dz stencil2d(k[dz], in[z+dz])`. Each slice compiles through
//! the ordinary 2D pipeline (band → strided swap → 2:4), so the SpTC
//! machinery — including the zero-cost row swap — is reused unchanged. The
//! executor runs a volume through the same row engine as 1D and 2D sweeps:
//! each output row sums, in f32, the FP16 rows its slices compute from the
//! source rows `dz` planes away, read in place from the volume's storage.
//! Star-3D kernels work automatically: their off-center slices hold a
//! single tap and compile to one-unit plans.

use crate::exec::{back_to_back, ExecMode, Launch, SpiderExecutor};
use crate::plan::{PlanError, SpiderPlan};
use spider_gpu_sim::counters::PerfCounters;
use spider_gpu_sim::half::quantize_slice;
use spider_gpu_sim::timing::KernelReport;
use spider_gpu_sim::GpuDevice;
use spider_stencil::dim3::{Grid3D, Kernel3D};
use spider_stencil::BoundaryCondition;

/// Compiled 3D plan: one 2D plan per non-zero kernel slice, plus the source
/// kernel for identity (fingerprinting).
#[derive(Debug, Clone)]
pub struct Spider3DPlan {
    kernel: Kernel3D,
    radius: usize,
    /// `(dz, 2D plan)` for every non-zero plane slice.
    slices: Vec<(isize, SpiderPlan)>,
}

impl Spider3DPlan {
    pub fn compile(kernel: &Kernel3D) -> Result<Self, PlanError> {
        let r = kernel.radius() as isize;
        let mut slices = Vec::new();
        for dz in -r..=r {
            if let Some(k2) = kernel.slice(dz) {
                slices.push((dz, SpiderPlan::compile(&k2)?));
            }
        }
        if slices.is_empty() {
            return Err(PlanError::EmptyKernel);
        }
        Ok(Self {
            kernel: kernel.clone(),
            radius: kernel.radius(),
            slices,
        })
    }

    /// The source 3D kernel this plan was compiled from.
    pub fn kernel(&self) -> &Kernel3D {
        &self.kernel
    }

    pub fn radius(&self) -> usize {
        self.radius
    }

    pub fn slices(&self) -> &[(isize, SpiderPlan)] {
        &self.slices
    }

    /// The slice plan serving as the tuning representative: the central
    /// (`dz = 0`) slice when present — it carries the densest coefficients
    /// of any box or star kernel — else the first slice. Plane tilings are
    /// selected against this plan and shared by every slice of the sweep
    /// (all slices see the same grid extent and block geometry).
    pub fn representative_slice(&self) -> &SpiderPlan {
        self.slices
            .iter()
            .find(|(dz, _)| *dz == 0)
            .map(|(_, p)| p)
            .unwrap_or(&self.slices[0].1)
    }

    /// Stable content fingerprint of the compiled 3D plan: the kernel's
    /// [`Kernel3D::fingerprint`] folded with every slice's `(dz,
    /// [`SpiderPlan::fingerprint`])` through FNV-1a rounds. Compilation is
    /// deterministic, so equal fingerprints mean interchangeable plans —
    /// the same contract `spider-runtime`'s plan cache relies on for 2D.
    pub fn fingerprint(&self) -> u64 {
        let mut h = spider_stencil::fnv::Fnv1a::new();
        h.word(self.kernel.fingerprint());
        for (dz, plan) in &self.slices {
            h.word(*dz as u64);
            h.word(plan.fingerprint());
        }
        h.finish()
    }

    /// Total `mma.sp` K-slices per MMA tile across all plane slices.
    pub fn total_mma_slices(&self) -> usize {
        self.slices.iter().map(|(_, p)| p.slices()).sum()
    }
}

/// 3D executor: runs a volume's rows through the [`SpiderExecutor`]'s row engine.
pub struct Spider3DExecutor<'d> {
    exec: SpiderExecutor<'d>,
}

impl<'d> Spider3DExecutor<'d> {
    pub fn new(device: &'d GpuDevice, mode: ExecMode) -> Self {
        Self {
            exec: SpiderExecutor::new(device, mode),
        }
    }

    /// A 3D executor with an explicit executor configuration. 3D honours
    /// `tiling` and `row_swap`; `measure_cap` bounds only `estimate_*`,
    /// which 3D lacks; and as a run never refills the halo shell (every grid
    /// constructor leaves it zero), [`Self::run`] refuses any `boundary` but
    /// `DirichletZero`.
    pub fn with_config(
        device: &'d GpuDevice,
        mode: ExecMode,
        config: crate::exec::ExecConfig,
    ) -> Self {
        Self {
            exec: SpiderExecutor::with_config(device, mode, config),
        }
    }

    /// A 3D executor drawing its scratch (the emulated path's partial
    /// plane) from an existing [`crate::pool::BufferPool`], like
    /// [`SpiderExecutor::with_shared_pool`] does for planes.
    pub fn with_shared_pool(
        device: &'d GpuDevice,
        mode: ExecMode,
        config: crate::exec::ExecConfig,
        pool: crate::pool::BufferPool,
    ) -> Self {
        Self {
            exec: SpiderExecutor::with_shared_pool(device, mode, config, pool),
        }
    }

    /// Run `steps` sweeps of a 3D stencil, updating `grid` in place.
    ///
    /// The interior is quantized through FP16 on entry and after every
    /// sweep; the halo shell is read as it is and never written. Output row
    /// `(z, x)` is the f32 sum from +0, in slice order, of the FP16-quantized
    /// 2D sweeps of source rows `(z + dz, x)` under slice plans `dz`,
    /// quantized again: one call of the executor's row engine per step,
    /// which fans out once, over rows, sized by work. A step whose source
    /// volume holds a non-finite value anywhere takes the emulated path,
    /// plane by plane; the halo shell is never quantized, so a pass-raised
    /// flag would miss it, and the vectorized scan costs about a
    /// microsecond per 10k values against a sweep's hundreds. Fails, leaving
    /// the volume untouched, when the halo is narrower than the radius or
    /// the boundary is not `DirichletZero`.
    ///
    /// Every step is modeled as **one batched launch**: each plane's report
    /// carries `1/planes` of the launch overhead and the occupancy ramp of
    /// the *combined* block residency (`planes × slices × blocks_2d`), and
    /// the step report is the sequential merge of the plane reports.
    pub fn run(
        &self,
        plan: &Spider3DPlan,
        grid: &mut Grid3D<f32>,
        steps: usize,
    ) -> Result<KernelReport, String> {
        self.run_impl(plan, grid, steps, false)
    }

    /// [`Self::run`] with every plane sweep on the emulated MMA path: the
    /// reference the tap schedule is tested against (see
    /// [`SpiderExecutor::run_2d_emulated`]).
    #[doc(hidden)]
    pub fn run_emulated(
        &self,
        plan: &Spider3DPlan,
        grid: &mut Grid3D<f32>,
        steps: usize,
    ) -> Result<KernelReport, String> {
        self.run_impl(plan, grid, steps, true)
    }

    fn run_impl(
        &self,
        plan: &Spider3DPlan,
        grid: &mut Grid3D<f32>,
        steps: usize,
        emulate: bool,
    ) -> Result<KernelReport, String> {
        if self.exec.config().boundary != BoundaryCondition::DirichletZero {
            return Err("3D runs read the halo as it is: only DirichletZero is supported".into());
        }
        if grid.halo() < plan.radius() {
            return Err(format!(
                "grid halo {} < stencil radius {}",
                grid.halo(),
                plan.radius()
            ));
        }
        let (planes, rows, cols, h) = (grid.planes(), grid.rows(), grid.cols(), grid.halo());
        let stride = cols + 2 * h;
        let plane_len = (rows + 2 * h) * stride;
        // Interior row ranges of one padded plane.
        let interior_rows =
            move || (h..h + rows).map(move |i| i * stride + h..i * stride + h + cols);
        // The storage index of every output row's first output.
        let out_rows = move || {
            (h..h + planes).flat_map(move |z| interior_rows().map(move |r| z * plane_len + r.start))
        };
        let quantize_plane = |plane: &mut [f32]| {
            for r in interior_rows() {
                quantize_slice(&mut plane[r]);
            }
        };
        grid.padded_mut()[h * plane_len..(h + planes) * plane_len]
            .chunks_exact_mut(plane_len)
            .for_each(quantize_plane);
        // Every step writes every output row of `next` before reading it,
        // so only the halo shell is copied in.
        let pool = self.exec.pool();
        let buf = pool.take_halo_of(grid.padded(), out_rows(), cols);
        let mut next = Grid3D::from_padded_vec(planes, rows, cols, h, buf);

        // Counters never depend on data, and every plane of every step has
        // the same shape, so one plane report serves the whole run.
        let t = self.exec.config().tiling;
        let counters: PerfCounters = plan
            .slices()
            .iter()
            .map(|(_, p)| self.exec.charge_2d(p, rows, cols))
            .sum();
        let launch = Launch {
            members: planes,
            wave_blocks: (planes * plan.slices().len()) as u64 * t.blocks_2d(rows, cols),
        };
        let step_report = self
            .exec
            .batched_report(counters, planes, launch, (rows * cols) as u64);

        let slices: Vec<(isize, &SpiderPlan)> = plan
            .slices()
            .iter()
            .map(|(dz, p)| (dz * plane_len as isize, p))
            .collect();
        for _ in 0..steps.max(1) {
            let (src, dst) = (grid.padded(), next.padded_mut());
            // A full scan, no early exit, so it vectorizes.
            if emulate || src.iter().fold(false, |any, v| any | !v.is_finite()) {
                let mut partial = pool.take(plane_len);
                for z in 0..planes {
                    let out = &mut dst[(z + h) * plane_len..][..plane_len];
                    interior_rows().for_each(|r| out[r].fill(0.0));
                    for (dz, plan2d) in plan.slices() {
                        let src_plane = grid.plane_ext(z as isize + dz);
                        self.exec.emulate_2d(plan2d, &src_plane, &mut partial);
                        for r in interior_rows() {
                            for (o, &v) in out[r.clone()].iter_mut().zip(&partial[r]) {
                                *o += v;
                            }
                        }
                    }
                    quantize_plane(out);
                }
                pool.put(partial);
            } else {
                self.exec
                    .sweep_rows(out_rows(), cols, stride, &slices, true, src, dst);
            }
            std::mem::swap(grid, &mut next);
        }
        pool.put(next.into_padded_vec());
        Ok(back_to_back(&step_report, steps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_gpu_sim::half::F16;
    use spider_stencil::dim3::step_3d;

    fn oracle(kernel: &Kernel3D, grid: &Grid3D<f32>) -> Grid3D<f64> {
        // FP16-quantized kernel + input, f64 arithmetic.
        let qk = Kernel3D::from_fn(kernel.radius(), |dz, dx, dy| {
            F16::quantize(kernel.at(dz, dx, dy) as f32) as f64
        });
        let src: Grid3D<f64> = grid.convert();
        let mut dst = src.clone();
        step_3d(&qk, &src, &mut dst);
        dst
    }

    fn quantize(g: &mut Grid3D<f32>) {
        for z in 0..g.planes() {
            for i in 0..g.rows() {
                for j in 0..g.cols() {
                    g.set(z, i, j, F16::quantize(g.get(z, i, j)));
                }
            }
        }
    }

    #[test]
    fn box_3d_matches_oracle() {
        let dev = GpuDevice::a100();
        for r in 1..=2 {
            let kernel = Kernel3D::random_box(r, 5 + r as u64);
            let plan = Spider3DPlan::compile(&kernel).unwrap();
            assert_eq!(plan.slices().len(), 2 * r + 1);
            let mut g = Grid3D::<f32>::random(6, 24, 40, r, 6);
            quantize(&mut g);
            let expect = oracle(&kernel, &g);
            let exec = Spider3DExecutor::new(&dev, ExecMode::SparseTcOptimized);
            let report = exec.run(&plan, &mut g, 1).unwrap();
            let got: Grid3D<f64> = g.convert();
            let err = expect.max_abs_diff(&got);
            assert!(err < 2e-2, "r={r}: {err}");
            assert!(report.counters.mma_sparse_f16 > 0);
        }
    }

    #[test]
    fn star_3d_matches_oracle() {
        let dev = GpuDevice::a100();
        let kernel = Kernel3D::star_7point(-6.0, 1.0);
        let plan = Spider3DPlan::compile(&kernel).unwrap();
        // Off-center slices are single-tap plans.
        assert_eq!(plan.slices().len(), 3);
        let mut g = Grid3D::<f32>::random(5, 20, 36, 1, 8);
        quantize(&mut g);
        let expect = oracle(&kernel, &g);
        Spider3DExecutor::new(&dev, ExecMode::SparseTcOptimized)
            .run(&plan, &mut g, 1)
            .unwrap();
        let got: Grid3D<f64> = g.convert();
        // Laplacian sums reach ~|6|; one f16 ulp at that scale is ~4e-3.
        assert!(
            expect.max_abs_diff(&got) < 5e-2,
            "{}",
            expect.max_abs_diff(&got)
        );
    }

    /// A step of at least two jobs' worth of step-points (its rows split
    /// across the cores when there are several) gives the emulation's bits.
    /// The 8×128² split falls on a plane edge; the 7×120×128 one (4.84 M
    /// step-points) falls inside plane 3, at row 60.
    #[test]
    fn steps_large_enough_to_split_match_the_emulation() {
        use crate::exec::MIN_JOB_STEP_POINTS;
        let dev = GpuDevice::a100();
        let plan = Spider3DPlan::compile(&Kernel3D::random_box(1, 9)).unwrap();
        let steps: usize = plan
            .slices()
            .iter()
            .map(|(_, p)| p.tap_schedule(ExecMode::SparseTcOptimized).steps().len())
            .sum();
        for (planes, rows, cols) in [(8, 128, 128), (7, 120, 128)] {
            assert!(planes * rows * cols * steps >= 2 * MIN_JOB_STEP_POINTS);
            let mut fast = Grid3D::<f32>::random(planes, rows, cols, 1, 10);
            let mut reference = fast.clone();
            let exec = Spider3DExecutor::new(&dev, ExecMode::SparseTcOptimized);
            exec.run(&plan, &mut fast, 1).unwrap();
            exec.run_emulated(&plan, &mut reference, 1).unwrap();
            let bits = |g: &Grid3D<f32>| g.padded().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fast), bits(&reference), "{planes}x{rows}x{cols}");
        }
    }

    /// A 3D run reads the halo shell as it is, so it refuses every boundary
    /// but `DirichletZero` and leaves the volume untouched.
    #[test]
    fn boundaries_other_than_dirichlet_zero_are_refused() {
        let dev = GpuDevice::a100();
        let plan = Spider3DPlan::compile(&Kernel3D::random_box(1, 3)).unwrap();
        let grid = Grid3D::<f32>::random(4, 10, 12, 1, 4);
        let bits = |g: &Grid3D<f32>| g.padded().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for boundary in [BoundaryCondition::Periodic, BoundaryCondition::Reflect] {
            let config = crate::exec::ExecConfig {
                boundary,
                ..Default::default()
            };
            let exec = Spider3DExecutor::with_config(&dev, ExecMode::SparseTcOptimized, config);
            let mut g = grid.clone();
            assert!(exec.run(&plan, &mut g, 2).is_err(), "{boundary:?}");
            assert!(exec.run_emulated(&plan, &mut g, 2).is_err(), "{boundary:?}");
            assert_eq!(bits(&g), bits(&grid), "{boundary:?}");
        }
    }

    #[test]
    fn insufficient_halo_rejected() {
        let dev = GpuDevice::a100();
        let kernel = Kernel3D::random_box(2, 1);
        let plan = Spider3DPlan::compile(&kernel).unwrap();
        let mut g = Grid3D::<f32>::random(4, 16, 16, 1, 2);
        assert!(Spider3DExecutor::new(&dev, ExecMode::SparseTcOptimized)
            .run(&plan, &mut g, 1)
            .is_err());
    }

    #[test]
    fn plan3d_identity_is_stable_and_content_bound() {
        let kernel = Kernel3D::random_box(1, 11);
        let a = Spider3DPlan::compile(&kernel).unwrap();
        let b = Spider3DPlan::compile(&kernel).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint(), "compile is deterministic");
        assert_eq!(a.kernel(), &kernel);
        let other = Spider3DPlan::compile(&Kernel3D::random_box(1, 12)).unwrap();
        assert_ne!(a.fingerprint(), other.fingerprint());
        // The representative slice is the central (dz = 0) one.
        let central = a
            .slices()
            .iter()
            .find(|(dz, _)| *dz == 0)
            .map(|(_, p)| p.fingerprint())
            .unwrap();
        assert_eq!(a.representative_slice().fingerprint(), central);
    }

    #[test]
    fn mma_slice_budget_scales_with_radius() {
        let p1 = Spider3DPlan::compile(&Kernel3D::random_box(1, 2)).unwrap();
        let p2 = Spider3DPlan::compile(&Kernel3D::random_box(2, 2)).unwrap();
        // (2r+1) planes × (2r+1) rows × 2 slices.
        assert_eq!(p1.total_mma_slices(), 3 * 3 * 2);
        assert_eq!(p2.total_mma_slices(), 5 * 5 * 2);
    }
}

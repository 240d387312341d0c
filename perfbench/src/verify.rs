//! Output correctness, checked outside the timed window: solo re-execution
//! of a fixed sample, and one request per dimensionality against the scalar
//! reference.

use spider_bench::traffic::Rng;
use spider_core::exec3d::Spider3DExecutor;
use spider_core::{ExecConfig, SpiderExecutor, TilingConfig};
use spider_gpu_sim::half::F16;
use spider_gpu_sim::GpuDevice;
use spider_runtime::{output_checksum, CachedPlan, GridSpec, StencilRequest};
use spider_stencil::dim3::{step_3d, Grid3D, Kernel3D};
use spider_stencil::exec::reference;
use spider_stencil::verify::{compare_1d, compare_2d};
use spider_stencil::{Dim, Grid1D, Grid2D, StencilKernel};

use crate::serve::Served;
use crate::workload::{dim_of, new_runtime, Inputs};

/// Completed requests re-executed solo per run.
const SOLO_SAMPLE: usize = 12;
/// The solo sample is drawn from this many leading stream positions, which
/// every run completes (each run needs ≥ 1000 completions for its p99).
const SAMPLE_WINDOW: usize = 1000;

#[derive(Debug, Default)]
pub struct Verdict {
    pub checked: u64,
    pub mismatches: u64,
    pub notes: Vec<String>,
}

impl Verdict {
    fn check(&mut self, what: String, result: Result<(), String>) {
        self.checked += 1;
        if let Err(e) = result {
            self.mismatches += 1;
            self.notes.push(format!("{what}: {e}"));
        }
    }
}

/// Check `served`'s outputs. `inject` corrupts the first sampled checksum,
/// so the run must report a mismatch.
pub fn verify(inputs: &Inputs, served: &Served, inject: bool) -> Verdict {
    let mut verdict = Verdict::default();
    let completed: Vec<usize> = (0..served.outcomes.len())
        .filter(|&i| served.outcomes[i].is_some())
        .collect();
    let pool: Vec<usize> = completed
        .iter()
        .copied()
        .filter(|&i| i < SAMPLE_WINDOW)
        .collect();
    let mut rng = Rng::new(inputs.seed ^ 0xC0FF_EE00);
    let mut sample: Vec<usize> = (0..SOLO_SAMPLE.min(pool.len()))
        .map(|_| pool[(rng.next_u64() % pool.len() as u64) as usize])
        .collect();
    sample.sort_unstable();
    sample.dedup();

    let solo = new_runtime(inputs.runtime);
    for (k, &i) in sample.iter().enumerate() {
        let (mut want, _) = served.outcomes[i].expect("sampled from completed requests");
        if inject && k == 0 {
            want ^= 1;
        }
        let req = &inputs.request(i);
        let result = match solo.execute(req) {
            Ok(o) if o.checksum == want => Ok(()),
            Ok(o) => Err(format!("checksum {:#x} != served {want:#x}", o.checksum)),
            Err(e) => Err(e.to_string()),
        };
        verdict.check(format!("solo re-execution of request {}", req.id), result);
    }

    for dim in 1..=3 {
        let Some(&i) = completed
            .iter()
            .find(|&&i| dim_of(&inputs.request(i)) == dim)
        else {
            continue;
        };
        let (checksum, tiling) = served.outcomes[i].expect("completed");
        let req = &inputs.request(i);
        verdict.check(
            format!("{dim}D request {} against the scalar reference", req.id),
            against_reference(req, tiling, checksum).map(|_| ()),
        );
    }
    verdict
}

/// Run `req` through its executor directly under the served tiling. The
/// output's checksum must equal `served_checksum`, and the output must
/// match the scalar reference (FP16-quantized input and coefficients, f64
/// arithmetic) within FP16 tolerance. Returns the max abs error.
pub fn against_reference(
    req: &StencilRequest,
    tiling: TilingConfig,
    served_checksum: u64,
) -> Result<f64, String> {
    let device = GpuDevice::a100();
    let config = ExecConfig {
        tiling,
        ..ExecConfig::default()
    };
    let plan = CachedPlan::compile(&req.kernel).map_err(|e| e.to_string())?;
    let planar = || plan.planar().ok_or("planar request, volumetric plan");
    let (checksum, max_err, scale, tol) = match req.grid {
        GridSpec::D1 { .. } => {
            let kernel = req.kernel.as_planar().ok_or("1D request, 3D kernel")?;
            let mut grid = req.materialize_1d();
            let mut oracle: Grid1D<f64> = quantized_1d(&grid).convert();
            SpiderExecutor::with_config(&device, req.mode, config).run_1d(
                planar()?,
                &mut grid,
                req.steps,
            )?;
            reference::apply_1d(&quantized_kernel(kernel), &mut oracle, req.steps);
            let scale = oracle.interior().iter().fold(0.0f64, |m, v| m.max(v.abs()));
            let err = compare_1d(&oracle, &grid).max_abs;
            (output_checksum(grid.padded()), err, scale, 5e-3)
        }
        GridSpec::D2 { .. } => {
            let kernel = req.kernel.as_planar().ok_or("2D request, 3D kernel")?;
            let mut grid = req.materialize_2d();
            let mut oracle: Grid2D<f64> = quantized_2d(&grid).convert();
            SpiderExecutor::with_config(&device, req.mode, config).run_2d(
                planar()?,
                &mut grid,
                req.steps,
            )?;
            reference::apply_2d(&quantized_kernel(kernel), &mut oracle, req.steps);
            let scale = oracle.padded().iter().fold(0.0f64, |m, v| m.max(v.abs()));
            let err = compare_2d(&oracle, &grid).max_abs;
            (output_checksum(grid.padded()), err, scale, 5e-3)
        }
        GridSpec::D3 { .. } => {
            let kernel = req
                .kernel
                .as_volumetric()
                .ok_or("3D request, planar kernel")?;
            let mut grid = req.materialize_3d();
            let mut oracle: Grid3D<f64> = quantized_3d(&grid).convert();
            Spider3DExecutor::with_config(&device, req.mode, config).run(
                plan.volumetric().ok_or("volumetric request, planar plan")?,
                &mut grid,
                req.steps,
            )?;
            let qk = Kernel3D::from_fn(kernel.radius(), |dz, dx, dy| {
                f64::from(F16::quantize(kernel.at(dz, dx, dy) as f32))
            });
            for _ in 0..req.steps {
                let src = oracle.clone();
                step_3d(&qk, &src, &mut oracle);
            }
            let scale = oracle.padded().iter().fold(0.0f64, |m, v| m.max(v.abs()));
            let err = oracle.max_abs_diff(&grid.convert());
            (output_checksum(grid.padded()), err, scale, 1e-2)
        }
    };
    if checksum != served_checksum {
        return Err(format!(
            "direct executor checksum {checksum:#x} != served {served_checksum:#x}"
        ));
    }
    let bound = tol * scale.max(1.0);
    if max_err > bound {
        return Err(format!("max abs error {max_err:e} > {bound:e}"));
    }
    Ok(max_err)
}

fn quantized_kernel(kernel: &StencilKernel) -> StencilKernel {
    let q = |c: f64| f64::from(F16::quantize(c as f32));
    match kernel.shape().dim {
        Dim::D1 => StencilKernel::d1(
            kernel.radius(),
            &kernel.coeffs().iter().map(|&c| q(c)).collect::<Vec<_>>(),
        ),
        Dim::D2 => StencilKernel::from_fn_2d(kernel.shape(), |di, dj| q(kernel.at(di, dj))),
    }
}

fn quantized_1d(grid: &Grid1D<f32>) -> Grid1D<f32> {
    let mut g = grid.clone();
    g.padded_mut()
        .iter_mut()
        .for_each(|v| *v = F16::quantize(*v));
    g
}

fn quantized_2d(grid: &Grid2D<f32>) -> Grid2D<f32> {
    let mut g = grid.clone();
    g.padded_mut()
        .iter_mut()
        .for_each(|v| *v = F16::quantize(*v));
    g
}

fn quantized_3d(grid: &Grid3D<f32>) -> Grid3D<f32> {
    let mut g = grid.clone();
    for z in 0..g.planes() {
        for i in 0..g.rows() {
            for j in 0..g.cols() {
                g.set(z, i, j, F16::quantize(g.get(z, i, j)));
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    /// Serve a short mixed run, then check it: clean as served, and a
    /// single flipped checksum is caught as exactly one mismatch.
    #[test]
    fn injected_mismatch_is_caught() {
        let inputs = Inputs::generate(Workload::MixedWarm, 5, 0.2);
        let sched = inputs.setup(None);
        let served = crate::serve::serve(&sched, &inputs, 0.2, None);
        assert!(served.completed > 0);
        let clean = verify(&inputs, &served, false);
        assert_eq!(clean.mismatches, 0, "{:?}", clean.notes);
        assert!(clean.checked >= 2);
        let injected = verify(&inputs, &served, true);
        assert_eq!(injected.mismatches, 1, "{:?}", injected.notes);
    }

    #[test]
    fn reference_check_covers_every_dimensionality() {
        let inputs = Inputs::generate(Workload::ParamSweepCold, 2, 0.1);
        let rt = new_runtime(inputs.runtime);
        for dim in 1..=3 {
            let req = (0..inputs.len())
                .map(|i| inputs.request(i))
                .find(|r| dim_of(r) == dim)
                .expect("the sweep has every dimensionality");
            let out = rt.execute(&req).unwrap();
            let err = against_reference(&req, out.tiling, out.checksum).unwrap();
            assert!(err.is_finite());
            assert!(against_reference(&req, out.tiling, out.checksum ^ 1).is_err());
        }
    }
}

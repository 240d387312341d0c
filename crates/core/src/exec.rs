//! The SPIDER executor: runs a compiled [`SpiderPlan`] on the simulated GPU.
//!
//! Each sweep launches one simulated kernel. Thread blocks stage the input
//! tile (plus HALO) in shared memory, warps march over 16×8 MMA tiles, and
//! every plan unit (kernel-row chunk) contributes two `mma.sp.m16n8k16`
//! invocations whose B fragments are fetched with the implicitly row-swapped
//! offsets of §3.2. The executor produces both the *numerical result*
//! (verified against the scalar oracle in the test suite) and a
//! [`KernelReport`] with transaction-level performance counters.
//!
//! ## Ablation arms (paper Fig 12)
//!
//! * [`ExecMode::DenseTc`] — "SPIDER w. TC": the §3.1.1 GEMM formulation on
//!   dense tensor cores (banded matrix, no swapping, no 2:4).
//! * [`ExecMode::SparseTc`] — "+ SpTC": strided swapping + sparse MMA, but
//!   fragment-order (unpacked) operand loads.
//! * [`ExecMode::SparseTcOptimized`] — "+ CO": adds the §3.3.2 value and
//!   metadata packing.

use crate::packing;
use crate::plan::{PlanUnit, SpiderPlan, UnitGather};
use crate::pool::BufferPool;
use crate::row_swap::RowSwapStrategy;
use crate::tiling::{TilingConfig, N_TILE};
use crate::{K_PAD, M_TILE};
use rayon::prelude::*;
use spider_gpu_sim::counters::PerfCounters;
use spider_gpu_sim::half::F16;
use spider_gpu_sim::launch::BlockGrid;
use spider_gpu_sim::mem::global::{record_bulk_read, record_bulk_write};
use spider_gpu_sim::mem::shared::waves_for;
use spider_gpu_sim::tensor_core::{mma_m16n8k16, mma_sp_m16n8k16};
use spider_gpu_sim::timing::{KernelReport, LaunchDims};
use spider_gpu_sim::GpuDevice;
use spider_stencil::{BoundaryCondition, Grid1D, Grid2D};

/// Which compute path the executor drives (the Fig 12 ablation arms).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Dense tensor cores on the unswapped banded matrix (`SPIDER w. TC`).
    DenseTc,
    /// Sparse tensor cores via strided swapping (`SPIDER w. SpTC`).
    SparseTc,
    /// Sparse tensor cores plus data-packing optimizations (`+ CO`).
    SparseTcOptimized,
}

/// Executor configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    pub tiling: TilingConfig,
    pub row_swap: RowSwapStrategy,
    /// Halo refill policy applied before every sweep.
    pub boundary: BoundaryCondition,
    /// Interior-point cap on the extent `estimate_*` charges; counters are
    /// scaled beyond it (per-point rates are size-invariant).
    pub measure_cap: usize,
    /// Use the fused interior gather for MMA tiles whose whole B-fragment
    /// sample range provably stays inside the padded storage (direct strided
    /// slice reads off the plan's precomputed offset tables, no per-element
    /// guard). `false` forces the guarded `sample_2d` path everywhere —
    /// the two paths read identical values, so this knob exists only for the
    /// bit-identity property tests and for debugging.
    pub fast_gather: bool,
}

impl Default for ExecConfig {
    fn default() -> Self {
        Self {
            tiling: TilingConfig::default(),
            row_swap: RowSwapStrategy::Implicit,
            boundary: BoundaryCondition::DirichletZero,
            measure_cap: 1 << 20,
            fast_gather: true,
        }
    }
}

/// Observer driven by the coalesced batch entry points
/// ([`SpiderExecutor::run_2d_coalesced`] / [`SpiderExecutor::run_1d_coalesced`]).
///
/// Grids in a coalesced batch execute strictly in input order; the hook fires
/// once per grid, immediately after its last sweep, with the grid's index and
/// merged report. This is the ordering/feedback channel a serving scheduler
/// uses to observe per-request completion inside a plan-sharing batch without
/// the executor knowing anything about requests.
pub trait BatchFeedback {
    /// Grid `index` finished all its sweeps with the given merged report.
    fn on_grid_done(&mut self, index: usize, report: &KernelReport);

    /// The batch is about to execute as one coalesced launch wave covering
    /// `members` valid grids spanning `wave_blocks` thread blocks, each
    /// grid billed `launch_share` of the kernel-launch overhead. Fires once
    /// per coalesced entry-point call (for the 3D executor: once per plane
    /// wave, i.e. per step), before any `on_grid_done`. Default: ignored —
    /// this is the telemetry channel for launch/wave events and costs
    /// nothing when unused.
    fn on_batch_launch(&mut self, members: usize, wave_blocks: u64, launch_share: f64) {
        let _ = (members, wave_blocks, launch_share);
    }
}

/// [`BatchFeedback`] that discards every notification.
pub struct NoFeedback;

impl BatchFeedback for NoFeedback {
    fn on_grid_done(&mut self, _index: usize, _report: &KernelReport) {}
}

/// Run a one-grid coalesced batch and return the grid's report: the solo
/// entry points are this batch, so a single-grid report is exactly the
/// batched-launch report with a launch share of 1.
fn solo(
    batch: impl FnOnce(&mut dyn BatchFeedback) -> Result<(), String>,
) -> Result<KernelReport, String> {
    struct Keep(Option<KernelReport>);
    impl BatchFeedback for Keep {
        fn on_grid_done(&mut self, _index: usize, report: &KernelReport) {
            self.0 = Some(report.clone());
        }
    }
    let mut keep = Keep(None);
    batch(&mut keep)?;
    Ok(keep.0.expect("a batch that succeeds reports every grid"))
}

/// SPIDER's simulated-GPU executor.
pub struct SpiderExecutor<'d> {
    device: &'d GpuDevice,
    mode: ExecMode,
    config: ExecConfig,
    /// Scratch store for ping-pong grids and per-block output tiles. Fresh
    /// per executor by default; [`Self::with_shared_pool`] lets a serving
    /// runtime share one pool across every executor it constructs.
    pool: BufferPool,
}

impl<'d> SpiderExecutor<'d> {
    pub fn new(device: &'d GpuDevice, mode: ExecMode) -> Self {
        Self {
            device,
            mode,
            config: ExecConfig::default(),
            pool: BufferPool::new(),
        }
    }

    pub fn with_config(device: &'d GpuDevice, mode: ExecMode, config: ExecConfig) -> Self {
        Self::with_shared_pool(device, mode, config, BufferPool::new())
    }

    /// An executor drawing scratch buffers from an existing pool (shared
    /// store — see [`BufferPool`]). This is how `spider-runtime` keeps
    /// buffer reuse alive *across* requests even though it configures a
    /// fresh executor per exec-key subgroup.
    pub fn with_shared_pool(
        device: &'d GpuDevice,
        mode: ExecMode,
        config: ExecConfig,
        pool: BufferPool,
    ) -> Self {
        config.tiling.validate().expect("invalid tiling");
        Self {
            device,
            mode,
            config,
            pool,
        }
    }

    /// The executor's scratch-buffer pool (shared store; see [`BufferPool`]).
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// The executor's effective configuration (tiling, row-swap strategy,
    /// boundary policy, measurement cap).
    pub fn config(&self) -> &ExecConfig {
        &self.config
    }

    /// The simulated device this executor targets.
    pub fn device(&self) -> &'d GpuDevice {
        self.device
    }

    /// Run `steps` sweeps of a 2D stencil, updating `grid` in place — a
    /// one-grid [`Self::run_2d_coalesced`] batch.
    ///
    /// The grid is quantized through FP16 (the storage type of the modeled
    /// pipeline) on entry and after every sweep.
    pub fn run_2d(
        &self,
        plan: &SpiderPlan,
        grid: &mut Grid2D<f32>,
        steps: usize,
    ) -> Result<KernelReport, String> {
        solo(|fb| self.run_2d_coalesced(plan, std::slice::from_mut(grid), steps, fb))
    }

    fn validate_2d(&self, plan: &SpiderPlan, grid: &Grid2D<f32>) -> Result<(), String> {
        if plan.is_1d() {
            return Err("1D plan passed to run_2d".into());
        }
        if grid.halo() < plan.radius() {
            return Err(format!(
                "grid halo {} < stencil radius {}",
                grid.halo(),
                plan.radius()
            ));
        }
        Ok(())
    }

    /// The functional heart of [`Self::run_2d_coalesced`]: quantize, then
    /// `steps` boundary-refill + sweep rounds, ping-ponging between the
    /// caller's grid and a pooled scratch grid (no clone). Returns each
    /// sweep's counters, in order.
    fn sweep_2d(
        &self,
        plan: &SpiderPlan,
        grid: &mut Grid2D<f32>,
        steps: usize,
    ) -> Vec<PerfCounters> {
        quantize_grid_2d(grid);
        let buf = self.pool.take_copy_of(grid.padded());
        let mut scratch = Grid2D::from_padded_vec(grid.rows(), grid.cols(), grid.halo(), buf);
        let mut per_step = Vec::with_capacity(steps.max(1));
        for _ in 0..steps.max(1) {
            self.config.boundary.apply_2d(grid);
            per_step.push(self.step_2d(plan, grid, &mut scratch));
            std::mem::swap(grid, &mut scratch);
        }
        self.pool.put(scratch.into_padded_vec());
        per_step
    }

    /// Run `steps` sweeps of a 1D stencil — a one-grid
    /// [`Self::run_1d_coalesced`] batch.
    pub fn run_1d(
        &self,
        plan: &SpiderPlan,
        grid: &mut Grid1D<f32>,
        steps: usize,
    ) -> Result<KernelReport, String> {
        solo(|fb| self.run_1d_coalesced(plan, std::slice::from_mut(grid), steps, fb))
    }

    fn validate_1d(&self, plan: &SpiderPlan, grid: &Grid1D<f32>) -> Result<(), String> {
        if !plan.is_1d() {
            return Err("2D plan passed to run_1d".into());
        }
        if grid.halo() < plan.radius() {
            return Err("grid halo smaller than stencil radius".into());
        }
        Ok(())
    }

    /// 1D counterpart of [`Self::sweep_2d`].
    fn sweep_1d(
        &self,
        plan: &SpiderPlan,
        grid: &mut Grid1D<f32>,
        steps: usize,
    ) -> Vec<PerfCounters> {
        quantize_grid_1d(grid);
        let buf = self.pool.take_copy_of(grid.padded());
        let mut scratch = Grid1D::from_padded_vec(grid.len(), grid.halo(), buf);
        let mut per_step = Vec::with_capacity(steps.max(1));
        for _ in 0..steps.max(1) {
            self.config.boundary.apply_1d(grid);
            per_step.push(self.step_1d(plan, grid, &mut scratch));
            std::mem::swap(grid, &mut scratch);
        }
        self.pool.put(scratch.into_padded_vec());
        per_step
    }

    /// Run a coalesced batch of 2D grids under one plan and one executor.
    ///
    /// This is the plan/executor-reuse primitive behind request coalescing:
    /// a serving layer that has grouped requests by kernel fingerprint hands
    /// the whole group to a single executor instead of constructing one per
    /// request. Grid *data* is bit-identical to a separate [`Self::run_2d`]
    /// call per grid with the same configuration (the executor holds no
    /// cross-grid state), and each grid's counters are strictly its own; the
    /// functional sweeps run in parallel across the batch (rayon), so
    /// scheduler waves scale with host cores.
    ///
    /// **Timing** models the batch as a *batched launch* per step: one
    /// kernel-launch overhead shared by the group (each member's report
    /// carries `1/n` of it) and the occupancy ramp driven by the group's
    /// combined block residency — the reason a serving layer coalesces small
    /// grids at all. [`Self::run_2d`] is the single-grid batch.
    ///
    /// `feedback` fires once per grid, in input order, after the whole batch
    /// finishes its sweeps. Results are delivered exclusively through the
    /// hook — collect them with a [`BatchFeedback`] implementation.
    ///
    /// Fails fast: the first invalid grid aborts the batch — grids before it
    /// execute and report, it and everything after are neither executed nor
    /// reported.
    pub fn run_2d_coalesced(
        &self,
        plan: &SpiderPlan,
        grids: &mut [Grid2D<f32>],
        steps: usize,
        feedback: &mut dyn BatchFeedback,
    ) -> Result<(), String> {
        let t = self.config.tiling;
        self.run_coalesced_impl(
            grids,
            feedback,
            |g| self.validate_2d(plan, g),
            |g| t.blocks_2d(g.rows(), g.cols()),
            |g| (self.sweep_2d(plan, g, steps), (g.rows() * g.cols()) as u64),
        )
    }

    /// 1D counterpart of [`Self::run_2d_coalesced`] (same parallelism,
    /// batched-launch timing, ordering and error semantics).
    pub fn run_1d_coalesced(
        &self,
        plan: &SpiderPlan,
        grids: &mut [Grid1D<f32>],
        steps: usize,
        feedback: &mut dyn BatchFeedback,
    ) -> Result<(), String> {
        let t = self.config.tiling;
        self.run_coalesced_impl(
            grids,
            feedback,
            |g| self.validate_1d(plan, g),
            |g| t.blocks_1d(g.len()),
            |g| (self.sweep_1d(plan, g, steps), g.len() as u64),
        )
    }

    /// Dimension-generic body of the coalesced entry points: validate a
    /// prefix (first invalid grid aborts the batch), sweep the valid grids
    /// in parallel, then deliver batched-launch reports in input order.
    ///
    /// Grid-level parallelism is *conditional*: each sweep already fans its
    /// simulated thread blocks across the machine via [`run_blocks`], so a
    /// second parallel layer only pays off for the waves coalescing exists
    /// for — many *small* grids whose individual block counts leave cores
    /// idle. When the average per-grid block count already saturates the
    /// machine (or there is one grid, or one core), the grids run
    /// sequentially and no extra threads spawn; otherwise up to half the
    /// cores each take a contiguous chunk of grids, which keeps result
    /// order — and therefore feedback order — equal to input order. (The
    /// rayon shim has no pool: each parallel call spawns a scoped thread
    /// for every chunk but the caller's, so every avoided layer is a real
    /// reduction in live threads under the serving runtime's own group
    /// fan-out.)
    pub(crate) fn run_coalesced_impl<G: Send>(
        &self,
        grids: &mut [G],
        feedback: &mut dyn BatchFeedback,
        validate: impl Fn(&G) -> Result<(), String>,
        blocks_of: impl Fn(&G) -> u64,
        sweep: impl Fn(&mut G) -> (Vec<PerfCounters>, u64) + Sync,
    ) -> Result<(), String> {
        let mut first_err: Option<String> = None;
        let mut valid = grids.len();
        for (index, grid) in grids.iter().enumerate() {
            if let Err(e) = validate(grid) {
                first_err = Some(format!("coalesced grid {index}: {e}"));
                valid = index;
                break;
            }
        }
        let wave_blocks: u64 = grids[..valid].iter().map(&blocks_of).sum();
        let launch_share = 1.0 / valid.max(1) as f64;
        feedback.on_batch_launch(valid, wave_blocks, launch_share);
        let dims = LaunchDims::new(wave_blocks, self.config.tiling.threads_per_block());
        let cores = rayon::current_num_threads();
        let inner_saturates = wave_blocks >= (valid.max(1) * cores) as u64;
        let per_grid: Vec<(Vec<PerfCounters>, u64)> = if valid <= 1 || cores <= 1 || inner_saturates
        {
            grids[..valid].iter_mut().map(&sweep).collect()
        } else {
            let outer_workers = (cores / 2).max(1).min(valid);
            let chunk = valid.div_ceil(outer_workers);
            grids[..valid]
                .par_chunks_mut(chunk)
                .map(|chunk| chunk.iter_mut().map(&sweep).collect::<Vec<_>>())
                .collect::<Vec<_>>()
                .into_iter()
                .flatten()
                .collect()
        };
        for (index, (counters, points)) in per_grid.into_iter().enumerate() {
            feedback.on_grid_done(
                index,
                &self.batched_report(counters, dims, points, launch_share),
            );
        }
        first_err.map_or(Ok(()), Err)
    }

    /// Merge per-step counters of one batch member into its report (one
    /// batched launch per step; see [`GpuDevice::report_batched`]).
    fn batched_report(
        &self,
        per_step: Vec<PerfCounters>,
        dims: LaunchDims,
        points: u64,
        launch_share: f64,
    ) -> KernelReport {
        let mut report: Option<KernelReport> = None;
        for counters in per_step {
            let r = self
                .device
                .report_batched(counters, dims, points, launch_share);
            report = Some(match report.take() {
                None => r,
                Some(prev) => prev.merge_sequential(&r),
            });
        }
        report.expect("at least one step")
    }

    /// Performance estimate for a (possibly huge) 2D problem: charge one
    /// sweep of a capped-size instance (counters never depend on grid data,
    /// so nothing is computed), extrapolate per-point counter rates to the
    /// requested extent, and evaluate the timing model with the *true*
    /// launch geometry (so occupancy effects follow the real size).
    pub fn estimate_2d(&self, plan: &SpiderPlan, rows: usize, cols: usize) -> KernelReport {
        let t = &self.config.tiling;
        let (mrows, mcols) = capped_extent_2d(rows, cols, self.config.measure_cap, t);
        let measured = self.charge_2d(plan, mrows, mcols);
        let scaled = measured.scaled((rows * cols) as u64, (mrows * mcols) as u64);
        let dims = LaunchDims::new(t.blocks_2d(rows, cols), t.threads_per_block());
        self.device.report(scaled, dims, (rows * cols) as u64)
    }

    /// 1D counterpart of [`Self::estimate_2d`].
    pub fn estimate_1d(&self, plan: &SpiderPlan, n: usize) -> KernelReport {
        let t = &self.config.tiling;
        let mn = n.min(self.config.measure_cap).max(t.block_1d);
        let mn = mn.div_ceil(t.block_1d) * t.block_1d;
        let measured = self.charge_1d(plan, mn);
        let scaled = measured.scaled(n as u64, mn as u64);
        let dims = LaunchDims::new(t.blocks_1d(n), t.threads_per_block());
        self.device.report(scaled, dims, n as u64)
    }

    /// One 2D sweep over an explicit source plane, returning the result and
    /// the sweep's counters — the building block of the 3D plane
    /// decomposition in [`crate::exec3d`].
    ///
    /// The result's interior is fully written by the sweep; its halo is
    /// zero (the sweep never writes halo cells, and — unlike the old
    /// clone-then-overwrite implementation — no source cells are copied
    /// first, so there is no redundant pre-copy to inherit stale halo
    /// values from). Callers that read only the interior, like the 3D
    /// plane accumulator, are unaffected.
    pub fn sweep_plane(
        &self,
        plan: &SpiderPlan,
        src: &Grid2D<f32>,
    ) -> Result<(Grid2D<f32>, PerfCounters), String> {
        let buf = self.pool.take(src.padded().len());
        let mut dst = Grid2D::from_padded_vec(src.rows(), src.cols(), src.halo(), buf);
        match self.sweep_plane_into(plan, src, &mut dst) {
            Ok(counters) => Ok((dst, counters)),
            Err(e) => {
                self.pool.put(dst.into_padded_vec());
                Err(e)
            }
        }
    }

    /// [`Self::sweep_plane`] writing into a caller-provided destination
    /// (same extent and halo as `src`; interior fully overwritten, halo
    /// untouched). Lets the 3D executor cycle one buffer through every
    /// plane slice instead of materializing a fresh grid per sweep.
    pub fn sweep_plane_into(
        &self,
        plan: &SpiderPlan,
        src: &Grid2D<f32>,
        dst: &mut Grid2D<f32>,
    ) -> Result<PerfCounters, String> {
        if plan.is_1d() {
            return Err("1D plan passed to sweep_plane".into());
        }
        if src.halo() < plan.radius() {
            return Err("plane halo smaller than stencil radius".into());
        }
        if (dst.rows(), dst.cols(), dst.halo()) != (src.rows(), src.cols(), src.halo()) {
            return Err("sweep_plane destination shape mismatch".into());
        }
        Ok(self.step_2d(plan, src, dst))
    }

    // ---------------------------------------------------------------- 2D --

    fn step_2d(&self, plan: &SpiderPlan, src: &Grid2D<f32>, dst: &mut Grid2D<f32>) -> PerfCounters {
        let t = self.config.tiling;
        let bg = BlockGrid::new(src.rows(), src.cols(), t.block_x, t.block_y);
        let tiles: Vec<Vec<f32>> = (0..bg.num_blocks() as u64)
            .into_par_iter()
            .map(|b| {
                let (x0, x1, y0, y1) = bg.rect(b);
                self.compute_block_2d(plan, src, x0, x1, y0, y1)
            })
            .collect();

        // Scatter the per-block output tiles (already FP16-quantized) into
        // the padded storage, one bulk row copy at a time, and recycle the
        // tile buffers.
        let h = dst.halo();
        for (b, tile) in tiles.into_iter().enumerate() {
            let (x0, x1, y0, y1) = bg.rect(b as u64);
            let w = y1 - y0;
            for (row, chunk) in tile.chunks_exact(w).take(x1 - x0).enumerate() {
                dst.padded_row_mut(x0 + row + h)[y0 + h..y1 + h].copy_from_slice(chunk);
            }
            self.pool.put(tile);
        }
        self.charge_2d(plan, src.rows(), src.cols())
    }

    /// The counters of one 2D sweep over a `rows × cols` grid: the sum of
    /// its blocks' charges. Counters depend only on block shapes, the plan,
    /// the mode and the row-swap strategy — never on grid data.
    fn charge_2d(&self, plan: &SpiderPlan, rows: usize, cols: usize) -> PerfCounters {
        let t = self.config.tiling;
        let r = plan.radius();
        let bg = BlockGrid::new(rows, cols, t.block_x, t.block_y);
        let probe = WaveProbe::new(plan, &t, self.mode, self.config.row_swap);
        // D store per MMA tile: FP16 output, 8 grid rows × 16 contiguous
        // columns. Tile columns start at multiples of 16 on a pitched
        // allocation, so each 32-byte row store is sector-aligned.
        let mut store = PerfCounters::new();
        for n in 0..N_TILE as u64 {
            record_bulk_write(&mut store, n * 128, M_TILE as u64, 2);
        }
        (0..bg.num_blocks() as u64)
            .map(|b| {
                let (x0, x1, y0, y1) = bg.rect(b);
                // Input slab: (bx + 2r) rows × (by + 2r) useful columns,
                // FP16, one bulk read per row. Rows are pitched to 128-byte
                // alignment (real stencil codes use cudaMallocPitch), so
                // every row costs what a row at address 0 costs.
                let slab_rows = (x1 - x0) + 2 * r;
                let slab_cols = (y1 - y0) + 2 * r;
                let mut row = PerfCounters::new();
                record_bulk_read(&mut row, 0, slab_cols as u64, 2);
                let tiles = (y1 - y0).div_ceil(M_TILE) * (x1 - x0).div_ceil(N_TILE);
                row.scaled(slab_rows as u64, 1)
                    + probe.block((slab_rows * slab_cols) as u64, tiles as u64, store)
            })
            .sum()
    }

    /// Functional computation of one block's output tile (row-major
    /// `(x1-x0) × (y1-y0)` buffer, drawn from the scratch pool — the caller
    /// returns it after scattering).
    fn compute_block_2d(
        &self,
        plan: &SpiderPlan,
        src: &Grid2D<f32>,
        x0: usize,
        x1: usize,
        y0: usize,
        y1: usize,
    ) -> Vec<f32> {
        let w = y1 - y0;
        let mut out = self.pool.take((x1 - x0) * w);

        // Interior-classification bounds: an MMA tile whose whole sample
        // range stays inside the padded storage takes the fused gather.
        let h = src.halo() as isize;
        let stride = src.stride() as isize;
        let padded_rows = (src.rows() + 2 * src.halo()) as isize;
        let (lo_off, hi_off) = plan.col_off_range();
        let (lo_dx, hi_dx) = plan.dx_range();

        let mut ty = 0;
        while y0 + ty * M_TILE < y1 {
            let y_base = y0 + ty * M_TILE;
            let mut tx = 0;
            while x0 + tx * N_TILE < x1 {
                let x_base = x0 + tx * N_TILE;
                let mut acc = [[0.0f32; 8]; 16];
                let interior = self.config.fast_gather
                    && x_base as isize + lo_dx + h >= 0
                    && (x_base + N_TILE - 1) as isize + hi_dx + h < padded_rows
                    && y_base as isize + lo_off + h >= 0
                    && y_base as isize + hi_off + h < stride;
                if interior {
                    for (unit, gather) in plan.units().iter().zip(plan.gathers()) {
                        self.mma_tile_2d_interior(unit, gather, src, x_base, y_base, &mut acc);
                    }
                } else {
                    for unit in plan.units() {
                        self.mma_tile_2d(unit, src, plan.perm(), x_base, y_base, &mut acc);
                    }
                }
                // Store (FP16-quantized, matching the modeled output type).
                for n in 0..N_TILE {
                    let x = x_base + n;
                    if x >= x1 {
                        continue;
                    }
                    for dy in 0..M_TILE {
                        let y = y_base + dy;
                        if y >= y1 {
                            continue;
                        }
                        out[(x - x0) * w + (y - y0)] = F16::quantize(acc[dy][n]);
                    }
                }
                tx += 1;
            }
            ty += 1;
        }
        out
    }

    /// One unit's two MMA K-slices on a 16×8 output tile — guarded path:
    /// every B-fragment sample goes through the bounds-checked
    /// [`sample_2d`]. Kept for boundary tiles (and as the reference the
    /// fast-path property tests compare against).
    fn mma_tile_2d(
        &self,
        unit: &PlanUnit,
        src: &Grid2D<f32>,
        perm: &[usize; K_PAD],
        x_base: usize,
        y_base: usize,
        acc: &mut [[f32; 8]; 16],
    ) {
        let ur = unit.radius as isize;
        // Window origin in grid columns.
        let wy0 = y_base as isize + unit.dy - ur;
        let mut dead = PerfCounters::new(); // MMA issue counts are charged in the charge pass
        match self.mode {
            ExecMode::DenseTc => {
                let slices = unit.sparse.dense_slices();
                for (k, a) in slices.iter().enumerate() {
                    let mut b = [[0.0f32; 8]; 16];
                    for (dy, brow) in b.iter_mut().enumerate() {
                        let wy = wy0 + (16 * k + dy) as isize;
                        for (n, v) in brow.iter_mut().enumerate() {
                            let x = x_base as isize + n as isize + unit.dx;
                            *v = sample_2d(src, x, wy);
                        }
                    }
                    mma_m16n8k16(&mut dead, a, &b, acc);
                }
            }
            ExecMode::SparseTc | ExecMode::SparseTcOptimized => {
                for (k, slice) in unit.sparse.slices.iter().enumerate() {
                    let mut b = [[0.0f32; 8]; 16];
                    for (dy, brow) in b.iter_mut().enumerate() {
                        let wy = wy0 + perm[16 * k + dy] as isize;
                        for (n, v) in brow.iter_mut().enumerate() {
                            let x = x_base as isize + n as isize + unit.dx;
                            *v = sample_2d(src, x, wy);
                        }
                    }
                    mma_sp_m16n8k16(&mut dead, slice, &b, acc);
                }
            }
        }
    }

    /// Fast-path counterpart of [`Self::mma_tile_2d`] for interior tiles:
    /// B fragments fill with direct strided slice reads off the plan's
    /// precomputed gather offsets — no per-element bounds guard, no
    /// permutation re-derivation. Reads exactly the storage cells the
    /// guarded path reads, so the MMA inputs (and therefore every output
    /// bit) are identical.
    fn mma_tile_2d_interior(
        &self,
        unit: &PlanUnit,
        gather: &UnitGather,
        src: &Grid2D<f32>,
        x_base: usize,
        y_base: usize,
        acc: &mut [[f32; 8]; 16],
    ) {
        let h = src.halo();
        let stride = src.stride();
        let padded = src.padded();
        // Padded row of the tile's first output row and padded column base.
        let row0 = (x_base + h) as isize + unit.dx;
        let col0 = (y_base + h) as isize;
        let fill = |offs: &[isize; M_TILE]| {
            let mut b = [[0.0f32; 8]; 16];
            for n in 0..N_TILE {
                let pr = (row0 + n as isize) as usize;
                let row = &padded[pr * stride..(pr + 1) * stride];
                for (dy, brow) in b.iter_mut().enumerate() {
                    brow[n] = row[(col0 + offs[dy]) as usize];
                }
            }
            b
        };
        let mut dead = PerfCounters::new(); // issue counts charged in the charge pass
        match self.mode {
            ExecMode::DenseTc => {
                let slices = unit.sparse.dense_slices();
                for (k, a) in slices.iter().enumerate() {
                    let b = fill(&gather.dense[k]);
                    mma_m16n8k16(&mut dead, a, &b, acc);
                }
            }
            ExecMode::SparseTc | ExecMode::SparseTcOptimized => {
                for (k, slice) in unit.sparse.slices.iter().enumerate() {
                    let b = fill(&gather.swapped[k]);
                    mma_sp_m16n8k16(&mut dead, slice, &b, acc);
                }
            }
        }
    }

    // ---------------------------------------------------------------- 1D --

    fn step_1d(&self, plan: &SpiderPlan, src: &Grid1D<f32>, dst: &mut Grid1D<f32>) -> PerfCounters {
        let t = self.config.tiling;
        let tiles: Vec<Vec<f32>> = (0..t.blocks_1d(src.len()) as usize)
            .into_par_iter()
            .map(|b| {
                let t0 = b * t.block_1d;
                let t1 = (t0 + t.block_1d).min(src.len());
                self.compute_block_1d(plan, src, t0, t1)
            })
            .collect();
        // Bulk-copy each tile into the padded storage and recycle it.
        let h = src.halo();
        for (b, tile) in tiles.into_iter().enumerate() {
            let t0 = b * t.block_1d;
            let t1 = (t0 + t.block_1d).min(src.len());
            dst.padded_mut()[t0 + h..t1 + h].copy_from_slice(&tile[..t1 - t0]);
            self.pool.put(tile);
        }
        self.charge_1d(plan, src.len())
    }

    /// 1D counterpart of [`Self::charge_2d`].
    fn charge_1d(&self, plan: &SpiderPlan, n: usize) -> PerfCounters {
        let t = self.config.tiling;
        let r = plan.radius();
        let probe = WaveProbe::new(plan, &t, self.mode, self.config.row_swap);
        (0..t.blocks_1d(n) as usize)
            .map(|b| {
                let t0 = b * t.block_1d;
                let t1 = (t0 + t.block_1d).min(n);
                let slab = (t1 - t0) + 2 * r;
                let mut read = PerfCounters::new();
                record_bulk_read(&mut read, t0 as u64 * 2, slab as u64, 2);
                // Each 128-point MMA group stores at the block's base.
                let mut store = PerfCounters::new();
                record_bulk_write(&mut store, t0 as u64 * 2, (M_TILE * N_TILE) as u64, 2);
                let groups = (t1 - t0).div_ceil(M_TILE * N_TILE);
                read + probe.block(slab as u64, groups as u64, store)
            })
            .sum()
    }

    fn compute_block_1d(
        &self,
        plan: &SpiderPlan,
        src: &Grid1D<f32>,
        t0: usize,
        t1: usize,
    ) -> Vec<f32> {
        let mut out = self.pool.take(t1 - t0);
        let h = src.halo() as isize;
        let padded = src.padded();
        let padded_len = padded.len() as isize;
        let (lo_off, hi_off) = plan.col_off_range();
        let groups = (t1 - t0).div_ceil(M_TILE * N_TILE);
        for g in 0..groups {
            let g0 = t0 + g * M_TILE * N_TILE;
            let mut acc = [[0.0f32; 8]; 16];
            // Fused gather when the group's whole sample range (all 8
            // segments × every window row of every unit) stays in storage.
            let interior = self.config.fast_gather
                && g0 as isize + lo_off + h >= 0
                && (g0 + (N_TILE - 1) * M_TILE) as isize + hi_off + h < padded_len;
            for (unit, gather) in plan.units().iter().zip(plan.gathers()) {
                let ur = unit.radius as isize;
                let fill_fast = |offs: &[isize; M_TILE]| {
                    let mut b = [[0.0f32; 8]; 16];
                    for (dy, brow) in b.iter_mut().enumerate() {
                        let base = (g0 as isize + offs[dy] + h) as usize;
                        for (n, v) in brow.iter_mut().enumerate() {
                            *v = padded[base + n * M_TILE];
                        }
                    }
                    b
                };
                match self.mode {
                    ExecMode::DenseTc => {
                        let slices = unit.sparse.dense_slices();
                        for (k, a) in slices.iter().enumerate() {
                            let b = if interior {
                                fill_fast(&gather.dense[k])
                            } else {
                                gather_1d(src, g0, unit, ur, |dy| 16 * k + dy)
                            };
                            let mut dead = PerfCounters::new();
                            mma_m16n8k16(&mut dead, a, &b, &mut acc);
                        }
                    }
                    _ => {
                        for (k, slice) in unit.sparse.slices.iter().enumerate() {
                            let b = if interior {
                                fill_fast(&gather.swapped[k])
                            } else {
                                gather_1d(src, g0, unit, ur, |dy| plan.perm()[16 * k + dy])
                            };
                            let mut dead = PerfCounters::new();
                            mma_sp_m16n8k16(&mut dead, slice, &b, &mut acc);
                        }
                    }
                }
            }
            for n in 0..N_TILE {
                for dy in 0..M_TILE {
                    let idx = g0 + n * M_TILE + dy;
                    if idx < t1 {
                        out[idx - t0] = F16::quantize(acc[dy][n]);
                    }
                }
            }
        }
        out
    }
}

/// A sweep's per-warp and per-tile counter deltas, computed once per step:
/// every charge depends only on block shape, plan, mode and row-swap
/// strategy, so a block's counters are these deltas scaled by its warp and
/// tile counts ([`PerfCounters::scaled`] by `(n, 1)` is exact).
struct WaveProbe {
    /// One warp's kernel-operand loads (operands live in registers, so
    /// each warp loads them once per block).
    operand_loads: PerfCounters,
    /// Warps per block.
    warps: u64,
    /// One MMA tile (a 1D group): for every plan unit, two invocations'
    /// B-fragment loads, any explicit row-swap copies, and the MMA issues.
    tile: PerfCounters,
}

impl WaveProbe {
    fn new(plan: &SpiderPlan, t: &TilingConfig, mode: ExecMode, strategy: RowSwapStrategy) -> Self {
        let mut operand_loads = PerfCounters::new();
        match mode {
            ExecMode::DenseTc => {
                packing::charge_operand_loads_dense(&mut operand_loads, plan.slices())
            }
            ExecMode::SparseTc => {
                packing::charge_operand_loads(&mut operand_loads, plan.slices(), false)
            }
            ExecMode::SparseTcOptimized => {
                packing::charge_operand_loads(&mut operand_loads, plan.slices(), true)
            }
        }
        let mut unit = PerfCounters::new();
        for waves in b_load_waves(plan, t, strategy) {
            // One ldmatrix.x2 per invocation.
            unit.smem_read(waves);
            if strategy == RowSwapStrategy::ExplicitCopy {
                // Materialized permutation: extra copy traffic.
                for _ in 0..2 {
                    unit.smem_read(1);
                    unit.smem_write(1);
                }
                unit.alu(4);
            }
            match mode {
                ExecMode::DenseTc => unit.mma_dense(),
                _ => unit.mma_sparse(),
            }
        }
        Self {
            operand_loads,
            warps: t.warps_per_block() as u64,
            tile: unit.scaled(plan.units().len() as u64, 1),
        }
    }

    /// A block's counters beyond its input read: `slab` input elements
    /// staged into shared memory (conflict-free row-major writes, one per
    /// 32 elements), every warp's operand loads, and `tiles` MMA tiles each
    /// finished by `store`.
    fn block(&self, slab: u64, tiles: u64, store: PerfCounters) -> PerfCounters {
        let mut stage = PerfCounters::new();
        stage.smem_write(1);
        stage.scaled(slab.div_ceil(32), 1)
            + self.operand_loads.scaled(self.warps, 1)
            + (self.tile + store).scaled(tiles, 1)
    }
}

/// Shared-memory waves for each of a unit's two B-fragment loads. The
/// pattern is tile-invariant, so one per-lane probe per configuration
/// suffices.
///
/// B fragments are fetched `ldmatrix`-style: the warp presents one row
/// pointer per 8×8 sub-matrix and the unit delivers the fragment in
/// 128-byte waves (two waves for a 16×8 FP16 operand). The row swap only
/// permutes *which* rows the pointers name, so the wave count is identical
/// with and without swapping — the hardware-level root of Table 3.
fn b_load_waves(plan: &SpiderPlan, t: &TilingConfig, strategy: RowSwapStrategy) -> [u64; 2] {
    // Shared slab stride (f16 elements): block_y + halo + swap headroom,
    // padded to the conflict-free residue (see `conflict_free_stride`).
    let sy = conflict_free_stride(t.block_y + 2 * plan.radius() + M_TILE) as u64;
    let perm = plan.perm();
    std::array::from_fn(|k| {
        // ldmatrix row pointers: one per fragment row; conflict analysis
        // over the 16 row-start addresses (each row is 8 f16 = one wave
        // half; two rows are serviced per wave).
        let addrs: [Option<u64>; M_TILE] = std::array::from_fn(|row| {
            let window = match strategy {
                RowSwapStrategy::Implicit => perm[16 * k + row],
                _ => 16 * k + row,
            };
            Some(window as u64 * sy * 2)
        });
        // 16 rows × 16 B = 256 B = 2 waves minimum; row-pointer bank
        // collisions would add replays (none with the padded stride).
        2.max(waves_for(&addrs) / 8)
    })
}

/// Smallest shared-memory row stride (in FP16 elements) at or above `need`
/// whose B-fragment access pattern is bank-conflict free.
///
/// With stride `s ≡ 8 (mod 64)` elements, lane `(group g, tig t)` reads word
/// `g·s/2 + t ≡ 4g + t (mod 32)` — all 32 banks exactly once. The ±16-row
/// swap shifts every lane's bank by the same constant, so the swapped
/// pattern stays conflict-free (the Table 3 invariance). This padding is
/// part of the §3.3 tiling/packing co-design.
pub fn conflict_free_stride(need: usize) -> usize {
    let mut s = need.div_ceil(64) * 64 + 8;
    if s < need {
        s += 64;
    }
    s
}

/// Sample the padded storage of a 2D grid at signed interior coordinates,
/// returning 0 outside the padded extent (only placeholder-slot B elements
/// ever land there; they are multiplied by structural zeros).
#[inline]
fn sample_2d(src: &Grid2D<f32>, i: isize, j: isize) -> f32 {
    let h = src.halo() as isize;
    let pi = i + h;
    let pj = j + h;
    if pi < 0 || pj < 0 {
        return 0.0;
    }
    let (pi, pj) = (pi as usize, pj as usize);
    let stride = src.stride();
    if pi >= src.rows() + 2 * src.halo() || pj >= stride {
        return 0.0;
    }
    src.padded()[pi * stride + pj]
}

#[inline]
fn sample_1d(src: &Grid1D<f32>, i: isize) -> f32 {
    let pi = i + src.halo() as isize;
    if pi < 0 || pi as usize >= src.padded().len() {
        return 0.0;
    }
    src.padded()[pi as usize]
}

fn gather_1d(
    src: &Grid1D<f32>,
    g0: usize,
    unit: &PlanUnit,
    ur: isize,
    window: impl Fn(usize) -> usize,
) -> [[f32; 8]; 16] {
    let mut b = [[0.0f32; 8]; 16];
    for (dy, brow) in b.iter_mut().enumerate() {
        let w = window(dy) as isize;
        for (n, v) in brow.iter_mut().enumerate() {
            let seg = g0 as isize + (n * M_TILE) as isize;
            *v = sample_1d(src, seg + unit.dy - ur + w);
        }
    }
    b
}

fn quantize_grid_2d(grid: &mut Grid2D<f32>) {
    for v in grid.padded_mut() {
        *v = F16::quantize(*v);
    }
}

fn quantize_grid_1d(grid: &mut Grid1D<f32>) {
    for v in grid.padded_mut() {
        *v = F16::quantize(*v);
    }
}

/// Shrink a 2D extent to roughly `cap` points while preserving aspect ratio
/// and block alignment.
fn capped_extent_2d(rows: usize, cols: usize, cap: usize, t: &TilingConfig) -> (usize, usize) {
    if rows * cols <= cap {
        return (rows, cols);
    }
    let scale = ((rows * cols) as f64 / cap as f64).sqrt();
    let align = |v: usize, b: usize| ((v.max(b)).div_ceil(b)) * b;
    let mr = align(
        ((rows as f64 / scale) as usize).max(2 * t.block_x),
        t.block_x,
    );
    let mc = align(
        ((cols as f64 / scale) as usize).max(2 * t.block_y),
        t.block_y,
    );
    (mr.min(rows), mc.min(cols))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_stencil::exec::reference;
    use spider_stencil::shape::StencilShape;
    use spider_stencil::verify::compare_2d;
    use spider_stencil::StencilKernel;

    fn device() -> GpuDevice {
        GpuDevice::a100()
    }

    /// Oracle: f64 reference on the same f16-quantized kernel/grid.
    fn oracle_2d(kernel: &StencilKernel, grid: &Grid2D<f32>, steps: usize) -> Grid2D<f64> {
        let quant = StencilKernel::from_fn_2d(kernel.shape(), |di, dj| {
            F16::quantize(kernel.at(di, dj) as f32) as f64
        });
        let mut g: Grid2D<f64> = grid.convert();
        for _ in 0..steps {
            let mut scratch = g.clone();
            reference::step_2d(&quant, &g, &mut scratch);
            // Model FP16 storage between sweeps.
            for v in scratch.padded_mut() {
                *v = F16::quantize(*v as f32) as f64;
            }
            g = scratch;
        }
        g
    }

    fn check_2d(shape: StencilShape, seed: u64, rows: usize, cols: usize, mode: ExecMode) {
        let kernel = StencilKernel::random(shape, seed);
        let dev = device();
        let plan = SpiderPlan::compile(&kernel).unwrap();
        let mut grid = Grid2D::<f32>::random(rows, cols, shape.radius, seed + 1);
        quantize_grid_2d(&mut grid);
        let expect = oracle_2d(&kernel, &grid, 1);
        let exec = SpiderExecutor::new(&dev, mode);
        let report = exec.run_2d(&plan, &mut grid, 1).unwrap();
        let err = compare_2d(&expect, &grid);
        assert!(
            err.max_abs < 5e-3,
            "{} {mode:?}: max err {}",
            shape.name(),
            err.max_abs
        );
        assert!(report.gstencils_per_sec() > 0.0);
    }

    #[test]
    fn box_2d_all_radii_match_oracle() {
        for r in 1..=3 {
            check_2d(
                StencilShape::box_2d(r),
                10 + r as u64,
                48,
                80,
                ExecMode::SparseTcOptimized,
            );
        }
    }

    #[test]
    fn star_2d_matches_oracle() {
        for r in 1..=3 {
            check_2d(
                StencilShape::star_2d(r),
                20 + r as u64,
                48,
                80,
                ExecMode::SparseTcOptimized,
            );
        }
    }

    #[test]
    fn dense_tc_mode_matches_oracle() {
        check_2d(StencilShape::box_2d(2), 33, 64, 64, ExecMode::DenseTc);
    }

    #[test]
    fn sparse_unpacked_mode_matches_oracle() {
        check_2d(StencilShape::box_2d(2), 34, 64, 64, ExecMode::SparseTc);
    }

    #[test]
    fn non_multiple_grid_sizes_match_oracle() {
        // Grid not divisible by the block tile: edge handling.
        check_2d(
            StencilShape::box_2d(1),
            35,
            50,
            70,
            ExecMode::SparseTcOptimized,
        );
        check_2d(
            StencilShape::box_2d(3),
            36,
            41,
            99,
            ExecMode::SparseTcOptimized,
        );
    }

    #[test]
    fn multi_step_matches_oracle() {
        let kernel = StencilKernel::gaussian_2d(1);
        let dev = device();
        let plan = SpiderPlan::compile(&kernel).unwrap();
        let mut grid = Grid2D::<f32>::random(64, 64, 1, 77);
        quantize_grid_2d(&mut grid);
        let expect = oracle_2d(&kernel, &grid, 4);
        let exec = SpiderExecutor::new(&dev, ExecMode::SparseTcOptimized);
        let report = exec.run_2d(&plan, &mut grid, 4).unwrap();
        let err = compare_2d(&expect, &grid);
        assert!(err.max_abs < 2e-2, "max err {}", err.max_abs);
        // 4 sweeps => 4 launches' worth of points.
        assert_eq!(report.points, 4 * 64 * 64);
    }

    #[test]
    fn d1_matches_oracle() {
        for r in 1..=2 {
            let kernel = StencilKernel::random(StencilShape::d1(r), 40 + r as u64);
            let quant_k = StencilKernel::d1(
                r,
                &kernel
                    .coeffs()
                    .iter()
                    .map(|&c| F16::quantize(c as f32) as f64)
                    .collect::<Vec<_>>(),
            );
            let dev = device();
            let plan = SpiderPlan::compile(&kernel).unwrap();
            let mut grid = Grid1D::<f32>::random(5000, r, 50);
            quantize_grid_1d(&mut grid);
            let mut expect: Grid1D<f64> = grid.convert();
            reference::apply_1d(&quant_k, &mut expect, 1);
            let exec = SpiderExecutor::new(&dev, ExecMode::SparseTcOptimized);
            exec.run_1d(&plan, &mut grid, 1).unwrap();
            let err = spider_stencil::verify::compare_1d(&expect, &grid);
            assert!(err.max_abs < 5e-3, "1D{r}R: {}", err.max_abs);
        }
    }

    #[test]
    fn wide_radius_split_matches_oracle() {
        // r=9 > native max: exercises split_wide_row end to end.
        let kernel = StencilKernel::random(StencilShape::d1(9), 60);
        let quant_k = StencilKernel::d1(
            9,
            &kernel
                .coeffs()
                .iter()
                .map(|&c| F16::quantize(c as f32) as f64)
                .collect::<Vec<_>>(),
        );
        let dev = device();
        let plan = SpiderPlan::compile(&kernel).unwrap();
        assert!(plan.units().len() >= 2);
        let mut grid = Grid1D::<f32>::random(4096, 9, 61);
        quantize_grid_1d(&mut grid);
        let mut expect: Grid1D<f64> = grid.convert();
        reference::apply_1d(&quant_k, &mut expect, 1);
        SpiderExecutor::new(&dev, ExecMode::SparseTcOptimized)
            .run_1d(&plan, &mut grid, 1)
            .unwrap();
        let err = spider_stencil::verify::compare_1d(&expect, &grid);
        assert!(err.max_abs < 1e-2, "{}", err.max_abs);
    }

    #[test]
    fn sparse_uses_sparse_mmas_dense_uses_dense() {
        let kernel = StencilKernel::random(StencilShape::box_2d(1), 70);
        let dev = device();
        let plan = SpiderPlan::compile(&kernel).unwrap();
        let mut g = Grid2D::<f32>::random(32, 64, 1, 71);
        let rs = SpiderExecutor::new(&dev, ExecMode::SparseTc)
            .run_2d(&plan, &mut g.clone(), 1)
            .unwrap();
        assert!(rs.counters.mma_sparse_f16 > 0);
        assert_eq!(rs.counters.mma_dense_f16, 0);
        let rd = SpiderExecutor::new(&dev, ExecMode::DenseTc)
            .run_2d(&plan, &mut g, 1)
            .unwrap();
        assert!(rd.counters.mma_dense_f16 > 0);
        assert_eq!(rd.counters.mma_sparse_f16, 0);
        // Equal MMA issue counts; sparse halves the compute time.
        assert_eq!(rd.counters.mma_dense_f16, rs.counters.mma_sparse_f16);
        assert!(rd.breakdown.compute_s > rs.breakdown.compute_s * 1.9);
    }

    #[test]
    fn packing_reduces_instructions() {
        let kernel = StencilKernel::random(StencilShape::box_2d(2), 80);
        let dev = device();
        let plan = SpiderPlan::compile(&kernel).unwrap();
        let g = Grid2D::<f32>::random(64, 128, 2, 81);
        let unpacked = SpiderExecutor::new(&dev, ExecMode::SparseTc)
            .run_2d(&plan, &mut g.clone(), 1)
            .unwrap();
        let packed = SpiderExecutor::new(&dev, ExecMode::SparseTcOptimized)
            .run_2d(&plan, &mut g.clone(), 1)
            .unwrap();
        assert!(packed.counters.instructions < unpacked.counters.instructions);
        assert!(packed.counters.gmem_read_bytes <= unpacked.counters.gmem_read_bytes);
        assert!(packed.time_s() <= unpacked.time_s());
    }

    #[test]
    fn implicit_swap_is_zero_cost_vs_none() {
        // Table 3: identical instruction count and memory behaviour.
        let kernel = StencilKernel::random(StencilShape::box_2d(3), 90);
        let dev = device();
        let plan = SpiderPlan::compile(&kernel).unwrap();
        let g = Grid2D::<f32>::random(64, 128, 3, 91);
        let run = |strategy| {
            let cfg = ExecConfig {
                row_swap: strategy,
                ..Default::default()
            };
            SpiderExecutor::with_config(&dev, ExecMode::SparseTcOptimized, cfg)
                .run_2d(&plan, &mut g.clone(), 1)
                .unwrap()
        };
        let with = run(RowSwapStrategy::Implicit);
        let without = run(RowSwapStrategy::None);
        let explicit = run(RowSwapStrategy::ExplicitCopy);
        assert_eq!(with.counters.instructions, without.counters.instructions);
        assert_eq!(
            with.counters.smem_read_waves,
            without.counters.smem_read_waves
        );
        assert_eq!(
            with.counters.gmem_read_bytes,
            without.counters.gmem_read_bytes
        );
        assert!((with.time_s() - without.time_s()).abs() < 1e-12);
        // The rejected explicit-copy variant is measurably slower.
        assert!(explicit.counters.instructions > with.counters.instructions);
        assert!(explicit.counters.smem_read_waves > with.counters.smem_read_waves);
    }

    #[test]
    fn estimate_matches_direct_run_rates() {
        let kernel = StencilKernel::random(StencilShape::box_2d(1), 95);
        let dev = device();
        let plan = SpiderPlan::compile(&kernel).unwrap();
        let exec = SpiderExecutor::new(&dev, ExecMode::SparseTcOptimized);
        // Direct functional run at 128x128.
        let mut g = Grid2D::<f32>::random(128, 128, 1, 96);
        let direct = exec.run_2d(&plan, &mut g, 1).unwrap();
        // Estimate at the same size must match exactly (no scaling needed).
        let est = exec.estimate_2d(&plan, 128, 128);
        assert_eq!(est.counters.mma_sparse_f16, direct.counters.mma_sparse_f16);
        // Larger estimate keeps the per-point MMA rate.
        let big = exec.estimate_2d(&plan, 1024, 1024);
        let rate_small = est.counters.mma_sparse_f16 as f64 / (128.0 * 128.0);
        let rate_big = big.counters.mma_sparse_f16 as f64 / (1024.0 * 1024.0);
        assert!((rate_small - rate_big).abs() / rate_small < 0.05);
    }

    #[test]
    fn occupancy_grows_with_problem_size() {
        let kernel = StencilKernel::random(StencilShape::box_2d(2), 97);
        let dev = device();
        let plan = SpiderPlan::compile(&kernel).unwrap();
        let exec = SpiderExecutor::new(&dev, ExecMode::SparseTcOptimized);
        let small = exec.estimate_2d(&plan, 512, 512);
        let large = exec.estimate_2d(&plan, 8192, 8192);
        assert!(small.breakdown.occupancy < large.breakdown.occupancy);
        assert!(
            small.gstencils_per_sec() < large.gstencils_per_sec(),
            "small {} vs large {}",
            small.gstencils_per_sec(),
            large.gstencils_per_sec()
        );
    }

    /// The per-event charging the closed form replaced, kept as its oracle:
    /// one 2D block's charges, event by event.
    #[allow(clippy::too_many_arguments)]
    fn oracle_charge_block_2d(
        exec: &SpiderExecutor,
        c: &mut PerfCounters,
        stride: usize,
        x0: usize,
        x1: usize,
        y0: usize,
        y1: usize,
        plan: &SpiderPlan,
    ) {
        let r = plan.radius();
        let slab_rows = (x1 - x0) + 2 * r;
        let slab_cols = (y1 - y0) + 2 * r;
        let pitch = ((stride as u64 * 2).div_ceil(128)) * 128;
        for row in 0..slab_rows {
            record_bulk_read(c, (x0 + row) as u64 * pitch, slab_cols as u64, 2);
        }
        for _ in 0..((slab_rows * slab_cols) as u64).div_ceil(32) {
            c.smem_write(1);
        }
        oracle_operand_loads(exec, c, plan);
        let tiles = (y1 - y0).div_ceil(M_TILE) * (x1 - x0).div_ceil(N_TILE);
        for _ in 0..tiles {
            oracle_tile(exec, c, plan);
            for n in 0..N_TILE as u64 {
                record_bulk_write(c, n * 128, M_TILE as u64, 2);
            }
        }
    }

    /// 1D counterpart of [`oracle_charge_block_2d`].
    fn oracle_charge_block_1d(
        exec: &SpiderExecutor,
        c: &mut PerfCounters,
        t0: usize,
        t1: usize,
        plan: &SpiderPlan,
    ) {
        let slab = (t1 - t0) + 2 * plan.radius();
        record_bulk_read(c, t0 as u64 * 2, slab as u64, 2);
        for _ in 0..(slab as u64).div_ceil(32) {
            c.smem_write(1);
        }
        oracle_operand_loads(exec, c, plan);
        for _ in 0..(t1 - t0).div_ceil(M_TILE * N_TILE) {
            oracle_tile(exec, c, plan);
            record_bulk_write(c, t0 as u64 * 2, (M_TILE * N_TILE) as u64, 2);
        }
    }

    fn oracle_operand_loads(exec: &SpiderExecutor, c: &mut PerfCounters, plan: &SpiderPlan) {
        for _ in 0..exec.config.tiling.warps_per_block() {
            match exec.mode {
                ExecMode::DenseTc => packing::charge_operand_loads_dense(c, plan.slices()),
                ExecMode::SparseTc => packing::charge_operand_loads(c, plan.slices(), false),
                ExecMode::SparseTcOptimized => {
                    packing::charge_operand_loads(c, plan.slices(), true)
                }
            }
        }
    }

    fn oracle_tile(exec: &SpiderExecutor, c: &mut PerfCounters, plan: &SpiderPlan) {
        let waves = b_load_waves(plan, &exec.config.tiling, exec.config.row_swap);
        for _u in 0..plan.units().len() {
            for wk in waves {
                c.smem_read(wk);
                if exec.config.row_swap == RowSwapStrategy::ExplicitCopy {
                    for _ in 0..2 {
                        c.smem_read(1);
                        c.smem_write(1);
                    }
                    c.alu(4);
                }
                match exec.mode {
                    ExecMode::DenseTc => c.mma_dense(),
                    _ => c.mma_sparse(),
                }
            }
        }
    }

    fn oracle_step_2d(exec: &SpiderExecutor, plan: &SpiderPlan, g: &Grid2D<f32>) -> PerfCounters {
        let t = exec.config.tiling;
        let bg = BlockGrid::new(g.rows(), g.cols(), t.block_x, t.block_y);
        let mut c = PerfCounters::new();
        for b in 0..bg.num_blocks() as u64 {
            let (x0, x1, y0, y1) = bg.rect(b);
            oracle_charge_block_2d(exec, &mut c, g.stride(), x0, x1, y0, y1, plan);
        }
        c
    }

    fn oracle_step_1d(exec: &SpiderExecutor, plan: &SpiderPlan, n: usize) -> PerfCounters {
        let t = exec.config.tiling;
        let mut c = PerfCounters::new();
        for b in 0..t.blocks_1d(n) as usize {
            let t0 = b * t.block_1d;
            oracle_charge_block_1d(exec, &mut c, t0, (t0 + t.block_1d).min(n), plan);
        }
        c
    }

    /// The estimate the charge-only ones replaced: the counters of one
    /// sweep over a capped random grid (charged per event), scaled.
    fn oracle_estimate_2d(
        exec: &SpiderExecutor,
        plan: &SpiderPlan,
        rows: usize,
        cols: usize,
    ) -> KernelReport {
        let t = &exec.config.tiling;
        let (mrows, mcols) = capped_extent_2d(rows, cols, exec.config.measure_cap, t);
        let g = Grid2D::<f32>::random(mrows, mcols, plan.radius(), 0x5EED);
        let measured = oracle_step_2d(exec, plan, &g);
        let scaled = measured.scaled((rows * cols) as u64, (mrows * mcols) as u64);
        let dims = LaunchDims::new(t.blocks_2d(rows, cols), t.threads_per_block());
        exec.device.report(scaled, dims, (rows * cols) as u64)
    }

    fn oracle_estimate_1d(exec: &SpiderExecutor, plan: &SpiderPlan, n: usize) -> KernelReport {
        let t = &exec.config.tiling;
        let mn = n.min(exec.config.measure_cap).max(t.block_1d);
        let mn = mn.div_ceil(t.block_1d) * t.block_1d;
        let scaled = oracle_step_1d(exec, plan, mn).scaled(n as u64, mn as u64);
        let dims = LaunchDims::new(t.blocks_1d(n), t.threads_per_block());
        exec.device.report(scaled, dims, n as u64)
    }

    #[test]
    fn closed_form_charging_matches_the_per_event_oracle() {
        let dev = device();
        let modes = [
            ExecMode::DenseTc,
            ExecMode::SparseTc,
            ExecMode::SparseTcOptimized,
        ];
        let strategies = [
            RowSwapStrategy::Implicit,
            RowSwapStrategy::ExplicitCopy,
            RowSwapStrategy::None,
        ];
        let mut planar: Vec<StencilKernel> = (1..=3)
            .flat_map(|r| [StencilShape::box_2d(r), StencilShape::star_2d(r)])
            .map(|shape| StencilKernel::random(shape, 7))
            .collect();
        planar.push(StencilKernel::random(StencilShape::box_2d(9), 8));
        let lines: Vec<StencilKernel> = [1, 2, 3, 9]
            .into_iter()
            .map(|r| StencilKernel::random(StencilShape::d1(r), 9))
            .collect();
        for (mode, strategy) in modes
            .iter()
            .flat_map(|m| strategies.iter().map(move |s| (*m, *s)))
        {
            let config = ExecConfig {
                row_swap: strategy,
                ..ExecConfig::default()
            };
            let exec = SpiderExecutor::with_config(&dev, mode, config);
            let what = format!("{mode:?} {strategy:?}");
            for kernel in &planar {
                let plan = SpiderPlan::compile(kernel).unwrap();
                let r = plan.radius();
                // Whole 32×64 blocks and clipped edge blocks on both axes.
                for (rows, cols) in [(64, 128), (50, 70), (41, 99)] {
                    let g = Grid2D::<f32>::random(rows, cols, r, 3);
                    let (_, got) = exec.sweep_plane(&plan, &g).unwrap();
                    assert_eq!(
                        got,
                        oracle_step_2d(&exec, &plan, &g),
                        "{what} {rows}x{cols} r{r}"
                    );
                }
                // Uncapped, and capped (charged over a 2^20-point extent;
                // one radius keeps the block-by-block oracle quick).
                let capped = (r == 3).then_some((4096, 4096));
                for (rows, cols) in [(96, 160)].into_iter().chain(capped) {
                    let got = exec.estimate_2d(&plan, rows, cols);
                    let want = oracle_estimate_2d(&exec, &plan, rows, cols);
                    assert_eq!(got.counters, want.counters, "{what} estimate {rows}x{cols}");
                    assert_eq!(got.time_s(), want.time_s());
                }
            }
            for kernel in &lines {
                let plan = SpiderPlan::compile(kernel).unwrap();
                // Whole 2048-point blocks and a clipped last block.
                for n in [4096, 5000] {
                    let mut g = Grid1D::<f32>::random(n, plan.radius(), 4);
                    let got = exec.run_1d(&plan, &mut g, 1).unwrap().counters;
                    assert_eq!(got, oracle_step_1d(&exec, &plan, n), "{what} 1D n{n}");
                }
                for n in [1 << 24, 3000] {
                    let got = exec.estimate_1d(&plan, n);
                    let want = oracle_estimate_1d(&exec, &plan, n);
                    assert_eq!(got.counters, want.counters, "{what} estimate n{n}");
                    assert_eq!(got.time_s(), want.time_s());
                }
            }
        }
    }

    /// [`BatchFeedback`] collector used by the coalesced-path tests.
    #[derive(Default)]
    struct Collect {
        order: Vec<usize>,
        reports: Vec<KernelReport>,
        launches: Vec<(usize, u64, f64)>,
    }

    impl BatchFeedback for Collect {
        fn on_grid_done(&mut self, index: usize, report: &KernelReport) {
            self.order.push(index);
            self.reports.push(report.clone());
        }

        fn on_batch_launch(&mut self, members: usize, wave_blocks: u64, launch_share: f64) {
            self.launches.push((members, wave_blocks, launch_share));
        }
    }

    #[test]
    fn coalesced_2d_is_bit_identical_to_sequential_runs() {
        let kernel = StencilKernel::random(StencilShape::box_2d(2), 120);
        let dev = device();
        let plan = SpiderPlan::compile(&kernel).unwrap();
        let exec = SpiderExecutor::new(&dev, ExecMode::SparseTcOptimized);
        let inputs: Vec<Grid2D<f32>> = (0..4)
            .map(|s| Grid2D::random(48 + s, 64, 2, 121 + s as u64))
            .collect();
        // Reference: one run_2d call per grid.
        let mut expect = inputs.clone();
        let mut expect_reports = Vec::new();
        for g in &mut expect {
            expect_reports.push(exec.run_2d(&plan, g, 2).unwrap());
        }
        // Coalesced: one executor, one call, feedback-driven results.
        let mut grids = inputs;
        let mut fb = Collect::default();
        exec.run_2d_coalesced(&plan, &mut grids, 2, &mut fb)
            .unwrap();
        assert_eq!(fb.order, vec![0, 1, 2, 3], "input-order completion");
        // The launch hook fires exactly once, before completions, covering
        // every valid grid with an even launch-overhead share.
        assert_eq!(fb.launches.len(), 1);
        let (members, wave_blocks, share) = fb.launches[0];
        assert_eq!(members, 4);
        assert!(wave_blocks > 0);
        assert_eq!(share, 0.25);
        for (i, (got, want)) in grids.iter().zip(&expect).enumerate() {
            assert_eq!(got.padded(), want.padded(), "grid {i} diverged");
        }
        for (got, want) in fb.reports.iter().zip(&expect_reports) {
            assert_eq!(got.points, want.points);
            assert_eq!(got.counters.mma_sparse_f16, want.counters.mma_sparse_f16);
        }
    }

    #[test]
    fn coalesced_1d_is_bit_identical_to_sequential_runs() {
        let kernel = StencilKernel::random(StencilShape::d1(2), 130);
        let dev = device();
        let plan = SpiderPlan::compile(&kernel).unwrap();
        let exec = SpiderExecutor::new(&dev, ExecMode::SparseTcOptimized);
        let inputs: Vec<Grid1D<f32>> = (0..3).map(|s| Grid1D::random(3000, 2, 131 + s)).collect();
        let mut expect = inputs.clone();
        for g in &mut expect {
            exec.run_1d(&plan, g, 1).unwrap();
        }
        let mut grids = inputs;
        let mut fb = Collect::default();
        exec.run_1d_coalesced(&plan, &mut grids, 1, &mut fb)
            .unwrap();
        assert_eq!(fb.order, vec![0, 1, 2]);
        for (got, want) in grids.iter().zip(&expect) {
            assert_eq!(got.padded(), want.padded());
        }
    }

    #[test]
    fn coalesced_error_aborts_without_feedback_for_failed_grid() {
        let kernel = StencilKernel::random(StencilShape::box_2d(3), 140);
        let dev = device();
        let plan = SpiderPlan::compile(&kernel).unwrap();
        let exec = SpiderExecutor::new(&dev, ExecMode::SparseTcOptimized);
        // Second grid's halo is too small for radius 3.
        let mut grids = vec![
            Grid2D::random(32, 32, 3, 141),
            Grid2D::random(32, 32, 1, 142),
        ];
        let mut fb = Collect::default();
        let err = exec
            .run_2d_coalesced(&plan, &mut grids, 1, &mut fb)
            .unwrap_err();
        assert!(err.contains("coalesced grid 1"), "{err}");
        assert_eq!(fb.order, vec![0], "only the completed grid reported");
    }

    #[test]
    fn mismatched_dimensions_rejected() {
        let dev = device();
        let k2 = StencilKernel::random(StencilShape::box_2d(1), 98);
        let p2 = SpiderPlan::compile(&k2).unwrap();
        let mut g1 = Grid1D::<f32>::random(1000, 1, 99);
        assert!(SpiderExecutor::new(&dev, ExecMode::SparseTc)
            .run_1d(&p2, &mut g1, 1)
            .is_err());
        let k1 = StencilKernel::random(StencilShape::d1(1), 98);
        let p1 = SpiderPlan::compile(&k1).unwrap();
        let mut g2 = Grid2D::<f32>::random(32, 32, 1, 99);
        assert!(SpiderExecutor::new(&dev, ExecMode::SparseTc)
            .run_2d(&p1, &mut g2, 1)
            .is_err());
        // Insufficient halo.
        let k3 = StencilKernel::random(StencilShape::box_2d(3), 98);
        let p3 = SpiderPlan::compile(&k3).unwrap();
        let mut g3 = Grid2D::<f32>::random(32, 32, 1, 99);
        assert!(SpiderExecutor::new(&dev, ExecMode::SparseTc)
            .run_2d(&p3, &mut g3, 1)
            .is_err());
    }
}

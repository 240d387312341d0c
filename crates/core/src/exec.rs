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
//! ## Host computation
//!
//! The simulated kernel is still the MMA tiling above: the counters are
//! charged in closed form per block, warp and tile, once per (plan,
//! extent, tiling, mode, row-swap): they never depend on grid data, so the
//! plan memoizes them ([`SpiderPlan::charge_misses`] counts the charges)
//! and a warm request, a 3D slice or a repeated dry-run charges nothing.
//! The host does not
//! emulate every `mma.sp` slot to produce the output bits, though. It runs
//! the plan's exact-order tap schedule ([`crate::schedule`]): the MMA
//! chain's non-zero FMAs, in the chain's order, as contiguous vector FMAs
//! straight into the destination, so every output bit matches the
//! emulation. One row engine runs the schedule for every dimension: a 1D
//! grid is one row, a 2D grid a stack of rows, and a 3D volume a stack of
//! planes whose output rows sum one row per kernel slice (see
//! [`crate::exec3d`]). A sweep fans out once, over output rows, or over
//! 16-aligned segments of a single row (1D), into at most
//! [`rayon::current_num_threads`] jobs of at least [`MIN_JOB_STEP_POINTS`]
//! each: a job must outlast waking an idle core, so a sweep below twice
//! that size runs on the calling thread and spawns nothing.
//!
//! ## One level of parallelism
//!
//! A serving wave fans out too, over its plan-key groups, with the same
//! rule ([`split_jobs`]) through [`fan_out`], but only when none of its
//! sweeps would split by itself ([`jobs_for`] is 1 for each). So a core
//! is never asked for two levels at once: a wave's jobs each sweep on
//! their own thread, and a sweep large enough to split runs in a wave of
//! one job. Each job holds at most one input and one scratch grid, both
//! from the runtime's one [`BufferPool`], and [`SpiderExecutor::run_2d_in_batch`]
//! lets it run a coalesced group one member at a time.
//!
//! The emulated MMA path (`compute_block_*` over `mma_tile_2d` and
//! `gather_1d`) remains for the one case where the two differ: a sweep whose
//! source holds ±∞ or NaN anywhere in its padded storage (a zero slot times
//! ∞ is NaN). The input quantize and every output store raise that flag, so
//! it costs no extra pass. [`SpiderExecutor::run_2d_emulated`] and
//! [`SpiderExecutor::run_1d_emulated`] force the emulation, as the
//! reference the bit-identity tests compare against.
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
use crate::plan::{ChargeKey, Extent, PlanUnit, SpiderPlan};
use crate::pool::BufferPool;
use crate::row_swap::RowSwapStrategy;
use crate::schedule::{run_span, TapStep};
use crate::tiling::{TilingConfig, N_TILE};
use crate::{K_PAD, M_TILE};
use rayon::prelude::*;
use spider_gpu_sim::counters::PerfCounters;
use spider_gpu_sim::half::{quantize_slice, F16};
use spider_gpu_sim::launch::BlockGrid;
use spider_gpu_sim::mem::global::{record_bulk_read, record_bulk_write};
use spider_gpu_sim::mem::shared::waves_for;
use spider_gpu_sim::tensor_core::{mma_m16n8k16, mma_sp_m16n8k16};
use spider_gpu_sim::timing::{KernelReport, LaunchDims};
use spider_gpu_sim::GpuDevice;
use spider_stencil::{BoundaryCondition, Grid1D, Grid2D};
use std::iter::once;

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
}

impl Default for ExecConfig {
    fn default() -> Self {
        Self {
            tiling: TilingConfig::default(),
            row_swap: RowSwapStrategy::Implicit,
            boundary: BoundaryCondition::DirichletZero,
            measure_cap: 1 << 20,
        }
    }
}

/// Step-points (outputs × schedule steps) a sweep job must hold to pay for
/// its thread. A two-job split saves only the half it moves to the other
/// core, and that core has often been idle and must be woken, so one job's
/// work must outlast the worst-case wake. On a 2-vCPU x86-64 host a scoped
/// spawn plus join beside 50 µs of work cost 49 µs extra back to back, and
/// 89 µs median (156 µs p90) after 200 µs idle. Built for `x86-64-v3`, a
/// sweep runs the box kernels r1–r3 at 0.046–0.11 ns per step-point (one
/// sweep of a 128×256 grid, as the difference of two- and one-sweep
/// `run_2d` medians, three rounds), so 2 000 000 step-points take
/// 92–212 µs: at the fastest rate a job only just outlasts the median wake.
pub const MIN_JOB_STEP_POINTS: usize = 2_000_000;

/// How many jobs a fan-out over `work` splits into: one per `min_job` of
/// work, at most `most` and at most one per core, at least one. The rule of
/// both fan-outs: a sweep's ([`jobs_for`]) and a serving wave's.
pub fn split_jobs(work: u64, min_job: u64, most: usize) -> usize {
    let cap = most.min(rayon::current_num_threads()).max(1);
    (work / min_job).clamp(1, cap as u64) as usize
}

/// How many jobs a sweep of `step_points` splits into: one per
/// [`MIN_JOB_STEP_POINTS`], at most one per core, at least one. A serving
/// wave asks it too: a wave one of whose sweeps would split does not fan
/// out itself, so there is one level of parallelism.
pub fn jobs_for(step_points: usize) -> usize {
    split_jobs(step_points as u64, MIN_JOB_STEP_POINTS as u64, usize::MAX)
}

/// Run `job` on `jobs` workers and return each worker's value: the calling
/// thread is one worker, and the rayon shim starts a helper thread for
/// each other. The fan-out of a serving wave, whose jobs claim its groups;
/// a sweep fans out over its own rows instead
/// (`SpiderExecutor::sweep_rows`).
pub fn fan_out<R: Send>(jobs: usize, job: impl Fn() -> R + Sync) -> Vec<R> {
    (0..jobs).into_par_iter().map(|_| job()).collect()
}

/// `report` run `n` (at least one) times back to back: merged with itself,
/// one run after another.
pub(crate) fn back_to_back(report: &KernelReport, n: usize) -> KernelReport {
    (1..n.max(1)).fold(report.clone(), |run, _| run.merge_sequential(report))
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
}

/// The batched launch a grid's report is billed to: `members` grids
/// spanning `wave_blocks` thread blocks, each carrying `1/members` of the
/// launch overhead. A solo run is a batch of one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Launch {
    pub(crate) members: usize,
    pub(crate) wave_blocks: u64,
}

impl Launch {
    /// `members` grids of `blocks` thread blocks each.
    fn uniform(members: usize, blocks: u64) -> Self {
        Self {
            members,
            wave_blocks: members as u64 * blocks,
        }
    }

    fn share(&self) -> f64 {
        1.0 / self.members.max(1) as f64
    }
}

/// Why `plan` cannot sweep a grid whose halo is `halo` (`line`: the grid
/// is 1D): the dimensions differ, or the halo is narrower than the radius.
fn check(plan: &SpiderPlan, line: bool, halo: usize) -> Result<(), String> {
    let radius = plan.radius();
    if plan.is_1d() != line {
        Err("plan and grid dimensions differ".into())
    } else if halo < radius {
        Err(format!("grid halo {halo} < stencil radius {radius}"))
    } else {
        Ok(())
    }
}

/// SPIDER's simulated-GPU executor.
pub struct SpiderExecutor<'d> {
    device: &'d GpuDevice,
    mode: ExecMode,
    config: ExecConfig,
    /// Scratch store for ping-pong grids (and the 3D emulated path's
    /// partial plane). Fresh per executor by default;
    /// [`Self::with_shared_pool`] lets a serving runtime share one pool
    /// across every executor it constructs.
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
    /// batch of one ([`Self::run_2d_in_batch`]).
    ///
    /// The grid is quantized through FP16 (the storage type of the modeled
    /// pipeline) on entry and after every sweep.
    pub fn run_2d(
        &self,
        plan: &SpiderPlan,
        grid: &mut Grid2D<f32>,
        steps: usize,
    ) -> Result<KernelReport, String> {
        self.in_batch_2d(plan, grid, steps, 1, false)
    }

    /// [`Self::run_2d`] with every sweep on the emulated MMA path: the
    /// reference the tap schedule is tested against, bit for bit.
    #[doc(hidden)]
    pub fn run_2d_emulated(
        &self,
        plan: &SpiderPlan,
        grid: &mut Grid2D<f32>,
        steps: usize,
    ) -> Result<KernelReport, String> {
        self.in_batch_2d(plan, grid, steps, 1, true)
    }

    /// Run one grid as a member of a batched launch of `members` grids of
    /// its shape: the grid and report [`Self::run_2d_coalesced`] gives each
    /// grid of such a batch, bit for bit, with only this grid alive. A
    /// serving layer runs a coalesced group this way, one member at a time,
    /// so it holds one input and one scratch grid rather than the group's.
    pub fn run_2d_in_batch(
        &self,
        plan: &SpiderPlan,
        grid: &mut Grid2D<f32>,
        steps: usize,
        members: usize,
    ) -> Result<KernelReport, String> {
        self.in_batch_2d(plan, grid, steps, members, false)
    }

    fn in_batch_2d(
        &self,
        plan: &SpiderPlan,
        grid: &mut Grid2D<f32>,
        steps: usize,
        members: usize,
        emulate: bool,
    ) -> Result<KernelReport, String> {
        check(plan, false, grid.halo())?;
        let blocks = self.config.tiling.blocks_2d(grid.rows(), grid.cols());
        let launch = Launch::uniform(members, blocks);
        Ok(self.member_2d(plan, grid, steps, emulate, launch))
    }

    /// Sweep one 2D batch member and bill it to `launch`. Counters never
    /// depend on grid data, so every step is charged what one step is.
    fn member_2d(
        &self,
        plan: &SpiderPlan,
        grid: &mut Grid2D<f32>,
        steps: usize,
        emulate: bool,
        launch: Launch,
    ) -> KernelReport {
        self.sweep_2d(plan, grid, steps, emulate);
        let counters = self.charge_2d(plan, grid.rows(), grid.cols());
        self.batched_report(counters, steps, launch, (grid.rows() * grid.cols()) as u64)
    }

    /// The functional heart of every 2D run: quantize, then `steps`
    /// boundary-refill + sweep rounds, ping-ponging between the caller's
    /// grid and a pooled scratch grid that holds only the source's halo
    /// (the sweep writes every interior cell). The input quantize flags a
    /// non-finite source and each sweep's store flags a non-finite result;
    /// a flagged source (or `emulate`) takes the emulated path. The halo
    /// refill only copies interior values or writes zeros, so the store's
    /// flag covers the next source's whole padded storage.
    fn sweep_2d(&self, plan: &SpiderPlan, grid: &mut Grid2D<f32>, steps: usize, emulate: bool) {
        let mut non_finite = quantize_slice(grid.padded_mut());
        let (rows, cols, h, stride) = (grid.rows(), grid.cols(), grid.halo(), grid.stride());
        let out_rows = move || (h..h + rows).map(move |x| x * stride + h);
        let buf = self.pool.take_halo_of(grid.padded(), out_rows(), cols);
        let mut scratch = Grid2D::from_padded_vec(rows, cols, h, buf);
        for _ in 0..steps.max(1) {
            self.config.boundary.apply_2d(grid);
            let dst = scratch.padded_mut();
            non_finite = if emulate || non_finite {
                self.emulate_2d(plan, grid, dst)
            } else {
                let src = grid.padded();
                self.sweep_rows(out_rows(), cols, stride, &[(0, plan)], false, src, dst)
            };
            std::mem::swap(grid, &mut scratch);
        }
        self.pool.put(scratch.into_padded_vec());
    }

    /// Run `steps` sweeps of a 1D stencil — a batch of one
    /// ([`Self::run_1d_in_batch`]).
    pub fn run_1d(
        &self,
        plan: &SpiderPlan,
        grid: &mut Grid1D<f32>,
        steps: usize,
    ) -> Result<KernelReport, String> {
        self.in_batch_1d(plan, grid, steps, 1, false)
    }

    /// [`Self::run_1d`] with every sweep on the emulated MMA path (the
    /// reference; see [`Self::run_2d_emulated`]).
    #[doc(hidden)]
    pub fn run_1d_emulated(
        &self,
        plan: &SpiderPlan,
        grid: &mut Grid1D<f32>,
        steps: usize,
    ) -> Result<KernelReport, String> {
        self.in_batch_1d(plan, grid, steps, 1, true)
    }

    /// 1D counterpart of [`Self::run_2d_in_batch`].
    pub fn run_1d_in_batch(
        &self,
        plan: &SpiderPlan,
        grid: &mut Grid1D<f32>,
        steps: usize,
        members: usize,
    ) -> Result<KernelReport, String> {
        self.in_batch_1d(plan, grid, steps, members, false)
    }

    fn in_batch_1d(
        &self,
        plan: &SpiderPlan,
        grid: &mut Grid1D<f32>,
        steps: usize,
        members: usize,
        emulate: bool,
    ) -> Result<KernelReport, String> {
        check(plan, true, grid.halo())?;
        let launch = Launch::uniform(members, self.config.tiling.blocks_1d(grid.len()));
        Ok(self.member_1d(plan, grid, steps, emulate, launch))
    }

    /// Sweep one 1D batch member and bill it to `launch`.
    fn member_1d(
        &self,
        plan: &SpiderPlan,
        grid: &mut Grid1D<f32>,
        steps: usize,
        emulate: bool,
        launch: Launch,
    ) -> KernelReport {
        self.sweep_1d(plan, grid, steps, emulate);
        let counters = self.charge_1d(plan, grid.len());
        self.batched_report(counters, steps, launch, grid.len() as u64)
    }

    /// 1D counterpart of [`Self::sweep_2d`]: the grid is one row.
    fn sweep_1d(&self, plan: &SpiderPlan, grid: &mut Grid1D<f32>, steps: usize, emulate: bool) {
        let mut non_finite = quantize_slice(grid.padded_mut());
        let (n, h, t) = (grid.len(), grid.halo(), self.config.tiling);
        let buf = self.pool.take_halo_of(grid.padded(), once(h), n);
        let mut scratch = Grid1D::from_padded_vec(n, h, buf);
        for _ in 0..steps.max(1) {
            self.config.boundary.apply_1d(grid);
            let dst = scratch.padded_mut();
            non_finite = if emulate || non_finite {
                let out = &mut dst[h..h + n];
                (0..t.blocks_1d(n) as usize).fold(false, |non_finite, b| {
                    let t0 = b * t.block_1d;
                    let t1 = (t0 + t.block_1d).min(n);
                    self.compute_block_1d(plan, grid, t0, t1, out) | non_finite
                })
            } else {
                // One row; 1D steps have `dx` = 0, so the stride is never read.
                self.sweep_rows(once(h), n, 0, &[(0, plan)], false, grid.padded(), dst)
            };
            std::mem::swap(grid, &mut scratch);
        }
        self.pool.put(scratch.into_padded_vec());
    }

    /// Run a coalesced batch of 2D grids under one plan and one executor.
    ///
    /// This is the plan/executor-reuse primitive behind request coalescing:
    /// a serving layer that has grouped requests by kernel fingerprint hands
    /// the whole group to a single executor instead of constructing one per
    /// request. Grid *data* is bit-identical to a separate [`Self::run_2d`]
    /// call per grid with the same configuration (the executor holds no
    /// cross-grid state), and each grid's counters are strictly its own.
    /// Grids sweep one after another; each sweep fans out by its own work
    /// (see the module docs), so a batch of small grids spawns nothing.
    ///
    /// **Timing** models the batch as a *batched launch* per step: one
    /// kernel-launch overhead shared by the group (each member's report
    /// carries `1/n` of it) and the occupancy ramp driven by the group's
    /// combined block residency — the reason a serving layer coalesces small
    /// grids at all. [`Self::run_2d`] is the single-grid batch, and
    /// [`Self::run_2d_in_batch`] runs one member of a batch of equal shapes.
    ///
    /// `feedback` fires once per grid, in input order, right after the
    /// grid's last sweep. Results are delivered exclusively through the
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
            |g| check(plan, false, g.halo()).map(|()| t.blocks_2d(g.rows(), g.cols())),
            |g, launch| self.member_2d(plan, g, steps, false, launch),
        )
    }

    /// 1D counterpart of [`Self::run_2d_coalesced`] (same batched-launch
    /// timing, ordering and error semantics).
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
            |g| check(plan, true, g.halo()).map(|()| t.blocks_1d(g.len())),
            |g, launch| self.member_1d(plan, g, steps, false, launch),
        )
    }

    /// Dimension-generic body of the coalesced entry points: validate a
    /// prefix (`blocks` gives a valid grid's thread-block count; the first
    /// invalid grid aborts the batch), then sweep the valid grids in input
    /// order, each billed to the prefix's batched launch.
    fn run_coalesced_impl<G>(
        &self,
        grids: &mut [G],
        feedback: &mut dyn BatchFeedback,
        blocks: impl Fn(&G) -> Result<u64, String>,
        member: impl Fn(&mut G, Launch) -> KernelReport,
    ) -> Result<(), String> {
        let mut first_err: Option<String> = None;
        let mut launch = Launch {
            members: 0,
            wave_blocks: 0,
        };
        for (index, grid) in grids.iter().enumerate() {
            match blocks(grid) {
                Ok(b) => {
                    launch.members = index + 1;
                    launch.wave_blocks += b;
                }
                Err(e) => {
                    first_err = Some(format!("coalesced grid {index}: {e}"));
                    break;
                }
            }
        }
        for (index, grid) in grids[..launch.members].iter_mut().enumerate() {
            feedback.on_grid_done(index, &member(grid, launch));
        }
        first_err.map_or(Ok(()), Err)
    }

    /// The report of one batch member that runs `steps` identical steps,
    /// each one batched launch charged `counters` (see
    /// [`GpuDevice::report_batched`]).
    pub(crate) fn batched_report(
        &self,
        counters: PerfCounters,
        steps: usize,
        launch: Launch,
        points: u64,
    ) -> KernelReport {
        let dims = LaunchDims::new(launch.wave_blocks, self.config.tiling.threads_per_block());
        let step = self
            .device
            .report_batched(counters, dims, points, launch.share());
        back_to_back(&step, steps)
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

    // ------------------------------------------------------ tap schedule --

    /// The one tap-schedule path of every 1D, 2D and 3D sweep. `rows` are
    /// the storage indices of the output rows' first outputs, ascending;
    /// each row holds `width` outputs of `dst`. Step `s` of slice
    /// `(offset, plan)` reads `src[row + offset + dx·stride + dcol + y]`
    /// for output `y`. A plane (`volume` false, one slice) stores the
    /// slice's FP16 output straight into the row. A volume runs each slice
    /// into one row-sized buffer, adds the buffers in f32 in slice order
    /// from +0 and quantizes the sum, with one slice too (`+0 + −0` is +0).
    /// One fan-out, into [`jobs_for`] jobs: over rows, or over 16-aligned
    /// segments of a single row (1D). Read offsets are computed once per
    /// sweep and each job overwrites one fixed-length index buffer per row
    /// (a fresh one per row cost 12% on a 16×16 sweep; growing the sweep's
    /// vectors instead of sizing them cost 6% on a 16×16 `run_2d`).
    /// Returns whether any output is non-finite.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn sweep_rows(
        &self,
        rows: impl IntoIterator<Item = usize>,
        width: usize,
        stride: usize,
        slices: &[(isize, &SpiderPlan)],
        volume: bool,
        src: &[f32],
        dst: &mut [f32],
    ) -> bool {
        let schedules: Vec<&[TapStep]> = slices
            .iter()
            .map(|(_, plan)| plan.tap_schedule(self.mode).steps())
            .collect();
        let mut offsets = Vec::with_capacity(schedules.iter().map(|s| s.len()).sum());
        for (&(offset, _), steps) in slices.iter().zip(&schedules) {
            let stride = stride as isize;
            offsets.extend(steps.iter().map(|s| offset + s.dx * stride + s.dcol));
        }
        let rows = rows.into_iter();
        let mut outs: Vec<(usize, &mut [f32])> = Vec::with_capacity(rows.size_hint().0);
        let (mut rest, mut end) = (dst, 0);
        for row in rows {
            let (out, tail) = std::mem::take(&mut rest)[row - end..].split_at_mut(width);
            outs.push((row, out));
            (rest, end) = (tail, row + width);
        }
        let jobs = jobs_for(outs.len() * width * offsets.len());
        if let [(row, _)] = outs[..] {
            let segment = width.div_ceil(jobs).next_multiple_of(M_TILE);
            let (_, out) = outs.pop().expect("one row");
            outs = (row..)
                .step_by(segment)
                .zip(out.chunks_mut(segment))
                .collect();
        }
        let per_job = outs.len().div_ceil(jobs);
        let flags: Vec<bool> = outs
            .par_chunks_mut(per_job)
            .map(|job| {
                let mut starts = vec![0usize; offsets.len()];
                let mut partial = vec![0.0f32; if volume { width } else { 0 }];
                let mut non_finite = false;
                for (row, out) in job {
                    for (start, &offset) in starts.iter_mut().zip(&offsets) {
                        *start = row.wrapping_add_signed(offset);
                    }
                    if !volume {
                        non_finite |= run_span(schedules[0], &starts, src, out);
                        continue;
                    }
                    let partial = &mut partial[..out.len()];
                    out.fill(0.0);
                    let mut left = &starts[..];
                    for steps in &schedules {
                        let (starts, tail) = left.split_at(steps.len());
                        run_span(steps, starts, src, partial);
                        for (o, &p) in out.iter_mut().zip(partial.iter()) {
                            *o += p;
                        }
                        left = tail;
                    }
                    non_finite |= quantize_slice(out);
                }
                non_finite
            })
            .collect();
        flags.contains(&true)
    }

    // ---------------------------------------------------------------- 2D --

    /// The emulated MMA path of one 2D sweep of `src` into `dst` (padded
    /// storage of the same shape; only the interior is written), block by
    /// block. Returns whether any output is non-finite.
    pub(crate) fn emulate_2d(&self, plan: &SpiderPlan, src: &Grid2D<f32>, dst: &mut [f32]) -> bool {
        let t = self.config.tiling;
        let bg = BlockGrid::new(src.rows(), src.cols(), t.block_x, t.block_y);
        (0..bg.num_blocks() as u64).fold(false, |non_finite, b| {
            let (x0, x1, y0, y1) = bg.rect(b);
            self.compute_block_2d(plan, src, x0, x1, y0, y1, dst) | non_finite
        })
    }

    /// The counters of one 2D sweep over a `rows × cols` grid, memoized
    /// in the plan ([`SpiderPlan::charged`]): they depend only on the
    /// extent, the tiling, the mode and the row-swap strategy — never on
    /// grid data.
    pub(crate) fn charge_2d(&self, plan: &SpiderPlan, rows: usize, cols: usize) -> PerfCounters {
        plan.charged(self.charge_key(Extent::Plane(rows, cols)), || {
            self.closed_form_2d(plan, rows, cols)
        })
    }

    /// What this executor's sweeps over `extent` are charged under.
    fn charge_key(&self, extent: Extent) -> ChargeKey {
        ChargeKey {
            extent,
            tiling: self.config.tiling,
            mode: self.mode,
            row_swap: self.config.row_swap,
        }
    }

    /// [`Self::charge_2d`] derived afresh: the sum of the sweep's blocks'
    /// charges.
    fn closed_form_2d(&self, plan: &SpiderPlan, rows: usize, cols: usize) -> PerfCounters {
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

    /// The emulated MMA computation of one block, stored FP16-quantized
    /// straight into `dst` (padded storage shaped like `src`). Returns
    /// whether any stored output is non-finite.
    #[allow(clippy::too_many_arguments)]
    fn compute_block_2d(
        &self,
        plan: &SpiderPlan,
        src: &Grid2D<f32>,
        x0: usize,
        x1: usize,
        y0: usize,
        y1: usize,
        dst: &mut [f32],
    ) -> bool {
        let (h, stride) = (src.halo(), src.stride());
        let mut non_finite = false;
        let mut ty = 0;
        while y0 + ty * M_TILE < y1 {
            let y_base = y0 + ty * M_TILE;
            let mut tx = 0;
            while x0 + tx * N_TILE < x1 {
                let x_base = x0 + tx * N_TILE;
                let mut acc = [[0.0f32; 8]; 16];
                for unit in plan.units() {
                    self.mma_tile_2d(unit, src, plan.perm(), x_base, y_base, &mut acc);
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
                        let v = F16::quantize(acc[dy][n]);
                        non_finite |= !v.is_finite();
                        dst[(x + h) * stride + y + h] = v;
                    }
                }
                tx += 1;
            }
            ty += 1;
        }
        non_finite
    }

    /// One unit's two MMA K-slices on a 16×8 output tile: every B-fragment
    /// sample goes through the bounds-checked [`sample_2d`].
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

    // ---------------------------------------------------------------- 1D --

    /// 1D counterpart of [`Self::charge_2d`].
    fn charge_1d(&self, plan: &SpiderPlan, n: usize) -> PerfCounters {
        plan.charged(self.charge_key(Extent::Line(n)), || {
            self.closed_form_1d(plan, n)
        })
    }

    /// 1D counterpart of [`Self::closed_form_2d`].
    fn closed_form_1d(&self, plan: &SpiderPlan, n: usize) -> PerfCounters {
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

    /// The emulated MMA computation of 1D outputs `t0..t1`, stored
    /// FP16-quantized into `out` (the destination's interior). Returns
    /// whether any stored output is non-finite.
    fn compute_block_1d(
        &self,
        plan: &SpiderPlan,
        src: &Grid1D<f32>,
        t0: usize,
        t1: usize,
        out: &mut [f32],
    ) -> bool {
        let mut non_finite = false;
        let groups = (t1 - t0).div_ceil(M_TILE * N_TILE);
        for g in 0..groups {
            let g0 = t0 + g * M_TILE * N_TILE;
            let mut acc = [[0.0f32; 8]; 16];
            for unit in plan.units() {
                let ur = unit.radius as isize;
                let mut dead = PerfCounters::new(); // issue counts charged in the charge pass
                match self.mode {
                    ExecMode::DenseTc => {
                        let slices = unit.sparse.dense_slices();
                        for (k, a) in slices.iter().enumerate() {
                            let b = gather_1d(src, g0, unit, ur, |dy| 16 * k + dy);
                            mma_m16n8k16(&mut dead, a, &b, &mut acc);
                        }
                    }
                    _ => {
                        for (k, slice) in unit.sparse.slices.iter().enumerate() {
                            let b = gather_1d(src, g0, unit, ur, |dy| plan.perm()[16 * k + dy]);
                            mma_sp_m16n8k16(&mut dead, slice, &b, &mut acc);
                        }
                    }
                }
            }
            for n in 0..N_TILE {
                for dy in 0..M_TILE {
                    let idx = g0 + n * M_TILE + dy;
                    if idx < t1 {
                        let v = F16::quantize(acc[dy][n]);
                        non_finite |= !v.is_finite();
                        out[idx] = v;
                    }
                }
            }
        }
        non_finite
    }
}

/// A sweep's per-warp and per-tile counter deltas, computed once per
/// closed-form charge: every charge depends only on block shape, plan,
/// mode and row-swap strategy, so a block's counters are these deltas
/// scaled by its warp and tile counts ([`PerfCounters::scaled`] by `(n, 1)`
/// is exact).
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

/// Sample a padded plane at signed interior coordinates, returning 0
/// outside the padded extent (only placeholder-slot B elements ever land
/// there; they are multiplied by structural zeros).
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

    fn quantize_grid_2d(grid: &mut Grid2D<f32>) {
        quantize_slice(grid.padded_mut());
    }

    fn quantize_grid_1d(grid: &mut Grid1D<f32>) {
        quantize_slice(grid.padded_mut());
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
                    let got = exec.charge_2d(&plan, rows, cols);
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

    /// Sweeps of at least two jobs' worth of step-points (split across the
    /// cores when there are several) give the emulation's bits. Every other
    /// test sweep fits one job.
    #[test]
    fn sweeps_large_enough_to_split_match_the_emulation() {
        let dev = device();
        let exec = SpiderExecutor::new(&dev, ExecMode::SparseTcOptimized);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let steps_of =
            |plan: &SpiderPlan| plan.tap_schedule(ExecMode::SparseTcOptimized).steps().len();

        let heat = SpiderPlan::compile(&StencilKernel::heat_2d(0.1)).unwrap();
        let (rows, cols) = (600, 1000);
        assert!(rows * cols * steps_of(&heat) >= 2 * MIN_JOB_STEP_POINTS);
        let mut fast = Grid2D::<f32>::random(rows, cols, 1, 80);
        let mut reference = fast.clone();
        exec.run_2d(&heat, &mut fast, 1).unwrap();
        exec.run_2d_emulated(&heat, &mut reference, 1).unwrap();
        assert_eq!(bits(fast.padded()), bits(reference.padded()));

        let wave = SpiderPlan::compile(&StencilKernel::wave_1d(2)).unwrap();
        let n = 1 << 19;
        assert!(n * steps_of(&wave) >= 2 * MIN_JOB_STEP_POINTS);
        let mut fast = Grid1D::<f32>::random(n, 2, 81);
        let mut reference = fast.clone();
        exec.run_1d(&wave, &mut fast, 1).unwrap();
        exec.run_1d_emulated(&wave, &mut reference, 1).unwrap();
        assert_eq!(bits(fast.padded()), bits(reference.padded()));
    }

    /// [`BatchFeedback`] collector used by the coalesced-path tests.
    #[derive(Default)]
    struct Collect {
        order: Vec<usize>,
        reports: Vec<KernelReport>,
    }

    impl BatchFeedback for Collect {
        fn on_grid_done(&mut self, index: usize, report: &KernelReport) {
            self.order.push(index);
            self.reports.push(report.clone());
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

//! # SPIDER
//!
//! Facade crate for the SPIDER workspace — a reproduction of
//! *"SPIDER: Unleashing Sparse Tensor Cores for Stencil Computation via
//! Strided Swapping"* (PPoPP 2026).
//!
//! SPIDER converts stencil computation into 2:4 structured-sparse matrix
//! multiplication executable on (simulated) Sparse Tensor Cores. The pipeline:
//!
//! 1. Decompose the stencil kernel by rows and build banded kernel matrices
//!    ([`spider_core::kernel_matrix`]).
//! 2. Apply the ahead-of-time *strided swapping* column permutation so every
//!    contiguous 4-element group holds at most two non-zeros
//!    ([`spider_core::swap`]).
//! 3. Compress to the hardware value+metadata format
//!    ([`spider_core::encode`]).
//! 4. At runtime, fold the matching input *row swap* into the
//!    shared-memory→register offset computation at zero cost
//!    ([`spider_core::row_swap`]).
//! 5. Execute on the simulated GPU with hierarchical tiling and data packing
//!    ([`spider_core::exec`]).
//!
//! ## Quickstart
//!
//! ```
//! use spider::prelude::*;
//!
//! // A Box-2D1R stencil (3x3 kernel) on a 256x256 grid.
//! let kernel = StencilKernel::box_2d(1, &[
//!     0.05, 0.10, 0.05,
//!     0.10, 0.40, 0.10,
//!     0.05, 0.10, 0.05,
//! ]);
//! let mut grid = Grid2D::random(256, 256, kernel.radius(), 42);
//!
//! // Compile once (ahead of time), run many times.
//! let plan = SpiderPlan::compile(&kernel).unwrap();
//! let gpu = GpuDevice::new(GpuSpecs::a100_pcie_80gb());
//! let report = SpiderExecutor::new(&gpu, ExecMode::SparseTcOptimized)
//!     .run_2d(&plan, &mut grid, 1)
//!     .unwrap();
//!
//! // The simulated result matches the scalar oracle.
//! let mut oracle = Grid2D::random(256, 256, kernel.radius(), 42);
//! reference::apply_2d(&kernel, &mut oracle, 1);
//! assert!(grid.max_abs_diff(&oracle) < 1e-3);
//! assert!(report.gstencils_per_sec() > 0.0);
//! ```
//!
//! ## Runtime / serving
//!
//! The compile-once/run-forever split above is what a serving deployment
//! wants to exploit at scale: SPIDER's `O(1)` ahead-of-time compile only
//! beats DRStencil-style tuning if plans are compiled once, cached, and
//! reused across every request that shares a kernel. [`runtime`]
//! (`spider-runtime`) packages exactly that: a content-addressed LRU
//! [`runtime::PlanCache`], a memoizing tiling [`runtime::AutoTuner`] scored
//! by the [`analysis`] cost model plus simulator dry-runs, and a batch
//! entry point ([`runtime::SpiderRuntime::run_batch`]) that groups
//! heterogeneous [`runtime::StencilRequest`]s by plan fingerprint and
//! reports aggregate throughput. See `examples/serving.rs` for a mixed
//! workload pushed through the runtime twice (the second batch is all cache
//! hits).
//!
//! ```
//! use spider::prelude::*;
//!
//! let rt = SpiderRuntime::with_defaults(GpuDevice::a100());
//! let report = rt.run_batch(&[
//!     StencilRequest::new_2d(0, StencilKernel::heat_2d(0.1), 128, 128),
//!     StencilRequest::new_2d(1, StencilKernel::heat_2d(0.1), 128, 128),
//!     StencilRequest::new_1d(2, StencilKernel::wave_1d(2), 1 << 16),
//! ]);
//! assert_eq!(report.outcomes.len(), 3);
//! assert_eq!(report.cache.hits, 1); // requests 0 and 1 share a plan
//! ```

pub use spider_analysis as analysis;
pub use spider_baselines as baselines;
pub use spider_cluster as cluster;
pub use spider_core as core;
pub use spider_fft as fft;
pub use spider_gpu_sim as gpu_sim;
pub use spider_runtime as runtime;
pub use spider_stencil as stencil;
pub use spider_telemetry as telemetry;

/// Commonly used items across the workspace.
pub mod prelude {
    pub use spider_cluster::{
        ClusterError, ClusterOptions, ClusterReport, ClusterTicket, DeviceSpec, FaultPlan,
        HealthReport, HealthState, KillTrigger, RecoveryReport, SpiderCluster,
    };
    pub use spider_core::{
        encode::Sparse24Kernel,
        exec::{ExecMode, SpiderExecutor},
        exec3d::{Spider3DExecutor, Spider3DPlan},
        plan::SpiderPlan,
        swap::{strided_swap, SwapParity},
        tiling::TilingConfig,
    };
    pub use spider_gpu_sim::{
        counters::PerfCounters, specs::GpuSpecs, timing::KernelReport, GpuDevice,
    };
    pub use spider_runtime::{
        BackpressurePolicy, CacheStats, Deadline, FailureReason, GridSpec, Priority, QueueStats,
        RequestKernel, RequestOutcome, RequestStatus, RuntimeOptions, RuntimeReport,
        SchedulerOptions, SpiderRuntime, SpiderScheduler, StencilRequest, SubmitError,
        TenantConfig, TenantId, Ticket,
    };
    pub use spider_stencil::{
        dim3::{Grid3D, Kernel3D},
        exec::reference,
        grid::{Grid1D, Grid2D},
        kernel::StencilKernel,
        shape::{ShapeKind, StencilShape},
    };
    pub use spider_telemetry::{Telemetry, TelemetryConfig};
}

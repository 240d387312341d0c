//! # spider-core
//!
//! The paper's primary contribution: transforming stencil computation into
//! 2:4 structured-sparse matrix multiplication executable on Sparse Tensor
//! Cores, via *strided swapping*.
//!
//! ## Pipeline (ahead of time, per stencil kernel — independent of the grid)
//!
//! 1. [`kernel_matrix`] — decompose the stencil kernel by rows (§3.1.1) and
//!    build one banded kernel matrix per row by repeating the row's
//!    coefficients along the diagonal. The paper's `L = 2r+2` tile analysis
//!    pins the sparsity ratio just above 50%.
//! 2. [`swap`] — the strided swapping transformation (§3.1.2): swap column
//!    `j` with column `j+L` for every even `j`. A bandwidth argument (proved
//!    in the module docs, checked by property tests) shows the result is
//!    always 2:4 for `2r+1 ≤ L−1`.
//! 3. [`encode`] — compress to the SpTC value+metadata format (§3.1.2,
//!    stage 3), including the placeholder-zero rule.
//! 4. [`packing`] — reorder the compressed values and metadata for coalesced
//!    per-thread access and shared metadata registers (§3.3.2, Figs 8–9).
//!
//! ## Pipeline (runtime, per sweep)
//!
//! 5. [`row_swap`] — the matching input-row permutation, folded into the
//!    B-fragment offset computation at zero instruction cost (§3.2).
//! 6. [`tiling`] + [`exec`] — hierarchical block/warp/MMA tiling (§3.3.1)
//!    driving the simulated `mma.sp.m16n8k16` units of `spider-gpu-sim`.
//!
//! [`plan::SpiderPlan`] bundles steps 1–4; [`exec::SpiderExecutor`] runs
//! steps 5–6 and returns both a numerically verified grid and a
//! [`spider_gpu_sim::KernelReport`] with simulated performance.

// Fragment/tile math is written with explicit indices on purpose: the loops
// mirror the PTX thread↔element layouts they model, and iterator rewrites
// obscure that correspondence.
#![allow(clippy::needless_range_loop)]

pub mod encode;
pub mod exec;
pub mod exec3d;
pub mod kernel_matrix;
pub mod packing;
pub mod plan;
pub mod pool;
pub mod row_swap;
pub mod schedule;
pub mod swap;
pub mod sync;
pub mod tiling;

pub use exec::{BatchFeedback, ExecConfig, ExecMode, SpiderExecutor};
pub use plan::SpiderPlan;
pub use pool::{BufferPool, PoolStats};
pub use row_swap::RowSwapStrategy;
pub use swap::SwapParity;
pub use sync::{LockRank, OrderedMutex, OrderedRwLock};
pub use tiling::TilingConfig;

/// The MMA M-extent: output positions produced per kernel-matrix row tile.
/// Matches `mma.sp.m16n8k16` and the paper's §3.2 worked example (r = 7,
/// `L = 16`, two `k16` invocations over the padded 16×32 kernel matrix).
pub const M_TILE: usize = 16;

/// Padded K-extent of every compiled kernel matrix: two `k16` MMA slices.
pub const K_PAD: usize = 32;

/// Maximum stencil radius the single-level transformation supports: the
/// banded row must fit a 2:4 pattern after swapping, which requires
/// `2r+1 ≤ M_TILE−1`. Larger radii are handled by column-splitting kernel
/// rows into radius-≤7 chunks (see [`kernel_matrix::split_wide_row`]).
pub const MAX_NATIVE_RADIUS: usize = 7;

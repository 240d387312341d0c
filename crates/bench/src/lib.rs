//! # spider-bench
//!
//! The reproduction harness: one driver per table/figure of the paper's
//! evaluation (§4), shared by the `repro` binary and the Criterion benches.
//!
//! | Paper artifact | Driver |
//! |---|---|
//! | Table 1 (redundancy formulas)    | `spider_analysis::tables::table1` |
//! | Table 2 (Box-2D3R cost/point)    | `spider_analysis::tables::table2` |
//! | Table 3 (row-swap zero cost)     | [`table3`] |
//! | Fig 10 (performance comparison)  | [`fig10`] |
//! | Fig 11 (scaling trend)           | [`fig11`] |
//! | Fig 12 (ablation breakdown)      | [`fig12`] |
//!
//! Beyond the paper artifacts, [`traffic`] is the deterministic
//! multi-tenant traffic generator behind the serving-SLO bench metrics
//! (`*_p99_wait_us` in `BENCH_runtime.json`) and the noisy-neighbor
//! example scenes.

pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod report;
pub mod suite;
pub mod table3;
pub mod traffic;

pub use report::{render, write_bench_json, Series};
pub use suite::{benchmark_kernel, MethodResult};

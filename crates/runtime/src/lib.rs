//! # spider-runtime
//!
//! The serving layer between user traffic and the SPIDER pipeline: a plan
//! cache, a tiling autotuner and a batched scheduler behind one
//! [`SpiderRuntime`] handle.
//!
//! The core pipeline (`spider-core`) answers "how do I run *one* stencil as
//! sparse tensor-core MMAs"; this crate answers "how do I serve *millions*
//! of heterogeneous stencil requests without recompiling or re-guessing
//! tilings". SPIDER's selling point — an `O(1)` ahead-of-time compile,
//! versus DRStencil's hour-long tuning or LoRAStencil's `O(L³)`
//! decomposition — only pays off if each compiled plan is cached once and
//! reused across every sweep that shares its kernel; the runtime makes that
//! reuse structural.
//!
//! ## Architecture
//!
//! ```text
//!  StencilRequest queue (heterogeneous: 1D/2D/3D, box/star, any radius/size)
//!        │
//!        ▼
//!  ┌─────── SpiderRuntime::run_batch / execute (a group of one) ────────┐
//!  │                                                                    │
//!  │  group by plan_key ──► fan_out over `workers` threads, the caller  │
//!  │                        one of them; one worker spawns no thread    │
//!  │                           │  │  │                                  │
//!  │                           ▼  ▼  ▼      run_group, per group:       │
//!  │   ┌───────────┐   ┌─────────────────┐                              │
//!  │   │ PlanCache │◄──┤ 1. plan lookup  │  fingerprint(kernel, mode)   │
//!  │   │ LRU, Arc- │   │    (compile on  │  → Arc<SpiderPlan>, once per │
//!  │   │ shared    │──►│     miss)       │  request                     │
//!  │   └───────────┘   ├─────────────────┤                              │
//!  │   ┌───────────┐   │ 2. tiling      │  closed-form pre-rank         │
//!  │   │ AutoTuner │◄──┤    selection   │  (spider-analysis::tuning)    │
//!  │   │ memoized  │──►│                │  + simulator dry-run          │
//!  │   └───────────┘   ├────────────────┤                               │
//!  │                   │ 3. execute     │  run_*_coalesced (3D: run)    │
//!  │                   │    (simulated) │  per exec-key subgroup →      │
//!  │                   │                │  KernelReport + checksum each │
//!  │                   └────────────────┘                               │
//!  └────────────────────────────┬───────────────────────────────────────┘
//!                               ▼
//!                RuntimeReport: per-request outcomes (submission order),
//!                requests/s, simulated GStencil/s, cache hit statistics
//! ```
//!
//! ## The three subsystems
//!
//! * [`cache::PlanCache`] — content-addressed plan storage. Keys are the
//!   request's [`StencilRequest::plan_key`]: a stable FNV-1a fingerprint of
//!   the kernel coefficients, shape and execution mode. LRU-bounded, with
//!   exact hit/miss/eviction counters ([`cache::CacheStats`]).
//! * [`tuner::AutoTuner`] — per-(plan, grid) tiling selection: enumerate a
//!   candidate lattice, pre-rank with the closed-form
//!   [`spider_analysis::tuning`] score, dry-run the short list (plus the
//!   default config) on the simulator, memoize the winner. The default is
//!   always in the dry-run set, so the tuned config never loses to it under
//!   the simulator's metric.
//! * [`runtime::SpiderRuntime`] — one request path,
//!   [`SpiderRuntime::run_group`]: single-request execution
//!   ([`SpiderRuntime::execute`]) is a group of one, and batched serving
//!   ([`SpiderRuntime::run_batch`]) groups requests by plan key so one
//!   group member pays compile+tune and the rest hit, then fans the groups
//!   out over [`RuntimeOptions::workers`] threads; results aggregate into a
//!   [`report::RuntimeReport`].
//! * [`scheduler::SpiderScheduler`] — the async front end: `submit` returns
//!   a [`scheduler::Ticket`] immediately, `poll` reports progress, `drain`
//!   blocks until quiescence. A bounded admission queue applies a
//!   [`scheduler::BackpressurePolicy`] (`Block`/`Reject`/
//!   `ShedLowestPriority`); requests carry a [`request::Priority`] (aged to
//!   prevent starvation) and an optional [`request::Deadline`] (expired
//!   requests never execute). Each dispatch wave coalesces the
//!   top-priority cohort by plan key through [`SpiderRuntime::run_group`],
//!   which shares one executor per exec-key subgroup via the
//!   `spider_core` coalesced entry points. The queue is indexed, so a
//!   wave costs O(wave), not O(queue). Waves fan their groups out the way
//!   `run_batch` does, over the runtime's workers with the dispatcher
//!   thread as one of them, so a one-worker wave spawns no thread.
//!
//! ## Quickstart
//!
//! ```
//! use spider_runtime::{RuntimeOptions, SpiderRuntime, StencilRequest};
//! use spider_gpu_sim::GpuDevice;
//! use spider_stencil::StencilKernel;
//!
//! let rt = SpiderRuntime::with_defaults(GpuDevice::a100());
//! let batch: Vec<StencilRequest> = (0..8)
//!     .map(|i| StencilRequest::new_2d(i, StencilKernel::gaussian_2d(2), 96, 128))
//!     .collect();
//! let report = rt.run_batch(&batch);
//! assert_eq!(report.outcomes.len(), 8);
//! // One compile, seven cache hits:
//! assert_eq!(report.cache.misses, 1);
//! assert_eq!(report.cache.hits, 7);
//! ```

pub mod cache;
pub mod report;
pub mod request;
pub mod runtime;
pub mod scheduler;
pub mod store;
pub mod tuner;

pub use cache::{CacheAutosize, CacheStats, CachedPlan, PlanCache};
pub use report::{QueueStats, RequestOutcome, RuntimeReport, WaitHistogram};
pub use request::{
    Deadline, GridSpec, Priority, RequestKernel, StencilRequest, StencilRequestBuilder, TenantId,
};
pub use runtime::{output_checksum, RuntimeError, RuntimeOptions, SpiderRuntime};
pub use scheduler::{
    BackpressurePolicy, FailureReason, KillReport, RequestStatus, SchedulerOptions,
    SpiderScheduler, Submit, SubmitError, TenantConfig, Ticket,
};
pub use store::{PersistedMemo, PlanStore, StoreGcPolicy, StoreStats};
pub use tuner::{AutoTuner, TuneOutcome};

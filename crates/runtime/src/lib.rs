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
//!  ┌───── run_batch, or one scheduler wave (execute: a group of one) ─────┐
//!  │                                                                      │
//!  │  group by plan_key ──► prepare_wave: steps 1–2 for every group on    │
//!  │                        │  the caller, then step 3 as one job per     │
//!  │                        │  MIN_WAVE_JOB_COST of work (at most one per │
//!  │                        │  request and per core)                      │
//!  │                        ▼                                             │
//!  │ ┌───────────┐   ┌─────────────────┐   run_group, per group:          │
//!  │ │ PlanCache │◄──┤ 1. plan lookup  │   fingerprint(kernel, mode)      │
//!  │ │ LRU, Arc- │   │    (compile on  │   → Arc<SpiderPlan>, once per    │
//!  │ │ shared    │──►│     miss)       │   request                        │
//!  │ └───────────┘   ├─────────────────┤                                  │
//!  │ ┌───────────┐   │ 2. tiling       │   closed-form pre-rank           │
//!  │ │ AutoTuner │◄──┤    selection    │   (spider-analysis::tuning)      │
//!  │ │ memoized  │──►│                 │   + simulator dry-run            │
//!  │ └───────────┘   ├─────────────────┤                                  │
//!  │                 │ 3. execute      │   run_{1d,2d}_in_batch (3D: run) │
//!  │                 │    (simulated)  │   per request, on any job, as a  │
//!  │                 │                 │   member of its exec-key         │
//!  │                 │                 │   subgroup → KernelReport +      │
//!  │                 │                 │   checksum each                  │
//!  │                 └─────────────────┘                                  │
//!  └────────────────────────────┬─────────────────────────────────────────┘
//!                               ▼
//!                RuntimeReport: per-request outcomes (submission order),
//!                requests/s, simulated GStencil/s, cache hit statistics
//! ```
//!
//! ## The three subsystems
//!
//! * [`cache::PlanCache`] — content-addressed plan storage. Keys are the
//!   request's [`StencilRequest::plan_key`]: a stable FNV-1a fingerprint of
//!   the kernel coefficients, shape and execution mode, never the tenant,
//!   so tenants share plans. One LRU bound over all entries, with exact
//!   hit/miss/eviction counters ([`cache::CacheStats`]); tenancy (weights,
//!   quotas, per-tenant rows) lives in the scheduler alone.
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
//!   group member pays compile+tune and the rest hit; results aggregate
//!   into a [`report::RuntimeReport`]. `run_batch` runs its groups as one
//!   wave, as the scheduler runs each dispatch: `prepare_wave` resolves
//!   and tunes every group on the calling thread, then runs the requests
//!   as one job per [`runtime::MIN_WAVE_JOB_COST`] of work, at most one
//!   per request and per core, so a wave of small requests stays on the
//!   calling thread. A fanned-out wave's jobs claim single requests,
//!   largest first, so one group's members may run on different jobs, and
//!   the wave reserves two pooled buffers per job before they start.
//!   There is one level of parallelism: a wave one of whose sweeps would
//!   split by itself (at [`spider_core::exec::MIN_JOB_STEP_POINTS`]
//!   step-points, which no `mixed_warm` request reaches) runs as one job.
//!   Each member of an exec-key subgroup runs alone, through its claim's
//!   executor, configured with the subgroup's tiling
//!   ([`spider_core::SpiderExecutor::run_2d_in_batch`], its 1D twin, or
//!   `Spider3DExecutor::run` for volumes), billed its share of the
//!   subgroup's one batched launch.
//! * [`scheduler::SpiderScheduler`] — the async front end: `submit` returns
//!   a [`scheduler::Ticket`] immediately, `poll` reports progress, `drain`
//!   blocks until quiescence. A bounded admission queue applies a
//!   [`scheduler::BackpressurePolicy`] (`Block`/`Reject`/
//!   `ShedLowestPriority`); requests carry a [`request::Priority`] (aged to
//!   prevent starvation) and an optional [`request::Deadline`] (expired
//!   requests never execute). Each dispatch wave takes the top-priority
//!   cohort (one deficit-round-robin round of it when tenants are
//!   registered, filled up to one job's work for a tenant alone in it),
//!   groups it by plan key and runs it as one wave, the way
//!   `run_batch` does, with the dispatcher thread as one of its jobs. The
//!   queue is indexed, so a wave costs O(wave), not O(queue). Every ticket
//!   enters through one admission path and gets its verdict, counted in
//!   its tenant's row, in one place.
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
pub mod tuner;

pub use cache::{CacheStats, CachedPlan, PlanCache};
pub use report::{QueueStats, RequestOutcome, RuntimeReport};
pub use request::{Deadline, GridSpec, Priority, RequestKernel, StencilRequest, TenantId};
pub use runtime::{output_checksum, RuntimeError, RuntimeOptions, SpiderRuntime};
pub use scheduler::{
    BackpressurePolicy, FailureReason, KillReport, RequestStatus, SchedulerOptions,
    SpiderScheduler, SubmitError, TenantConfig, Ticket, DONE_RETENTION,
};
pub use tuner::{AutoTuner, TuneOutcome};

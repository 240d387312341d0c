//! The runtime itself: plan cache + autotuner + the one request path
//! ([`SpiderRuntime::run_group`]) and its group fan-out, behind one handle.

use spider_core::sync::{LockRank, OrderedMutex};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use spider_core::exec::{BatchFeedback, ExecConfig, SpiderExecutor};
use spider_core::exec3d::Spider3DExecutor;
use spider_core::plan::PlanError;
use spider_core::pool::{BufferPool, PoolStats};
use spider_core::tiling::TilingConfig;
use spider_gpu_sim::timing::KernelReport;
use spider_gpu_sim::GpuDevice;
use spider_stencil::dim3::Grid3D;
use spider_stencil::{Grid1D, Grid2D};
use spider_telemetry::{
    Counter, EventKind, Histogram, Phase, ResolveSource, Telemetry, TelemetryConfig, Terminal,
};

use crate::cache::{CacheAutosize, CacheStats, CachedPlan, PlanCache};
use crate::report::{RequestOutcome, RuntimeReport};
use crate::request::{GridSpec, RequestKernel, StencilRequest, TenantId};
use crate::store::{PersistedMemo, PlanStore, StoreStats};
use crate::tuner::AutoTuner;

/// Errors a request can fail with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// Plan compilation failed (empty kernel, 2:4 violation).
    Plan(PlanError),
    /// Request grid dimensionality does not match its kernel.
    DimensionMismatch { id: u64, scenario: String },
    /// The simulated executor rejected the run.
    Exec(String),
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Plan(e) => write!(f, "plan compilation failed: {e}"),
            RuntimeError::DimensionMismatch { id, scenario } => {
                write!(
                    f,
                    "request {id} ({scenario}): grid/kernel dimensionality mismatch"
                )
            }
            RuntimeError::Exec(e) => write!(f, "execution failed: {e}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<PlanError> for RuntimeError {
    fn from(e: PlanError) -> Self {
        RuntimeError::Plan(e)
    }
}

/// Construction-time knobs for [`SpiderRuntime`].
#[derive(Debug, Clone, Copy)]
pub struct RuntimeOptions {
    /// Plan-cache capacity (entries).
    pub cache_capacity: usize,
    /// Worker threads that plan-key groups fan out over, in
    /// [`SpiderRuntime::run_batch`] and in the waves of a
    /// [`crate::SpiderScheduler`] serving this runtime; `0` = half the
    /// available cores (the per-request simulation is itself
    /// block-parallel, so full-width fan-out oversubscribes), `1` = every
    /// group on the calling thread, in order.
    pub workers: usize,
    /// Whether to autotune tilings (`false` = always the default config).
    pub autotune: bool,
    /// Functional measurement cap for tuner dry-runs (points).
    pub tuner_dry_run_cap: usize,
    /// Candidates (beyond the default) the tuner dry-runs per scenario.
    pub tuner_shortlist: usize,
    /// Scenarios the tuner memoizes before FIFO-evicting the oldest.
    pub tuner_memo_capacity: usize,
    /// Observability configuration (tracing, metrics, profiling). Defaults
    /// to enabled-but-cheap; see [`spider_telemetry::TelemetryConfig`].
    /// Telemetry never changes execution — outputs and `PerfCounters` are
    /// bit-identical with it on or off (property-tested).
    pub telemetry: TelemetryConfig,
    /// When set, the plan cache re-derives its capacity from the observed
    /// working-set entropy ([`CacheAutosize`]); `cache_capacity` is the
    /// starting point. `None` keeps the fixed capacity.
    pub cache_autosize: Option<CacheAutosize>,
}

impl Default for RuntimeOptions {
    fn default() -> Self {
        Self {
            cache_capacity: 64,
            workers: 0,
            autotune: true,
            tuner_dry_run_cap: 1 << 14,
            tuner_shortlist: 4,
            tuner_memo_capacity: 1024,
            telemetry: TelemetryConfig::default(),
            cache_autosize: None,
        }
    }
}

/// Pre-resolved metrics-registry handles for the request hot path.
/// Resolving a metric by name costs a map lock and a string compare; doing
/// it once at construction keeps the per-request cost to plain atomic
/// increments. A disabled runtime gets detached handles (fresh atomics
/// registered nowhere), so the registry of a telemetry-off runtime stays
/// empty.
#[derive(Debug, Default)]
struct RuntimeMeters {
    completed: Counter,
    failed: Counter,
    volumetric: Counter,
    compiles: Counter,
    service_us: Histogram,
    sim_exec_us: Histogram,
}

impl RuntimeMeters {
    fn new(telemetry: &Telemetry) -> Self {
        if !telemetry.enabled() {
            return Self::default();
        }
        let m = telemetry.metrics();
        Self {
            completed: m.counter("spider_runtime_requests_completed_total"),
            failed: m.counter("spider_runtime_requests_failed_total"),
            volumetric: m.counter("spider_runtime_volumetric_completed_total"),
            compiles: m.counter("spider_runtime_plan_compiles_total"),
            service_us: m.histogram("spider_runtime_service_time_us"),
            sim_exec_us: m.histogram("spider_runtime_sim_exec_us"),
        }
    }
}

/// The serving layer: owns one simulated device, a plan cache and an
/// autotuner, and executes single requests or heterogeneous batches.
pub struct SpiderRuntime {
    device: GpuDevice,
    cache: PlanCache,
    tuner: AutoTuner,
    options: RuntimeOptions,
    /// Scratch-buffer pool shared (shallow clones) with every executor this
    /// runtime configures, so ping-pong grids and block output tiles are
    /// recycled *across requests* — a warm runtime stops allocating.
    pool: BufferPool,
    /// Optional durable plan + memo storage. When attached, plan-cache
    /// misses consult the store before compiling, fresh compiles write
    /// through, and [`Self::persist`] snapshots cache + tuner memos.
    store: Option<Arc<PlanStore>>,
    /// Observability: trace ring, metrics registry and phase profiler.
    /// `Arc` so the scheduler (and cluster) can share the same sinks.
    telemetry: Arc<Telemetry>,
    meters: RuntimeMeters,
}

impl SpiderRuntime {
    pub fn new(device: GpuDevice, options: RuntimeOptions) -> Self {
        let telemetry = Arc::new(Telemetry::new(options.telemetry));
        let meters = RuntimeMeters::new(&telemetry);
        let cache = PlanCache::new(options.cache_capacity);
        if let Some(autosize) = options.cache_autosize {
            cache.enable_autosize(autosize);
        }
        Self {
            cache,
            tuner: AutoTuner::with_memo_capacity(
                options.tuner_dry_run_cap,
                options.tuner_shortlist,
                options.tuner_memo_capacity,
            ),
            device,
            options,
            pool: BufferPool::new(),
            store: None,
            telemetry,
            meters,
        }
    }

    /// A runtime with default options on the given device.
    pub fn with_defaults(device: GpuDevice) -> Self {
        Self::new(device, RuntimeOptions::default())
    }

    /// A runtime backed by a durable [`PlanStore`]: plan-cache misses
    /// consult the store before compiling (a store hit deserializes and
    /// never runs the pipeline), compiles write through, and tuner memos
    /// persisted by a previous process for this device's spec fingerprint
    /// are imported immediately — the warm-start path a restarted or
    /// scaled-out fleet takes.
    pub fn with_store(device: GpuDevice, options: RuntimeOptions, store: Arc<PlanStore>) -> Self {
        let mut rt = Self::new(device, options);
        let spec_key = rt.device.specs().fingerprint();
        rt.tuner.import_memos(
            store
                .load_memos(spec_key)
                .into_iter()
                .map(|m| ((m.plan_key, m.grid), m.outcome)),
        );
        rt.store = Some(store);
        rt
    }

    /// The attached plan store, if any.
    pub fn store(&self) -> Option<&Arc<PlanStore>> {
        self.store.as_ref()
    }

    /// Store traffic counters (zeros when no store is attached).
    pub fn store_stats(&self) -> StoreStats {
        self.store.as_ref().map(|s| s.stats()).unwrap_or_default()
    }

    /// Snapshot every cached plan and every settled tuner memo into the
    /// attached store. Returns the number of plans written, or 0 when no
    /// store is attached. Write errors are returned — persistence is an
    /// explicit operation, unlike the best-effort write-through on compile.
    pub fn persist(&self) -> std::io::Result<usize> {
        let Some(store) = &self.store else {
            return Ok(0);
        };
        let entries = self.cache.entries();
        for (key, plan) in &entries {
            store.save_entry(*key, plan)?;
        }
        let memos: Vec<PersistedMemo> = self
            .tuner
            .export_memos()
            .into_iter()
            .map(|((plan_key, grid), outcome)| PersistedMemo {
                plan_key,
                grid,
                outcome,
            })
            .collect();
        store.save_memos(self.device.specs().fingerprint(), &memos)?;
        Ok(entries.len())
    }

    /// Register (or replace) `tenant`'s plan-cache policy: a `reserve`
    /// other tenants can never evict it below and an optional `cap` at
    /// which it evicts its own LRU plan on insert. Called by
    /// [`crate::SpiderScheduler`] for every registered tenant; usable
    /// directly on a standalone runtime too.
    pub fn configure_tenant_cache(&self, tenant: TenantId, reserve: usize, cap: Option<usize>) {
        self.cache.set_tenant_policy(tenant, reserve, cap);
    }

    /// Plan-cache entries currently owned by each tenant.
    pub fn tenant_cache_footprint(&self) -> Vec<(TenantId, usize)> {
        self.cache.tenant_footprint()
    }

    /// Current plan-cache capacity — moves under
    /// [`RuntimeOptions::cache_autosize`].
    pub fn cache_capacity(&self) -> usize {
        self.cache.capacity()
    }

    /// Resolve a plan (planar or volumetric): memory cache, then the
    /// attached store, then compile (writing the fresh plan through to the
    /// store). Returns the plan, whether the *memory* lookup hit — store
    /// hits surface in [`CacheStats::store_hits`], not here, so hit-rate
    /// accounting stays comparable with store-less runtimes — and the
    /// [`ResolveSource`] recorded in the request's trace. An inserted entry
    /// is owned by `tenant` for the cache's reserve/cap accounting.
    fn resolve_plan(
        &self,
        key: u64,
        kernel: &RequestKernel,
        tenant: TenantId,
    ) -> Result<(CachedPlan, bool, ResolveSource), PlanError> {
        match &self.store {
            None => {
                let (plan, hit, _) = self
                    .cache
                    .get_or_compile_for_tenant(key, kernel, tenant, None)?;
                let source = if hit {
                    ResolveSource::CacheHit
                } else {
                    ResolveSource::Compile
                };
                Ok((plan, hit, source))
            }
            Some(store) => {
                // The on-disk format validates its *internal* consistency;
                // the filename → content binding is validated here: a
                // misplaced (renamed, restored-from-backup) artifact whose
                // kernel is not the requested one must degrade to a
                // compile, never silently serve wrong numerics.
                let loader = |k: u64| {
                    store
                        .load_entry_sized(k)
                        .filter(|(p, _)| p.matches_kernel(kernel))
                        .map(|(p, bytes)| {
                            if self.telemetry.enabled() {
                                self.telemetry.profiler().add_store_load(k, bytes);
                            }
                            p
                        })
                };
                let (plan, hit, compiled) =
                    self.cache
                        .get_or_compile_for_tenant(key, kernel, tenant, Some(&loader))?;
                if compiled {
                    // Best-effort write-through: a full disk must not fail
                    // the request the plan was compiled for.
                    let _ = store.save_entry(key, &plan);
                }
                let source = if compiled {
                    ResolveSource::Compile
                } else if hit {
                    ResolveSource::CacheHit
                } else {
                    ResolveSource::StoreHit
                };
                Ok((plan, hit, source))
            }
        }
    }

    pub fn device(&self) -> &GpuDevice {
        &self.device
    }

    pub fn options(&self) -> &RuntimeOptions {
        &self.options
    }

    /// Plan-cache statistics (cumulative since construction).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Compiled plans currently cached.
    pub fn cached_plans(&self) -> usize {
        self.cache.len()
    }

    /// Scenarios with a memoized tuning decision.
    pub fn tuned_scenarios(&self) -> usize {
        self.tuner.memo_len()
    }

    /// Hit/miss counters of the shared scratch-buffer pool — the
    /// steady-state no-allocation witness: once the working set is warm,
    /// `misses` stops growing while `hits` keeps climbing.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// The runtime's telemetry handle: trace ring, metrics registry and
    /// per-plan phase profiler. Always present; when
    /// [`RuntimeOptions::telemetry`] disables it, every sink is an inert
    /// no-op and stays empty.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Push the runtime's cumulative counters (cache, tuner, pool, store)
    /// into the metrics registry as authoritative values, so an exported
    /// snapshot reconciles exactly with [`CacheStats`] / [`PoolStats`] /
    /// [`StoreStats`]. Cheap; called by report/drain paths and safe to call
    /// any time. No-op when telemetry is disabled.
    pub fn sync_metrics(&self) {
        if !self.telemetry.enabled() {
            return;
        }
        let m = self.telemetry.metrics();
        let cache = self.cache.stats();
        m.counter("spider_plan_cache_hits_total").set(cache.hits);
        m.counter("spider_plan_cache_misses_total")
            .set(cache.misses);
        m.counter("spider_plan_cache_insertions_total")
            .set(cache.insertions);
        m.counter("spider_plan_cache_evictions_total")
            .set(cache.evictions);
        m.counter("spider_plan_cache_store_hits_total")
            .set(cache.store_hits);
        m.gauge("spider_runtime_cached_plans")
            .set(self.cache.len() as f64);
        m.gauge("spider_tuner_memo_entries")
            .set(self.tuner.memo_len() as f64);
        let pool = self.pool.stats();
        m.counter("spider_pool_hits_total").set(pool.hits);
        m.counter("spider_pool_misses_total").set(pool.misses);
        // The trace ring's drop counter, so Prometheus/JSON exports
        // reconcile with the ring: a non-zero value means timelines may be
        // missing their oldest events and the capacity needs raising.
        m.counter("spider_telemetry_dropped_events_total")
            .set(self.telemetry.trace().dropped_events());
        if let Some(store) = &self.store {
            let s = store.stats();
            m.counter("spider_plan_store_plan_loads_total")
                .set(s.plan_loads);
            m.counter("spider_plan_store_plan_absent_total")
                .set(s.plan_absent);
            m.counter("spider_plan_store_plan_rejected_total")
                .set(s.plan_rejected);
            m.counter("spider_plan_store_plan_saves_total")
                .set(s.plan_saves);
            m.counter("spider_plan_store_plan_evictions_total")
                .set(s.plan_evictions);
            m.counter("spider_plan_store_plan_bytes_loaded_total")
                .set(s.plan_bytes_loaded);
            m.counter("spider_plan_store_memo_loads_total")
                .set(s.memo_loads);
            m.counter("spider_plan_store_memo_saves_total")
                .set(s.memo_saves);
        }
    }

    /// Execute one request end to end: plan lookup (compile on miss), tiling
    /// selection, functional simulated execution, output checksum.
    ///
    /// A one-request [`Self::run_group`] after the `Admit` event, so a solo
    /// request takes the serving path: the same trace (admit →
    /// plan-resolve → tune → execute → complete, every event stamped with
    /// the request's attempt), metrics and phase profile, all skipped when
    /// telemetry is disabled and none of it touching the numerics.
    pub fn execute(&self, req: &StencilRequest) -> Result<RequestOutcome, RuntimeError> {
        self.telemetry
            .record_attempt(req.id, req.plan_key(), req.attempt, EventKind::Admit, 0.0);
        let mut results = self.run_group(std::slice::from_ref(req));
        results.pop().expect("one result per request") // guard: run_group returns one result per input
    }

    /// Resolve the tiling for a request against an already-resolved plan.
    /// Volumes tune their *plane* tiling through the 3D plan's
    /// representative slice (every plane sweep shares it). The last tuple
    /// element is the dry-run count the tune call paid (0 on a memo hit or
    /// with autotuning off) — traced, never decision-relevant.
    fn select_tiling(
        &self,
        plan: &CachedPlan,
        req: &StencilRequest,
        plan_key: u64,
    ) -> (TilingConfig, bool, bool, u64) {
        if self.options.autotune {
            let rep = match plan {
                CachedPlan::Planar(p) => p.as_ref(),
                CachedPlan::Volumetric(p) => p.representative_slice(),
            };
            let t = self
                .tuner
                .tune(&self.device, rep, req.mode, req.grid, plan_key);
            (t.tiling, true, t.memoized, t.dry_runs as u64)
        } else {
            (TilingConfig::default(), false, false, 0)
        }
    }

    /// Execute a plan-key-coalesced group of requests through shared
    /// executors.
    ///
    /// All requests must resolve to the same [`StencilRequest::plan_key`]
    /// (debug-asserted). The group pays one plan resolution, then splits into
    /// [`StencilRequest::exec_key`] subgroups — same grid extent, mode and
    /// sweep count, hence same tuned tiling — and each subgroup runs through
    /// *one* configured [`SpiderExecutor`] via the core coalesced entry
    /// points ([`SpiderExecutor::run_2d_coalesced`]), with a
    /// [`spider_core::BatchFeedback`] hook collecting per-grid reports in
    /// completion order. Plan lookups are still recorded per request so
    /// cache statistics stay comparable with [`Self::run_batch`].
    ///
    /// Results come back in input order, and each output is bit-identical
    /// to the request's run alone — a one-request group, which is what
    /// [`Self::execute`] runs: the executor holds no cross-grid state, so
    /// sharing it cannot change a single output bit (the scheduler property
    /// tests pin this down).
    pub fn run_group(
        &self,
        requests: &[StencilRequest],
    ) -> Vec<Result<RequestOutcome, RuntimeError>> {
        /// Feedback hook: collects each grid's merged report, in order, and
        /// forwards the core's batched-launch callback into the trace as a
        /// `Launch` event on the subgroup head.
        struct Collect<'t> {
            reports: Vec<KernelReport>,
            telemetry: &'t Telemetry,
            head_id: u64,
            plan_key: u64,
            head_attempt: u32,
            wave_id: u64,
        }
        impl BatchFeedback for Collect<'_> {
            fn on_grid_done(&mut self, _index: usize, report: &KernelReport) {
                self.reports.push(report.clone());
            }
            fn on_batch_launch(&mut self, members: usize, _wave_blocks: u64, launch_share: f64) {
                self.telemetry.record_attempt(
                    self.head_id,
                    self.plan_key,
                    self.head_attempt,
                    EventKind::Launch {
                        wave_id: self.wave_id,
                        members,
                        launch_share,
                    },
                    0.0,
                );
            }
        }

        let group_start = Instant::now();
        let t = &self.telemetry;
        let mut results: Vec<Option<Result<RequestOutcome, RuntimeError>>> =
            (0..requests.len()).map(|_| None).collect();

        // Per-request plan lookups (hit/miss parity with `run_batch`); the
        // compiled Arc is shared across the group after the first success.
        let mut plan: Option<CachedPlan> = None;
        let mut lookups: Vec<Option<bool>> = vec![None; requests.len()];
        let group_key = requests.first().map(|r| r.plan_key());
        if t.enabled() {
            if let (Some(key), Some(first)) = (group_key, requests.first()) {
                t.profiler().touch(key, &first.scenario());
            }
        }
        // Every failure (dims, plan, executor) records the same terminal
        // event and meters, and becomes the member's result.
        let failed = |req: &StencilRequest, e: RuntimeError| {
            t.record_attempt(
                req.id,
                req.plan_key(),
                req.attempt,
                EventKind::Complete {
                    terminal: Terminal::Failed,
                },
                0.0,
            );
            if t.enabled() {
                self.meters.failed.inc();
                self.meters
                    .service_us
                    .record(group_start.elapsed().as_secs_f64() * 1e6);
            }
            Err(e)
        };
        for (i, req) in requests.iter().enumerate() {
            debug_assert_eq!(
                Some(req.plan_key()),
                group_key,
                "run_group requires a single plan key"
            );
            if !req.dims_consistent() {
                let e = RuntimeError::DimensionMismatch {
                    id: req.id,
                    scenario: req.scenario(),
                };
                results[i] = Some(failed(req, e));
                continue;
            }
            let span = t.span_attempt(req.id, req.plan_key(), req.attempt, Phase::Resolve);
            let resolved = self.resolve_plan(req.plan_key(), &req.kernel, req.tenant);
            span.exit();
            match resolved {
                Ok((p, hit, source)) => {
                    t.record_attempt(
                        req.id,
                        req.plan_key(),
                        req.attempt,
                        EventKind::PlanResolve { source },
                        0.0,
                    );
                    if source == ResolveSource::Compile && t.enabled() {
                        self.meters.compiles.inc();
                        t.profiler().add_compile(req.plan_key());
                    }
                    plan = Some(p);
                    lookups[i] = Some(hit);
                }
                Err(e) => results[i] = Some(failed(req, e.into())),
            }
        }
        let Some(plan) = plan else {
            return results
                .into_iter()
                .map(|r| r.expect("all failed")) // guard: fallback loop above filled every slot
                .collect();
        };

        // Subgroup by exec key; keys sort deterministically.
        let mut order: Vec<usize> = (0..requests.len())
            .filter(|&i| lookups[i].is_some())
            .collect();
        order.sort_by_key(|&i| (requests[i].exec_key(), i));

        for members in contiguous_key_runs(&order, |i| requests[i].exec_key()) {
            let head = &requests[members[0]];
            let span = t.span_attempt(head.id, head.plan_key(), head.attempt, Phase::Tune);
            let (tiling, tuned, head_memo_hit, head_dry_runs) =
                self.select_tiling(&plan, head, head.plan_key());
            span.exit();
            // The head pays the dry-runs (if any) and reports whether the
            // memo was already warm; every later member hits the entry that
            // call guaranteed (the tuner memoizes per plan/grid/mode, and the
            // subgroup shares all three).
            let memo_hit = |slot: usize| tuned && (slot > 0 || head_memo_hit);
            for (slot, &i) in members.iter().enumerate() {
                let req = &requests[i];
                t.record_attempt(
                    req.id,
                    req.plan_key(),
                    req.attempt,
                    EventKind::Tune {
                        memo_hit: memo_hit(slot),
                        dry_runs: if slot == 0 { head_dry_runs } else { 0 },
                    },
                    0.0,
                );
            }
            let config = ExecConfig {
                tiling,
                ..ExecConfig::default()
            };
            let coalesced = members.len() > 1;
            let wave_id = t.next_wave_id();
            let mut fb = Collect {
                reports: Vec::new(),
                telemetry: t,
                head_id: head.id,
                plan_key: head.plan_key(),
                head_attempt: head.attempt,
                wave_id,
            };
            let exec_span = t.span_attempt(head.id, head.plan_key(), head.attempt, Phase::Exec);
            let exec = SpiderExecutor::with_shared_pool(
                &self.device,
                head.mode,
                config,
                self.pool.clone(),
            );
            let run = match (&plan, head.grid) {
                (CachedPlan::Planar(p), GridSpec::D1 { .. }) => run_checksummed(
                    members.iter().map(|&i| requests[i].materialize_1d()),
                    |grids| exec.run_1d_coalesced(p, grids, head.steps, &mut fb),
                    Grid1D::padded,
                ),
                (CachedPlan::Planar(p), GridSpec::D2 { .. }) => run_checksummed(
                    members.iter().map(|&i| requests[i].materialize_2d()),
                    |grids| exec.run_2d_coalesced(p, grids, head.steps, &mut fb),
                    Grid2D::padded,
                ),
                // A volume's sweep is already a batched launch (see
                // `Spider3DExecutor`), so the subgroup's volumes share the
                // plan, tuned plane tiling and scratch pool but run one by
                // one: each report stays bit-identical to a solo run.
                (CachedPlan::Volumetric(p), GridSpec::D3 { .. }) => run_checksummed(
                    members.iter().map(|&i| requests[i].materialize_3d()),
                    |grids| {
                        let exec = Spider3DExecutor::with_shared_pool(
                            &self.device,
                            head.mode,
                            config,
                            self.pool.clone(),
                        );
                        for (slot, grid) in grids.iter_mut().enumerate() {
                            fb.on_grid_done(slot, &exec.run(p, grid, head.steps)?);
                        }
                        Ok(())
                    },
                    Grid3D::padded,
                ),
                _ => Err("plan and grid dimensionality differ".into()),
            };
            exec_span.exit();
            match run {
                Ok(checksums) => {
                    let launch_share = 1.0 / members.len() as f64;
                    for (slot, &i) in members.iter().enumerate() {
                        let req = &requests[i];
                        let sim_s = fb.reports[slot].time_s();
                        t.record_attempt(
                            req.id,
                            req.plan_key(),
                            req.attempt,
                            EventKind::Execute {
                                wave_id,
                                coalesced,
                                launch_share,
                            },
                            sim_s,
                        );
                        t.record_attempt(
                            req.id,
                            req.plan_key(),
                            req.attempt,
                            EventKind::Complete {
                                terminal: Terminal::Done,
                            },
                            sim_s,
                        );
                        if t.enabled() {
                            self.meters.completed.inc();
                            if req.is_volumetric() {
                                self.meters.volumetric.inc();
                            }
                            self.meters
                                .service_us
                                .record(group_start.elapsed().as_secs_f64() * 1e6);
                            self.meters.sim_exec_us.record(sim_s * 1e6);
                            t.profiler().add_request(req.plan_key(), sim_s);
                        }
                        results[i] = Some(Ok(RequestOutcome {
                            id: req.id,
                            scenario: req.scenario(),
                            cache_hit: lookups[i].expect("looked up"), // guard: lookup phase populated one entry per request
                            tuned,
                            tuner_memo_hit: memo_hit(slot),
                            coalesced,
                            volumetric: req.is_volumetric(),
                            tiling,
                            report: fb.reports[slot].clone(),
                            checksum: checksums[slot],
                        }));
                    }
                }
                Err(e) => {
                    // A shared-executor failure is attributed to every
                    // member: the whole subgroup ran under one launch plan.
                    for &i in members {
                        results[i] = Some(failed(&requests[i], RuntimeError::Exec(e.clone())));
                    }
                }
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every request resolved")) // guard: every request resolved by the phases above
            .collect()
    }

    /// Execute a heterogeneous batch, its plan-key groups fanned out over
    /// [`RuntimeOptions::workers`].
    ///
    /// The batch is split into plan-key groups (submission order preserved
    /// within each group) and every group goes through [`Self::run_group`]
    /// — the path [`Self::execute`] takes with a group of one: one plan
    /// resolution per group, one configured executor per exec-key
    /// subgroup, and — for subgroups larger than one — a coalesced batched
    /// launch whose shared overhead and pooled occupancy show up directly in
    /// the outcomes' simulated timing. Results come back in submission
    /// order regardless; grid data and checksums are bit-identical to
    /// running each request alone, while coalesced members'
    /// [`spider_gpu_sim::timing::KernelReport`]s intentionally differ from
    /// solo runs — they carry their share of the batched launch (amortized
    /// overhead, combined-residency occupancy).
    pub fn run_batch(&self, requests: &[StencilRequest]) -> RuntimeReport {
        let start = Instant::now();
        for req in requests {
            self.telemetry.record_attempt(
                req.id,
                req.plan_key(),
                req.attempt,
                EventKind::Admit,
                0.0,
            );
        }

        // Group by plan key to amortize compile + tuning within the batch.
        let mut order: Vec<usize> = (0..requests.len()).collect();
        order.sort_by_cached_key(|&i| (requests[i].plan_key(), i));
        let groups = contiguous_key_runs(&order, |i| requests[i].plan_key());

        let results: OrderedMutex<Vec<Option<Result<RequestOutcome, RuntimeError>>>> =
            OrderedMutex::new(
                LockRank::RuntimeResults,
                "runtime.results",
                (0..requests.len()).map(|_| None).collect(),
            );
        self.fan_out(groups.len(), |g| {
            let members = groups[g];
            let reqs: Vec<StencilRequest> = members.iter().map(|&i| requests[i].clone()).collect();
            let group_results = self.run_group(&reqs);
            let mut slots = results.lock();
            for (&idx, result) in members.iter().zip(group_results) {
                slots[idx] = Some(result);
            }
        });

        let mut outcomes = Vec::with_capacity(requests.len());
        let mut failures = Vec::new();
        for (idx, result) in results.into_inner().into_iter().enumerate() {
            // guard: fan_out returns after every job wrote its slots
            match result.expect("every slot executed") {
                Ok(outcome) => outcomes.push(outcome),
                Err(e) => failures.push((requests[idx].id, e.to_string())),
            }
        }
        self.sync_metrics();
        RuntimeReport {
            outcomes,
            failures,
            wall_s: start.elapsed().as_secs_f64(),
            cache: self.cache.stats(),
            queue: None,
            tenants: Vec::new(),
            profile: self.telemetry.profiler().top(8),
        }
    }

    /// Run `job(0)`, …, `job(jobs - 1)` on up to [`RuntimeOptions::workers`]
    /// threads, each claiming the next unclaimed index. The calling thread
    /// is one of the workers and the others are scoped, so every job has
    /// finished on return, and a one-worker fan-out runs every job on the
    /// calling thread, in index order, spawning nothing. Batch groups
    /// ([`Self::run_batch`]) and scheduler wave groups both fan out here.
    pub(crate) fn fan_out(&self, jobs: usize, job: impl Fn(usize) + Sync) {
        let workers = match self.options.workers {
            0 => (spider_core::current_num_threads() / 2).max(1),
            n => n,
        };
        let next = AtomicUsize::new(0);
        let run = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= jobs {
                break;
            }
            job(i);
        };
        std::thread::scope(|s| {
            for _ in 1..workers.min(jobs) {
                s.spawn(run);
            }
            run();
        });
    }
}

/// Run one exec-key subgroup: materialize its grids, execute them as one
/// batch through `run`, and checksum each output — the executor path every
/// dimensionality of [`SpiderRuntime::run_group`] shares.
fn run_checksummed<G>(
    grids: impl Iterator<Item = G>,
    run: impl FnOnce(&mut [G]) -> Result<(), String>,
    padded: impl Fn(&G) -> &[f32],
) -> Result<Vec<u64>, String> {
    let mut grids: Vec<G> = grids.collect();
    run(&mut grids)?;
    Ok(grids.iter().map(|g| output_checksum(padded(g))).collect())
}

/// Split a key-sorted index order into its maximal runs of equal keys —
/// the grouping primitive shared by [`SpiderRuntime::run_batch`] (plan
/// keys) and [`SpiderRuntime::run_group`] (exec keys). Submission order is
/// preserved within each run because the caller's sort is index-stable.
fn contiguous_key_runs<K: PartialEq>(order: &[usize], key: impl Fn(usize) -> K) -> Vec<&[usize]> {
    let mut runs = Vec::new();
    let mut start = 0;
    while start < order.len() {
        let k = key(order[start]);
        let mut end = start + 1;
        while end < order.len() && key(order[end]) == k {
            end += 1;
        }
        runs.push(&order[start..end]);
        start = end;
    }
    runs
}

/// FNV-1a over the bit patterns of a float slice — the checksum recorded in
/// [`RequestOutcome::checksum`]. Public so callers (and the cache-correctness
/// property tests) can recompute it against independently produced grids.
pub fn output_checksum(data: &[f32]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for v in data {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_core::ExecMode;
    use spider_stencil::{StencilKernel, StencilShape};

    fn runtime() -> SpiderRuntime {
        SpiderRuntime::new(
            GpuDevice::a100(),
            RuntimeOptions {
                cache_capacity: 8,
                workers: 2,
                tuner_dry_run_cap: 1 << 12,
                tuner_shortlist: 2,
                ..RuntimeOptions::default()
            },
        )
    }

    fn mixed_batch(id_base: u64) -> Vec<StencilRequest> {
        let mut reqs = Vec::new();
        for (i, kernel) in [
            StencilKernel::heat_2d(0.12),
            StencilKernel::gaussian_2d(2),
            StencilKernel::random(StencilShape::star_2d(2), 5),
        ]
        .into_iter()
        .enumerate()
        {
            for j in 0..2u64 {
                reqs.push(
                    StencilRequest::new_2d(id_base + (i as u64) * 10 + j, kernel.clone(), 96, 128)
                        .with_seed(id_base + j),
                );
            }
        }
        reqs.push(StencilRequest::new_1d(
            id_base + 100,
            StencilKernel::wave_1d(2),
            40_000,
        ));
        reqs
    }

    #[test]
    fn single_request_roundtrip() {
        let rt = runtime();
        let req = StencilRequest::new_2d(1, StencilKernel::jacobi_2d(), 64, 96);
        let out = rt.execute(&req).unwrap();
        assert!(!out.cache_hit, "first lookup must miss");
        assert!(out.report.gstencils_per_sec() > 0.0);
        assert_eq!(out.report.points, 64 * 96);
        // Same request again: plan comes from the cache, result identical.
        let out2 = rt.execute(&req).unwrap();
        assert!(out2.cache_hit);
        assert_eq!(out.checksum, out2.checksum);
        assert_eq!(out.tiling, out2.tiling);
    }

    #[test]
    fn execute_stamps_a_retry_attempt_on_every_trace_event() {
        let rt = runtime();
        let mut req = StencilRequest::new_2d(7, StencilKernel::jacobi_2d(), 64, 64);
        req.attempt = 1;
        rt.execute(&req).unwrap();
        let timeline = rt.telemetry().trace().timeline(req.id);
        assert!(timeline
            .iter()
            .any(|e| matches!(e.kind, EventKind::Tune { .. })));
        assert!(timeline.iter().all(|e| e.attempt == 1), "{timeline:?}");
    }

    #[test]
    fn one_worker_fan_out_runs_every_job_on_the_caller_in_order() {
        let rt = SpiderRuntime::new(
            GpuDevice::a100(),
            RuntimeOptions {
                workers: 1,
                ..RuntimeOptions::default()
            },
        );
        let caller = std::thread::current().id();
        let ran = std::sync::Mutex::new(Vec::new());
        rt.fan_out(5, |i| {
            ran.lock().unwrap().push((i, std::thread::current().id()));
        });
        let ran = ran.into_inner().unwrap();
        let order: Vec<usize> = ran.iter().map(|&(i, _)| i).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
        assert!(ran.iter().all(|&(_, thread)| thread == caller));
    }

    #[test]
    fn batch_groups_amortize_compiles() {
        let rt = runtime();
        let batch = mixed_batch(0);
        let n = batch.len();
        let report = rt.run_batch(&batch);
        assert_eq!(report.outcomes.len(), n);
        assert!(report.failures.is_empty());
        // 4 distinct plans for 7 requests: at most 4 misses.
        let stats = rt.cache_stats();
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.hits as usize, n - 4);
        assert!(report.requests_per_sec() > 0.0);
        assert!(report.simulated_gstencils_per_sec() > 0.0);
        // Outcomes come back in submission order.
        let ids: Vec<u64> = report.outcomes.iter().map(|o| o.id).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted, "mixed_batch ids are ascending");
    }

    #[test]
    fn second_batch_is_all_hits() {
        let rt = runtime();
        let first = rt.run_batch(&mixed_batch(0));
        assert!(first.batch_hit_rate() < 1.0);
        let second = rt.run_batch(&mixed_batch(1000));
        assert_eq!(second.batch_hit_rate(), 1.0, "all plans already cached");
        // Determinism across batches: same kernel+grid+seed ⇒ same checksum.
        let a = &first.outcomes[0];
        let b = second
            .outcomes
            .iter()
            .find(|o| o.scenario == a.scenario)
            .unwrap();
        assert_eq!(a.tiling, b.tiling, "tuner memo must return the same config");
    }

    #[test]
    fn failures_are_isolated() {
        let rt = runtime();
        let mut batch = mixed_batch(0);
        // A kernel/grid dimensionality mismatch...
        batch.push(StencilRequest::new_2d(
            999,
            StencilKernel::wave_1d(1),
            32,
            32,
        ));
        // ...and an empty kernel.
        batch.push(StencilRequest::new_2d(
            998,
            StencilKernel::box_2d(1, &[0.0; 9]),
            32,
            32,
        ));
        let n_ok = batch.len() - 2;
        let report = rt.run_batch(&batch);
        assert_eq!(report.outcomes.len(), n_ok);
        assert_eq!(report.failures.len(), 2);
        let failed_ids: Vec<u64> = report.failures.iter().map(|f| f.0).collect();
        assert!(failed_ids.contains(&999) && failed_ids.contains(&998));
    }

    #[test]
    fn autotune_off_uses_default_tiling() {
        let rt = SpiderRuntime::new(
            GpuDevice::a100(),
            RuntimeOptions {
                autotune: false,
                workers: 1,
                ..RuntimeOptions::default()
            },
        );
        let out = rt
            .execute(&StencilRequest::new_2d(
                1,
                StencilKernel::jacobi_2d(),
                64,
                64,
            ))
            .unwrap();
        assert!(!out.tuned);
        assert_eq!(out.tiling, TilingConfig::default());
        assert_eq!(rt.tuned_scenarios(), 0);
    }

    #[test]
    fn ablation_modes_flow_through() {
        let rt = runtime();
        let k = StencilKernel::gaussian_2d(1);
        let dense = rt
            .execute(&StencilRequest::new_2d(1, k.clone(), 64, 64).with_mode(ExecMode::DenseTc))
            .unwrap();
        let sparse = rt.execute(&StencilRequest::new_2d(2, k, 64, 64)).unwrap();
        assert!(dense.report.counters.mma_dense_f16 > 0);
        assert!(sparse.report.counters.mma_sparse_f16 > 0);
        // Different modes are different cache entries.
        assert_eq!(rt.cache_stats().misses, 2);
    }

    #[test]
    fn run_group_is_bit_identical_to_execute() {
        let rt = runtime();
        let k = StencilKernel::gaussian_2d(2);
        // Three exec-key subgroups under one plan key: two 96x128 copies,
        // one 64x64, two 96x128 with 2 sweeps.
        let group: Vec<StencilRequest> = vec![
            StencilRequest::new_2d(1, k.clone(), 96, 128).with_seed(11),
            StencilRequest::new_2d(2, k.clone(), 96, 128).with_seed(22),
            StencilRequest::new_2d(3, k.clone(), 64, 64).with_seed(33),
            StencilRequest::new_2d(4, k.clone(), 96, 128)
                .with_steps(2)
                .with_seed(44),
            StencilRequest::new_2d(5, k.clone(), 96, 128)
                .with_steps(2)
                .with_seed(55),
        ];
        let grouped = rt.run_group(&group);
        // A fresh runtime, request by request.
        let solo_rt = runtime();
        for (req, res) in group.iter().zip(&grouped) {
            let got = res.as_ref().expect("group member succeeded");
            let want = solo_rt.execute(req).unwrap();
            assert_eq!(got.checksum, want.checksum, "request {} diverged", req.id);
            assert_eq!(got.tiling, want.tiling);
            assert_eq!(got.id, req.id);
            assert_eq!(
                got.tuner_memo_hit, want.tuner_memo_hit,
                "memo-hit accounting diverged on request {}",
                req.id
            );
        }
        // Subgroups of size >1 are flagged coalesced; the singleton is not.
        assert!(grouped[0].as_ref().unwrap().coalesced);
        assert!(grouped[1].as_ref().unwrap().coalesced);
        assert!(!grouped[2].as_ref().unwrap().coalesced);
        assert!(grouped[3].as_ref().unwrap().coalesced);
    }

    #[test]
    fn run_group_records_per_request_cache_lookups() {
        let rt = runtime();
        let k = StencilKernel::jacobi_2d();
        let group: Vec<StencilRequest> = (0..3)
            .map(|i| StencilRequest::new_2d(i, k.clone(), 64, 64).with_seed(i))
            .collect();
        let results = rt.run_group(&group);
        assert!(!results[0].as_ref().unwrap().cache_hit);
        assert!(results[1].as_ref().unwrap().cache_hit);
        assert!(results[2].as_ref().unwrap().cache_hit);
        // Same lookup accounting as run_batch: one miss, n-1 hits.
        assert_eq!(rt.cache_stats().misses, 1);
        assert_eq!(rt.cache_stats().hits, 2);
    }

    #[test]
    fn run_group_isolates_dimension_mismatches() {
        let rt = runtime();
        let k1 = StencilKernel::wave_1d(2);
        let group = vec![
            StencilRequest::new_1d(1, k1.clone(), 10_000),
            StencilRequest::new_2d(2, k1.clone(), 32, 32), // wrong dims
            StencilRequest::new_1d(3, k1, 10_000).with_seed(9),
        ];
        let results = rt.run_group(&group);
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(RuntimeError::DimensionMismatch { id: 2, .. })
        ));
        assert!(results[2].is_ok());
    }

    #[test]
    fn volumetric_request_roundtrip_and_cache_reuse() {
        use spider_stencil::dim3::Kernel3D;
        let rt = runtime();
        let k = Kernel3D::random_box(1, 21);
        let req = StencilRequest::new_3d(1, k.clone(), 4, 40, 56).with_seed(5);
        let out = rt.execute(&req).unwrap();
        assert!(!out.cache_hit && out.volumetric);
        assert_eq!(out.report.points, 4 * 40 * 56);
        assert!(out.report.gstencils_per_sec() > 0.0);
        let again = rt.execute(&req).unwrap();
        assert!(again.cache_hit, "3D plans cache like 2D plans");
        assert_eq!(out.checksum, again.checksum);
        // Direct executor under the same tiling: bit-identical output.
        let plan = spider_core::exec3d::Spider3DPlan::compile(&k).unwrap();
        let mut grid = req.materialize_3d();
        let direct = Spider3DExecutor::with_config(
            rt.device(),
            req.mode,
            ExecConfig {
                tiling: out.tiling,
                ..ExecConfig::default()
            },
        )
        .run(&plan, &mut grid, req.steps)
        .unwrap();
        assert_eq!(out.checksum, output_checksum(grid.padded()));
        assert_eq!(out.report.counters, direct.counters);
    }

    #[test]
    fn mixed_2d_3d_batch_groups_and_coalesces() {
        use spider_stencil::dim3::Kernel3D;
        let rt = runtime();
        let k3 = Kernel3D::random_box(1, 8);
        let mut batch = mixed_batch(0);
        let n2d = batch.len();
        for j in 0..3u64 {
            batch.push(StencilRequest::new_3d(500 + j, k3.clone(), 3, 40, 48).with_seed(j));
        }
        let report = rt.run_batch(&batch);
        assert!(report.failures.is_empty());
        assert_eq!(report.outcomes.len(), n2d + 3);
        assert_eq!(report.volumetric_completed(), 3);
        assert_eq!(report.volumetric_points(), 3 * 3 * 40 * 48);
        // One 3D plan resolution for three volumes: 5 misses total
        // (4 planar plans + 1 volumetric), everything else hits.
        assert_eq!(rt.cache_stats().misses, 5);
        let vol_outcomes: Vec<_> = report.outcomes.iter().filter(|o| o.volumetric).collect();
        assert!(
            vol_outcomes.iter().all(|o| o.coalesced),
            "same-key volumes share a subgroup"
        );
        assert!(report.render().contains("volumetric: 3 of"));
        // Bit-identity per volume against solo execution.
        let solo = runtime();
        for o in vol_outcomes {
            let req = batch.iter().find(|r| r.id == o.id).unwrap();
            assert_eq!(solo.execute(req).unwrap().checksum, o.checksum);
        }
    }

    #[test]
    fn warm_start_after_store_gc_degrades_to_compile() {
        use crate::store::StoreGcPolicy;
        let dir = std::env::temp_dir().join(format!(
            "spider-runtime-gc-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        // Room for exactly one plan artifact: serving two kernels must
        // evict the older one on write-through.
        let store = Arc::new(
            crate::PlanStore::open_with_gc(
                &dir,
                StoreGcPolicy {
                    max_plans: 1,
                    max_bytes: 0,
                },
            )
            .unwrap(),
        );
        let opts = RuntimeOptions {
            workers: 1,
            ..RuntimeOptions::default()
        };
        let rt1 = SpiderRuntime::with_store(GpuDevice::a100(), opts, Arc::clone(&store));
        let req_a = StencilRequest::new_2d(1, StencilKernel::gaussian_2d(1), 64, 64).with_seed(1);
        let req_b = StencilRequest::new_2d(2, StencilKernel::jacobi_2d(), 64, 64).with_seed(2);
        let first_a = rt1.execute(&req_a).unwrap();
        let first_b = rt1.execute(&req_b).unwrap();
        assert_eq!(store.plans_on_disk(), 1, "GC held the bound");
        assert!(store.stats().plan_evictions >= 1);

        // A restarted runtime over the GC'd store: the surviving plan
        // (req_b's — the later save evicted req_a's) loads, the evicted one
        // recompiles, outputs stay bit-identical — eviction degrades warm
        // starts, never corrupts them. Read the survivor first: req_a's
        // recompile write-through would GC it.
        let rt2 = SpiderRuntime::with_store(GpuDevice::a100(), opts, Arc::clone(&store));
        let again_b = rt2.execute(&req_b).unwrap();
        let again_a = rt2.execute(&req_a).unwrap();
        assert_eq!(again_a.checksum, first_a.checksum);
        assert_eq!(again_b.checksum, first_b.checksum);
        let stats = rt2.cache_stats();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.store_hits, 1, "survivor loads, victim compiles");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn warm_start_from_store_skips_compile_and_tuning() {
        let dir = std::env::temp_dir().join(format!(
            "spider-runtime-store-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(crate::PlanStore::open(&dir).unwrap());

        // "Process 1": serve a batch, persist.
        let rt1 = SpiderRuntime::with_store(
            GpuDevice::a100(),
            RuntimeOptions {
                workers: 1,
                ..RuntimeOptions::default()
            },
            Arc::clone(&store),
        );
        let req = StencilRequest::new_2d(1, StencilKernel::gaussian_2d(2), 96, 128).with_seed(9);
        let first = rt1.execute(&req).unwrap();
        assert!(!first.cache_hit && !first.tuner_memo_hit);
        let persisted = rt1.persist().unwrap();
        assert!(persisted >= 1);
        // Write-through already put the compiled plan on disk before persist.
        assert!(store.stats().plan_saves >= 2);

        // "Process 2": a fresh runtime over the same store. The plan comes
        // from disk (store hit, no compile), the tuning from the imported
        // memo (memo hit, no dry-runs), and the output is bit-identical.
        let rt2 = SpiderRuntime::with_store(
            GpuDevice::a100(),
            RuntimeOptions {
                workers: 1,
                ..RuntimeOptions::default()
            },
            Arc::clone(&store),
        );
        assert_eq!(rt2.tuned_scenarios(), 1, "memos imported at construction");
        let again = rt2.execute(&req).unwrap();
        assert!(!again.cache_hit, "memory cache is cold");
        assert_eq!(rt2.cache_stats().store_hits, 1, "plan loaded, not compiled");
        assert!(again.tuner_memo_hit, "tuning restored from the store");
        assert_eq!(
            again.checksum, first.checksum,
            "round-trip is bit-identical"
        );
        assert_eq!(again.tiling, first.tiling);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn render_contains_summary() {
        let rt = runtime();
        let report = rt.run_batch(&mixed_batch(0));
        let text = report.render();
        assert!(text.contains("GStencil/s"));
        assert!(text.contains("batch:"));
    }
}

//! The runtime itself: plan cache + autotuner + the one request path
//! ([`SpiderRuntime::run_group`]), behind one handle.

use std::sync::Arc;
use std::time::Instant;

use std::cmp::Reverse;
use std::sync::atomic::{AtomicUsize, Ordering};

use spider_core::exec::{fan_out, jobs_for, split_jobs, ExecConfig, SpiderExecutor};
use spider_core::exec3d::Spider3DExecutor;
use spider_core::plan::PlanError;
use spider_core::pool::{BufferPool, PoolStats};
use spider_core::tiling::TilingConfig;
use spider_gpu_sim::timing::KernelReport;
use spider_gpu_sim::GpuDevice;
use spider_stencil::dim3::Grid3D;
use spider_stencil::fnv::Fnv1a;
use spider_stencil::{Grid1D, Grid2D};
use spider_telemetry::{
    Counter, EventKind, Histogram, MetricsSnapshot, Phase, ResolveSource, Telemetry,
    TelemetryConfig, Terminal,
};

use crate::cache::{CacheStats, CachedPlan, PlanCache};
use crate::report::{RequestOutcome, RuntimeReport};
use crate::request::{GridSpec, RequestKernel, StencilRequest, TenantId};
use crate::scheduler::drr_cost;
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
    /// Whether to autotune tilings (`false` = always the default config).
    pub autotune: bool,
    /// Point cap on the extent a tuner dry-run charges.
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
}

impl Default for RuntimeOptions {
    fn default() -> Self {
        Self {
            cache_capacity: 64,
            autotune: true,
            tuner_dry_run_cap: 1 << 14,
            tuner_shortlist: 4,
            tuner_memo_capacity: 1024,
            telemetry: TelemetryConfig::default(),
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
    /// runtime configures, so ping-pong grids and 3D plane scratch are
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
        Self {
            cache: PlanCache::new(options.cache_capacity),
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
            store.save_plan(*key, plan)?;
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
                        .load_plan(k)
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
                    let _ = store.save_plan(key, &plan);
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

    /// Hit/miss counters of the shared buffer pool — the steady-state
    /// no-allocation witness: once the working set is warm, `misses` stops
    /// growing while `hits` keeps climbing.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// The buffer pool every request grid of this runtime is drawn from
    /// (shared store; see [`BufferPool`] for its free-list bound).
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// The runtime's telemetry handle: trace ring, metrics registry and
    /// per-plan phase profiler. Always present; when
    /// [`RuntimeOptions::telemetry`] disables it, every sink is an inert
    /// no-op and stays empty.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Every metric this runtime exports, read when called: the registry's
    /// request meters, plus the cache, tuner, pool, trace-drop and store
    /// values read from the structs that own them ([`CacheStats`],
    /// [`PoolStats`], [`StoreStats`]), so the export reconciles exactly
    /// with them at any moment. Empty when telemetry is disabled.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        if !self.telemetry.enabled() {
            return MetricsSnapshot::default();
        }
        let mut snap = self.telemetry.metrics().snapshot();
        let cache = self.cache.stats();
        snap.counter("spider_plan_cache_hits_total", cache.hits);
        snap.counter("spider_plan_cache_misses_total", cache.misses);
        snap.counter("spider_plan_cache_insertions_total", cache.insertions);
        snap.counter("spider_plan_cache_evictions_total", cache.evictions);
        snap.counter("spider_plan_cache_store_hits_total", cache.store_hits);
        snap.gauge("spider_runtime_cached_plans", self.cache.len() as f64);
        snap.gauge("spider_tuner_memo_entries", self.tuner.memo_len() as f64);
        let pool = self.pool.stats();
        snap.counter("spider_pool_hits_total", pool.hits);
        snap.counter("spider_pool_misses_total", pool.misses);
        // The trace ring's drop counter, so Prometheus/JSON exports
        // reconcile with the ring: a non-zero value means timelines may be
        // missing their oldest events and the capacity needs raising.
        snap.counter(
            "spider_telemetry_dropped_events_total",
            self.telemetry.trace().dropped_events(),
        );
        if let Some(store) = &self.store {
            store.stats().write_metrics(&mut snap);
        }
        snap
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
    /// *one* configured [`SpiderExecutor`], billed as one batched launch
    /// ([`SpiderExecutor::run_2d_in_batch`]). Members run one at a time:
    /// materialize the input in a pooled buffer, sweep it, checksum it and
    /// return the buffer, so a group holds one input and one scratch grid
    /// however large it is. Plan lookups are still recorded per request so
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
        self.execute_group(&self.prepare_group(requests))
    }

    /// Record a request's failure (its terminal event and meters) and hand
    /// the error back as its result.
    fn fail(&self, req: &StencilRequest, start: Instant, e: RuntimeError) -> RuntimeError {
        let t = &self.telemetry;
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
                .record(start.elapsed().as_secs_f64() * 1e6);
        }
        e
    }

    /// The first half of [`Self::run_group`]: check each request's
    /// dimensions, resolve the plan (per request, for hit/miss parity with
    /// `run_batch`), split the group into exec-key subgroups (keys sort
    /// deterministically) and tune each subgroup's head. All a wave needs
    /// to size its fan-out, before any grid exists.
    fn prepare_group<'a>(&self, requests: &'a [StencilRequest]) -> PreparedGroup<'a> {
        let start = Instant::now();
        let t = &self.telemetry;
        let group_key = requests.first().map(|r| r.plan_key());
        if t.enabled() {
            if let (Some(key), Some(first)) = (group_key, requests.first()) {
                t.profiler().touch(key, &first.scenario());
            }
        }
        let mut plan: Option<CachedPlan> = None;
        let mut lookups = Vec::with_capacity(requests.len());
        for req in requests {
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
                lookups.push(Err(self.fail(req, start, e)));
                continue;
            }
            let span = t.span_attempt(req.id, req.plan_key(), req.attempt, Phase::Resolve);
            let resolved = self.resolve_plan(req.plan_key(), &req.kernel, req.tenant);
            span.exit();
            lookups.push(match resolved {
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
                    Ok(hit)
                }
                Err(e) => Err(self.fail(req, start, e.into())),
            });
        }

        let mut subgroups = Vec::new();
        if let Some(plan) = &plan {
            let mut order: Vec<usize> = (0..requests.len())
                .filter(|&i| lookups[i].is_ok())
                .collect();
            order.sort_by_key(|&i| (requests[i].exec_key(), i));
            for members in contiguous_key_runs(&order, |i| requests[i].exec_key()) {
                let head = &requests[members[0]];
                let span = t.span_attempt(head.id, head.plan_key(), head.attempt, Phase::Tune);
                let (tiling, tuned, head_memo_hit, head_dry_runs) =
                    self.select_tiling(plan, head, head.plan_key());
                span.exit();
                let sub = Subgroup {
                    members: members.to_vec(),
                    tiling,
                    tuned,
                    head_memo_hit,
                };
                for (slot, &i) in members.iter().enumerate() {
                    let req = &requests[i];
                    t.record_attempt(
                        req.id,
                        req.plan_key(),
                        req.attempt,
                        EventKind::Tune {
                            memo_hit: sub.memo_hit(slot),
                            dry_runs: if slot == 0 { head_dry_runs } else { 0 },
                        },
                        0.0,
                    );
                }
                subgroups.push(sub);
            }
        }
        PreparedGroup {
            requests,
            start,
            lookups,
            plan,
            subgroups,
        }
    }

    /// The second half of [`Self::run_group`]: run each exec-key subgroup,
    /// member by member, and record every outcome.
    fn execute_group(&self, g: &PreparedGroup<'_>) -> Vec<Result<RequestOutcome, RuntimeError>> {
        let t = &self.telemetry;
        let mut results: Vec<Option<Result<RequestOutcome, RuntimeError>>> = g
            .lookups
            .iter()
            .map(|l| l.as_ref().err().map(|e| Err(e.clone())))
            .collect();
        for sub in &g.subgroups {
            let head = &g.requests[sub.members[0]];
            let members = sub.members.len();
            let coalesced = members > 1;
            let wave_id = t.next_wave_id();
            let exec_span = t.span_attempt(head.id, head.plan_key(), head.attempt, Phase::Exec);
            let run = self.run_subgroup(g, sub, wave_id);
            exec_span.exit();
            let done = match run {
                Ok(done) => done,
                Err(e) => {
                    // A shared-executor failure is attributed to every
                    // member: the whole subgroup ran under one launch plan.
                    for &i in &sub.members {
                        let e = RuntimeError::Exec(e.clone());
                        results[i] = Some(Err(self.fail(&g.requests[i], g.start, e)));
                    }
                    continue;
                }
            };
            let launch_share = 1.0 / members as f64;
            for ((slot, &i), (checksum, report)) in sub.members.iter().enumerate().zip(done) {
                let req = &g.requests[i];
                let sim_s = report.time_s();
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
                        .record(g.start.elapsed().as_secs_f64() * 1e6);
                    self.meters.sim_exec_us.record(sim_s * 1e6);
                    t.profiler().add_request(req.plan_key(), sim_s);
                }
                results[i] = Some(Ok(RequestOutcome {
                    id: req.id,
                    scenario: req.scenario().into(),
                    cache_hit: matches!(g.lookups[i], Ok(true)),
                    tuned: sub.tuned,
                    tuner_memo_hit: sub.memo_hit(slot),
                    coalesced,
                    volumetric: req.is_volumetric(),
                    tiling: sub.tiling,
                    report: Arc::new(report),
                    checksum,
                }));
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every request resolved")) // guard: every request resolved by the phases above
            .collect()
    }

    /// Run one exec-key subgroup through one configured executor, member by
    /// member ([`run_each`]). Returns each member's checksum and report.
    fn run_subgroup(
        &self,
        g: &PreparedGroup<'_>,
        sub: &Subgroup,
        wave_id: u64,
    ) -> Result<Vec<(u64, KernelReport)>, String> {
        let plan = g.plan.as_ref().expect("a subgroup has a plan"); // guard: prepare_group builds subgroups only once a plan resolved
        let head = &g.requests[sub.members[0]];
        let (members, steps, pool) = (sub.members.len(), head.steps, &self.pool);
        let requests = sub.members.iter().map(|&i| &g.requests[i]);
        let config = ExecConfig {
            tiling: sub.tiling,
            ..ExecConfig::default()
        };
        let planar = || {
            // The subgroup's batched launch, traced on its head.
            self.telemetry.record_attempt(
                head.id,
                head.plan_key(),
                head.attempt,
                EventKind::Launch {
                    wave_id,
                    members,
                    launch_share: 1.0 / members as f64,
                },
                0.0,
            );
            SpiderExecutor::with_shared_pool(&self.device, head.mode, config, pool.clone())
        };
        match (plan, head.grid) {
            (CachedPlan::Planar(p), GridSpec::D1 { .. }) => {
                let exec = planar();
                run_each(
                    pool,
                    requests,
                    |req| req.materialize_1d_in(pool),
                    |grid| exec.run_1d_in_batch(p, grid, steps, members),
                    Grid1D::padded,
                    Grid1D::into_padded_vec,
                )
            }
            (CachedPlan::Planar(p), GridSpec::D2 { .. }) => {
                let exec = planar();
                run_each(
                    pool,
                    requests,
                    |req| req.materialize_2d_in(pool),
                    |grid| exec.run_2d_in_batch(p, grid, steps, members),
                    Grid2D::padded,
                    Grid2D::into_padded_vec,
                )
            }
            // A volume's sweep is already a batched launch (see
            // `Spider3DExecutor`), so the subgroup's volumes share the plan,
            // tuned plane tiling and pool, and each report stays
            // bit-identical to a solo run.
            (CachedPlan::Volumetric(p), GridSpec::D3 { .. }) => {
                let exec = Spider3DExecutor::with_shared_pool(
                    &self.device,
                    head.mode,
                    config,
                    pool.clone(),
                );
                run_each(
                    pool,
                    requests,
                    |req| req.materialize_3d_in(pool),
                    |grid| exec.run(p, grid, steps),
                    Grid3D::padded,
                    Grid3D::into_padded_vec,
                )
            }
            _ => Err("plan and grid dimensionality differ".into()),
        }
    }

    /// Resolve and tune every plan-key group of a wave, in order, on the
    /// calling thread, and size the wave's fan-out: one job per
    /// [`MIN_WAVE_JOB_COST`] of work, at most one per group and per core
    /// ([`split_jobs`]), and one job whenever a sweep of the wave would
    /// split by itself ([`jobs_for`]), so there is one level of
    /// parallelism.
    pub(crate) fn prepare_wave<'a>(&self, groups: &[&'a [StencilRequest]]) -> Wave<'_, 'a> {
        let groups: Vec<PreparedGroup<'a>> = groups.iter().map(|g| self.prepare_group(g)).collect();
        let costs: Vec<u64> = groups
            .iter()
            .map(|g| g.requests.iter().map(drr_cost).sum())
            .collect();
        let jobs = match groups.iter().any(PreparedGroup::sweep_splits) {
            true => 1,
            false => split_jobs(costs.iter().sum(), MIN_WAVE_JOB_COST, groups.len()),
        };
        // A fanned-out wave starts its largest groups first, so the last
        // group to finish is a small one; one job keeps cohort order.
        let mut order: Vec<usize> = (0..groups.len()).collect();
        if jobs > 1 {
            order.sort_by_key(|&g| Reverse(costs[g]));
        }
        Wave {
            runtime: self,
            groups,
            order,
            jobs,
        }
    }

    /// Execute a heterogeneous batch as one wave: its plan-key groups are
    /// resolved and tuned on the calling thread, then run, fanned out as
    /// `prepare_wave` sizes it: one job per [`MIN_WAVE_JOB_COST`] of work,
    /// at most one per group and per core, and one whenever a sweep of the
    /// batch would split by itself.
    ///
    /// The batch is split into plan-key groups (submission order preserved
    /// within each group) and every group takes the path of
    /// [`Self::run_group`] — the path [`Self::execute`] takes with a group of
    /// one: one plan resolution per group, one configured executor per
    /// exec-key subgroup, and — for subgroups larger than one — a coalesced
    /// batched launch whose shared overhead and pooled occupancy show up
    /// directly in the outcomes' simulated timing. Results come back in
    /// submission order regardless; grid data and checksums are
    /// bit-identical to running each request alone, while coalesced members'
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
        let reqs: Vec<Vec<StencilRequest>> = groups
            .iter()
            .map(|members| members.iter().map(|&i| requests[i].clone()).collect())
            .collect();
        let slices: Vec<&[StencilRequest]> = reqs.iter().map(Vec::as_slice).collect();
        let per_group = self.prepare_wave(&slices).run(|_, results| results);

        let mut results: Vec<Option<Result<RequestOutcome, RuntimeError>>> =
            (0..requests.len()).map(|_| None).collect();
        for (members, group_results) in groups.iter().zip(per_group) {
            for (&idx, result) in members.iter().zip(group_results) {
                results[idx] = Some(result);
            }
        }

        let mut outcomes = Vec::with_capacity(requests.len());
        let mut failures = Vec::new();
        for (idx, result) in results.into_iter().enumerate() {
            // guard: the groups partition the batch, so every slot was written
            match result.expect("every slot executed") {
                Ok(outcome) => outcomes.push(outcome),
                Err(e) => failures.push((requests[idx].id, e.to_string())),
            }
        }
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
}

/// Work a wave must hold per job before it fans out, in deficit-round-robin
/// cost units (grid points × sweeps; see [`crate::QueueStats::served_cost`]).
/// A second job pays for waking a core, 89 µs median and 156 µs p90 after
/// 200 µs idle on a 2-vCPU x86-64 host (see
/// [`spider_core::exec::MIN_JOB_STEP_POINTS`]), so each job must outlast
/// that. On that host, built for `x86-64-v3`, a served request
/// (materialize, sweep, checksum) costs 6.9–7.3 ns per point and sweep,
/// averaged over the nine `mixed_warm` scenarios (2.7–23 ns by scenario;
/// medians of 200 `execute` calls each, three processes), so 32 768 units
/// take 225–240 µs. A wave of 16×16 requests needs 256 of them to fan out;
/// `mixed_warm`'s waves of about ten 10⁴–2.6·10⁵-point requests always do.
pub const MIN_WAVE_JOB_COST: u64 = 1 << 15;

/// One exec-key subgroup of a prepared group: its members (indices into
/// the group, submission order) and the tiling its head's tune chose.
struct Subgroup {
    members: Vec<usize>,
    tiling: TilingConfig,
    tuned: bool,
    head_memo_hit: bool,
}

impl Subgroup {
    /// Whether the member at `slot` found the tuning memoized. The head
    /// pays the dry-runs (if any) and reports whether the memo was already
    /// warm; every later member hits the entry that call guaranteed (the
    /// tuner memoizes per plan/grid/mode, and the subgroup shares all
    /// three).
    fn memo_hit(&self, slot: usize) -> bool {
        self.tuned && (slot > 0 || self.head_memo_hit)
    }
}

/// A plan-key group, resolved and tuned ([`SpiderRuntime::prepare_group`]).
struct PreparedGroup<'a> {
    requests: &'a [StencilRequest],
    start: Instant,
    /// Per request: whether its plan lookup hit the memory cache, or the
    /// failure that ended it before execution.
    lookups: Vec<Result<bool, RuntimeError>>,
    plan: Option<CachedPlan>,
    subgroups: Vec<Subgroup>,
}

impl PreparedGroup<'_> {
    /// Whether one of the group's sweeps would fan out by itself.
    fn sweep_splits(&self) -> bool {
        let Some(plan) = &self.plan else {
            return false;
        };
        self.subgroups.iter().any(|sub| {
            let head = &self.requests[sub.members[0]];
            jobs_for(head.grid.points() as usize * plan.schedule_steps(head.mode)) > 1
        })
    }
}

/// A dispatch wave's plan-key groups, resolved and tuned, with the jobs
/// their execution fans out into ([`SpiderRuntime::prepare_wave`]).
pub(crate) struct Wave<'r, 'a> {
    runtime: &'r SpiderRuntime,
    groups: Vec<PreparedGroup<'a>>,
    /// Group indices in the order jobs claim them.
    order: Vec<usize>,
    jobs: usize,
}

impl Wave<'_, '_> {
    /// How many jobs the wave runs as (1: the calling thread alone).
    pub(crate) fn jobs(&self) -> usize {
        self.jobs
    }

    /// Execute every group: `jobs` workers ([`fan_out`]) claim groups from
    /// one counter, in claim order, and call `done(group, results)` as each
    /// group finishes, so a group's verdicts are recorded while the wave's
    /// other groups still run. Returns `done`'s values in group order.
    pub(crate) fn run<R: Send>(
        self,
        done: impl Fn(usize, Vec<Result<RequestOutcome, RuntimeError>>) -> R + Sync,
    ) -> Vec<R> {
        let next = AtomicUsize::new(0);
        let finished = fan_out(self.jobs, || {
            let mut mine = Vec::new();
            while let Some(&g) = self.order.get(next.fetch_add(1, Ordering::Relaxed)) {
                let results = self.runtime.execute_group(&self.groups[g]);
                mine.push((g, done(g, results)));
            }
            mine
        });
        let mut out: Vec<Option<R>> = (0..self.groups.len()).map(|_| None).collect();
        for (g, r) in finished.into_iter().flatten() {
            out[g] = Some(r);
        }
        out.into_iter()
            .map(|r| r.expect("every group ran")) // guard: the claim counter hands out every group once
            .collect()
    }
}

/// Run one exec-key subgroup member by member: materialize each input in a
/// pooled buffer, sweep it, checksum the output and return the buffer
/// before the next member starts. Returns each member's checksum and
/// report, or the first failure.
fn run_each<'r, G>(
    pool: &BufferPool,
    requests: impl Iterator<Item = &'r StencilRequest>,
    materialize: impl Fn(&StencilRequest) -> G,
    run: impl Fn(&mut G) -> Result<KernelReport, String>,
    padded: impl Fn(&G) -> &[f32],
    release: impl Fn(G) -> Vec<f32>,
) -> Result<Vec<(u64, KernelReport)>, String> {
    requests
        .map(|req| {
            let mut grid = materialize(req);
            let done = run(&mut grid).map(|report| (output_checksum(padded(&grid)), report));
            pool.put(release(grid));
            done
        })
        .collect()
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

/// Word-at-a-time hash of a float slice's bit patterns — the checksum
/// recorded in [`RequestOutcome::checksum`]. Public so callers (and the
/// cache-correctness property tests) can recompute it against independently
/// produced grids.
///
/// Four independent u64 lanes each absorb one word (two f32 bit patterns)
/// per 8-float chunk with one multiply-xorshift round, so the lanes'
/// multiplies overlap. Both steps of the round are bijections of the lane
/// state, so any change to a word changes its lane; the downshift carries
/// high bits back down so a difference cannot be shifted out. The lanes,
/// the tail floats and the length are folded through [`Fnv1a::word`]. The
/// value is a within-process witness (equal inputs ⇒ equal checksums), not
/// a persisted format.
///
/// The lanes stay four scalar chains on purpose. x86-64 has no packed
/// 64-bit multiply before AVX-512DQ, so with AVX2 the compiler would pack
/// them into one register and emulate the multiply, turning four parallel
/// chains into one serial chain about 1.6× slower. Each lane reads its word
/// at an offset the optimizer cannot see (`black_box`), so it cannot pack
/// the four loads and keeps the chains apart; the value is unchanged.
pub fn output_checksum(data: &[f32]) -> u64 {
    const LANES: usize = 4;
    let mut lanes = [Fnv1a::OFFSET; LANES];
    let (chunks, tail) = data.as_chunks::<{ 2 * LANES }>();
    let offsets: [usize; LANES] = std::hint::black_box([0, 2, 4, 6]);
    for chunk in chunks {
        for (lane, &at) in lanes.iter_mut().zip(&offsets) {
            // `& 6` keeps both reads inside the chunk without a bounds check.
            let at = at & 6;
            let w = chunk[at].to_bits() as u64 | (chunk[at + 1].to_bits() as u64) << 32;
            let h = (*lane ^ w).wrapping_mul(Fnv1a::PRIME);
            *lane = h ^ (h >> 29);
        }
    }
    let mut h = Fnv1a::new();
    for lane in lanes {
        h.word(lane);
    }
    for v in tail {
        h.word(v.to_bits() as u64);
    }
    h.word(data.len() as u64).finish()
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

    /// Four threads start together and execute the same 1D/2D/3D requests
    /// on one runtime, each from a different offset, so plan compiles and
    /// tuner slots race under the ranked-lock checker. Every outcome matches
    /// a sequential run on a fresh runtime, and every lookup is counted once.
    #[test]
    fn concurrent_callers_share_one_runtime() {
        use spider_stencil::dim3::Kernel3D;
        const THREADS: usize = 4;
        let mut reqs = mixed_batch(0);
        reqs.push(StencilRequest::new_3d(500, Kernel3D::random_box(1, 8), 3, 40, 48).with_seed(5));
        let n = reqs.len();
        let rt = runtime();
        let barrier = std::sync::Barrier::new(THREADS);
        let runs: Vec<Vec<(usize, RequestOutcome)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (rt, reqs, barrier) = (&rt, &reqs, &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        (0..n)
                            .map(|k| (t * n / THREADS + k) % n)
                            .map(|i| (i, rt.execute(&reqs[i]).unwrap()))
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let solo = runtime();
        let want: Vec<RequestOutcome> = reqs.iter().map(|r| solo.execute(r).unwrap()).collect();
        for (i, got) in runs.iter().flatten() {
            assert_eq!(got.checksum, want[*i].checksum, "request {}", got.id);
            assert_eq!(got.report.counters, want[*i].report.counters);
            assert_eq!(got.tiling, want[*i].tiling);
        }
        let stats = rt.cache_stats();
        assert_eq!(stats.hits + stats.misses, (THREADS * n) as u64);
    }

    /// Pooled buffers are handed out with stale contents: an input is
    /// rebuilt over its whole padded extent and a scratch grid gets the
    /// source's halo before the sweep writes its interior, so a pool full
    /// of NaN changes no output bit. A NaN left anywhere would show: in
    /// the input it turns outputs to NaN, and the checksum covers the halo.
    #[test]
    fn a_pool_full_of_nan_changes_no_output_bit() {
        use spider_stencil::dim3::Kernel3D;
        let rt = runtime();
        for len in [1 << 10, 1 << 14, 1 << 16, 1 << 18, 1 << 20] {
            for _ in 0..4 {
                rt.pool().put(vec![f32::NAN; len]);
            }
        }
        let mut batch = mixed_batch(0);
        batch.push(StencilRequest::new_2d(50, StencilKernel::heat_2d(0.1), 64, 80).with_steps(3));
        batch.push(StencilRequest::new_1d(51, StencilKernel::wave_1d(1), 5000).with_steps(2));
        for (j, steps) in [(0u64, 1), (1, 2)] {
            let req = StencilRequest::new_3d(60 + j, Kernel3D::random_box(1, 8), 3, 40, 48);
            batch.push(req.with_seed(j).with_steps(steps));
        }
        let got = rt.run_batch(&batch);
        let want = runtime().run_batch(&batch);
        assert!(got.failures.is_empty());
        assert!(rt.pool_stats().hits > 0, "the NaN buffers were used");
        for (g, w) in got.outcomes.iter().zip(&want.outcomes) {
            assert_eq!(g.checksum, w.checksum, "request {}", g.id);
            assert_eq!(g.report.counters, w.report.counters);
            assert_eq!(g.report.time_s().to_bits(), w.report.time_s().to_bits());
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
        let opts = RuntimeOptions::default();
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
            RuntimeOptions::default(),
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
            RuntimeOptions::default(),
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
    fn checksum_sees_every_bit_swap_and_length() {
        // 125 full 8-float lane chunks plus a 3-float tail.
        let data: Vec<f32> = (0..1003).map(|i| i as f32 * 0.37 - 150.0).collect();
        let base = output_checksum(&data);
        // Pinned so an accidental change to the hash shows; nothing
        // persists checksums, so a deliberate change only updates this.
        assert_eq!(base, 0x9a5b_865a_d623_0871);
        for pos in [0, 1, 2, 7, 8, 9, 513, 998, 999, 1000, 1001, 1002] {
            for bit in 0..32 {
                let mut d = data.clone();
                d[pos] = f32::from_bits(d[pos].to_bits() ^ (1 << bit));
                assert_ne!(output_checksum(&d), base, "flip of bit {bit} at {pos}");
            }
        }
        // Adjacent swaps inside one word, across words and in the tail.
        for pos in [0, 1, 7, 1000, 1001] {
            let mut d = data.clone();
            d.swap(pos, pos + 1);
            assert_ne!(output_checksum(&d), base, "swap at {pos}");
        }
        // An appended 0.0, after a tail and after a whole chunk.
        for len in [1003, 1000] {
            let mut d = data[..len].to_vec();
            d.push(0.0);
            assert_ne!(output_checksum(&d), output_checksum(&data[..len]), "{len}");
        }
    }

    /// The checksum's values, recorded before the hash was kept scalar
    /// under the AVX2 baseline: a rewrite or a build flag that moved any
    /// value fails here, where the other tests, which recompute the hash
    /// with this same function, would pass.
    #[test]
    fn checksum_keeps_its_golden_values() {
        let data: Vec<f32> = (0..4099).map(|i| i as f32 * 0.37 - 150.0).collect();
        for (len, want) in [
            (0, 0x9f45_5a3c_21ea_74c5),
            (1, 0x82ac_a23b_f12d_d467),
            (7, 0x8b74_21cc_aa94_005d),
            (8, 0xe0b7_ad65_ee19_2d15),
            (9, 0xae2a_5267_4fe1_6535),
            (4099, 0xba9f_59c3_088d_bacb),
        ] {
            assert_eq!(output_checksum(&data[..len]), want, "length {len}");
        }
        // −0, quiet and signalling NaNs of either sign and the infinities
        // hash by their bit patterns.
        let special = [
            0x3fc0_0000,
            0x8000_0000,
            0x7fc0_0000,
            0x0000_0000,
            0xffc0_0000,
            0x7f80_0001,
            0xc010_0000,
            0x8000_0000,
            0x7f80_0000,
            0x4040_0000,
            0xff80_0000,
        ]
        .map(f32::from_bits);
        assert_eq!(output_checksum(&special), 0xb835_f6ff_2be8_e695);
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

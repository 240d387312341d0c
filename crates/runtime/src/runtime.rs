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
use spider_core::sync::{LockRank, OrderedMutex};
use spider_core::tiling::TilingConfig;
use spider_gpu_sim::timing::KernelReport;
use spider_gpu_sim::GpuDevice;
use spider_stencil::dim3::Grid3D;
use spider_stencil::fnv::Fnv1a;
use spider_stencil::{Grid1D, Grid2D};
use spider_telemetry::{
    EventBatch, EventKind, MetricsSnapshot, Phase, PhaseStats, ResolveSource, Telemetry,
    TelemetryConfig, Terminal, Who,
};

use crate::cache::{CacheStats, CachedPlan, PlanCache};
use crate::report::{RequestOutcome, RuntimeReport};
use crate::request::{GridSpec, StencilRequest};
use crate::scheduler::drr_cost;
use crate::tuner::{AutoTuner, TuneOutcome};

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
            tuner_dry_run_cap: 1 << 14,
            tuner_shortlist: 4,
            tuner_memo_capacity: 1024,
            telemetry: TelemetryConfig::default(),
        }
    }
}

/// The request counts only the runtime keeps: written where a request
/// concludes failed or volumetric (never when telemetry is disabled) and
/// read by [`SpiderRuntime::metrics_snapshot`] when it is taken.
/// Completions, compiles and the service and simulated-time histograms are
/// not here: the profiler folds them from each flushed batch.
#[derive(Debug, Clone, Copy, Default)]
struct RuntimeMeters {
    /// `spider_runtime_requests_failed_total`.
    failed: u64,
    /// `spider_runtime_volumetric_completed_total`.
    volumetric: u64,
}

/// Events a served group records per request in each of its two batches,
/// at most: preparing it, a resolve exit, a plan-resolve, a tune and its
/// subgroup's tune exit; executing it, an execute, a complete and its
/// subgroup's launch and exec exit.
const EVENTS_PER_REQUEST: usize = 4;

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
    /// Observability: trace ring and phase profiler. `Arc` so the
    /// scheduler (and cluster) can share the same sinks.
    telemetry: Arc<Telemetry>,
    meters: OrderedMutex<RuntimeMeters>,
}

impl SpiderRuntime {
    pub fn new(device: GpuDevice, options: RuntimeOptions) -> Self {
        let telemetry = Arc::new(Telemetry::new(options.telemetry));
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
            telemetry,
            meters: OrderedMutex::new(
                LockRank::RuntimeMeters,
                "runtime.meters",
                RuntimeMeters::default(),
            ),
        }
    }

    /// A runtime with default options on the given device.
    pub fn with_defaults(device: GpuDevice) -> Self {
        Self::new(device, RuntimeOptions::default())
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

    /// The runtime's telemetry handle: trace ring and per-plan phase
    /// profiler. Always present; when [`RuntimeOptions::telemetry`]
    /// disables it, every sink is an inert no-op and stays empty.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Every metric this runtime exports, read when called: its request
    /// meters, the completions and compiles the profiler folded from the
    /// trace, plus the cache, tuner, pool and trace-drop values read
    /// from the structs that own them ([`CacheStats`], [`PoolStats`]), so
    /// the export reconciles exactly with them at any moment. Empty when
    /// telemetry is disabled.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        if !self.telemetry.enabled() {
            return MetricsSnapshot::default();
        }
        let mut snap = MetricsSnapshot::default();
        let meters = *self.meters.lock();
        snap.counter("spider_runtime_requests_failed_total", meters.failed);
        snap.counter(
            "spider_runtime_volumetric_completed_total",
            meters.volumetric,
        );
        let profiler = self.telemetry.profiler();
        snap.histogram("spider_runtime_service_time_us", profiler.service_us());
        snap.histogram("spider_runtime_sim_exec_us", profiler.sim_exec_us());
        let mut folded = PhaseStats::default();
        for plan in profiler.snapshot() {
            folded.merge(&plan.stats);
        }
        snap.counter("spider_runtime_requests_completed_total", folded.requests);
        snap.counter("spider_runtime_plan_compiles_total", folded.compiles);
        let cache = self.cache.stats();
        snap.counter("spider_plan_cache_hits_total", cache.hits);
        snap.counter("spider_plan_cache_misses_total", cache.misses);
        snap.counter("spider_plan_cache_insertions_total", cache.insertions);
        snap.counter("spider_plan_cache_evictions_total", cache.evictions);
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
        let who = Who::new(req.id, req.plan_key(), req.attempt);
        let mut log = self.telemetry.batch(EVENTS_PER_REQUEST + 1);
        let admitted = log.now_s();
        log.record(who, EventKind::Admit, 0.0, admitted);
        let mut results = self.serve_group(std::slice::from_ref(req), log, admitted);
        results.pop().expect("one result per request") // guard: run_group returns one result per input
    }

    /// Tune the tiling for a request against an already-resolved plan.
    /// Volumes tune their *plane* tiling through the 3D plan's
    /// representative slice (every plane sweep shares it).
    fn select_tiling(&self, plan: &CachedPlan, req: &StencilRequest, plan_key: u64) -> TuneOutcome {
        let rep = match plan {
            CachedPlan::Planar(p) => p.as_ref(),
            CachedPlan::Volumetric(p) => p.representative_slice(),
        };
        self.tuner
            .tune(&self.device, rep, req.mode, req.grid, plan_key)
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
    /// tests pin this down). The group's events are recorded in one batch
    /// and reach the trace, and the profiler, before it returns.
    pub fn run_group(
        &self,
        requests: &[StencilRequest],
    ) -> Vec<Result<RequestOutcome, RuntimeError>> {
        let log = self.telemetry.batch(EVENTS_PER_REQUEST * requests.len());
        let start = log.now_s();
        self.serve_group(requests, log, start)
    }

    /// [`Self::run_group`] on a batch that may already hold events, from
    /// the stamp `start_s` on: prepare, execute, conclude every request and
    /// flush the batch.
    fn serve_group(
        &self,
        requests: &[StencilRequest],
        log: EventBatch,
        start_s: f64,
    ) -> Vec<Result<RequestOutcome, RuntimeError>> {
        let group = self.prepare_group(requests, log, start_s);
        let mut run = self.execute_group(&group);
        let now = run.log.now_s();
        for (&who, result) in group.whos.iter().zip(&run.results) {
            let verdict = result.as_ref().map_err(|_| Terminal::Failed);
            self.conclude(who, verdict, &mut run.log, now);
        }
        run.flush(&self.telemetry);
        run.results
    }

    /// Record a request's verdict in `log`, stamped `now_s`: its one
    /// `Complete` event (whose flush counts a done request and its
    /// simulated time) and the failure and volumetric counts. `Ok` is a
    /// done request's outcome; `Err` names any other terminal. Only the
    /// request's owner calls it: the scheduler's `finish` for every ticket,
    /// and [`Self::run_group`] and [`Self::run_batch`] for requests no
    /// scheduler owns.
    pub(crate) fn conclude(
        &self,
        who: Who,
        verdict: Result<&RequestOutcome, Terminal>,
        log: &mut EventBatch,
        now_s: f64,
    ) {
        let sim_s = verdict.map_or(0.0, |outcome| outcome.report.time_s());
        let terminal = verdict.err().unwrap_or(Terminal::Done);
        log.record(who, EventKind::Complete { terminal }, sim_s, now_s);
        if !log.enabled() {
            return;
        }
        match verdict {
            Ok(outcome) if outcome.volumetric => self.meters.lock().volumetric += 1,
            Err(Terminal::Failed) => self.meters.lock().failed += 1,
            _ => {}
        }
    }

    /// Label `req`'s plan in the profiler with its scenario: done when the
    /// group compiles or fails, so every plan row is labelled once and a
    /// warm group formats nothing.
    fn label(&self, log: &EventBatch, who: Who, req: &StencilRequest) {
        if log.enabled() {
            self.telemetry
                .profiler()
                .touch(who.plan_key, || req.scenario());
        }
    }

    /// The first half of [`Self::run_group`]: check each request's
    /// dimensions, resolve the plan (per request, for hit/miss parity with
    /// `run_batch`), split the group into exec-key subgroups (keys sort
    /// deterministically) and tune each subgroup's head. All a wave needs
    /// to size its fan-out, before any grid exists. Its events go into
    /// `log` from the stamp `start_s` on, each span opening where the last
    /// closed.
    fn prepare_group<'a>(
        &self,
        requests: &'a [StencilRequest],
        mut log: EventBatch,
        start_s: f64,
    ) -> PreparedGroup<'a> {
        let whos: Vec<Who> = requests
            .iter()
            .map(|req| Who::new(req.id, req.plan_key(), req.attempt))
            .collect();
        let mut plan: Option<CachedPlan> = None;
        let mut lookups = Vec::with_capacity(requests.len());
        let mut at = start_s;
        for (req, &who) in requests.iter().zip(&whos) {
            debug_assert_eq!(
                who.plan_key, whos[0].plan_key,
                "run_group requires a single plan key"
            );
            if !req.dims_consistent() {
                let e = RuntimeError::DimensionMismatch {
                    id: req.id,
                    scenario: req.scenario(),
                };
                self.label(&log, who, req);
                let service_s = log.now_s() - start_s;
                lookups.push(Err(fail(&mut log, service_s, e)));
                continue;
            }
            let resolved = self.cache.get_or_compile(who.plan_key, &req.kernel);
            at = log.exit(who, Phase::Resolve, at);
            lookups.push(match resolved {
                Ok((p, hit)) => {
                    let source = if hit {
                        ResolveSource::CacheHit
                    } else {
                        self.label(&log, who, req);
                        ResolveSource::Compile
                    };
                    log.record(who, EventKind::PlanResolve { source }, 0.0, at);
                    plan = Some(p);
                    Ok(hit)
                }
                Err(e) => {
                    self.label(&log, who, req);
                    Err(fail(&mut log, at - start_s, e.into()))
                }
            });
        }

        let mut subgroups = Vec::new();
        if let Some(plan) = &plan {
            let mut order: Vec<usize> = (0..requests.len())
                .filter(|&i| lookups[i].is_ok())
                .collect();
            order.sort_by_key(|&i| (requests[i].exec_key(), i));
            for members in contiguous_key_runs(&order, |i| requests[i].exec_key()) {
                let head = whos[members[0]];
                let tuned = self.select_tiling(plan, &requests[members[0]], head.plan_key);
                at = log.exit(head, Phase::Tune, at);
                let sub = Subgroup {
                    members: members.to_vec(),
                    tiling: tuned.tiling,
                    head_memo_hit: tuned.memoized,
                };
                for (slot, &i) in members.iter().enumerate() {
                    let tune = EventKind::Tune {
                        memo_hit: sub.memo_hit(slot),
                        dry_runs: if slot == 0 { tuned.dry_runs as u64 } else { 0 },
                    };
                    log.record(whos[i], tune, 0.0, at);
                }
                subgroups.push(sub);
            }
        }
        PreparedGroup {
            requests,
            whos,
            start_s,
            ready_s: at,
            lookups,
            plan,
            subgroups,
            log,
        }
    }

    /// The second half of [`Self::run_group`]: run each exec-key subgroup,
    /// member by member, and record every outcome in a batch of its own
    /// (a wave's jobs share the prepared groups). Each subgroup's exec span
    /// opens where the last closed, and its members' `Execute` events and
    /// service times share its exit's clock read.
    fn execute_group<'g>(&self, g: &'g PreparedGroup<'_>) -> GroupRun<'g> {
        let t = &self.telemetry;
        let mut log = t.batch(EVENTS_PER_REQUEST * g.requests.len());
        let mut results: Vec<Option<Result<RequestOutcome, RuntimeError>>> = g
            .lookups
            .iter()
            .map(|l| l.as_ref().err().map(|e| Err(e.clone())))
            .collect();
        let mut at = log.now_s();
        for sub in &g.subgroups {
            let members = sub.members.len();
            let coalesced = members > 1;
            let wave_id = t.next_wave_id();
            let (open, head) = (at, g.whos[sub.members[0]]);
            let run = self.run_subgroup(g, sub, wave_id, &mut log, open);
            at = log.exit(head, Phase::Exec, open);
            let done = match run {
                Ok(done) => done,
                Err(e) => {
                    // A shared-executor failure is attributed to every
                    // member: the whole subgroup ran under one launch plan.
                    for &i in &sub.members {
                        let e = RuntimeError::Exec(e.clone());
                        results[i] = Some(Err(fail(&mut log, at - g.start_s, e)));
                    }
                    continue;
                }
            };
            let launch_share = 1.0 / members as f64;
            // Every member shares the head's kernel and extent.
            let scenario: Arc<str> = g.requests[sub.members[0]].scenario().into();
            for ((slot, &i), (checksum, report)) in sub.members.iter().enumerate().zip(done) {
                let req = &g.requests[i];
                let execute = EventKind::Execute {
                    wave_id,
                    coalesced,
                    launch_share,
                };
                log.record(g.whos[i], execute, report.time_s(), at);
                log.service((at - g.start_s) * 1e6);
                results[i] = Some(Ok(RequestOutcome {
                    id: req.id,
                    scenario: Arc::clone(&scenario),
                    cache_hit: matches!(g.lookups[i], Ok(true)),
                    tuner_memo_hit: sub.memo_hit(slot),
                    coalesced,
                    volumetric: req.is_volumetric(),
                    tiling: sub.tiling,
                    report: Arc::new(report),
                    checksum,
                }));
            }
        }
        let results = results
            .into_iter()
            .map(|r| r.expect("every request resolved")) // guard: every request resolved by the phases above
            .collect();
        GroupRun {
            results,
            log,
            prepared: &g.log,
        }
    }

    /// Run one exec-key subgroup through one configured executor, member by
    /// member ([`run_each`]); a planar subgroup's batched launch is traced
    /// on its head, stamped `open_s`. Returns each member's checksum and
    /// report.
    fn run_subgroup(
        &self,
        g: &PreparedGroup<'_>,
        sub: &Subgroup,
        wave_id: u64,
        log: &mut EventBatch,
        open_s: f64,
    ) -> Result<Vec<(u64, KernelReport)>, String> {
        let plan = g.plan.as_ref().expect("a subgroup has a plan"); // guard: prepare_group builds subgroups only once a plan resolved
        let head = &g.requests[sub.members[0]];
        let (members, steps, pool) = (sub.members.len(), head.steps, &self.pool);
        let requests = sub.members.iter().map(|&i| &g.requests[i]);
        let config = ExecConfig {
            tiling: sub.tiling,
            ..ExecConfig::default()
        };
        let mut planar = || {
            let launch = EventKind::Launch {
                wave_id,
                members,
                launch_share: 1.0 / members as f64,
            };
            log.record(g.whos[sub.members[0]], launch, 0.0, open_s);
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
    /// Each group records into a batch of its own; the stamp one group's
    /// preparation ends at is where the next one's starts.
    pub(crate) fn prepare_wave<'a>(&self, groups: &[&'a [StencilRequest]]) -> Wave<'_, 'a> {
        let mut at = None;
        let groups: Vec<PreparedGroup<'a>> = groups
            .iter()
            .map(|requests| {
                let log = self.telemetry.batch(EVENTS_PER_REQUEST * requests.len());
                let start = at.unwrap_or_else(|| log.now_s());
                let group = self.prepare_group(requests, log, start);
                at = Some(group.ready_s);
                group
            })
            .collect();
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
        let whos: Vec<Who> = requests
            .iter()
            .map(|req| Who::new(req.id, req.plan_key(), req.attempt))
            .collect();
        let mut admits = self.telemetry.batch(requests.len());
        let admitted = admits.stamp(start);
        for &who in &whos {
            admits.record(who, EventKind::Admit, 0.0, admitted);
        }
        self.telemetry.flush(&[&admits]);

        // Group by plan key to amortize compile + tuning within the batch.
        let mut order: Vec<usize> = (0..requests.len()).collect();
        order.sort_by_key(|&i| (whos[i].plan_key, i));
        let groups = contiguous_key_runs(&order, |i| whos[i].plan_key);
        let reqs: Vec<Vec<StencilRequest>> = groups
            .iter()
            .map(|members| members.iter().map(|&i| requests[i].clone()).collect())
            .collect();
        let slices: Vec<&[StencilRequest]> = reqs.iter().map(Vec::as_slice).collect();
        // No scheduler owns these requests: the batch records each verdict
        // as its group finishes, and flushes the group's events.
        let per_group = self.prepare_wave(&slices).run(|g, mut run| {
            let now = run.log.now_s();
            for (&i, result) in groups[g].iter().zip(&run.results) {
                let verdict = result.as_ref().map_err(|_| Terminal::Failed);
                self.conclude(whos[i], verdict, &mut run.log, now);
            }
            run.flush(&self.telemetry);
            run.results
        });

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

/// Record the service time of a request that failed `service_s` after its
/// group started, and hand the error back as its result.
fn fail(log: &mut EventBatch, service_s: f64, e: RuntimeError) -> RuntimeError {
    log.service(service_s * 1e6);
    e
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
///
/// It is also the scheduler's fill: a tenant alone in the top cohort
/// refills its deficit-round-robin deficit with at least this much, so its
/// wave takes up to one job's work (128 requests of 16×16) and still runs
/// as one job. A tenant that arrives meanwhile waits for at most that wave:
/// `max(weight × largest queued cost, MIN_WAVE_JOB_COST)` of work, about
/// 1 ms of 16×16 requests on the host above.
pub const MIN_WAVE_JOB_COST: u64 = 1 << 15;

/// One exec-key subgroup of a prepared group: its members (indices into
/// the group, submission order) and the tiling its head's tune chose.
struct Subgroup {
    members: Vec<usize>,
    tiling: TilingConfig,
    head_memo_hit: bool,
}

impl Subgroup {
    /// Whether the member at `slot` found the tuning memoized. The head
    /// pays the dry-runs (if any) and reports whether the memo was already
    /// warm; every later member hits the entry that call guaranteed (the
    /// tuner memoizes per plan/grid/mode, and the subgroup shares all
    /// three).
    fn memo_hit(&self, slot: usize) -> bool {
        slot > 0 || self.head_memo_hit
    }
}

/// A plan-key group, resolved and tuned ([`SpiderRuntime::prepare_group`]).
struct PreparedGroup<'a> {
    requests: &'a [StencilRequest],
    /// Per request: who its trace events name (its plan key hashed once).
    whos: Vec<Who>,
    /// When the group started, the origin of its service times.
    start_s: f64,
    /// When its preparation ended (its last stamp).
    ready_s: f64,
    /// Per request: whether its plan lookup hit the memory cache, or the
    /// failure that ended it before execution.
    lookups: Vec<Result<bool, RuntimeError>>,
    plan: Option<CachedPlan>,
    subgroups: Vec<Subgroup>,
    /// The group's events so far.
    log: EventBatch,
}

/// An executed group ([`SpiderRuntime::execute_group`]): each request's
/// result, in input order, and the group's events: its preparation's, and
/// its execution's in `log`, verdicts not yet recorded. Its owner
/// concludes every request in `log`, then flushes both.
pub(crate) struct GroupRun<'g> {
    pub(crate) results: Vec<Result<RequestOutcome, RuntimeError>>,
    pub(crate) log: EventBatch,
    prepared: &'g EventBatch,
}

impl GroupRun<'_> {
    /// Flush the group's events, its preparation's first: one ring lock
    /// and one profiler lock for the whole group.
    pub(crate) fn flush(&self, telemetry: &Telemetry) {
        telemetry.flush(&[self.prepared, &self.log]);
    }
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
    /// one counter, in claim order, and call `done(group, run)` as each
    /// group finishes, so a group's verdicts are recorded, and its events
    /// flushed, while the wave's other groups still run. Returns `done`'s
    /// values in group order.
    pub(crate) fn run<R: Send>(self, done: impl Fn(usize, GroupRun<'_>) -> R + Sync) -> Vec<R> {
        let next = AtomicUsize::new(0);
        let finished = fan_out(self.jobs, || {
            let mut mine = Vec::new();
            while let Some(&g) = self.order.get(next.fetch_add(1, Ordering::Relaxed)) {
                let run = self.runtime.execute_group(&self.groups[g]);
                mine.push((g, done(g, run)));
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
    use spider_stencil::dim3::Kernel3D;
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

    /// A solo request records each fact once: a span is its one exit
    /// event, with no opening event beside it.
    #[test]
    fn solo_execute_records_one_event_per_fact() {
        let rt = runtime();
        let req = StencilRequest::new_2d(7, StencilKernel::jacobi_2d(), 64, 64);
        rt.execute(&req).unwrap();
        let kinds: Vec<EventKind> = rt
            .telemetry()
            .trace()
            .timeline(req.id)
            .iter()
            .map(|e| e.kind)
            .collect();
        assert!(
            matches!(
                kinds.as_slice(),
                [
                    EventKind::Admit,
                    EventKind::SpanExit {
                        phase: Phase::Resolve,
                        ..
                    },
                    EventKind::PlanResolve {
                        source: ResolveSource::Compile
                    },
                    EventKind::SpanExit {
                        phase: Phase::Tune,
                        ..
                    },
                    EventKind::Tune { .. },
                    EventKind::Launch { members: 1, .. },
                    EventKind::SpanExit {
                        phase: Phase::Exec,
                        ..
                    },
                    EventKind::Execute {
                        coalesced: false,
                        ..
                    },
                    EventKind::Complete {
                        terminal: Terminal::Done
                    },
                ]
            ),
            "{kinds:?}"
        );
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
    /// tunes race under the ranked-lock checker. Every outcome matches a
    /// sequential run on a fresh runtime, and every lookup is counted once.
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

    /// Closed-form charges `plan` has paid, a volume's slices included.
    fn charge_misses(plan: &CachedPlan) -> u64 {
        match plan {
            CachedPlan::Planar(p) => p.charge_misses(),
            CachedPlan::Volumetric(v) => v.slices().iter().map(|(_, p)| p.charge_misses()).sum(),
        }
    }

    /// Counters are charged once per (plan, extent, tiling, mode,
    /// row-swap): a warm runtime serves an identical request's counters
    /// from its plan's memo, on 1D, 2D and 3D plans, and reports the same.
    #[test]
    fn a_warm_repeat_charges_no_counters() {
        let rt = runtime();
        let requests = [
            StencilRequest::new_2d(1, StencilKernel::random(StencilShape::box_2d(1), 3), 16, 16),
            StencilRequest::new_2d(2, StencilKernel::gaussian_2d(2), 96, 128).with_steps(2),
            StencilRequest::new_1d(3, StencilKernel::wave_1d(2), 5000),
            StencilRequest::new_3d(4, Kernel3D::random_box(1, 4), 3, 20, 24),
        ];
        for req in requests {
            let first = rt.execute(&req).unwrap();
            let plan = rt.cache.peek(req.plan_key()).expect("cached");
            let paid = charge_misses(&plan);
            assert!(paid > 0, "{}: the first request charged", first.scenario);
            let again = rt.execute(&req).unwrap();
            assert_eq!(charge_misses(&plan), paid, "{}", first.scenario);
            assert_eq!(again.report, first.report);
            assert_eq!(again.checksum, first.checksum);
        }
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

//! The traced per-layer replay: the workload's leading requests, in
//! wave-sized plan-key groups, run once through each layer's public calls
//! (`get_or_compile` → `tune` → `materialize_*` → executor →
//! `output_checksum`) and once through `SpiderRuntime::run_group` on the same
//! group, on a telemetry-on and a telemetry-off runtime.

use std::hint::black_box;
use std::time::Instant;

use spider_bench::suite::{benchmark_kernel, spider_result};
use spider_core::exec3d::Spider3DExecutor;
use spider_core::{BatchFeedback, BufferPool, ExecConfig, ExecMode, SpiderExecutor};
use spider_gpu_sim::sparse::Sparse24Operand;
use spider_gpu_sim::tensor_core::{mma_sp_m16n8k16, Acc, MatB};
use spider_gpu_sim::{GpuDevice, KernelReport, PerfCounters};
use spider_runtime::{
    output_checksum, AutoTuner, CachedPlan, GridSpec, PlanCache, RuntimeOptions, SpiderRuntime,
    StencilRequest, TuneOutcome,
};
use spider_stencil::StencilShape;
use spider_telemetry::TelemetryConfig;

use crate::spans::Tracer;
use crate::stats::{median, ratio};
use crate::workload::{new_runtime, Inputs};

/// Replay passes, each on fresh state; per-request figures are the median
/// over passes, and the deterministic counts must agree between passes.
const PASSES: usize = 3;

/// Counts that depend only on the seed: they must repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Deterministic {
    pub requests: u64,
    pub points: u64,
    pub sim_time_s: f64,
    pub instructions: u64,
    pub gmem_bytes: u64,
    pub smem_waves: u64,
    pub mma_sparse: u64,
    pub dry_runs: u64,
    pub tuned_plans: u64,
}

/// Wall-clock totals of one pass, ns.
#[derive(Debug, Default)]
struct PassTimes {
    resolve: u64,
    tune: u64,
    materialize: u64,
    exec: u64,
    checksum: u64,
    run_group_on: u64,
    run_group_off: u64,
    events: u64,
}

pub struct Replay {
    pub counts: Deterministic,
    /// Every pass's counts equalled the first's.
    pub repeatable: bool,
    /// Requests whose decomposed and `run_group` checksums disagreed.
    pub mismatches: u64,
    /// Checksum of every replayed request, by id (the stream index).
    pub checksums: Vec<(u64, u64)>,
    pub resolve_us_p50: f64,
    pub compile_us_p50: f64,
    pub tune_us_p50: f64,
    pub materialize_us_per_request: f64,
    pub exec_us_per_request: f64,
    pub exec_ns_per_point: f64,
    pub checksum_us_per_request: f64,
    pub group_us_per_request: f64,
    pub unattributed_us_per_request: f64,
    pub telemetry_overhead_ratio: f64,
    pub events_per_request: f64,
}

/// The replay groups: the first `replay_len` requests cut into chunks of
/// `replay_chunk`, each chunk split by plan key (first-seen order).
pub fn groups(inputs: &Inputs) -> Vec<Vec<StencilRequest>> {
    let stream: Vec<StencilRequest> = (0..inputs.replay_len.min(inputs.len()))
        .map(|i| inputs.request(i))
        .collect();
    let mut out = Vec::new();
    for chunk in stream.chunks(inputs.replay_chunk.max(1)) {
        let mut by_key: Vec<(u64, Vec<StencilRequest>)> = Vec::new();
        for req in chunk {
            let key = req.plan_key();
            match by_key.iter_mut().find(|(k, _)| *k == key) {
                Some((_, g)) => g.push(req.clone()),
                None => by_key.push((key, vec![req.clone()])),
            }
        }
        out.extend(by_key.into_iter().map(|(_, g)| g));
    }
    out
}

/// Collects each coalesced grid's report in order.
#[derive(Default)]
struct Collect(Vec<KernelReport>);

impl BatchFeedback for Collect {
    fn on_grid_done(&mut self, _index: usize, report: &KernelReport) {
        self.0.push(report.clone());
    }
}

/// One pass's state, warmed the way the workload's set-up warms the
/// serving runtime.
struct State {
    device: GpuDevice,
    cache: PlanCache,
    tuner: AutoTuner,
    pool: BufferPool,
    rt_on: SpiderRuntime,
    rt_off: SpiderRuntime,
    counts: Deterministic,
}

impl State {
    fn new(inputs: &Inputs) -> Result<Self, String> {
        let o = inputs.runtime;
        let mut st = Self {
            device: GpuDevice::a100(),
            cache: PlanCache::new(o.cache_capacity),
            tuner: AutoTuner::with_memo_capacity(
                o.tuner_dry_run_cap,
                o.tuner_shortlist,
                o.tuner_memo_capacity,
            ),
            pool: BufferPool::new(),
            rt_on: new_runtime(o),
            rt_off: new_runtime(RuntimeOptions {
                telemetry: TelemetryConfig::disabled(),
                ..o
            }),
            counts: Deterministic::default(),
        };
        for req in &inputs.warmup {
            let (plan, _) = st
                .cache
                .get_or_compile(req.plan_key(), &req.kernel)
                .map_err(|e| e.to_string())?;
            st.tune(&plan, req);
        }
        for rt in [&st.rt_on, &st.rt_off] {
            let report = rt.run_batch(&inputs.warmup);
            if !report.failures.is_empty() {
                return Err(format!("replay warm-up failed: {:?}", report.failures));
            }
        }
        Ok(st)
    }

    fn tune(&mut self, plan: &CachedPlan, req: &StencilRequest) -> TuneOutcome {
        let rep = match plan {
            CachedPlan::Planar(p) => p.as_ref(),
            CachedPlan::Volumetric(p) => p.representative_slice(),
        };
        let out = self
            .tuner
            .tune(&self.device, rep, req.mode, req.grid, req.plan_key());
        if !out.memoized {
            self.counts.dry_runs += out.dry_runs as u64;
            self.counts.tuned_plans += 1;
        }
        out
    }

    /// `run_group`'s work, one public call at a time, each under a span.
    fn decomposed(
        &mut self,
        group: &[StencilRequest],
        t: &mut Tracer,
        parent: usize,
    ) -> Result<Vec<(u64, KernelReport)>, String> {
        let p = Some(parent);
        let key = group[0].plan_key();
        let mut plan = None;
        for req in group {
            let (resolved, _) = t
                .time("cache.resolve", p, req.id, || {
                    self.cache.get_or_compile(key, &req.kernel)
                })
                .map_err(|e| e.to_string())?;
            plan = Some(resolved);
        }
        let plan = plan.ok_or("empty replay group")?;
        let mut order: Vec<usize> = (0..group.len()).collect();
        order.sort_by_key(|&i| (group[i].exec_key(), i));
        let mut results: Vec<Option<(u64, KernelReport)>> = vec![None; group.len()];
        let mut start = 0;
        while start < order.len() {
            let head = &group[order[start]];
            let mut end = start + 1;
            while end < order.len() && group[order[end]].exec_key() == head.exec_key() {
                end += 1;
            }
            let members = &order[start..end];
            start = end;
            let tuned = t.time("tuner.tune", p, head.id, || self.tune(&plan, head));
            let config = ExecConfig {
                tiling: tuned.tiling,
                ..ExecConfig::default()
            };
            let planar = || plan.planar().ok_or("planar request, volumetric plan");
            let reports: Vec<(u64, KernelReport)> = match head.grid {
                GridSpec::D1 { .. } => {
                    let exec = SpiderExecutor::with_shared_pool(
                        &self.device,
                        head.mode,
                        config,
                        self.pool.clone(),
                    );
                    let mut grids: Vec<_> = members
                        .iter()
                        .map(|&i| {
                            t.time("request.materialize", p, group[i].id, || {
                                group[i].materialize_1d()
                            })
                        })
                        .collect();
                    let mut fb = Collect::default();
                    t.time("core.exec", p, head.id, || {
                        exec.run_1d_coalesced(planar()?, &mut grids, head.steps, &mut fb)
                    })?;
                    members
                        .iter()
                        .zip(&grids)
                        .map(|(&i, g)| {
                            t.time("runtime.checksum", p, group[i].id, || {
                                output_checksum(g.padded())
                            })
                        })
                        .zip(fb.0)
                        .collect()
                }
                GridSpec::D2 { .. } => {
                    let exec = SpiderExecutor::with_shared_pool(
                        &self.device,
                        head.mode,
                        config,
                        self.pool.clone(),
                    );
                    let mut grids: Vec<_> = members
                        .iter()
                        .map(|&i| {
                            t.time("request.materialize", p, group[i].id, || {
                                group[i].materialize_2d()
                            })
                        })
                        .collect();
                    let mut fb = Collect::default();
                    t.time("core.exec", p, head.id, || {
                        exec.run_2d_coalesced(planar()?, &mut grids, head.steps, &mut fb)
                    })?;
                    members
                        .iter()
                        .zip(&grids)
                        .map(|(&i, g)| {
                            t.time("runtime.checksum", p, group[i].id, || {
                                output_checksum(g.padded())
                            })
                        })
                        .zip(fb.0)
                        .collect()
                }
                GridSpec::D3 { .. } => {
                    let exec = Spider3DExecutor::with_shared_pool(
                        &self.device,
                        head.mode,
                        config,
                        self.pool.clone(),
                    );
                    let vol = plan.volumetric().ok_or("volumetric request, planar plan")?;
                    let mut out = Vec::with_capacity(members.len());
                    for &i in members {
                        let id = group[i].id;
                        let mut grid =
                            t.time("request.materialize", p, id, || group[i].materialize_3d());
                        let report =
                            t.time("core.exec", p, id, || exec.run(vol, &mut grid, head.steps))?;
                        let sum =
                            t.time("runtime.checksum", p, id, || output_checksum(grid.padded()));
                        out.push((sum, report));
                    }
                    out
                }
            };
            for (&i, r) in members.iter().zip(reports) {
                results[i] = Some(r);
            }
        }
        Ok(results
            .into_iter()
            .map(|r| r.expect("every member ran"))
            .collect())
    }
}

/// Sum of span durations named `name` recorded from index `from` on.
fn total_ns(t: &Tracer, from: usize, name: &str) -> u64 {
    t.spans()[from..]
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns())
        .sum()
}

fn events(rt: &SpiderRuntime) -> u64 {
    let trace = rt.telemetry().trace();
    trace.len() as u64 + trace.dropped_events()
}

/// A pass's counts, times, checksum mismatches and (id, checksum) pairs.
type PassOut = (Deterministic, PassTimes, u64, Vec<(u64, u64)>);

/// One replay pass over `groups` on fresh, warmed state.
fn pass(
    inputs: &Inputs,
    groups: &[Vec<StencilRequest>],
    t: &mut Tracer,
) -> Result<PassOut, String> {
    let mut st = State::new(inputs)?;
    let from = t.spans().len();
    let events_before = events(&st.rt_on);
    let mut mismatches = 0;
    let mut checksums = Vec::new();
    for (gi, group) in groups.iter().enumerate() {
        let id = group[0].id;
        let mut decomposed = None;
        let mut on = None;
        let mut off = None;
        // Rotate which path runs first so warm host caches favour none.
        for k in 0..3 {
            match (gi + k) % 3 {
                0 => {
                    let g = t.open("replay.group", None, id);
                    decomposed = Some(st.decomposed(group, t, g));
                    t.close(g);
                }
                1 => on = Some(t.time("runtime.run_group", None, id, || st.rt_on.run_group(group))),
                _ => {
                    off = Some(t.time("runtime.run_group_off", None, id, || {
                        st.rt_off.run_group(group)
                    }))
                }
            }
        }
        let decomposed = decomposed.expect("ran")?;
        let (on, off) = (on.expect("ran"), off.expect("ran"));
        for (((req, (sum, report)), on), off) in group.iter().zip(&decomposed).zip(on).zip(off) {
            let agree =
                matches!((&on, &off), (Ok(a), Ok(b)) if a.checksum == *sum && b.checksum == *sum);
            if !agree {
                mismatches += 1;
                eprintln!(
                    "perfbench: replay of request {} disagrees with run_group",
                    req.id
                );
            }
            checksums.push((req.id, *sum));
            let c = &report.counters;
            let d = &mut st.counts;
            d.requests += 1;
            d.points += report.points;
            d.sim_time_s += report.time_s();
            d.instructions += c.instructions;
            d.gmem_bytes += c.gmem_read_bytes + c.gmem_write_bytes;
            d.smem_waves += c.smem_read_waves + c.smem_write_waves;
            d.mma_sparse += c.mma_sparse_f16;
        }
    }
    let times = PassTimes {
        resolve: total_ns(t, from, "cache.resolve"),
        tune: total_ns(t, from, "tuner.tune"),
        materialize: total_ns(t, from, "request.materialize"),
        exec: total_ns(t, from, "core.exec"),
        checksum: total_ns(t, from, "runtime.checksum"),
        run_group_on: total_ns(t, from, "runtime.run_group"),
        run_group_off: total_ns(t, from, "runtime.run_group_off"),
        events: events(&st.rt_on) - events_before,
    };
    // Ahead-of-time compile of every distinct plan in the replay, timed on
    // its own (inside `get_or_compile` it only runs on a miss).
    let mut seen = Vec::new();
    for req in groups.iter().flatten() {
        if !seen.contains(&req.plan_key()) {
            seen.push(req.plan_key());
            t.time("core.compile", None, req.id, || {
                CachedPlan::compile(&req.kernel)
            })
            .map_err(|e| e.to_string())?;
        }
    }
    Ok((st.counts, times, mismatches, checksums))
}

pub fn run(inputs: &Inputs, t: &mut Tracer) -> Result<Replay, String> {
    let groups = groups(inputs);
    let mut passes = Vec::with_capacity(PASSES);
    let mut mismatches = 0;
    let mut checksums = Vec::new();
    for _ in 0..PASSES {
        let (counts, times, bad, sums) = pass(inputs, &groups, t)?;
        mismatches += bad;
        checksums = sums;
        passes.push((counts, times));
    }
    let counts = passes[0].0;
    let repeatable = passes.iter().all(|(c, _)| *c == counts);
    let requests = counts.requests as f64;
    let per_request = |f: fn(&PassTimes) -> u64| {
        median(&passes.iter().map(|(_, p)| f(p) as f64).collect::<Vec<_>>()) / 1e3 / requests
    };
    let p50 = |name: &str| median(&t.self_us_of(name));
    let layers_us = per_request(|p| p.resolve + p.tune + p.materialize + p.exec + p.checksum);
    let group_us = per_request(|p| p.run_group_on);
    let exec_us = per_request(|p| p.exec);
    Ok(Replay {
        counts,
        repeatable,
        mismatches,
        checksums,
        resolve_us_p50: p50("cache.resolve"),
        compile_us_p50: p50("core.compile"),
        tune_us_p50: p50("tuner.tune"),
        materialize_us_per_request: per_request(|p| p.materialize),
        exec_us_per_request: exec_us,
        exec_ns_per_point: exec_us * 1e3 * requests / counts.points as f64,
        checksum_us_per_request: per_request(|p| p.checksum),
        group_us_per_request: group_us,
        unattributed_us_per_request: group_us - layers_us,
        telemetry_overhead_ratio: median(
            &passes
                .iter()
                .map(|(_, p)| ratio(p.run_group_on as f64, p.run_group_off as f64))
                .collect::<Vec<_>>(),
        ),
        events_per_request: passes[0].1.events as f64 / requests,
    })
}

/// Host cost of one functional `mma.sp.m16n8k16`, ns (median of 5 reps).
pub fn mma_sp_ns_per_call() -> f64 {
    const CALLS: u32 = 20_000;
    let mut dense = [[0.0f32; 16]; 16];
    for (m, row) in dense.iter_mut().enumerate() {
        for (k, v) in row.iter_mut().enumerate() {
            if k % 4 < 2 {
                *v = ((m * 16 + k) % 7) as f32 * 0.125 + 0.25;
            }
        }
    }
    let a = Sparse24Operand::compress(&dense).expect("two non-zeros per group of four");
    let mut b: MatB = [[0.0; 8]; 16];
    for (k, row) in b.iter_mut().enumerate() {
        for (n, v) in row.iter_mut().enumerate() {
            *v = ((k * 8 + n) % 5) as f32 * 0.0625;
        }
    }
    let reps: Vec<f64> = (0..5)
        .map(|_| {
            let mut acc: Acc = [[0.0; 8]; 16];
            let mut c = PerfCounters::new();
            let start = Instant::now();
            for _ in 0..CALLS {
                mma_sp_m16n8k16(&mut c, black_box(&a), black_box(&b), &mut acc);
                black_box(&mut acc);
            }
            black_box(&acc);
            start.elapsed().as_nanos() as f64 / f64::from(CALLS)
        })
        .collect();
    median(&reps)
}

/// Paper Fig 12 at its largest size: simulated GStencil/s of SPIDER with
/// SpTC + CO over SPIDER on dense tensor cores, Box-2D2R at 10240².
pub fn fig12_sptc_co_over_tc() -> f64 {
    let device = GpuDevice::a100();
    let kernel = benchmark_kernel(StencilShape::box_2d(2), 0xF12);
    let gs = |mode| spider_result(&device, &kernel, 10240, 10240, mode).gstencils;
    gs(ExecMode::SparseTcOptimized) / gs(ExecMode::DenseTc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    #[test]
    fn replay_repeats_and_agrees_with_run_group() {
        let mut inputs = Inputs::generate(Workload::TenantBurst, 1, 0.5);
        inputs.replay_len = 16;
        let mut t = Tracer::new();
        let r = run(&inputs, &mut t).unwrap();
        assert!(r.repeatable, "deterministic counts must repeat");
        assert_eq!(r.mismatches, 0);
        assert_eq!(r.counts.requests, 16);
        assert!(r.counts.mma_sparse > 0 && r.counts.dry_runs > 0);
        assert!(r.exec_us_per_request > 0.0 && r.group_us_per_request > 0.0);
    }

    #[test]
    fn groups_split_chunks_by_plan_key() {
        let inputs = Inputs::generate(Workload::MixedWarm, 2, 0.1);
        let gs = groups(&inputs);
        assert_eq!(gs.iter().map(Vec::len).sum::<usize>(), inputs.replay_len);
        for g in &gs {
            assert!(g.iter().all(|r| r.plan_key() == g[0].plan_key()));
        }
    }
}

//! The three workloads: request streams generated from the seed, the
//! runtime and scheduler they run on, and the warm-up each set-up pays.

use std::sync::Arc;
use std::time::Duration;

use spider_bench::traffic::{plan_population, Rng, ZipfSampler};
use spider_gpu_sim::GpuDevice;
use spider_runtime::{
    Deadline, GridSpec, RuntimeOptions, SchedulerOptions, SpiderRuntime, SpiderScheduler,
    StencilRequest, TenantConfig, TenantId,
};
use spider_stencil::dim3::Kernel3D;
use spider_stencil::{StencilKernel, StencilShape};

use crate::spans::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MixedWarm,
    TenantBurst,
    ParamSweepCold,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "mixed_warm" => Some(Self::MixedWarm),
            "tenant_burst" => Some(Self::TenantBurst),
            "param_sweep_cold" => Some(Self::ParamSweepCold),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::MixedWarm => "mixed_warm",
            Self::TenantBurst => "tenant_burst",
            Self::ParamSweepCold => "param_sweep_cold",
        }
    }
}

/// How the single generator thread offers load.
#[derive(Debug, Clone, Copy)]
pub enum Arrival {
    /// Keep `window` requests outstanding; submit the next as one finishes.
    Closed { window: usize },
    /// `burst` requests fall due together every `period`, whatever the
    /// scheduler's progress.
    Open { burst: usize, period: Duration },
}

/// One stream request as drawn from the seed. Requests are built from
/// their draw when submitted (as cheap as cloning a stored request), so the
/// benchmark's own input memory stays out of the program's peak RSS.
#[derive(Debug, Clone, Copy)]
enum Draw {
    /// A copy of template `t` on input data `seed`.
    Template { t: usize, seed: u64 },
    /// `tenant_burst`: template `t` for `tenant`.
    Tenant {
        t: usize,
        tenant: TenantId,
        seed: u64,
    },
    /// `param_sweep_cold`: a new coefficient set for shape family `family`.
    Sweep {
        family: usize,
        n: usize,
        coeff_seed: u64,
        seed: u64,
    },
}

/// Everything a run needs, generated from the seed before any timing.
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    /// The request stream in submission order; see [`Self::request`].
    draws: Vec<Draw>,
    templates: Vec<StencilRequest>,
    /// Submitted and drained by every set-up, before the timed window.
    pub warmup: Vec<StencilRequest>,
    pub arrival: Arrival,
    pub runtime: RuntimeOptions,
    pub scheduler: SchedulerOptions,
    /// The traced replay re-runs the first `replay_len` requests, cut into
    /// chunks of `replay_chunk` (a dispatch wave's worth) and grouped by plan
    /// key within each chunk, as a wave groups them.
    pub replay_len: usize,
    pub replay_chunk: usize,
    /// `--inject-failure`: this stream request carries a deadline that has
    /// already passed, so it expires instead of completing and the run
    /// must fail.
    pub doomed: Option<usize>,
}

/// Ids of warm-up requests sit above every stream id.
const WARMUP_ID_BASE: u64 = 1 << 40;

/// `tenant_burst`: the favoured tenant (weight 4, 20% of the traffic).
const TENANT_A: TenantId = TenantId::new(1);
/// `tenant_burst`: the heavy tenant (weight 1, 80% of the traffic).
const TENANT_B: TenantId = TenantId::new(2);

/// Closed-loop streams hold this many requests per second of window, well
/// above what either closed-loop workload completes on a 2-core host.
const CLOSED_RATE_CAP: f64 = 2000.0;

/// `tenant_burst` arrivals: a burst this deep every period. A burst drains
/// in ≈0.45 s on an idle 2-core host; the period leaves room for the host to
/// run several times slower before bursts overlap (then each wave's work
/// grows with the backlog and the queue never recovers). Bursts of 1024
/// every 1 s spread further over ten seeds (p99 0.37); bursts of 4096 every
/// 4 s spread no less and left too little room.
const BURST: usize = 2048;
const BURST_PERIOD: Duration = Duration::from_secs(2);

/// `param_sweep_cold` shape families: box and star 2D at r = 1–3, 1D at
/// r = 1–3, and one 3D box.
const SWEEP_FAMILIES: usize = 10;

impl Inputs {
    pub fn generate(workload: Workload, seed: u64, seconds: f64) -> Self {
        let mut rng = Rng::new(seed ^ 0x5EED_0FBE);
        let closed_len = (CLOSED_RATE_CAP * seconds).ceil() as usize;
        let warmup_id = |i: usize| WARMUP_ID_BASE + i as u64;
        match workload {
            Workload::MixedWarm => {
                let templates = mixed_scenarios();
                let draws = (0..closed_len)
                    .map(|_| Draw::Template {
                        t: (rng.next_u64() % templates.len() as u64) as usize,
                        seed: rng.next_u64(),
                    })
                    .collect();
                let warmup = (0..templates.len())
                    .map(|t| with_id(&templates[t], warmup_id(t), t as u64))
                    .collect();
                Self {
                    workload,
                    seed,
                    draws,
                    templates,
                    warmup,
                    arrival: Arrival::Closed { window: 12 },
                    runtime: RuntimeOptions {
                        cache_capacity: 32,
                        ..RuntimeOptions::default()
                    },
                    scheduler: SchedulerOptions::default(),
                    replay_len: 48,
                    replay_chunk: 12,
                    doomed: None,
                }
            }
            Workload::TenantBurst => {
                let templates: Vec<StencilRequest> = plan_population(32, seed)
                    .into_iter()
                    .map(|k| StencilRequest::new_2d(0, k, 16, 16))
                    .collect();
                let zipf = ZipfSampler::new(templates.len(), 1.1);
                let bursts = (seconds / BURST_PERIOD.as_secs_f64()).ceil().max(1.0) as usize;
                let draws = (0..bursts * BURST)
                    .map(|_| {
                        let tenant = if rng.next_f64() < 0.2 {
                            TENANT_A
                        } else {
                            TENANT_B
                        };
                        Draw::Tenant {
                            tenant,
                            t: zipf.sample(&mut rng),
                            seed: rng.next_u64(),
                        }
                    })
                    .collect();
                let warmup = (0..templates.len())
                    .map(|t| with_id(&templates[t], warmup_id(t), t as u64))
                    .collect();
                Self {
                    workload,
                    seed,
                    draws,
                    templates,
                    warmup,
                    arrival: Arrival::Open {
                        burst: BURST,
                        period: BURST_PERIOD,
                    },
                    runtime: RuntimeOptions::default(),
                    scheduler: SchedulerOptions {
                        queue_capacity: 2 * BURST,
                        ..SchedulerOptions::default()
                    }
                    .with_tenant(TENANT_A, TenantConfig::weighted(4))
                    .with_tenant(TENANT_B, TenantConfig::weighted(1)),
                    replay_len: 256,
                    replay_chunk: 2,
                    doomed: None,
                }
            }
            Workload::ParamSweepCold => {
                let draws = (0..closed_len)
                    .map(|_| Draw::Sweep {
                        family: (rng.next_u64() % SWEEP_FAMILIES as u64) as usize,
                        n: [64, 96, 128][(rng.next_u64() % 3) as usize],
                        coeff_seed: rng.next_u64(),
                        seed: rng.next_u64(),
                    })
                    .collect();
                // One calibration request per family: the first use of each
                // shape is paid in set-up, never a coefficient set of the
                // sweep.
                let warmup = (0..SWEEP_FAMILIES)
                    .map(|f| sweep_request(warmup_id(f), f, 64, f as u64, 1))
                    .collect();
                Self {
                    workload,
                    seed,
                    draws,
                    templates: Vec::new(),
                    warmup,
                    arrival: Arrival::Closed { window: 4 },
                    runtime: RuntimeOptions::default(),
                    scheduler: SchedulerOptions::default(),
                    replay_len: 48,
                    replay_chunk: 4,
                    doomed: None,
                }
            }
        }
    }

    /// Requests in the stream.
    pub fn len(&self) -> usize {
        self.draws.len()
    }

    /// Stream request `i` (its id is `i`).
    pub fn request(&self, i: usize) -> StencilRequest {
        let id = i as u64;
        let req = match self.draws[i] {
            Draw::Template { t, seed } => with_id(&self.templates[t], id, seed),
            Draw::Tenant { t, tenant, seed } => {
                with_id(&self.templates[t], id, seed).with_tenant(tenant)
            }
            Draw::Sweep {
                family,
                n,
                coeff_seed,
                seed,
            } => sweep_request(id, family, n, coeff_seed, seed),
        };
        if self.doomed == Some(i) {
            req.with_deadline(Deadline::within(Duration::ZERO))
        } else {
            req
        }
    }

    /// Set-up: build the runtime and scheduler, then submit and drain the
    /// warm-up requests (compile and tune of the plan population).
    pub fn setup(&self, mut tracer: Option<&mut Tracer>) -> SpiderScheduler {
        let parent = tracer.as_deref_mut().map(|t| t.open("setup", None, 0));
        let sched =
            SpiderScheduler::new(Arc::new(new_runtime(self.runtime)), self.scheduler.clone());
        for req in &self.warmup {
            let id = req.id;
            let submit = || sched.submit(req.clone());
            let result = match tracer.as_deref_mut() {
                Some(t) => t.time("scheduler.submit", parent, id, submit),
                None => submit(),
            };
            result.expect("warm-up submit is admitted under the Block policy");
        }
        let report = match tracer.as_deref_mut() {
            Some(t) => t.time("scheduler.drain", parent, 0, || sched.drain()),
            None => sched.drain(),
        };
        assert!(
            report.failures.is_empty(),
            "warm-up failed: {:?}",
            report.failures
        );
        if let (Some(t), Some(p)) = (tracer, parent) {
            t.close(p);
        }
        sched
    }
}

/// A fresh runtime on the simulated A100.
pub fn new_runtime(options: RuntimeOptions) -> SpiderRuntime {
    SpiderRuntime::new(GpuDevice::a100(), options)
}

fn with_id(template: &StencilRequest, id: u64, seed: u64) -> StencilRequest {
    StencilRequest {
        id,
        ..template.clone()
    }
    .with_seed(seed)
}

/// The nine scenarios of the `runtime_throughput` mix: five 2D kernels at
/// 96²–256², one 2¹⁸-point 1D wave and three 3D volumes.
fn mixed_scenarios() -> Vec<StencilRequest> {
    let mut out: Vec<StencilRequest> = [
        (StencilKernel::heat_2d(0.12), 256, 256),
        (StencilKernel::gaussian_2d(2), 192, 256),
        (StencilKernel::random(StencilShape::box_2d(3), 31), 128, 160),
        (
            StencilKernel::random(StencilShape::star_2d(2), 32),
            256,
            192,
        ),
        (StencilKernel::jacobi_2d(), 96, 128),
    ]
    .into_iter()
    .map(|(k, rows, cols)| StencilRequest::new_2d(0, k, rows, cols))
    .collect();
    out.push(StencilRequest::new_1d(
        0,
        StencilKernel::wave_1d(2),
        1 << 18,
    ));
    for (k, planes, rows, cols) in [
        (Kernel3D::random_box(1, 41), 4, 64, 64),
        (Kernel3D::random_box(2, 42), 3, 48, 64),
        (Kernel3D::star_7point(-6.0, 1.0), 6, 64, 64),
    ] {
        out.push(StencilRequest::new_3d(0, k, planes, rows, cols));
    }
    out
}

/// One sweep request: family `f` on an `n`-wide extent (n² points in 1D and
/// 2D, 4 planes of n² in 3D) with coefficients drawn from `coeff_seed`.
fn sweep_request(id: u64, f: usize, n: usize, coeff_seed: u64, seed: u64) -> StencilRequest {
    let req = match f {
        0..=2 => StencilRequest::new_2d(
            id,
            StencilKernel::random(StencilShape::box_2d(f + 1), coeff_seed),
            n,
            n,
        ),
        3..=5 => StencilRequest::new_2d(
            id,
            StencilKernel::random(StencilShape::star_2d(f - 2), coeff_seed),
            n,
            n,
        ),
        6..=8 => StencilRequest::new_1d(
            id,
            StencilKernel::random(StencilShape::d1(f - 5), coeff_seed),
            n * n,
        ),
        _ => StencilRequest::new_3d(id, Kernel3D::random_box(1, coeff_seed), 4, n, n),
    };
    req.with_seed(seed)
}

/// Dimensionality of a request's grid (1, 2 or 3).
pub fn dim_of(req: &StencilRequest) -> usize {
    match req.grid {
        GridSpec::D1 { .. } => 1,
        GridSpec::D2 { .. } => 2,
        GridSpec::D3 { .. } => 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(i: &Inputs) -> Vec<StencilRequest> {
        (0..i.len()).map(|k| i.request(k)).collect()
    }

    #[test]
    fn same_seed_same_stream_and_distinct_sweep_plans() {
        for w in [
            Workload::MixedWarm,
            Workload::TenantBurst,
            Workload::ParamSweepCold,
        ] {
            let key = |i: &Inputs| -> Vec<(u64, u64, u64)> {
                stream(i)
                    .iter()
                    .map(|r| (r.plan_key(), r.seed, r.tenant.as_u64()))
                    .collect()
            };
            let a = Inputs::generate(w, 3, 1.0);
            assert_eq!(key(&a), key(&Inputs::generate(w, 3, 1.0)), "{}", w.name());
            assert_ne!(key(&a), key(&Inputs::generate(w, 4, 1.0)), "{}", w.name());
            assert!(stream(&a)
                .iter()
                .enumerate()
                .all(|(k, r)| r.id == k as u64 && r.steps == 1 && r.dims_consistent()));
        }
        let sweep = Inputs::generate(Workload::ParamSweepCold, 9, 1.0);
        let keys: std::collections::BTreeSet<u64> =
            stream(&sweep).iter().map(|r| r.plan_key()).collect();
        assert_eq!(keys.len(), sweep.len(), "every sweep plan is new");
    }
}

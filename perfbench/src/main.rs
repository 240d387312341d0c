//! The repository benchmark. One run serves one workload through
//! `SpiderScheduler` for `--seconds`, checks the outputs, and prints the
//! end-to-end metrics (`--trace 0`) or, after a second, traced window and a
//! per-layer replay, the per-layer metrics (`--trace 1`). The last stdout
//! line is the JSON result. See README.md.
//!
//! ```text
//! spider-perfbench --workload mixed_warm --seed 7 --seconds 10 --trace 0
//!     [--trace-out FILE] [--inject-mismatch] [--inject-failure]
//! ```

mod replay;
mod serve;
mod spans;
mod stats;
mod verify;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use spider_runtime::SpiderScheduler;

use spans::Tracer;
use stats::{median, metric, quantile, ratio, result_json, Metric};
use workload::{Inputs, Workload};

/// On each side of the timed window the benchmark sets up repeatedly for
/// this long, and at least `MIN_SETUPS` times; `setup_s` is the median of
/// all of them. A cheap set-up is repeated many times, so one slow moment of
/// the host does not set the figure.
const SETUP_BUDGET: Duration = Duration::from_secs(1);
const MIN_SETUPS: usize = 8;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
    inject_mismatch: bool,
    inject_failure: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut trace_out = None;
    let mut inject_mismatch = false;
    let mut inject_failure = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => trace = value()? != "0",
            "--trace-out" => trace_out = Some(value()?),
            "--inject-mismatch" => inject_mismatch = true,
            "--inject-failure" => inject_failure = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        trace_out,
        inject_mismatch,
        inject_failure,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // A traced run splits its time between an untraced and a traced window
    // of equal length, so it costs about what an untraced run costs.
    let window_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut inputs = Inputs::generate(args.workload, args.seed, window_s);
    if args.inject_failure {
        inputs.doomed = Some(0);
    }

    let mut setup_s = Vec::new();
    let sched = set_up(&inputs, &mut setup_s, None);
    let served = serve::serve(&sched, &inputs, window_s, None);
    drop(sched);
    drop(set_up(&inputs, &mut setup_s, None));
    let verdict = verify::verify(&inputs, &served, args.inject_mismatch);
    for note in &verdict.notes {
        eprintln!("perfbench: mismatch: {note}");
    }

    let untraced = EndToEnd::of(&served, median(&setup_s));
    let mut attempted = served.attempted;
    let mut failures = served.failures();
    let mut mismatches = verdict.mismatches;
    let mut repeatable = true;
    let metrics = if args.trace {
        match traced(
            &args,
            &inputs,
            window_s,
            &served,
            &untraced,
            verdict.mismatches,
        ) {
            Ok(t) => {
                attempted += t.window.attempted;
                failures += t.window.failures();
                mismatches += t.mismatches;
                repeatable = t.repeatable;
                t.metrics
            }
            Err(e) => {
                eprintln!("perfbench: traced run failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        untraced.metrics()
    };

    let correct = is_correct(failures, mismatches, repeatable);
    println!(
        "perfbench: workload={} seed={} trace={} attempted={} completed={} failed_or_refused={} \
         latency_samples={} setups={} solo_and_reference_checks={} requests_per_sec={:.1} \
         latency_p99_us={:.0}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        served.attempted,
        served.completed,
        served.failures(),
        served.latency_us.len(),
        setup_s.len(),
        verdict.checked,
        untraced.requests_per_sec,
        untraced.latency_p99_us,
    );
    if served.latency_us.len() < 1000 {
        eprintln!(
            "perfbench: only {} latency samples; p99 needs >= 1000",
            served.latency_us.len()
        );
    }
    if failures > 0 {
        eprintln!("perfbench: {failures} requests failed, expired, were shed or were refused");
    }
    println!(
        "{}",
        result_json(correct, attempted, failures + mismatches, &metrics)
    );
    exit_code(correct)
}

/// A run is correct only if every attempted request completed (none
/// failed, expired, was shed or was refused), every checked output matched,
/// and the deterministic counts repeated.
fn is_correct(failures: u64, mismatches: u64, repeatable: bool) -> bool {
    failures == 0 && mismatches == 0 && repeatable
}

fn exit_code(correct: bool) -> ExitCode {
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Set up repeatedly for `SETUP_BUDGET`, at least `MIN_SETUPS` times,
/// pushing each set-up's time onto `times`; returns the last scheduler.
/// Each discarded scheduler is dropped outside the timing.
fn set_up(
    inputs: &Inputs,
    times: &mut Vec<f64>,
    mut tracer: Option<&mut Tracer>,
) -> SpiderScheduler {
    let begin = Instant::now();
    let mut done = 0;
    loop {
        let start = Instant::now();
        let sched = inputs.setup(tracer.as_deref_mut());
        times.push(start.elapsed().as_secs_f64());
        done += 1;
        if done >= MIN_SETUPS && begin.elapsed() >= SETUP_BUDGET {
            return sched;
        }
    }
}

/// The end-to-end metrics of one timed window (`peak_rss_mib` is read by
/// the launcher from outside the process).
struct EndToEnd {
    requests_per_sec: f64,
    latency_p50_us: f64,
    latency_p99_us: f64,
    sim_gstencils_per_sec: f64,
    setup_s: f64,
}

impl EndToEnd {
    fn of(served: &serve::Served, setup_s: f64) -> Self {
        Self {
            requests_per_sec: served.requests_per_sec(),
            latency_p50_us: served.latency_p50_us(),
            latency_p99_us: served.latency_p99_us(),
            sim_gstencils_per_sec: served.sim_gstencils_per_sec(),
            setup_s,
        }
    }

    fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("requests_per_sec", "req/s", self.requests_per_sec),
            metric("latency_p50_us", "us", self.latency_p50_us),
            metric("latency_p99_us", "us", self.latency_p99_us),
            metric(
                "sim_gstencils_per_sec",
                "GStencil/s",
                self.sim_gstencils_per_sec,
            ),
            metric("setup_s", "s", self.setup_s),
        ]
    }
}

/// What the traced run adds to a run's result.
struct TracedRun {
    metrics: Vec<Metric>,
    /// The traced window (its failures count in the run's result).
    window: serve::Served,
    /// Checksum mismatches found by the replay.
    mismatches: u64,
    /// Whether the deterministic counts repeated.
    repeatable: bool,
}

/// The traced run: traced set-ups (timed as the untraced ones are) and a
/// traced window (spans around every submit, poll and drain), then the
/// per-layer replay, the MMA microbenchmark and the Fig 12 ratio.
/// `verify_mismatches` are those the untraced window's checks found.
fn traced(
    args: &Args,
    inputs: &Inputs,
    window_s: f64,
    served: &serve::Served,
    untraced: &EndToEnd,
    verify_mismatches: u64,
) -> Result<TracedRun, String> {
    let mut t = Tracer::new();
    let mut setup_s = Vec::new();
    let sched = set_up(inputs, &mut setup_s, Some(&mut t));
    let window = serve::serve(&sched, inputs, window_s, Some(&mut t));
    drop(sched);
    drop(set_up(inputs, &mut setup_s, Some(&mut t)));
    let traced_e2e = EndToEnd::of(&window, median(&setup_s));

    let replay = replay::run(inputs, &mut t)?;
    let fig12 = replay::fig12_sptc_co_over_tc();
    let repeatable = replay.repeatable && fig12 == replay::fig12_sptc_co_over_tc();
    if !repeatable {
        eprintln!("perfbench: deterministic counts differ between two runs of one seed");
    }
    // The replayed requests were served in the untimed window too; their
    // outputs must be the served outputs.
    let mut mismatches = replay.mismatches;
    for &(id, sum) in &replay.checksums {
        if let Some(Some((served_sum, _))) = served.outcomes.get(id as usize) {
            if *served_sum != sum {
                mismatches += 1;
                eprintln!("perfbench: replayed request {id} differs from its served output");
            }
        }
    }

    if let Some(path) = &args.trace_out {
        let json = t.chrome_json(&[
            ("workload", inputs.workload.name().to_string()),
            ("seed", args.seed.to_string()),
        ]);
        spider_telemetry::validate_json(&json).map_err(|e| format!("trace export: {e}"))?;
        std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
    }

    let c = &replay.counts;
    let points = c.points as f64;
    let requests = c.requests as f64;
    let sim_kernel_us = c.sim_time_s * 1e6 / requests;
    let attempted = (served.attempted + window.attempted) as f64;
    let failed = (served.failures() + window.failures() + verify_mismatches + mismatches) as f64;
    let metrics = vec![
        metric("scheduler.submit_us_p50", "us", median(&window.submit_us)),
        metric(
            "scheduler.submit_us_p99",
            "us",
            quantile(&window.submit_us, 0.99),
        ),
        metric("scheduler.poll_us_p50", "us", median(&window.poll_us)),
        metric(
            "scheduler.requests_per_wave",
            "count",
            served.per_queue_delta(|q| q.dispatch_waves),
        ),
        metric(
            "scheduler.requests_per_group",
            "count",
            served.per_queue_delta(|q| q.coalesced_groups),
        ),
        metric("scheduler.mean_wait_us", "us", served.mean_wait_us()),
        metric(
            "scheduler.queue_depth_max",
            "count",
            window.depth_max as f64,
        ),
        metric("generator.lag_p99_us", "us", quantile(&served.lag_us, 0.99)),
        metric("cache.resolve_us_p50", "us", replay.resolve_us_p50),
        metric(
            "cache.hit_ratio",
            "fraction",
            ratio(
                served.cache_hits as f64,
                (served.cache_hits + served.cache_misses) as f64,
            ),
        ),
        metric("core.compile_us_p50", "us", replay.compile_us_p50),
        metric("tuner.tune_us_p50", "us", replay.tune_us_p50),
        metric(
            "tuner.dry_runs_per_plan",
            "count",
            ratio(c.dry_runs as f64, c.tuned_plans as f64),
        ),
        metric(
            "request.materialize_us_per_request",
            "us",
            replay.materialize_us_per_request,
        ),
        metric("core.exec_us_per_request", "us", replay.exec_us_per_request),
        metric("core.exec_ns_per_point", "ns", replay.exec_ns_per_point),
        metric(
            "runtime.checksum_us_per_request",
            "us",
            replay.checksum_us_per_request,
        ),
        metric(
            "gpu_sim.mma_sp_ns_per_call",
            "ns",
            replay::mma_sp_ns_per_call(),
        ),
        metric(
            "sim.mma_sparse_per_request",
            "count",
            c.mma_sparse as f64 / requests,
        ),
        metric("sim.kernel_us_per_request", "us", sim_kernel_us),
        metric(
            "sim.instructions_per_point",
            "count",
            c.instructions as f64 / points,
        ),
        metric(
            "sim.gmem_bytes_per_point",
            "B",
            c.gmem_bytes as f64 / points,
        ),
        metric(
            "sim.smem_waves_per_point",
            "count",
            c.smem_waves as f64 / points,
        ),
        metric("core.fig12_sptc_co_over_tc", "ratio", fig12),
        metric(
            "runtime.host_sim_ratio",
            "ratio",
            replay.exec_us_per_request / sim_kernel_us,
        ),
        metric(
            "runtime.group_us_per_request",
            "us",
            replay.group_us_per_request,
        ),
        metric(
            "runtime.unattributed_us_per_request",
            "us",
            replay.unattributed_us_per_request,
        ),
        metric(
            "telemetry.overhead_ratio",
            "ratio",
            replay.telemetry_overhead_ratio,
        ),
        metric(
            "telemetry.events_per_request",
            "count",
            replay.events_per_request,
        ),
        metric("failed_ratio", "fraction", ratio(failed, attempted)),
        metric("latency_samples", "count", served.latency_us.len() as f64),
        metric(
            "tracing.requests_per_sec_delta",
            "req/s",
            traced_e2e.requests_per_sec - untraced.requests_per_sec,
        ),
        metric(
            "tracing.latency_p50_us_delta",
            "us",
            traced_e2e.latency_p50_us - untraced.latency_p50_us,
        ),
        metric(
            "tracing.latency_p99_us_delta",
            "us",
            traced_e2e.latency_p99_us - untraced.latency_p99_us,
        ),
        metric(
            "tracing.sim_gstencils_per_sec_delta",
            "GStencil/s",
            traced_e2e.sim_gstencils_per_sec - untraced.sim_gstencils_per_sec,
        ),
        metric(
            "tracing.setup_s_delta",
            "s",
            traced_e2e.setup_s - untraced.setup_s,
        ),
    ];
    Ok(TracedRun {
        metrics,
        window,
        mismatches,
        repeatable,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    /// A request that expires instead of completing fails the run, though
    /// every output that was produced is right.
    #[test]
    fn a_failed_request_fails_the_run() {
        let mut inputs = Inputs::generate(Workload::MixedWarm, 5, 0.2);
        inputs.doomed = Some(0);
        let sched = inputs.setup(None);
        let served = serve::serve(&sched, &inputs, 0.2, None);
        assert_eq!(served.failures(), 1);
        assert!(served.outcomes[0].is_none());
        let verdict = verify::verify(&inputs, &served, false);
        assert_eq!(verdict.mismatches, 0, "{:?}", verdict.notes);
        let correct = is_correct(served.failures(), verdict.mismatches, true);
        assert!(!correct);
        assert_eq!(exit_code(correct), ExitCode::FAILURE);
        assert_eq!(exit_code(is_correct(0, 0, true)), ExitCode::SUCCESS);
    }
}

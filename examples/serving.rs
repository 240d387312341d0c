//! Serving demo: a mixed workload of heterogeneous stencil scenarios pushed
//! through `spider-runtime` twice.
//!
//! The first batch pays one plan compile + one tiling autotune per distinct
//! (kernel, mode) and reuses them within the batch; the second batch — new
//! request ids and seeds, same scenario mix — hits the plan cache and tuner
//! memo for everything. The demo asserts the two properties the runtime is
//! built around:
//!
//! * the second batch's plan-cache hit rate exceeds 50% (it is 100% here);
//! * per scenario, the autotuned tiling never loses to the default config
//!   by more than 5% simulated time.
//!
//! ```text
//! cargo run --release --example serving
//! ```

use spider::core::tiling::TilingConfig;
use spider::core::{ExecConfig, SpiderExecutor, SpiderPlan};
use spider::prelude::*;

/// The scenario mix: eight distinct scenario types (1D/2D, box/star, radii
/// 1–3, grid sizes from 96×128 to 1M points), several requests each.
fn build_batch(id_base: u64, seed_base: u64) -> Vec<StencilRequest> {
    let mut batch = Vec::new();
    let mut id = id_base;
    let mut push = |reqs: &mut Vec<StencilRequest>, kernel: StencilKernel, rows, cols, copies| {
        for c in 0..copies {
            reqs.push(
                StencilRequest::new_2d(id, kernel.clone(), rows, cols)
                    .with_seed(seed_base + id + c),
            );
            id += 1;
        }
    };
    // 1. Heat diffusion: Star-2D1R on a mid-size plane.
    push(&mut batch, StencilKernel::heat_2d(0.12), 384, 512, 3);
    // 2. Gaussian blur: Box-2D2R.
    push(&mut batch, StencilKernel::gaussian_2d(2), 256, 256, 3);
    // 3. High-order box: Box-2D3R, non-symmetric coefficients.
    push(
        &mut batch,
        StencilKernel::random(StencilShape::box_2d(3), 71),
        192,
        320,
        2,
    );
    // 4. Wide star: Star-2D2R.
    push(
        &mut batch,
        StencilKernel::random(StencilShape::star_2d(2), 72),
        512,
        384,
        2,
    );
    // 5. Jacobi iteration: Star-2D1R (distinct coefficients from heat).
    push(&mut batch, StencilKernel::jacobi_2d(), 96, 128, 2);
    // 6. Large-plane blur: same Gaussian kernel, different grid class
    //    (exercises per-scenario tuning under one cached plan).
    push(&mut batch, StencilKernel::gaussian_2d(2), 1024, 1024, 1);
    // 7. 1D wave: asymmetric taps, 1M points.
    batch.push(StencilRequest::new_1d(id, StencilKernel::wave_1d(2), 1 << 20).with_seed(seed_base));
    id += 1;
    // 8. 1D high-order: radius 5 (wide-row split path), 256k points.
    batch.push(
        StencilRequest::new_1d(id, StencilKernel::wave_1d(5), 1 << 18).with_seed(seed_base + 1),
    );
    batch
}

fn main() {
    let device = GpuDevice::a100();
    let rt = SpiderRuntime::new(
        device,
        RuntimeOptions {
            cache_capacity: 32,
            ..RuntimeOptions::default()
        },
    );

    println!("=== batch 1: cold caches ===");
    let batch1 = build_batch(0, 10_000);
    let n_scenarios = {
        let mut s: Vec<String> = batch1.iter().map(|r| r.scenario()).collect();
        s.sort();
        s.dedup();
        s.len()
    };
    println!(
        "{} requests across {} distinct scenarios\n",
        batch1.len(),
        n_scenarios
    );
    let report1 = rt.run_batch(&batch1);
    print!("{}", report1.render());
    assert!(report1.failures.is_empty(), "batch 1 must fully succeed");
    assert!(n_scenarios >= 6, "the demo promises ≥6 scenario types");

    println!("\n=== batch 2: warm caches (new ids/seeds, same scenario mix) ===");
    let report2 = rt.run_batch(&build_batch(1000, 20_000));
    print!("{}", report2.render());
    assert!(report2.failures.is_empty(), "batch 2 must fully succeed");

    let hit_rate = report2.batch_hit_rate();
    println!(
        "\nsecond-batch plan-cache hit rate: {:.0}%",
        hit_rate * 100.0
    );
    assert!(
        hit_rate > 0.5,
        "acceptance: second-batch hit rate must exceed 50%, got {hit_rate}"
    );

    // Autotuning acceptance: per scenario, the tuned tiling must not lose to
    // the default config by more than 5% simulated time.
    println!("\n=== autotuned vs default tiling, per scenario ===");
    let mut seen = std::collections::HashSet::new();
    for outcome in &report2.outcomes {
        if !seen.insert(outcome.scenario.clone()) {
            continue;
        }
        let req = build_batch(1000, 20_000)
            .into_iter()
            .find(|r| r.scenario() == *outcome.scenario)
            .expect("scenario came from this batch");
        let plan = SpiderPlan::compile(req.kernel.as_planar().expect("2D/1D scenario"))
            .expect("kernel compiles");
        let time_with = |tiling: TilingConfig| {
            let exec = SpiderExecutor::with_config(
                rt.device(),
                req.mode,
                ExecConfig {
                    tiling,
                    ..ExecConfig::default()
                },
            );
            match req.grid {
                GridSpec::D1 { len } => exec.estimate_1d(&plan, len).time_s(),
                GridSpec::D2 { rows, cols } => exec.estimate_2d(&plan, rows, cols).time_s(),
                GridSpec::D3 { .. } => unreachable!("this demo serves planar scenarios"),
            }
        };
        let tuned_s = time_with(outcome.tiling);
        let default_s = time_with(TilingConfig::default());
        let ratio = tuned_s / default_s;
        println!(
            "{:<22} tuned {:>9.3}us  default {:>9.3}us  ratio {:.3}{}",
            outcome.scenario,
            tuned_s * 1e6,
            default_s * 1e6,
            ratio,
            if ratio < 1.0 { "  (tuned wins)" } else { "" }
        );
        assert!(
            ratio <= 1.05,
            "acceptance: tuned config loses >5% on {} ({ratio:.3})",
            outcome.scenario
        );
    }

    let stats = rt.cache_stats();
    println!(
        "\nruntime totals: {} plans cached, {} scenarios tuned, cache {} hits / {} misses ({:.0}% lifetime hit rate)",
        rt.cached_plans(),
        rt.tuned_scenarios(),
        stats.hits,
        stats.misses,
        stats.hit_rate() * 100.0
    );
    println!(
        "serving throughput: {:.1} requests/s (host wall), {:.2} simulated GStencil/s",
        report2.requests_per_sec(),
        report2.simulated_gstencils_per_sec()
    );
    println!("\nOK: cache hit rate and autotuner acceptance criteria hold.");
}

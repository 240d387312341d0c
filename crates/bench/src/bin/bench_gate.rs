//! Bench regression gate: compare a freshly emitted bench JSON
//! (`BENCH_runtime.json`, `BENCH_core.json`) against its committed baseline
//! and fail on throughput regressions.
//!
//! ```text
//! bench_gate <baseline.json> <candidate.json> [tolerance]
//! ```
//!
//! Gated metrics are selected by *name convention*: every key ending in
//! `_per_sec` is a higher-is-better rate and is enforced, so the serving
//! bench's `warm_requests_per_sec` / `scheduler_requests_per_sec` /
//! `simulated_gstencils_per_sec` and the core bench's
//! `core_*_gstencils_per_sec` family are all gated by the same binary
//! without a hard-coded list. Keys ending in `_p99_wait_us` are the
//! **lower-is-better** tail-latency family (the traffic harness's
//! `scheduler_p99_wait_us`, `victim_p99_wait_us`, …): the gate direction
//! inverts, failing when the candidate's p99 *grows* past tolerance — a
//! serving deployment is priced on the wait distribution's tail, not its
//! mean throughput, so a p99 inflation is a regression even with
//! `*_per_sec` flat. Keys ending in `_lost_requests` are the
//! **must-be-zero** family (the elasticity scene's
//! `elastic_lost_requests`): tolerance does not apply — any nonzero
//! candidate fails outright, because a lost request under a membership
//! change is a correctness bug, not a performance regression, and no
//! baseline drift can excuse it. Keys matching no suffix (counts, hit rates, the
//! noisy `host_*_mpoints` wall-clock rates) are informational only, as is
//! `cold_requests_per_sec`: the cold number is dominated by first-touch
//! plan compiles and tuner dry-runs, which makes it far too
//! machine-sensitive to hold a shared CI runner to a dev-machine baseline
//! (the reason the old hard-coded list never included it).
//!
//! The gate fails (exit code 1) when `candidate < baseline * (1 −
//! tolerance)` for any higher-is-better metric, or when `candidate >
//! baseline * (1 + tolerance)` for any lower-is-better one. The default
//! tolerance is 0.15 — a >15% throughput drop (or p99 inflation) blocks
//! the PR. Metrics present in the candidate but not the baseline are
//! reported as `new` and pass (the next baseline refresh starts gating
//! them); metrics that *disappear* from the candidate fail, because a
//! silently vanished number is indistinguishable from a regression nobody
//! measured.
//!
//! The parser handles exactly the flat `{"key": number, ...}` shape the
//! benches emit — no JSON dependency, the build image has no registry
//! access. A key named twice is an error rather than last-wins, so a
//! regressed first value cannot hide behind a passing second one.

use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;

/// Whether a metric is gate-enforced: higher-is-better rates by naming
/// convention, minus the cold-start rate (see the module docs), plus the
/// lower-is-better tail-latency family and the must-be-zero loss counters.
fn is_gated(metric: &str) -> bool {
    (metric.ends_with("_per_sec") && metric != "cold_requests_per_sec")
        || is_inverted(metric)
        || is_zero_required(metric)
}

/// Whether a gated metric must be **exactly zero**: the `*_lost_requests`
/// family counts requests dropped across membership changes — any nonzero
/// value is a correctness failure, regardless of tolerance or baseline.
fn is_zero_required(metric: &str) -> bool {
    metric.ends_with("_lost_requests")
}

/// Whether a gated metric is *lower-is-better*: the `*_p99_wait_us`
/// tail-latency family inverts the gate direction — the candidate fails
/// when its p99 wait grows past tolerance.
fn is_inverted(metric: &str) -> bool {
    metric.ends_with("_p99_wait_us")
}

const DEFAULT_TOLERANCE: f64 = 0.15;

/// Parse a flat JSON object's numeric fields. Non-numeric values (e.g. the
/// `"bench"` name string) are skipped; a repeated key of any type is an
/// error.
fn parse_flat_json(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let body = text.trim();
    let body = body
        .strip_prefix('{')
        .and_then(|b| b.strip_suffix('}'))
        .ok_or("not a JSON object (missing braces)")?;
    let mut fields = BTreeMap::new();
    let mut seen = BTreeSet::new();
    for pair in body.split(',') {
        let pair = pair.trim();
        if pair.is_empty() {
            continue;
        }
        let (key, value) = pair
            .split_once(':')
            .ok_or_else(|| format!("malformed pair: {pair:?}"))?;
        let key = key
            .trim()
            .strip_prefix('"')
            .and_then(|k| k.strip_suffix('"'))
            .ok_or_else(|| format!("unquoted key in pair: {pair:?}"))?;
        if !seen.insert(key) {
            return Err(format!("repeated key {key:?}"));
        }
        if let Ok(number) = value.trim().parse::<f64>() {
            fields.insert(key.to_string(), number);
        }
    }
    Ok(fields)
}

enum Verdict {
    Pass,
    NewMetric,
    Fail,
}

struct GateRow {
    metric: String,
    baseline: Option<f64>,
    candidate: Option<f64>,
    verdict: Verdict,
}

/// Evaluate the gate over the union of gated metric names present in
/// either file. Pure so the regression-injection tests below can exercise
/// it without touching the filesystem.
fn evaluate(
    baseline: &BTreeMap<String, f64>,
    candidate: &BTreeMap<String, f64>,
    tolerance: f64,
) -> Vec<GateRow> {
    let mut metrics: Vec<&String> = baseline
        .keys()
        .chain(candidate.keys())
        .filter(|k| is_gated(k))
        .collect();
    metrics.sort();
    metrics.dedup();
    metrics
        .into_iter()
        .map(|metric| {
            let b = baseline.get(metric).copied();
            let c = candidate.get(metric).copied();
            let inverted = is_inverted(metric);
            let verdict = if is_zero_required(metric) {
                // Tolerance-free: the candidate must report exactly zero.
                // A vanished counter fails too — "not measured" and "lost
                // requests" must not be confusable.
                match c {
                    Some(0.0) if b.is_none() => Verdict::NewMetric,
                    Some(0.0) => Verdict::Pass,
                    _ => Verdict::Fail,
                }
            } else {
                match (b, c) {
                    (None, Some(_)) => Verdict::NewMetric,
                    (Some(b), Some(c)) if inverted && c <= b * (1.0 + tolerance) => Verdict::Pass,
                    (Some(b), Some(c)) if !inverted && c >= b * (1.0 - tolerance) => Verdict::Pass,
                    // Missing from the candidate, or regressed past tolerance
                    // (dropped throughput, or an inflated p99 tail).
                    _ => Verdict::Fail,
                }
            };
            GateRow {
                metric: metric.clone(),
                baseline: b,
                candidate: c,
                verdict,
            }
        })
        .collect()
}

fn render(rows: &[GateRow], tolerance: f64) -> (String, bool) {
    let mut out = String::new();
    let mut failed = false;
    out.push_str(&format!(
        "bench gate (tolerance: {:.0}% regression)\n{:<32} {:>12} {:>12} {:>8}  verdict\n",
        tolerance * 100.0,
        "metric",
        "baseline",
        "candidate",
        "delta"
    ));
    for row in rows {
        let fmt = |v: Option<f64>| v.map_or("absent".to_string(), |v| format!("{v:.3}"));
        let delta = match (row.baseline, row.candidate) {
            (Some(b), Some(c)) if b > 0.0 => format!("{:+.1}%", (c / b - 1.0) * 100.0),
            _ => "-".to_string(),
        };
        let verdict = match row.verdict {
            Verdict::Pass => "PASS",
            Verdict::NewMetric => "new (ungated until baselined)",
            Verdict::Fail => {
                failed = true;
                "FAIL"
            }
        };
        out.push_str(&format!(
            "{:<32} {:>12} {:>12} {:>8}  {}\n",
            row.metric,
            fmt(row.baseline),
            fmt(row.candidate),
            delta,
            verdict
        ));
    }
    (out, failed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let (baseline_path, candidate_path) = match (args.get(1), args.get(2)) {
        (Some(b), Some(c)) => (b, c),
        _ => {
            eprintln!("usage: bench_gate <baseline.json> <candidate.json> [tolerance]");
            return ExitCode::from(2);
        }
    };
    let tolerance = match args.get(3) {
        None => DEFAULT_TOLERANCE,
        Some(t) => match t.parse::<f64>() {
            Ok(t) if (0.0..1.0).contains(&t) => t,
            _ => {
                eprintln!("tolerance must be a fraction in [0, 1), got {t:?}");
                return ExitCode::from(2);
            }
        },
    };
    let read = |path: &str| -> Result<BTreeMap<String, f64>, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        parse_flat_json(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (baseline, candidate) = match (read(baseline_path), read(candidate_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (b, c) => {
            for err in [b.err(), c.err()].into_iter().flatten() {
                eprintln!("bench gate error: {err}");
            }
            return ExitCode::from(2);
        }
    };
    let rows = evaluate(&baseline, &candidate, tolerance);
    let (table, failed) = render(&rows, tolerance);
    print!("{table}");
    if failed {
        eprintln!("bench gate: FAILED — throughput or tail latency regressed past tolerance");
        ExitCode::FAILURE
    } else {
        println!("bench gate: OK");
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline() -> BTreeMap<String, f64> {
        parse_flat_json(
            r#"{
  "bench": "runtime_throughput",
  "warm_requests_per_sec": 100.000,
  "scheduler_requests_per_sec": 80.000,
  "simulated_gstencils_per_sec": 30.000,
  "cache_hits": 66
}"#,
        )
        .unwrap()
    }

    fn with_throughput(warm: f64, sched: f64) -> BTreeMap<String, f64> {
        let mut c = baseline();
        c.insert("warm_requests_per_sec".into(), warm);
        c.insert("scheduler_requests_per_sec".into(), sched);
        c
    }

    fn failed(rows: &[GateRow]) -> Vec<&str> {
        rows.iter()
            .filter(|r| matches!(r.verdict, Verdict::Fail))
            .map(|r| r.metric.as_str())
            .collect()
    }

    #[test]
    fn parser_reads_the_bench_shape_and_skips_strings() {
        let fields = baseline();
        assert_eq!(fields["warm_requests_per_sec"], 100.0);
        assert_eq!(fields["cache_hits"], 66.0);
        assert!(!fields.contains_key("bench"), "string fields are skipped");
        assert!(parse_flat_json("not json").is_err());
    }

    /// A repeated key fails the parse and names the key, so a regressed
    /// first value cannot pass behind a second one.
    #[test]
    fn parser_refuses_a_repeated_key() {
        let err = parse_flat_json(
            r#"{"warm_requests_per_sec": 10.0, "bench": "x", "warm_requests_per_sec": 100.0}"#,
        )
        .unwrap_err();
        assert!(err.contains("\"warm_requests_per_sec\""), "{err}");
        let err = parse_flat_json(r#"{"bench": "a", "bench": "b"}"#).unwrap_err();
        assert!(err.contains("\"bench\""), "{err}");
    }

    /// The acceptance check: an injected 20% slowdown must fail the gate.
    #[test]
    fn injected_20_percent_slowdown_fails() {
        let candidate = with_throughput(80.0, 64.0); // both -20%
        let rows = evaluate(&baseline(), &candidate, DEFAULT_TOLERANCE);
        assert_eq!(
            failed(&rows),
            vec!["scheduler_requests_per_sec", "warm_requests_per_sec"]
        );
        let (table, any_failed) = render(&rows, DEFAULT_TOLERANCE);
        assert!(any_failed);
        assert!(table.contains("-20.0%"), "{table}");
    }

    /// Gating is by name convention: every `*_per_sec` rate is enforced —
    /// including `simulated_gstencils_per_sec` and the core bench's
    /// per-mode families — while counts and host wall-clock rates are not.
    #[test]
    fn suffix_convention_selects_gated_metrics() {
        let core_baseline = parse_flat_json(
            r#"{
  "bench": "core_step",
  "core_2d_sparse_opt_gstencils_per_sec": 290.0,
  "core_3d_sparse_opt_gstencils_per_sec": 11.0,
  "host_2d_sparse_opt_mpoints": 4.0
}"#,
        )
        .unwrap();
        let mut candidate = core_baseline.clone();
        candidate.insert("core_2d_sparse_opt_gstencils_per_sec".into(), 200.0); // -31%
        candidate.insert("host_2d_sparse_opt_mpoints".into(), 0.1); // noisy, ungated
        let rows = evaluate(&core_baseline, &candidate, DEFAULT_TOLERANCE);
        assert_eq!(failed(&rows), vec!["core_2d_sparse_opt_gstencils_per_sec"]);
        assert!(
            rows.iter().all(|r| r.metric.ends_with("_per_sec")),
            "only *_per_sec metrics appear in the gate table"
        );

        // The cold-start rate is wall-clock noise (first-touch compiles,
        // tuner dry-runs): never gated, even though it carries the suffix.
        let mut with_cold = baseline();
        with_cold.insert("cold_requests_per_sec".into(), 100.0);
        let mut cold_crashed = with_cold.clone();
        cold_crashed.insert("cold_requests_per_sec".into(), 10.0); // -90%
        let rows = evaluate(&with_cold, &cold_crashed, DEFAULT_TOLERANCE);
        assert!(failed(&rows).is_empty(), "cold rate must stay ungated");
        assert!(rows.iter().all(|r| r.metric != "cold_requests_per_sec"));

        // A regressed simulated_gstencils_per_sec fails the runtime gate.
        let mut slow_sim = baseline();
        slow_sim.insert("simulated_gstencils_per_sec".into(), 20.0); // -33%
        let rows = evaluate(&baseline(), &slow_sim, DEFAULT_TOLERANCE);
        assert_eq!(failed(&rows), vec!["simulated_gstencils_per_sec"]);
    }

    #[test]
    fn slowdown_within_tolerance_passes() {
        let rows = evaluate(&baseline(), &with_throughput(90.0, 70.0), DEFAULT_TOLERANCE);
        assert!(failed(&rows).is_empty(), "-10%/-12.5% are inside 15%");
        let rows = evaluate(
            &baseline(),
            &with_throughput(120.0, 90.0),
            DEFAULT_TOLERANCE,
        );
        assert!(failed(&rows).is_empty(), "speedups always pass");
    }

    #[test]
    fn exactly_at_tolerance_passes_and_just_past_fails() {
        let rows = evaluate(&baseline(), &with_throughput(85.0, 68.0), DEFAULT_TOLERANCE);
        assert!(failed(&rows).is_empty(), "boundary is inclusive");
        let rows = evaluate(&baseline(), &with_throughput(84.9, 68.0), DEFAULT_TOLERANCE);
        assert_eq!(failed(&rows), vec!["warm_requests_per_sec"]);
    }

    #[test]
    fn vanished_metric_fails_but_new_metric_passes() {
        let mut candidate = baseline();
        candidate.remove("scheduler_requests_per_sec");
        let rows = evaluate(&baseline(), &candidate, DEFAULT_TOLERANCE);
        assert_eq!(failed(&rows), vec!["scheduler_requests_per_sec"]);

        let mut old_baseline = baseline();
        old_baseline.remove("scheduler_requests_per_sec");
        let rows = evaluate(&old_baseline, &baseline(), DEFAULT_TOLERANCE);
        assert!(failed(&rows).is_empty(), "new metrics are ungated");
        assert!(rows.iter().any(|r| matches!(r.verdict, Verdict::NewMetric)));
    }

    /// The `*_p99_wait_us` family gates in the opposite direction: an
    /// inflated tail fails even though every throughput rate is flat.
    #[test]
    fn inflated_p99_wait_fails_the_inverted_gate() {
        let mut with_p99 = baseline();
        with_p99.insert("scheduler_p99_wait_us".into(), 500.0);
        with_p99.insert("victim_p99_wait_us".into(), 800.0);

        let mut inflated = with_p99.clone();
        inflated.insert("scheduler_p99_wait_us".into(), 700.0); // +40%
        let rows = evaluate(&with_p99, &inflated, DEFAULT_TOLERANCE);
        assert_eq!(failed(&rows), vec!["scheduler_p99_wait_us"]);
        let (table, any_failed) = render(&rows, DEFAULT_TOLERANCE);
        assert!(any_failed);
        assert!(table.contains("+40.0%"), "{table}");

        // Within tolerance (+10%) and improvements (lower p99) both pass.
        let mut mild = with_p99.clone();
        mild.insert("scheduler_p99_wait_us".into(), 550.0); // +10%
        mild.insert("victim_p99_wait_us".into(), 100.0); // -87%, an improvement
        let rows = evaluate(&with_p99, &mild, DEFAULT_TOLERANCE);
        assert!(failed(&rows).is_empty(), "+10% tail and any shrink pass");

        // Boundary is inclusive on the high side (checked just inside it —
        // 0.15 is not exact in binary, so "exactly" +15% sits a ULP off).
        let mut edge = with_p99.clone();
        edge.insert("victim_p99_wait_us".into(), 919.9); // +14.99%
        assert!(failed(&evaluate(&with_p99, &edge, DEFAULT_TOLERANCE)).is_empty());
        edge.insert("victim_p99_wait_us".into(), 921.0);
        assert_eq!(
            failed(&evaluate(&with_p99, &edge, DEFAULT_TOLERANCE)),
            vec!["victim_p99_wait_us"]
        );

        // Vanished-fails / new-passes applies to the inverted family too.
        let mut gone = with_p99.clone();
        gone.remove("victim_p99_wait_us");
        assert_eq!(
            failed(&evaluate(&with_p99, &gone, DEFAULT_TOLERANCE)),
            vec!["victim_p99_wait_us"]
        );
        let rows = evaluate(&baseline(), &with_p99, DEFAULT_TOLERANCE);
        assert!(failed(&rows).is_empty(), "newly emitted p99s are ungated");
        assert_eq!(
            rows.iter()
                .filter(|r| matches!(r.verdict, Verdict::NewMetric))
                .count(),
            2
        );
    }

    /// The `*_lost_requests` family is tolerance-free: only an exact zero
    /// passes, a vanished counter fails, and even a "new" nonzero fails —
    /// a lost request is a correctness bug, not a slow number.
    #[test]
    fn nonzero_lost_requests_fail_regardless_of_tolerance() {
        let mut with_lost = baseline();
        with_lost.insert("elastic_lost_requests".into(), 0.0);

        // Zero against a zero baseline passes.
        let rows = evaluate(&with_lost, &with_lost, DEFAULT_TOLERANCE);
        assert!(failed(&rows).is_empty());

        // Any nonzero fails, even under a maximally lax tolerance.
        let mut lossy = with_lost.clone();
        lossy.insert("elastic_lost_requests".into(), 1.0);
        assert_eq!(
            failed(&evaluate(&with_lost, &lossy, 0.99)),
            vec!["elastic_lost_requests"]
        );

        // A vanished loss counter fails — "not measured" is not "zero".
        let gone = baseline();
        assert_eq!(
            failed(&evaluate(&with_lost, &gone, DEFAULT_TOLERANCE)),
            vec!["elastic_lost_requests"]
        );

        // Newly emitted: zero passes (reported as new), nonzero fails.
        let rows = evaluate(&baseline(), &with_lost, DEFAULT_TOLERANCE);
        assert!(failed(&rows).is_empty());
        assert!(rows.iter().any(|r| matches!(r.verdict, Verdict::NewMetric)));
        assert_eq!(
            failed(&evaluate(&baseline(), &lossy, DEFAULT_TOLERANCE)),
            vec!["elastic_lost_requests"]
        );
    }

    #[test]
    fn custom_tolerance_is_respected() {
        let candidate = with_throughput(80.0, 64.0); // -20%
        let rows = evaluate(&baseline(), &candidate, 0.25);
        assert!(failed(&rows).is_empty(), "-20% passes a 25% gate");
        let rows = evaluate(&baseline(), &candidate, 0.05);
        assert_eq!(failed(&rows).len(), 2, "-20% fails a 5% gate");
    }
}

//! End-to-end properties of the spider-guard invariant linter and the
//! ranked-lock runtime checker: every seeded-bad fixture is caught, the
//! live workspace lints clean, clean shapes stay clean, the hand-rolled
//! lexer never hallucinates tokens out of comments or strings, and (debug
//! builds) a rank inversion panics naming both locks.

use std::path::Path;

use proptest::prelude::*;
use spider_guard::{
    library_lines, lint_source, GuardConfig, LineCount, TokenKind, RULE_DETERMINISM,
    RULE_LOCK_DISCIPLINE, RULE_METRIC_NAMING, RULE_PANIC_AUDIT,
};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("crates/guard/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn cfg() -> GuardConfig {
    // Defaults only: the real allowlist must not be able to mask fixtures.
    GuardConfig::workspace_defaults()
}

#[test]
fn guard_across_compile_fixture_is_caught_in_both_shapes() {
    let src = fixture("guard_across_compile.rs");
    let vs = lint_source("crates/runtime/src/fixture.rs", &src, &cfg());
    let locks: Vec<_> = vs
        .iter()
        .filter(|v| v.rule == RULE_LOCK_DISCIPLINE)
        .collect();
    // Exactly the two BAD sites: the flat shape (compile_plan) and the
    // nested-let shape (CachedPlan::compile). The `clean` and `dropped`
    // functions — guard scoped away or drop()ed — must stay silent.
    assert_eq!(
        locks.len(),
        2,
        "expected exactly the two seeded violations, got: {vs:?}"
    );
    assert!(locks.iter().any(|v| v.token == "compile_plan"));
    assert!(locks.iter().any(|v| v.token == "compile"));
    for v in &locks {
        assert!(
            v.message.contains("`inner`"),
            "violation should name the live guard: {v}"
        );
    }
}

#[test]
fn bad_metric_name_fixture_is_caught_per_problem() {
    let src = fixture("bad_metric_name.rs");
    let vs = lint_source("crates/telemetry/src/fixture.rs", &src, &cfg());
    let metrics: Vec<_> = vs.iter().filter(|v| v.rule == RULE_METRIC_NAMING).collect();
    let tokens: Vec<&str> = metrics.iter().map(|v| v.token.as_str()).collect();
    assert!(tokens.contains(&"runtime_requests_total"), "{vs:?}");
    assert!(tokens.contains(&"spider_Sched_depth"), "{vs:?}");
    assert!(tokens.contains(&"spider_runtime_queue_time"), "{vs:?}");
    // `spider_requests` is wrong twice over: one segment AND no `_total`.
    assert_eq!(
        tokens.iter().filter(|t| **t == "spider_requests").count(),
        2,
        "{vs:?}"
    );
    // The three conforming names at the bottom must not appear.
    assert!(!tokens.iter().any(|t| t.ends_with("_us")), "{vs:?}");
    assert_eq!(metrics.len(), 5, "{vs:?}");
}

#[test]
fn bad_snapshot_writer_names_are_caught() {
    // Exports write owned values through `MetricsSnapshot`'s
    // `counter`/`histogram` writers; those names are linted like any other
    // metric call.
    let src = fixture("bad_snapshot_metric_name.rs");
    let vs = lint_source("crates/runtime/src/fixture.rs", &src, &cfg());
    let tokens: Vec<&str> = vs
        .iter()
        .filter(|v| v.rule == RULE_METRIC_NAMING)
        .map(|v| v.token.as_str())
        .collect();
    assert_eq!(
        tokens,
        [
            "scheduler_completed_total",
            "spider_scheduler_shed",
            "spider_scheduler_wait"
        ],
        "{vs:?}"
    );
}

#[test]
fn run_time_metric_names_are_caught_outside_tests() {
    // A name built at run time is one the naming rule cannot check: only
    // the non-test `&name` site is flagged. The literal, the nameless
    // accessor and the test region stay silent.
    let src = fixture("runtime_metric_name.rs");
    let vs = lint_source("crates/runtime/src/fixture.rs", &src, &cfg());
    let metrics: Vec<_> = vs.iter().filter(|v| v.rule == RULE_METRIC_NAMING).collect();
    assert_eq!(metrics.len(), 1, "{vs:?}");
    assert_eq!(metrics[0].token, "&name");
    let bad_line = src
        .lines()
        .position(|l| l.contains("// BAD"))
        .expect("fixture marks its bad site") as u32
        + 1;
    assert_eq!(metrics[0].line, bad_line, "{}", metrics[0]);
}

#[test]
fn nondeterminism_fixture_is_caught_only_under_sim_paths() {
    let src = fixture("instant_in_sim.rs");
    // Armed: a gpu-sim path. Instant at two non-test sites, HashMap at
    // three (the `use`, the type annotation, the constructor).
    let vs = lint_source("crates/gpu-sim/src/clock.rs", &src, &cfg());
    let det: Vec<_> = vs.iter().filter(|v| v.rule == RULE_DETERMINISM).collect();
    assert_eq!(
        det.iter().filter(|v| v.token == "Instant").count(),
        2,
        "{vs:?}"
    );
    assert_eq!(
        det.iter().filter(|v| v.token == "HashMap").count(),
        3,
        "{vs:?}"
    );
    // The `#[cfg(test)]` module's Instant::now is exempt: no violation may
    // point past the module opening.
    let test_mod_line = src
        .lines()
        .position(|l| l.contains("mod tests"))
        .expect("fixture has a test module") as u32
        + 1;
    assert!(det.iter().all(|v| v.line < test_mod_line), "{vs:?}");
    // Disarmed: the same source under a serving-crate path.
    let vs = lint_source("crates/runtime/src/clock.rs", &src, &cfg());
    assert!(
        vs.iter().all(|v| v.rule != RULE_DETERMINISM),
        "determinism rule must not fire outside deterministic modules: {vs:?}"
    );
}

#[test]
fn panic_audit_flags_only_unannotated_serving_code() {
    let src = "fn f(v: Vec<u32>) -> u32 {\n    let a = v.first().unwrap();\n    let b = v.last().expect(\"non-empty\"); // guard: caller checked\n    *a + *b\n}\n";
    let vs = lint_source("crates/runtime/src/fixture.rs", src, &cfg());
    let panics: Vec<_> = vs.iter().filter(|v| v.rule == RULE_PANIC_AUDIT).collect();
    assert_eq!(panics.len(), 1, "{vs:?}");
    assert_eq!(panics[0].token, "unwrap");
    // The same code in an unaudited crate is out of scope.
    let vs = lint_source("crates/stencil/src/fixture.rs", src, &cfg());
    assert!(vs.iter().all(|v| v.rule != RULE_PANIC_AUDIT), "{vs:?}");
}

/// The tuner's dry-runs run with no memo guard live: a guard held across
/// them is caught.
#[test]
fn tuner_memo_guard_across_dry_runs_is_caught() {
    let src = "fn tune(&self, key: Key) -> TuneOutcome {\n    let mut memo = self.memo.lock();\n    let outcome = self.tune_uncached(key);\n    memo.settle(key, outcome)\n}\n";
    let vs = lint_source("crates/runtime/src/fixture.rs", src, &cfg());
    assert_eq!(vs.len(), 1, "{vs:?}");
    assert_eq!(
        (vs[0].rule, vs[0].token.as_str()),
        (RULE_LOCK_DISCIPLINE, "tune_uncached")
    );
    assert!(vs[0].message.contains("`memo`"), "{}", vs[0]);
}

#[test]
fn guard_passed_as_a_parameter_is_caught() {
    let src = fixture("guard_param.rs");
    let vs = lint_source("crates/runtime/src/fixture.rs", &src, &cfg());
    let locks: Vec<_> = vs
        .iter()
        .filter(|v| v.rule == RULE_LOCK_DISCIPLINE)
        .collect();
    // Only `enqueue`'s submit: `forward` takes an unlocked type, and
    // `scoped` drops its guard first.
    assert_eq!(locks.len(), 1, "{vs:?}");
    assert_eq!(locks[0].token, "submit");
    assert!(locks[0].message.contains("`st`"), "{}", locks[0]);
}

#[test]
fn a_guard_the_let_only_projects_through_is_a_temporary() {
    let src = fixture("guard_temporary.rs");
    let vs = lint_source("crates/cluster/src/fixture.rs", &src, &cfg());
    let locks: Vec<_> = vs
        .iter()
        .filter(|v| v.rule == RULE_LOCK_DISCIPLINE)
        .collect();
    // Only `held`'s submit: `projected` and `method_value` drop their
    // guard at the `;` that ends the `let`.
    assert_eq!(locks.len(), 1, "{vs:?}");
    assert_eq!(locks[0].token, "submit");
    assert!(locks[0].message.contains("`st`"), "{}", locks[0]);
}

/// A guard call that ends the `let` after `?`, `.unwrap()` or
/// `.expect(…)` binds the guard, and so does a borrow of a projection
/// through it: temporary lifetime extension keeps that guard alive with
/// the binding.
#[test]
fn unwrapped_and_borrowed_guards_stay_live() {
    for rhs in [
        "c.lock()?",
        "c.try_lock().unwrap()",
        "c.lock().expect(\"poisoned\")",
        "&c.lock().queue",
        "&mut c.lock().queue",
    ] {
        let src = format!(
            "fn f(c: &Cluster, req: Request) -> Result<(), E> {{\n    let st = {rhs};\n    c.submit(req);\n    Ok(())\n}}\n"
        );
        let vs = lint_source("crates/cluster/src/fixture.rs", &src, &cfg());
        let locks: Vec<_> = vs
            .iter()
            .filter(|v| v.rule == RULE_LOCK_DISCIPLINE)
            .collect();
        assert_eq!(locks.len(), 1, "{rhs}: {vs:?}");
        assert!(locks[0].message.contains("`st`"), "{rhs}: {}", locks[0]);
    }
}

/// `SpiderCluster::place` runs under the cluster state guard it receives
/// as a parameter, so its `try_submit` is clean only through the reviewed
/// allowlist entry: without the entry the lint fails there.
#[test]
fn only_the_allowlist_keeps_the_placement_path_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let path = "crates/cluster/src/cluster.rs";
    let src = std::fs::read_to_string(root.join(path)).unwrap();
    let with = GuardConfig::load(root);
    assert_eq!(lint_source(path, &src, &with), Vec::new());
    let mut without = with.clone();
    without.allow.retain(|a| a.token != "try_submit");
    let vs = lint_source(path, &src, &without);
    let line = |at: usize| src[..at].lines().count() as u32;
    let place = src.find("fn place(").unwrap();
    let next = place + src[place..].find("\n    fn ").unwrap();
    let body = line(place)..line(next);
    assert_eq!(vs.len(), 1, "{vs:?}");
    assert_eq!(
        (vs[0].rule, vs[0].token.as_str()),
        (RULE_LOCK_DISCIPLINE, "try_submit")
    );
    assert!(body.contains(&vs[0].line), "{}", vs[0]);
    assert!(vs[0].message.contains("`st`"), "{}", vs[0]);
}

/// The real workspace — with its committed allowlist and `// guard:`
/// annotations — lints clean. This is the same invocation CI runs.
#[test]
fn workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let vs = spider_guard::check_workspace(root);
    assert!(
        vs.is_empty(),
        "workspace must lint clean, got {} violation(s):\n{}",
        vs.len(),
        vs.iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// `spider-guard lines` counts each crate's library sources only (no
/// binary, integration test or shim), and in them the non-blank lines
/// outside test regions: a line with any code is code, a line that only
/// comments (multi-line block comments included) is a comment line.
#[test]
fn lines_counts_library_code_and_comments_outside_tests() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/guard/fixtures/lines");
    let count = |name: &str, code, comment| (name.to_string(), LineCount { code, comment });
    assert_eq!(
        library_lines(&root),
        vec![count("alpha", 5, 6), count("beta", 1, 1)]
    );
}

/// Debug builds: taking locks against the documented rank order panics,
/// and the message names both ends of the inversion.
#[cfg(debug_assertions)]
#[test]
fn rank_inversion_fixture_panics_with_both_lock_names() {
    use spider::core::sync::{LockRank, OrderedMutex};
    use std::sync::Arc;

    let cache = Arc::new(OrderedMutex::new(LockRank::PlanCache, "plan.cache", ()));
    let pool = Arc::new(OrderedMutex::new(LockRank::BufferPool, "pool.free", ()));
    let handle = {
        let (cache, pool) = (Arc::clone(&cache), Arc::clone(&pool));
        std::thread::spawn(move || {
            let _p = pool.lock();
            let _c = cache.lock(); // 650 then 500: inversion
        })
    };
    let panic = handle.join().expect_err("inverted order must panic");
    let msg = panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("panic payload is a string");
    assert!(msg.contains("rank inversion"), "{msg}");
    assert!(msg.contains("plan.cache"), "{msg}");
    assert!(msg.contains("pool.free"), "{msg}");
}

/// Source fragments the lexer round-trip property stitches together.
/// Even indices bury expensive-call spellings inside comments/strings;
/// odd indices are ordinary code. No fragment contains a *real* call to
/// an expensive function.
const FRAGMENTS: &[&str] = &[
    "// compile( hidden in a line comment\n",
    "let plain = 7;",
    "/* submit( inside /* a nested */ block */",
    "fn f<'a>(x: &'a str) -> &'a str { x }",
    "let s = \"compile(\\\"escaped\\\")\";",
    "let c = 'a'; let nl = '\\n';",
    "let r = r#\"compile_plan( within \"raw\" quotes \"#;",
    "let n = 1.5e3 + 0x_ff;",
    "let b = b\"try_submit(\"; let bc = b'\\t';",
    "ident_only",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary interleavings of comments, strings (plain/raw/byte),
    /// chars, lifetimes and code: (1) the token stream is a lossless
    /// partition of the non-whitespace bytes, and (2) expensive-call
    /// spellings buried in comments/strings never surface as identifier
    /// tokens — i.e. the lock-discipline rule can never false-positive on
    /// them.
    #[test]
    fn lexer_round_trips_arbitrary_comment_string_nesting(
        picks in prop::collection::vec(0usize..10, 1..24),
    ) {
        let src: String = picks
            .iter()
            .map(|&p| FRAGMENTS[p % FRAGMENTS.len()])
            .collect::<Vec<_>>()
            .join("\n");
        let toks = spider_guard::lex(&src);

        // (1) Lossless partition: every non-whitespace byte covered once.
        let mut covered = vec![false; src.len()];
        for t in &toks {
            for (off, flag) in covered[t.start..t.start + t.text.len()].iter_mut().enumerate() {
                prop_assert!(!*flag, "byte {} covered twice", t.start + off);
                *flag = true;
            }
        }
        for (i, ch) in src.char_indices() {
            if !ch.is_whitespace() {
                prop_assert!(covered[i], "byte {i} ({ch:?}) uncovered");
            }
        }

        // (2) No buried spelling leaks out as an identifier.
        for t in &toks {
            if t.kind == TokenKind::Ident {
                prop_assert!(
                    !matches!(t.text, "compile" | "submit" | "try_submit" | "compile_plan"),
                    "expensive-call spelling leaked from a literal: {:?} at byte {}",
                    t.text,
                    t.start
                );
            }
        }

        // And the full rule engine agrees: no lock-discipline violations
        // can arise from fragments that never really take a lock.
        let vs = lint_source("crates/runtime/src/fuzz.rs", &src, &cfg());
        prop_assert!(
            vs.iter().all(|v| v.rule != RULE_LOCK_DISCIPLINE),
            "false positive: {vs:?}"
        );
    }
}

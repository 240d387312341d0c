//! # spider-guard
//!
//! Workspace invariant linter — the static half of the correctness tooling
//! (the runtime half is `spider_core::sync`'s ranked-lock checker). A
//! hand-rolled comment/string-aware token scanner ([`lexer`]) feeds four
//! rules ([`rules`]):
//!
//! * **lock-discipline** — no lock guard live across an expensive call
//!   (`compile*`, `submit`/`try_submit`, `steal`/`rebalance`,
//!   `fail_device`, `tune_uncached`): the plan-cache-held-across-compile
//!   bug class.
//! * **metric-naming** — names passed to `counter()`/`gauge()`/
//!   `histogram()` are string literals outside tests, and must be
//!   `spider_<subsystem>_…`, `_total` on counters, `_us` on time
//!   histograms.
//! * **determinism** — no `Instant`/`SystemTime`/`HashMap`/`HashSet` in
//!   the simulation/plan/bench-deterministic modules.
//! * **panic-audit** — `.unwrap()`/`.expect()` in the serving crates'
//!   non-test code needs a `// guard: <reason>` justification.
//!
//! Run as `cargo run -p spider-guard -- check`; exits nonzero on any
//! violation. See `crates/guard/README.md` for the rule catalogue and
//! `guard-allow.txt` for the reviewed exceptions. `… -- lines` prints each
//! crate's library code and comment lines outside test regions
//! ([`lines`]), the count CHANGES.md reports per PR.

pub mod config;
pub mod lexer;
pub mod lines;
pub mod rules;

pub use config::{parse_allowlist, AllowEntry, GuardConfig};
pub use lexer::{lex, Token, TokenKind};
pub use lines::{count_lines, library_lines, LineCount};
pub use rules::{
    lint_source, Violation, RULE_DETERMINISM, RULE_LOCK_DISCIPLINE, RULE_METRIC_NAMING,
    RULE_PANIC_AUDIT,
};

use std::path::{Path, PathBuf};

/// Directories never scanned: build output, VCS, the crates.io shims
/// (external API mimicry, not project code) and this crate's own seeded
/// bad fixtures.
fn is_excluded(rel: &str) -> bool {
    rel.starts_with("target/")
        || rel.starts_with(".git/")
        || rel.starts_with("crates/shims/")
        || rel.starts_with("crates/guard/fixtures/")
        || rel.contains("/target/")
}

/// Every `.rs` file under `root` that the lint covers, workspace-relative
/// with `/` separators, sorted for deterministic reports.
pub fn workspace_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let rel = match path.strip_prefix(root) {
                Ok(r) => r.to_string_lossy().replace('\\', "/"),
                Err(_) => continue,
            };
            if is_excluded(&rel) {
                continue;
            }
            if path.is_dir() {
                stack.push(path);
            } else if rel.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// Lint the whole workspace rooted at `root` with its standard config
/// (workspace scoping + `guard-allow.txt`). Unreadable files are skipped.
pub fn check_workspace(root: &Path) -> Vec<Violation> {
    let cfg = GuardConfig::load(root);
    let mut out = Vec::new();
    for path in workspace_files(root) {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let Ok(src) = std::fs::read_to_string(&path) else {
            continue;
        };
        out.extend(lint_source(&rel, &src, &cfg));
    }
    out
}

//! The rule engine: four invariant checks over the token stream.
//!
//! Every rule reports [`Violation`]s; suppression is either an inline
//! `// guard: <reason>` comment on the offending line (or the line above),
//! or an entry in the allowlist file (see [`crate::config`]). Rules skip
//! `#[cfg(test)]` / `#[test]` regions where noted — test code deliberately
//! exercises the patterns the rules exist to keep out of production paths.

use crate::config::GuardConfig;
use crate::lexer::{lex, Token, TokenKind};

/// One rule violation at a specific source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule identifier (`lock-discipline`, `metric-naming`, `determinism`,
    /// `panic-audit`).
    pub rule: &'static str,
    /// The token the rule tripped on (what allowlist entries match).
    pub token: String,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

pub const RULE_LOCK_DISCIPLINE: &str = "lock-discipline";
pub const RULE_METRIC_NAMING: &str = "metric-naming";
pub const RULE_DETERMINISM: &str = "determinism";
pub const RULE_PANIC_AUDIT: &str = "panic-audit";

/// Methods whose return value is a lock guard: the `let` bindings the
/// lock-discipline rule tracks.
const GUARD_METHODS: &[&str] = &[
    "lock",
    "try_lock",
    "read",
    "write",
    "read_membership",
    "write_membership",
];

/// Calls that are expensive or blocking: a live guard across any of these
/// is the PR 5 bug class (prefix entries end in `*`).
const EXPENSIVE_CALLS: &[&str] = &[
    "compile*",
    "try_submit",
    "submit",
    "steal",
    "rebalance",
    "fail_device",
    "tune_uncached",
];

fn is_expensive(ident: &str) -> bool {
    EXPENSIVE_CALLS
        .iter()
        .any(|pat| match pat.strip_suffix('*') {
            Some(prefix) => ident.starts_with(prefix),
            None => ident == *pat,
        })
}

/// Pre-computed per-file context shared by the rules.
struct FileCtx<'a> {
    path: &'a str,
    tokens: Vec<Token<'a>>,
    /// `tokens[i]` is inside a `#[cfg(test)]` module or `#[test]` item.
    in_test: Vec<bool>,
    /// Lines carrying a `// guard: <reason>` annotation.
    guard_lines: Vec<u32>,
}

impl<'a> FileCtx<'a> {
    fn new(path: &'a str, src: &'a str) -> Self {
        let tokens = lex(src);
        let in_test = mark_test_regions(&tokens);
        let guard_lines = tokens
            .iter()
            .filter(|t| {
                t.is_comment() && t.text.trim_start_matches('/').trim().starts_with("guard:")
            })
            .map(|t| t.line)
            .collect();
        Self {
            path,
            tokens,
            in_test,
            guard_lines,
        }
    }

    /// An inline `// guard:` on the same line or the line above suppresses.
    fn annotated(&self, line: u32) -> bool {
        self.guard_lines.iter().any(|&g| g == line || g + 1 == line)
    }
}

/// Mark tokens inside `#[cfg(test)] mod … { … }` or `#[test] fn … { … }`
/// regions: after either attribute, everything through the matching close
/// brace of the item's first `{` is test code.
pub(crate) fn mark_test_regions(tokens: &[Token<'_>]) -> Vec<bool> {
    let mut in_test = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if is_test_attribute(tokens, i) {
            // Scan forward to the item's opening brace, then cover through
            // its matching close brace.
            let mut j = i;
            while j < tokens.len() && tokens[j].text != "{" {
                j += 1;
            }
            let mut depth = 0i32;
            while j < tokens.len() {
                match tokens[j].text {
                    "{" => depth += 1,
                    "}" => {
                        depth -= 1;
                        if depth == 0 {
                            in_test[i..=j].iter_mut().for_each(|f| *f = true);
                            i = j;
                            break;
                        }
                    }
                    _ => {}
                }
                in_test[j] = true;
                j += 1;
            }
        }
        i += 1;
    }
    in_test
}

/// Does `#` at `tokens[i]` start `#[cfg(test)]` or `#[test]`?
fn is_test_attribute(tokens: &[Token<'_>], i: usize) -> bool {
    let code: Vec<&str> = tokens[i..]
        .iter()
        .filter(|t| !t.is_comment())
        .take(7)
        .map(|t| t.text)
        .collect();
    code.starts_with(&["#", "[", "test", "]"])
        || code.starts_with(&["#", "[", "cfg", "(", "test", ")", "]"])
}

/// Run every applicable rule over one file.
pub fn lint_source(path: &str, src: &str, cfg: &GuardConfig) -> Vec<Violation> {
    let ctx = FileCtx::new(path, src);
    let mut out = Vec::new();
    lock_discipline(&ctx, &mut out);
    metric_naming(&ctx, &mut out);
    if cfg.is_deterministic_module(path) {
        determinism(&ctx, &mut out);
    }
    if cfg.is_panic_audited(path) {
        panic_audit(&ctx, &mut out);
    }
    out.retain(|v| !ctx.annotated(v.line) && !cfg.is_allowed(v));
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

/// Rule (a): no lock guard binding live across an expensive call in the
/// same block — the exact PR 5 bug class. One linear pass:
///
/// * `let [mut] <name> = …` pushes a *pending* binding; if a guard-method
///   call (`.lock()`, `.read()`, …) in its direct right-hand side (same
///   brace depth — a call nested in an inner block or closure binds
///   someone else) ends that right-hand side (see [`ends_statement`]), or
///   the right-hand side starts with `&` (temporary lifetime extension
///   keeps `&m.lock().field`'s guard alive with the binding), the binding
///   becomes a live guard when its `;` closes the statement. A guard that
///   is only projected through (`m.lock().queue.len()`) is a temporary,
///   dropped at the `;`. Nested `let`s inside block RHSes are handled by
///   the same pass, so `let plan = { let g = m.lock(); … };` tracks `g`.
/// * a live guard dies at `drop(<name>)`, a shadowing rebind, or the `}`
///   closing the block it was bound in.
/// * a `fn` parameter `name: &T` or `name: &mut T`, where the file holds
///   `T` in an `OrderedMutex<T>` or `OrderedRwLock<T>`, is a guard its
///   caller took: live for the whole body (see [`param_guards`]).
/// * any expensive call while a guard is live is a violation.
fn lock_discipline(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    struct ActiveGuard {
        name: String,
        depth: i32,
        line: u32,
    }
    struct PendingLet {
        name: String,
        depth: i32,
        line: u32,
        /// The right-hand side starts with `&`.
        borrowed: bool,
        saw_guard_method: bool,
    }
    let toks: Vec<&Token<'_>> = ctx.tokens.iter().filter(|t| !t.is_comment()).collect();
    let mut params = param_guards(&toks);
    let mut guards: Vec<ActiveGuard> = Vec::new();
    let mut pending: Vec<PendingLet> = Vec::new();
    let mut depth = 0i32;
    for i in 0..toks.len() {
        let t = toks[i];
        match t.text {
            "{" | "(" | "[" => {
                depth += 1;
                // A function body opens: its guard parameters go live.
                while let Some(&(_, name, line)) = params.last().filter(|p| p.0 == i) {
                    guards.push(ActiveGuard {
                        name: name.to_string(),
                        depth,
                        line,
                    });
                    params.pop();
                }
            }
            "}" | ")" | "]" => {
                depth -= 1;
                guards.retain(|g| g.depth <= depth);
                pending.retain(|p| p.depth <= depth);
            }
            ";" => {
                // Statement end: every pending binding at this depth
                // resolves. `let _ = …` drops its guard immediately.
                while pending.last().map(|p| p.depth == depth).unwrap_or(false) {
                    let p = match pending.pop() {
                        Some(p) => p,
                        None => break,
                    };
                    if p.saw_guard_method && p.name != "_" {
                        guards.retain(|g| g.name != p.name);
                        guards.push(ActiveGuard {
                            name: p.name,
                            depth: p.depth,
                            line: p.line,
                        });
                    }
                }
            }
            "let" if t.kind == TokenKind::Ident => {
                // Binding name: first ident after `let` (skipping `mut`).
                // Destructuring patterns aren't guard bindings here; a
                // non-ident opts the statement out.
                let mut j = i + 1;
                if toks.get(j).map(|n| n.text) == Some("mut") {
                    j += 1;
                }
                if let Some(tok) = toks.get(j) {
                    if tok.kind == TokenKind::Ident && tok.text != "Some" && tok.text != "Ok" {
                        let eq = (j..toks.len()).find(|&k| matches!(toks[k].text, "=" | ";"));
                        let borrowed = eq.is_some_and(|k| {
                            toks[k].text == "=" && toks.get(k + 1).is_some_and(|n| n.text == "&")
                        });
                        pending.push(PendingLet {
                            name: tok.text.to_string(),
                            depth,
                            line: t.line,
                            borrowed,
                            saw_guard_method: false,
                        });
                    }
                }
            }
            "drop" if t.kind == TokenKind::Ident => {
                // drop(<name>) ends that guard's liveness.
                if toks.get(i + 1).map(|n| n.text) == Some("(") {
                    if let Some(arg) = toks.get(i + 2) {
                        guards.retain(|g| g.name != arg.text);
                    }
                }
            }
            _ => {
                if t.kind != TokenKind::Ident {
                    continue;
                }
                // A guard-producing method call credited to the innermost
                // pending binding at this exact depth.
                if i > 0
                    && toks[i - 1].text == "."
                    && toks.get(i + 1).map(|n| n.text) == Some("(")
                    && GUARD_METHODS.contains(&t.text)
                {
                    if let Some(p) = pending.last_mut() {
                        if p.depth == depth && (p.borrowed || ends_statement(&toks, i + 1)) {
                            p.saw_guard_method = true;
                        }
                    }
                }
                // An expensive call while any guard is live.
                if is_expensive(t.text)
                    && toks.get(i + 1).map(|n| n.text) == Some("(")
                    && !(i > 0 && toks[i - 1].text == "fn")
                {
                    if let Some(g) = guards.last() {
                        out.push(Violation {
                            file: ctx.path.to_string(),
                            line: t.line,
                            rule: RULE_LOCK_DISCIPLINE,
                            token: t.text.to_string(),
                            message: format!(
                                "lock guard `{}` (taken line {}) is live across expensive \
                                 call `{}()`; drop the guard first or move the call out of \
                                 the critical section",
                                g.name, g.line, t.text
                            ),
                        });
                    }
                }
            }
        }
    }
}

/// Index of the `)` closing the `(` at `toks[open]`.
fn close_paren(toks: &[&Token<'_>], open: usize) -> Option<usize> {
    let mut nest = 0;
    for (k, t) in toks.iter().enumerate().skip(open) {
        match t.text {
            "(" => nest += 1,
            ")" => {
                nest -= 1;
                if nest == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
    }
    None
}

/// Does the call whose argument list opens at `toks[open]` end its
/// statement? After its `)` may come only `?`, `.unwrap()` or
/// `.expect(…)`, and then the `;`.
fn ends_statement(toks: &[&Token<'_>], open: usize) -> bool {
    let text = |k: usize| toks.get(k).map_or("", |t| t.text);
    let Some(mut k) = close_paren(toks, open).map(|c| c + 1) else {
        return false;
    };
    loop {
        match text(k) {
            "?" => k += 1,
            "." if matches!(text(k + 1), "unwrap" | "expect") && text(k + 2) == "(" => {
                match close_paren(toks, k + 2) {
                    Some(c) => k = c + 1,
                    None => return false,
                }
            }
            end => return end == ";",
        }
    }
}

/// The lock guards functions receive as parameters: for each `fn` whose
/// parameter list binds `name: &T` or `name: &mut T` (a lifetime allowed),
/// where `T` is a type this file holds in an `OrderedMutex<T>` or
/// `OrderedRwLock<T>` — the only way to get such a reference is through the
/// lock's guard — the index of the `{` opening the body, the name and its
/// line. Last function and last parameter first, to pop in order.
fn param_guards<'a>(toks: &[&Token<'a>]) -> Vec<(usize, &'a str, u32)> {
    let text = |i: usize| toks.get(i).map_or("", |t| t.text);
    let locked: Vec<&str> = (0..toks.len())
        .filter(|&i| matches!(text(i), "OrderedMutex" | "OrderedRwLock") && text(i + 1) == "<")
        .filter(|&i| toks.get(i + 2).is_some_and(|t| t.kind == TokenKind::Ident))
        .filter(|&i| text(i + 3) == ">")
        .map(|i| text(i + 2))
        .collect();
    let mut found = Vec::new();
    for f in (0..toks.len()).filter(|&i| text(i) == "fn" && toks[i].kind == TokenKind::Ident) {
        let Some(open) = (f..toks.len()).find(|&i| text(i) == "(") else {
            continue;
        };
        let (mut nest, mut close) = (0, open);
        for (i, t) in toks.iter().enumerate().skip(open) {
            match t.text {
                "(" | "[" | "<" => nest += 1,
                ">" if text(i - 1) == "-" => {}
                ")" | "]" | ">" => nest -= 1,
                _ => {}
            }
            if nest == 0 {
                close = i;
                break;
            }
        }
        let Some(body) = (close..toks.len()).find(|&i| matches!(text(i), "{" | ";")) else {
            continue;
        };
        if text(body) != "{" {
            continue;
        }
        for i in open + 1..close {
            let mut j = i + 3;
            if text(j) == "mut" {
                j += 1;
            }
            if toks.get(j).is_some_and(|t| t.kind == TokenKind::Lifetime) {
                j += 1;
            }
            let binds =
                toks[i].kind == TokenKind::Ident && text(i + 1) == ":" && text(i + 2) == "&";
            if binds && locked.contains(&text(j)) && matches!(text(j + 1), "," | ")") {
                found.push((body, toks[i].text, toks[i].line));
            }
        }
    }
    found.reverse();
    found
}

/// Rule (b): string literals passed to `counter()`/`gauge()`/`histogram()`
/// must be `spider_<subsystem>_…` (at least two segments after `spider`),
/// with `_total` on counters and `_us` on (time) histograms. Outside test
/// regions the name must be a literal: a name built at run time is one
/// this rule cannot check.
fn metric_naming(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    let toks: Vec<(usize, &Token<'_>)> = ctx
        .tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.is_comment())
        .collect();
    for i in 0..toks.len() {
        let (orig_idx, t) = toks[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let kind = match t.text {
            "counter" | "gauge" | "histogram" => t.text,
            _ => continue,
        };
        // Method definitions (`fn counter(`) are not call sites.
        if i > 0 && toks[i - 1].1.text == "fn" {
            continue;
        }
        let (open, lit) = match (toks.get(i + 1), toks.get(i + 2)) {
            (Some(o), Some(l)) => (o.1, l.1),
            _ => continue,
        };
        if open.text != "(" || lit.text == ")" {
            continue;
        }
        if lit.kind != TokenKind::Str {
            if !ctx.in_test[orig_idx] {
                let mut nest = 0;
                let arg: String = toks[i + 2..]
                    .iter()
                    .map(|(_, a)| a.text)
                    .take_while(|&a| {
                        nest += match a {
                            "(" | "[" | "{" => 1,
                            ")" | "]" | "}" => -1,
                            _ => 0,
                        };
                        nest >= 0 && !(nest == 0 && a == ",")
                    })
                    .collect();
                out.push(Violation {
                    file: ctx.path.to_string(),
                    line: lit.line,
                    rule: RULE_METRIC_NAMING,
                    token: arg.clone(),
                    message: format!(
                        "metric name `{arg}` passed to {kind}() is not a string literal; \
                         name the metric with a literal (label a per-entity series at \
                         export instead)"
                    ),
                });
            }
            continue;
        }
        let name = lit.text.trim_matches('"');
        let mut problems = Vec::new();
        let well_formed = name
            .strip_prefix("spider_")
            .map(|rest| {
                let segs: Vec<&str> = rest.split('_').collect();
                segs.len() >= 2
                    && segs.iter().all(|s| {
                        !s.is_empty()
                            && s.chars()
                                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit())
                    })
            })
            .unwrap_or(false);
        if !well_formed {
            problems.push("must match `spider_<subsystem>_<name>` (lowercase, two or more segments after `spider`)".to_string());
        }
        if kind == "counter" && !name.ends_with("_total") {
            problems.push("counters must end in `_total`".to_string());
        }
        if kind == "histogram" && !name.ends_with("_us") {
            problems.push("time histograms must end in `_us`".to_string());
        }
        for p in problems {
            out.push(Violation {
                file: ctx.path.to_string(),
                line: lit.line,
                rule: RULE_METRIC_NAMING,
                token: name.to_string(),
                message: format!("metric `{name}` passed to {kind}(): {p}"),
            });
        }
    }
}

/// Rule (c): wall-clock time sources and order-sensitive hash collections
/// are forbidden in deterministic modules (simulation, planning, the
/// deterministic bench library). Test regions are exempt; genuine
/// telemetry sites go in the allowlist file.
fn determinism(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    for (i, t) in ctx.tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || ctx.in_test[i] {
            continue;
        }
        let complaint = match t.text {
            "Instant" | "SystemTime" => {
                format!("wall-clock source `{}` in a deterministic module; inject timing through the simulator or allowlist a telemetry site", t.text)
            }
            "HashMap" | "HashSet" => {
                format!("`{}` in a deterministic module has order-sensitive iteration; use BTreeMap/BTreeSet/Vec (or allowlist a lookup-only site)", t.text)
            }
            _ => continue,
        };
        out.push(Violation {
            file: ctx.path.to_string(),
            line: t.line,
            rule: RULE_DETERMINISM,
            token: t.text.to_string(),
            message: complaint,
        });
    }
}

/// Rule (d): `.unwrap()` / `.expect(…)` in non-test library code of the
/// audited serving crates needs a `// guard: <reason>` justification (or a
/// conversion to proper error handling).
fn panic_audit(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    let toks: Vec<(usize, &Token<'_>)> = ctx
        .tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.is_comment())
        .collect();
    for w in 0..toks.len() {
        let (orig_idx, t) = toks[w];
        if t.kind != TokenKind::Ident || ctx.in_test[orig_idx] {
            continue;
        }
        if t.text != "unwrap" && t.text != "expect" {
            continue;
        }
        let preceded_by_dot = w > 0 && toks[w - 1].1.text == ".";
        let followed_by_call = toks.get(w + 1).map(|(_, n)| n.text) == Some("(");
        if preceded_by_dot && followed_by_call {
            out.push(Violation {
                file: ctx.path.to_string(),
                line: t.line,
                rule: RULE_PANIC_AUDIT,
                token: t.text.to_string(),
                message: format!(
                    ".{}() in non-test library code: convert to error handling or \
                     justify with a `// guard: <reason>` comment",
                    t.text
                ),
            });
        }
    }
}

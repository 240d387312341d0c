//! `spider-guard` CLI.
//!
//! ```text
//! cargo run -p spider-guard -- check [--root <path>]
//! cargo run -p spider-guard -- lines [--root <path>]
//! ```
//!
//! `check` lints every workspace `.rs` file and exits 1 if any rule
//! fires — the CI tier-2 gate. Violations print as
//! `path:line: [rule] message`, sorted. `lines` prints each crate's
//! library code and comment lines outside test regions, and their total.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use spider_guard::LineCount;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cmd = None;
    let mut root = PathBuf::from(".");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "check" => cmd = Some("check"),
            "lines" => cmd = Some("lines"),
            "--root" => match it.next() {
                Some(r) => root = PathBuf::from(r),
                None => {
                    eprintln!("--root needs a path");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown argument `{other}`");
                return usage();
            }
        }
    }
    match cmd {
        Some("check") => check(&root),
        Some("lines") => lines(&root),
        _ => usage(),
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: spider-guard (check | lines) [--root <workspace root>]");
    ExitCode::from(2)
}

fn lines(root: &Path) -> ExitCode {
    let row = |name: &str, c: LineCount| println!("{name:<10} {:>7} {:>8}", c.code, c.comment);
    println!("{:<10} {:>7} {:>8}", "crate", "code", "comment");
    let mut total = LineCount::default();
    for (name, count) in spider_guard::library_lines(root) {
        row(&name, count);
        total += count;
    }
    row("total", total);
    ExitCode::SUCCESS
}

fn check(root: &Path) -> ExitCode {
    let mut violations = spider_guard::check_workspace(root);
    violations.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    for v in &violations {
        println!("{v}");
    }
    if violations.is_empty() {
        println!("spider-guard: workspace clean");
        ExitCode::SUCCESS
    } else {
        println!("spider-guard: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

//! Library line counts: the code and comment lines of each crate's
//! library sources outside `#[cfg(test)]` / `#[test]` regions, read with
//! the same lexer and test-region detection the rules use.
//!
//! A crate is a `crates/<name>` directory; its library sources are the
//! `.rs` files under its `src/`, less `src/main.rs` and `src/bin/`. A line
//! is code if a token that is not a comment covers it, a comment line if
//! only comments do, and blank otherwise.

use std::collections::BTreeMap;
use std::path::Path;

use crate::lexer::lex;
use crate::rules::mark_test_regions;

/// Non-blank library lines outside test regions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LineCount {
    /// Lines that hold code (a trailing comment included).
    pub code: usize,
    /// Lines that hold only comments.
    pub comment: usize,
}

impl std::ops::AddAssign for LineCount {
    fn add_assign(&mut self, rhs: Self) {
        self.code += rhs.code;
        self.comment += rhs.comment;
    }
}

/// Count one source file's code and comment lines outside test regions.
pub fn count_lines(src: &str) -> LineCount {
    let tokens = lex(src);
    let in_test = mark_test_regions(&tokens);
    // Per 1-based line: 0 blank, 1 comment, 2 code.
    let mut kind = vec![0u8; src.lines().count() + 2];
    for (t, _) in tokens.iter().zip(&in_test).filter(|(_, &test)| !test) {
        let first = t.line as usize;
        let last = first + t.text.matches('\n').count();
        let k = if t.is_comment() { 1 } else { 2 };
        kind[first..=last]
            .iter_mut()
            .for_each(|line| *line = (*line).max(k));
    }
    LineCount {
        code: kind.iter().filter(|&&k| k == 2).count(),
        comment: kind.iter().filter(|&&k| k == 1).count(),
    }
}

/// Library line counts of every crate under `root`, by crate name
/// (sorted). Unreadable files are skipped.
pub fn library_lines(root: &Path) -> Vec<(String, LineCount)> {
    let mut crates: BTreeMap<String, LineCount> = BTreeMap::new();
    for path in crate::workspace_files(root) {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let Some((name, file)) = rel
            .strip_prefix("crates/")
            .and_then(|r| r.split_once("/src/"))
        else {
            continue;
        };
        if name.contains('/') || file == "main.rs" || file.starts_with("bin/") {
            continue;
        }
        if let Ok(src) = std::fs::read_to_string(&path) {
            *crates.entry(name.to_string()).or_default() += count_lines(&src);
        }
    }
    crates.into_iter().collect()
}

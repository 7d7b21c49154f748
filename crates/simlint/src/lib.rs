//! `simlint` — the path-obligation walker: the static form of the
//! paper's §4.2 rule that every credit consumed reaches a send.
//!
//! | rule | what it forbids |
//! |------|-----------------|
//! | `credit-path-pairing` | a consume-side ledger op whose path can exit without a send/grant |
//! | `quiesce-pairing` | a `begin_quiesce` whose path can exit without `resume_world`/`abort_quiesce` |
//!
//! Both need to know *which paths through a function* reach which calls,
//! which no clippy lint expresses; they run on the per-function trees
//! built by [`ast`] (over [`lexer`]'s tokens) with the one control-flow
//! walk in [`analyses`]. Every other invariant of the simulation crates —
//! no wall clock, no hash-ordered containers, no truncating casts, no
//! panics in library code, no blocking calls, exhaustive matches, audited
//! suppressions — is clippy configuration (`clippy.toml`, the lint headers
//! of the three simulation libraries, `[workspace.lints]`) and
//! `#[expect(clippy::…, reason = "…")]`; DESIGN.md §8 has the table. Zero
//! dependencies.

pub mod analyses;
pub mod ast;
pub mod lexer;
pub mod rules;

use rules::Finding;
use std::path::{Path, PathBuf};

/// Aggregated result of linting a tree.
#[derive(Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
}

/// Paths never scanned: build output, VCS metadata, and the lint's own
/// known-bad fixture corpus.
const SKIP_FRAGMENTS: [&str; 3] = ["/target/", "/.git/", "crates/simlint/tests/fixtures/"];

/// Lints every `.rs` file under `root`. Paths in the report are
/// root-relative with forward slashes.
pub fn lint_tree(root: &Path) -> std::io::Result<Report> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut report = Report::default();
    for rel in files {
        let src = std::fs::read_to_string(root.join(&rel))?;
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        report.findings.extend(rules::lint_source(&rel_str, &src));
        report.files_scanned += 1;
    }
    Ok(report)
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let normalized = format!("/{}", path.to_string_lossy().replace('\\', "/"));
        if SKIP_FRAGMENTS.iter().any(|s| normalized.contains(s)) {
            continue;
        }
        if path.is_dir() {
            collect_rs_files(root, &path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

/// Human diagnostics: one `file:line: [rule] message` per finding, then
/// a summary line.
pub fn render_human(report: &Report) -> String {
    let mut out = String::new();
    for f in &report.findings {
        out.push_str(&format!(
            "{}:{}: [{}] {}\n",
            f.file, f.line, f.rule, f.message
        ));
    }
    out.push_str(&format!(
        "simlint: {} file(s), {} violation(s)\n",
        report.files_scanned,
        report.findings.len()
    ));
    out
}

//! `simlint` — the in-repo determinism & protocol-safety lint pass.
//!
//! The simulation's headline results are pinned byte-for-byte by golden
//! snapshots, which only holds while the simulation is deterministic *by
//! construction*. This pass enforces the construction rules statically:
//!
//! | rule | what it forbids |
//! |------|-----------------|
//! | `no-wall-clock` | `Instant`/`SystemTime` outside `testutil` and bench drivers |
//! | `no-unordered-iteration` | `HashMap`/`HashSet` in the simulation crates |
//! | `no-truncating-cast` | `as u8/u16/u32/usize` in `wire.rs`, `qp.rs`, `conn.rs` |
//! | `no-panic-in-lib` | `unwrap()`/`expect()`/`panic!` in `ibsim`/`ibfabric`/`mpib` library code |
//! | `no-ambient-rng` | RNG construction outside the `det_rng(seed, stream)` contract |
//! | `no-blocking-in-async` | `thread::sleep`/`spawn`, blocking `recv`, `.lock()` in async bodies |
//! | `credit-path-pairing` | a consume-side ledger op whose path can exit without a send/grant |
//! | `quiesce-pairing` | a `begin_quiesce` whose path can exit without `resume_world`/`abort_quiesce` |
//! | `exhaustive-protocol-match` | catch-all arms in `match`es over the wire/completion enums |
//!
//! The first five are token rules (their idents can appear outside any
//! function body); the last four run on the AST built by [`ast`] with the
//! control-flow walks in [`analyses`]. A guard held across an `.await` is
//! not here: clippy's `await_holding_refcell_ref` and
//! `await_holding_lock`, which the same lint stage denies, check it on
//! types rather than method names. Escapes are per-line comments —
//! `// simlint: allow(<rule>): <why>` — and are audited: an escape with
//! no justification, or one that suppresses nothing, is itself a
//! violation, so the allowlist cannot silently grow. `--stats` reports
//! per-rule counts of findings and audited suppressions. Zero
//! dependencies; the lexer lives in [`lexer`] and the rules in [`rules`].

pub mod analyses;
pub mod ast;
pub mod lexer;
pub mod rules;

use rules::{FileReport, Finding};
use std::path::{Path, PathBuf};

/// Aggregated result of linting a tree.
#[derive(Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    /// `(rule, file, line)` for every audited (justified + effective)
    /// suppression.
    pub suppressions: Vec<(String, String, u32)>,
    pub files_scanned: usize,
}

impl Report {
    /// Nothing to fix: no findings at all (suppressions are allowed as
    /// long as they are audited — unaudited ones surface as findings).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    fn absorb(&mut self, file_report: FileReport, path: &str) {
        self.findings.extend(file_report.findings);
        for (rule, line) in file_report.audited_suppressions {
            self.suppressions.push((rule, path.to_string(), line));
        }
        self.files_scanned += 1;
    }
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
        report.absorb(rules::lint_source(&rel_str, &src), &rel_str);
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
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

// ---------------------------------------------------------------------
// Rendering.
// ---------------------------------------------------------------------

/// Human diagnostics: one `file:line: [rule] message` per finding.
pub fn render_human(report: &Report) -> String {
    let mut out = String::new();
    for f in &report.findings {
        out.push_str(&format!(
            "{}:{}: [{}] {}\n",
            f.file, f.line, f.rule, f.message
        ));
    }
    out.push_str(&format!(
        "simlint: {} file(s), {} violation(s), {} audited suppression(s)\n",
        report.files_scanned,
        report.findings.len(),
        report.suppressions.len()
    ));
    out
}

/// Per-rule counters for `--stats`: findings and audited suppressions,
/// so escape accumulation is visible in CI logs.
pub fn render_stats(report: &Report) -> String {
    let mut out = String::from("rule                        findings  suppressions\n");
    for rule in rules::RULE_NAMES {
        let nf = report.findings.iter().filter(|f| f.rule == rule).count();
        let ns = report.suppressions.iter().filter(|s| s.0 == rule).count();
        out.push_str(&format!("{rule:<28}{nf:>8}  {ns:>12}\n"));
    }
    out
}

/// Machine-readable `--stats` output: per-rule counters in `RULE_NAMES`
/// order plus totals. Deterministic byte-for-byte for a given tree, so
/// the committed baseline in `bench_results/simlint_stats.json` can be
/// diffed in CI.
pub fn render_stats_json(report: &Report) -> String {
    let mut out = String::from("{\n  \"rules\": [");
    for (i, rule) in rules::RULE_NAMES.iter().enumerate() {
        let nf = report.findings.iter().filter(|f| f.rule == *rule).count();
        let ns = report.suppressions.iter().filter(|s| s.0 == *rule).count();
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"rule\": {}, \"findings\": {nf}, \"suppressions\": {ns}}}",
            json_str(rule)
        ));
    }
    out.push_str(&format!(
        "\n  ],\n  \"files_scanned\": {},\n  \"total_findings\": {},\n  \"total_suppressions\": {}\n}}\n",
        report.files_scanned,
        report.findings.len(),
        report.suppressions.len()
    ));
    out
}

/// Machine-readable output: a JSON object with findings and suppressions.
pub fn render_json(report: &Report) -> String {
    let mut out = String::from("{\n  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}}}",
            json_str(f.rule),
            json_str(&f.file),
            f.line,
            json_str(&f.message)
        ));
    }
    out.push_str("\n  ],\n  \"suppressions\": [");
    for (i, (rule, file, line)) in report.suppressions.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"rule\": {}, \"file\": {}, \"line\": {}}}",
            json_str(rule),
            json_str(file),
            line
        ));
    }
    out.push_str(&format!(
        "\n  ],\n  \"files_scanned\": {},\n  \"clean\": {}\n}}\n",
        report.files_scanned,
        report.is_clean()
    ));
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rules::lint_source;

    #[test]
    fn json_escapes_specials() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn json_output_is_well_formed_enough() {
        let mut report = Report::default();
        report.absorb(
            lint_source("crates/core/src/x.rs", "fn f() { y.unwrap(); }"),
            "crates/core/src/x.rs",
        );
        let json = render_json(&report);
        assert!(json.contains("\"rule\": \"no-panic-in-lib\""));
        assert!(json.contains("\"clean\": false"));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn stats_lists_every_rule() {
        let report = Report::default();
        let stats = render_stats(&report);
        for rule in rules::RULE_NAMES {
            assert!(stats.contains(rule), "missing {rule}");
        }
    }
}

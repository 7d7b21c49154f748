//! The two rules, and the entry point that lints one file.
//!
//! Both rules are scoped by *path* (normalized, forward-slash, relative
//! to the workspace root) and have no escape syntax: a path that leaks an
//! obligation is fixed, not excused.

/// Names of every rule, in reporting order.
pub const RULE_NAMES: [&str; 2] = [CREDIT_PATH_PAIRING, QUIESCE_PAIRING];

pub const CREDIT_PATH_PAIRING: &str = "credit-path-pairing";
pub const QUIESCE_PAIRING: &str = "quiesce-pairing";

/// One reported violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    pub file: String,
    pub line: u32,
    pub message: String,
}

/// Lints one file's source and returns its findings in `(line, rule)`
/// order. `path` is the normalized workspace-relative path used for rule
/// scoping (fixtures pass a virtual path).
pub fn lint_source(path: &str, src: &str) -> Vec<Finding> {
    let fns = crate::ast::parse(&crate::lexer::lex(src));
    let mut findings = Vec::new();
    crate::analyses::collect_findings(path, &fns, &mut findings);
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

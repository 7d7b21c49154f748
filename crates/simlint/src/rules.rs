//! The lint rules, their scoping, and the suppression audit.
//!
//! Every rule is scoped by *path* (normalized, forward-slash, relative to
//! the workspace root) through a per-rule allowlist of path fragments.
//! Individual findings can be escaped with a
//! `// simlint: allow(<rule>): <justification>` comment on the same line
//! or the line directly above; escapes without a justification, and
//! escapes that suppress nothing, are themselves reported, so the escape
//! hatch cannot silently accumulate.

use crate::lexer::{lex, Lexed, TokKind};

/// Names of every rule, in reporting order.
pub const RULE_NAMES: [&str; 11] = [
    NO_WALL_CLOCK,
    NO_UNORDERED_ITERATION,
    NO_TRUNCATING_CAST,
    NO_PANIC_IN_LIB,
    NO_AMBIENT_RNG,
    NO_BLOCKING_IN_ASYNC,
    CREDIT_PATH_PAIRING,
    QUIESCE_PAIRING,
    EXHAUSTIVE_PROTOCOL_MATCH,
    UNAUDITED_SUPPRESSION,
    UNUSED_SUPPRESSION,
];

pub const NO_WALL_CLOCK: &str = "no-wall-clock";
pub const NO_UNORDERED_ITERATION: &str = "no-unordered-iteration";
pub const NO_TRUNCATING_CAST: &str = "no-truncating-cast";
pub const NO_PANIC_IN_LIB: &str = "no-panic-in-lib";
pub const NO_AMBIENT_RNG: &str = "no-ambient-rng";
pub const NO_BLOCKING_IN_ASYNC: &str = "no-blocking-in-async";
pub const CREDIT_PATH_PAIRING: &str = "credit-path-pairing";
pub const QUIESCE_PAIRING: &str = "quiesce-pairing";
pub const EXHAUSTIVE_PROTOCOL_MATCH: &str = "exhaustive-protocol-match";
pub const UNAUDITED_SUPPRESSION: &str = "unaudited-suppression";
pub const UNUSED_SUPPRESSION: &str = "unused-suppression";

/// One reported violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    pub file: String,
    pub line: u32,
    pub message: String,
}

/// Per-file lint outcome: surviving findings plus suppression accounting.
#[derive(Debug, Default)]
pub struct FileReport {
    pub findings: Vec<Finding>,
    /// `(rule, line)` of every escape that suppressed at least one finding
    /// and carries a justification.
    pub audited_suppressions: Vec<(String, u32)>,
}

// ---------------------------------------------------------------------
// Rule scoping. Paths are matched by fragment so the rules hold wherever
// the workspace is checked out.
// ---------------------------------------------------------------------

/// The three crates whose library code builds the simulation's result:
/// panics there turn typed `SimError::ProcPanicked` reports into crashes,
/// and unordered containers there can reorder events between runs.
const SIM_CRATES: [&str; 3] = ["crates/sim/", "crates/fabric/", "crates/core/"];

pub(crate) fn in_sim_crates(path: &str) -> bool {
    SIM_CRATES.iter().any(|p| path.contains(p))
}

fn is_bench_or_bin(path: &str) -> bool {
    path.contains("/bin/") || path.ends_with("/src/main.rs") || path.contains("/benches/")
}

pub(crate) fn is_lib_code(path: &str) -> bool {
    // Library code of the simulation crates: src/ excluding binary
    // drivers. Integration tests and benches may panic freely.
    in_sim_crates(path) && path.contains("/src/") && !is_bench_or_bin(path)
}

/// no-wall-clock applies everywhere except the harness crate (its bench
/// half exists to measure wall time) and standalone drivers.
fn wall_clock_applies(path: &str) -> bool {
    !path.contains("crates/testutil/") && !is_bench_or_bin(path)
}

/// no-truncating-cast applies to the wire codec, the QP state machine,
/// and the credit/sequence arithmetic in conn.rs.
fn truncating_cast_applies(path: &str) -> bool {
    path.ends_with("wire.rs") || path.ends_with("qp.rs") || path.ends_with("conn.rs")
}

/// no-ambient-rng applies everywhere except the one file allowed to
/// construct generator state: the `det_rng(seed, stream)` contract itself.
fn ambient_rng_applies(path: &str) -> bool {
    !path.ends_with("sim/src/rng.rs")
}

const WALL_CLOCK_IDENTS: [&str; 2] = ["Instant", "SystemTime"];
const UNORDERED_IDENTS: [&str; 2] = ["HashMap", "HashSet"];
const NARROW_TARGETS: [&str; 4] = ["u8", "u16", "u32", "usize"];
const AMBIENT_RNG_IDENTS: [&str; 5] = [
    "thread_rng",
    "from_entropy",
    "RandomState",
    "StdRng",
    "SmallRng",
];

// ---------------------------------------------------------------------
// The engine.
// ---------------------------------------------------------------------

/// Lints one file's source. `path` is the normalized workspace-relative
/// path used for rule scoping (fixtures pass a virtual path).
///
/// Two passes share the one lex: the token pass (idents can sit in `use`
/// statements and type positions, outside any function body) and the AST
/// pass (rules that need to know *which paths through a function* reach
/// which calls).
pub fn lint_source(path: &str, src: &str) -> FileReport {
    let lexed = lex(src);
    let mut raw = Vec::new();
    collect_token_findings(path, &lexed, &mut raw);
    let fns = crate::ast::parse(&lexed);
    crate::analyses::collect_ast_findings(path, &fns, &mut raw);
    apply_suppressions(path, &lexed, raw)
}

pub(crate) fn push(
    out: &mut Vec<Finding>,
    rule: &'static str,
    path: &str,
    line: u32,
    message: String,
) {
    out.push(Finding {
        rule,
        file: path.to_string(),
        line,
        message,
    });
}

fn collect_token_findings(path: &str, lexed: &Lexed, out: &mut Vec<Finding>) {
    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let text = t.text.as_str();

        if wall_clock_applies(path) && WALL_CLOCK_IDENTS.contains(&text) {
            push(
                out,
                NO_WALL_CLOCK,
                path,
                t.line,
                format!(
                    "`{text}` reads the wall clock; simulation code must use \
                     virtual time (`SimTime`/`SimDuration`)"
                ),
            );
        }

        if in_sim_crates(path) && UNORDERED_IDENTS.contains(&text) {
            push(
                out,
                NO_UNORDERED_ITERATION,
                path,
                t.line,
                format!(
                    "`{text}` iterates in hash order, which is not stable across \
                     toolchains; use `BTree{}` or a sorted structure",
                    &text[4..]
                ),
            );
        }

        if truncating_cast_applies(path) && text == "as" {
            if let Some(next) = toks.get(i + 1) {
                if next.kind == TokKind::Ident && NARROW_TARGETS.contains(&next.text.as_str()) {
                    push(
                        out,
                        NO_TRUNCATING_CAST,
                        path,
                        t.line,
                        format!(
                            "`as {}` silently truncates protocol state; use \
                             `try_from`/`from` (and surface `WireError::FieldOverflow`)",
                            next.text
                        ),
                    );
                }
            }
        }

        if ambient_rng_applies(path) {
            if AMBIENT_RNG_IDENTS.contains(&text) {
                push(
                    out,
                    NO_AMBIENT_RNG,
                    path,
                    t.line,
                    format!(
                        "`{text}` draws ambient randomness; all simulation \
                         randomness must flow through `det_rng(seed, stream)`"
                    ),
                );
            }
            // Direct construction of generator state bypasses the
            // (seed, stream) contract.
            if text == "DetRng" && toks.get(i + 1).is_some_and(|n| n.text == "{") {
                push(
                    out,
                    NO_AMBIENT_RNG,
                    path,
                    t.line,
                    "constructing `DetRng { .. }` directly bypasses the \
                     `det_rng(seed, stream)` contract"
                        .to_string(),
                );
            }
        }
    }
}

/// Applies `simlint: allow` escapes (same line or the line directly
/// above), then audits the escapes themselves.
fn apply_suppressions(path: &str, lexed: &Lexed, raw: Vec<Finding>) -> FileReport {
    let mut used = vec![false; lexed.allows.len()];
    let mut report = FileReport::default();
    for f in raw {
        let escape = lexed
            .allows
            .iter()
            .position(|a| a.rule == f.rule && (a.line == f.line || a.line + 1 == f.line));
        match escape {
            Some(idx) => used[idx] = true,
            None => report.findings.push(f),
        }
    }
    for (idx, a) in lexed.allows.iter().enumerate() {
        if !used[idx] {
            push(
                &mut report.findings,
                UNUSED_SUPPRESSION,
                path,
                a.line,
                format!(
                    "`simlint: allow({})` suppresses nothing on this or the \
                     next line; remove the stale escape",
                    a.rule
                ),
            );
        } else if !a.justified {
            push(
                &mut report.findings,
                UNAUDITED_SUPPRESSION,
                path,
                a.line,
                format!(
                    "`simlint: allow({})` has no justification; write \
                     `simlint: allow({}): <why the invariant holds>`",
                    a.rule, a.rule
                ),
            );
        } else {
            report.audited_suppressions.push((a.rule.clone(), a.line));
        }
    }
    report
        .findings
        .sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_hit(path: &str, src: &str) -> Vec<&'static str> {
        lint_source(path, src)
            .findings
            .iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn wall_clock_scoping() {
        let src = "let t = std::time::Instant::now();";
        assert_eq!(rules_hit("crates/core/src/rank.rs", src), [NO_WALL_CLOCK]);
        assert!(rules_hit("crates/testutil/src/bench.rs", src).is_empty());
        assert!(rules_hit("crates/bench/src/main.rs", src).is_empty());
        assert!(rules_hit("crates/fabric/benches/transport.rs", src).is_empty());
    }

    #[test]
    fn unordered_iteration_scoping() {
        let src = "use std::collections::HashMap;";
        assert_eq!(
            rules_hit("crates/core/src/rank.rs", src),
            [NO_UNORDERED_ITERATION]
        );
        // Outside the simulation crates the container is fine.
        assert!(rules_hit("crates/nas/src/cg.rs", src).is_empty());
    }

    #[test]
    fn truncating_cast_scoping() {
        let src = "let x = rank as u16;";
        assert_eq!(
            rules_hit("crates/core/src/wire.rs", src),
            [NO_TRUNCATING_CAST]
        );
        assert!(rules_hit("crates/core/src/rank.rs", src).is_empty());
        // Widening casts are not flagged.
        assert!(rules_hit("crates/core/src/wire.rs", "let x = n as u64;").is_empty());
    }

    #[test]
    fn panic_in_lib_scoping() {
        let src = "fn f() { x.unwrap(); }";
        assert_eq!(rules_hit("crates/core/src/rank.rs", src), [NO_PANIC_IN_LIB]);
        assert!(rules_hit("crates/core/tests/flow.rs", src).is_empty());
        assert!(rules_hit("crates/bench/src/figures.rs", src).is_empty());
        // cfg(test) modules inside lib files are exempt.
        let in_test = "#[cfg(test)] mod tests { fn t() { x.unwrap(); } }";
        assert!(rules_hit("crates/core/src/rank.rs", in_test).is_empty());
        // unwrap_or_else is not unwrap.
        assert!(rules_hit("crates/core/src/rank.rs", "x.unwrap_or_else(f);").is_empty());
        // std::panic::catch_unwind is a path, not the macro.
        assert!(rules_hit("crates/core/src/rank.rs", "std::panic::catch_unwind(f);").is_empty());
    }

    #[test]
    fn panic_macros_flagged() {
        for m in ["panic!(\"x\")", "unreachable!()", "todo!()"] {
            let src = format!("fn f() {{ {m}; }}");
            assert_eq!(
                rules_hit("crates/fabric/src/transport.rs", &src),
                [NO_PANIC_IN_LIB],
                "{m}"
            );
        }
    }

    #[test]
    fn ambient_rng_everywhere_but_rng_rs() {
        let src = "let r = thread_rng();";
        assert_eq!(rules_hit("crates/nas/src/cg.rs", src), [NO_AMBIENT_RNG]);
        assert!(rules_hit("crates/sim/src/rng.rs", "DetRng { s }").is_empty());
        assert_eq!(
            rules_hit("crates/bench/src/figures.rs", "DetRng { s: [0; 4] }"),
            [NO_AMBIENT_RNG]
        );
        // Type positions are fine.
        assert!(rules_hit("crates/testutil/src/prop.rs", "struct G { r: DetRng }").is_empty());
    }

    #[test]
    fn allow_escape_suppresses_and_is_audited() {
        let src =
            "fn f() {\n// simlint: allow(no-panic-in-lib): slot checked above\nx.unwrap();\n}";
        let rep = lint_source("crates/core/src/rank.rs", src);
        assert!(rep.findings.is_empty());
        assert_eq!(rep.audited_suppressions.len(), 1);
        assert_eq!(rep.audited_suppressions[0].0, NO_PANIC_IN_LIB);
    }

    #[test]
    fn same_line_escape_works() {
        let src = "fn f() { x.unwrap(); } // simlint: allow(no-panic-in-lib): checked\n";
        assert!(lint_source("crates/core/src/rank.rs", src)
            .findings
            .is_empty());
    }

    #[test]
    fn unaudited_escape_is_reported() {
        let src = "fn f() {\n// simlint: allow(no-panic-in-lib)\nx.unwrap();\n}";
        assert_eq!(
            rules_hit("crates/core/src/rank.rs", src),
            [UNAUDITED_SUPPRESSION]
        );
    }

    #[test]
    fn unused_escape_is_reported() {
        let src = "// simlint: allow(no-wall-clock): justified but pointless\nlet x = 1;";
        assert_eq!(
            rules_hit("crates/core/src/rank.rs", src),
            [UNUSED_SUPPRESSION]
        );
    }

    #[test]
    fn escape_for_wrong_rule_does_not_suppress() {
        let src = "fn f() {\n// simlint: allow(no-wall-clock): wrong rule\nx.unwrap();\n}";
        let hits = rules_hit("crates/core/src/rank.rs", src);
        assert!(hits.contains(&NO_PANIC_IN_LIB), "{hits:?}");
        assert!(hits.contains(&UNUSED_SUPPRESSION), "{hits:?}");
    }
}

//! Fixture self-tests: each known-bad snippet under `tests/fixtures/`
//! must produce *exactly* the expected rule hits, line by line. The
//! fixtures are excluded from the workspace scan (they exist to be bad).

use simlint::rules::{self, lint_source};

fn fixture(name: &str) -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");
    std::fs::read_to_string(format!("{path}/{name}")).expect("fixture readable")
}

/// Lints a fixture under a virtual workspace path and returns its
/// `(rule, line)` pairs in reporting order.
fn hits(name: &str, virtual_path: &str) -> Vec<(String, u32)> {
    lint_source(virtual_path, &fixture(name))
        .into_iter()
        .map(|f| (f.rule.to_string(), f.line))
        .collect()
}

fn expect(rule: &str, lines: &[u32]) -> Vec<(String, u32)> {
    lines.iter().map(|&l| (rule.to_string(), l)).collect()
}

#[test]
fn credit_pairing_fixture() {
    // Findings anchor at the consume-side op whose path leaks: three
    // spent credits, then a drained mailbox return that a `?` (24) or a
    // fall-off (31) keeps from ever reaching a publish.
    assert_eq!(
        hits("bad_credit_pairing.rs", "crates/core/src/x.rs"),
        expect(rules::CREDIT_PATH_PAIRING, &[4, 11, 19, 24, 31])
    );
    assert!(hits("good_credit_pairing.rs", "crates/core/src/x.rs").is_empty());
    // The ledger rule is scoped to crates/core library code.
    assert!(hits("bad_credit_pairing.rs", "crates/fabric/src/x.rs").is_empty());
}

#[test]
fn ring_growth_fixture() {
    // Growth obligations anchor at the `install_grown_ring` call whose
    // path leaks: a publish without staging the displaced ring (5), a
    // stage without publishing the new generation (10), and a `?` that
    // exits before either half — both leak, so line 15 reports twice.
    assert_eq!(
        hits("bad_ring_growth.rs", "crates/core/src/x.rs"),
        expect(rules::CREDIT_PATH_PAIRING, &[5, 10, 15, 15])
    );
    assert!(hits("good_ring_growth.rs", "crates/core/src/x.rs").is_empty());
    // Like the other ledger rules, scoped to crates/core library code.
    assert!(hits("bad_ring_growth.rs", "crates/fabric/src/x.rs").is_empty());
}

#[test]
fn quiesce_pairing_fixture() {
    // Findings anchor at the `begin_quiesce` whose window can leak: the
    // `?` right after it (4), a branch that returns without releasing
    // (11), and a fall-off with the world still parked (19).
    assert_eq!(
        hits("bad_quiesce.rs", "crates/sim/src/engine.rs"),
        expect(rules::QUIESCE_PAIRING, &[4, 11, 19])
    );
    assert!(hits("good_quiesce.rs", "crates/sim/src/engine.rs").is_empty());
    // Scoped to the engine crate's library code.
    assert!(hits("bad_quiesce.rs", "crates/core/src/world.rs").is_empty());
    assert!(hits("bad_quiesce.rs", "crates/sim/tests/engine.rs").is_empty());
}

#[test]
fn workspace_scan_skips_fixtures() {
    // Linting the simlint crate's own tree must not trip over the
    // deliberately bad fixture corpus.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = simlint::lint_tree(root).expect("scan");
    assert!(
        report.findings.is_empty(),
        "unexpected findings:\n{}",
        simlint::render_human(&report)
    );
    assert!(report.files_scanned >= 5, "src + this test file scanned");
}

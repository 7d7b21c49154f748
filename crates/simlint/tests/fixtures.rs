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
        .findings
        .into_iter()
        .map(|f| (f.rule.to_string(), f.line))
        .collect()
}

fn expect(rule: &str, lines: &[u32]) -> Vec<(String, u32)> {
    lines.iter().map(|&l| (rule.to_string(), l)).collect()
}

#[test]
fn wall_clock_fixture() {
    assert_eq!(
        hits("bad_wall_clock.rs", "crates/core/src/progress.rs"),
        expect(rules::NO_WALL_CLOCK, &[6, 8])
    );
}

#[test]
fn unordered_fixture() {
    assert_eq!(
        hits("bad_unordered.rs", "crates/core/src/rank.rs"),
        expect(rules::NO_UNORDERED_ITERATION, &[5, 5, 8, 9])
    );
}

#[test]
fn casts_fixture() {
    assert_eq!(
        hits("bad_casts.rs", "crates/core/src/wire.rs"),
        expect(rules::NO_TRUNCATING_CAST, &[6, 7, 12])
    );
    // The same source outside the protected files is clean.
    assert!(hits("bad_casts.rs", "crates/core/src/collectives.rs").is_empty());
}

#[test]
fn panics_fixture() {
    assert_eq!(
        hits("bad_panics.rs", "crates/fabric/src/transport.rs"),
        expect(rules::NO_PANIC_IN_LIB, &[6, 7, 10, 16])
    );
    // The same source in a test target is clean.
    assert!(hits("bad_panics.rs", "crates/fabric/tests/transport.rs").is_empty());
}

#[test]
fn rng_fixture() {
    assert_eq!(
        hits("bad_rng.rs", "crates/nas/src/is.rs"),
        expect(rules::NO_AMBIENT_RNG, &[6, 9])
    );
}

#[test]
fn blocking_in_async_fixture() {
    assert_eq!(
        hits("bad_blocking.rs", "crates/core/src/x.rs"),
        expect(rules::NO_BLOCKING_IN_ASYNC, &[4, 5, 6, 12])
    );
    assert!(hits("good_blocking.rs", "crates/core/src/x.rs").is_empty());
    // Outside the deterministic crates the rule does not apply.
    assert!(hits("bad_blocking.rs", "crates/fabric/src/x.rs").is_empty());
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
fn protocol_match_fixture() {
    assert_eq!(
        hits("bad_protocol_match.rs", "crates/core/src/x.rs"),
        expect(rules::EXHAUSTIVE_PROTOCOL_MATCH, &[6, 13])
    );
    assert!(hits("good_protocol_match.rs", "crates/core/src/x.rs").is_empty());
    // Outside the simulation crates any match shape is fine.
    assert!(hits("bad_protocol_match.rs", "crates/nas/src/x.rs").is_empty());
}

#[test]
fn escapes_fixture() {
    let report = lint_source("crates/core/src/rank.rs", &fixture("escapes.rs"));
    let got: Vec<(String, u32)> = report
        .findings
        .iter()
        .map(|f| (f.rule.to_string(), f.line))
        .collect();
    assert_eq!(
        got,
        vec![
            (rules::UNAUDITED_SUPPRESSION.to_string(), 11),
            (rules::UNUSED_SUPPRESSION.to_string(), 15),
        ]
    );
    assert_eq!(report.audited_suppressions.len(), 1);
    assert_eq!(report.audited_suppressions[0].1, 6);
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

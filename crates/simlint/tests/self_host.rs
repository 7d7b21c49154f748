//! Self-hosting gate: the lint must hold on the whole workspace,
//! including its own source.

use std::path::Path;

fn workspace_root() -> &'static Path {
    // crates/simlint -> crates -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
}

#[test]
fn workspace_is_clean_including_simlint_itself() {
    let report = simlint::lint_tree(workspace_root()).expect("scan");
    assert!(
        report.findings.is_empty(),
        "workspace lint regressed:\n{}",
        simlint::render_human(&report)
    );
    // The scan really covered the tree (not an empty dir mis-root).
    assert!(report.files_scanned > 50, "{} files", report.files_scanned);
    // Self-hosting: simlint's own source was part of the clean scan.
    let own = simlint::lint_tree(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("self scan");
    assert!(
        own.findings.is_empty(),
        "simlint does not self-lint clean:\n{}",
        simlint::render_human(&own)
    );
}

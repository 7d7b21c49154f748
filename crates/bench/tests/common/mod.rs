//! The compare-or-regenerate step every golden test ends with.

use std::path::PathBuf;

/// Compares `got` with `bench_results/golden/<name>.json`, or writes it
/// there when `IBFLOW_UPDATE_GOLDEN` is set. The regeneration command a
/// failure prints names the test binary this is compiled into.
pub fn check_golden(name: &str, got: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(format!("../../bench_results/golden/{name}.json"));
    let regenerate = format!(
        "IBFLOW_UPDATE_GOLDEN=1 cargo test -p ibflow-bench --test {}",
        env!("CARGO_CRATE_NAME")
    );
    if std::env::var("IBFLOW_UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, got).unwrap();
        eprintln!("{name} golden snapshot updated: {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); generate it with {regenerate}",
            path.display()
        )
    });
    assert!(
        got == want,
        "{name} drifted from the golden snapshot.\n\
         If this change is intentional, regenerate with\n\
         {regenerate}\n\
         and commit the new snapshot.\n--- got ---\n{got}\n--- want ---\n{want}"
    );
}

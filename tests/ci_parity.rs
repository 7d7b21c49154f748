//! CI/script parity: `ci/check.sh` is the gate and
//! `.github/workflows/ci.yml` only calls it, one job per stage. What is
//! left to check is that the workflow builds nothing on its own, that
//! the two files name the same stages, and that `build-test` still runs
//! the release suite, the one step that holds the host-rate floors
//! (`crates/bench/tests/host_floors.rs` is ignored in debug builds).

use std::process::Command;

const CHECK_SH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/ci/check.sh");
const CI_YML: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/.github/workflows/ci.yml");

/// The text between `open` and the next `close`.
fn list<'a>(src: &'a str, open: &str, close: char) -> &'a str {
    let (_, rest) = src
        .split_once(open)
        .unwrap_or_else(|| panic!("no {open:?}"));
    rest.split_once(close).expect("list is closed").0
}

#[test]
fn check_script_and_workflow_agree() {
    let sh = std::fs::read_to_string(CHECK_SH).expect("read ci/check.sh");
    let yml = std::fs::read_to_string(CI_YML).expect("read ci.yml");
    for line in yml.lines().map(str::trim) {
        assert!(
            line.starts_with('#') || !line.contains("cargo"),
            "ci.yml runs cargo itself instead of a ci/check.sh stage: {line}"
        );
    }
    assert!(
        yml.contains("run: ci/check.sh ${{ matrix.stage }}"),
        "ci.yml no longer runs ci/check.sh once per matrix stage"
    );
    assert_eq!(
        list(&yml, "stage: [", ']').replace(", ", " "),
        list(&sh, "STAGES=(", ')'),
        "ci.yml's stage matrix and ci/check.sh's STAGES differ"
    );
    let (_, build_test) = sh
        .split_once("    build-test)\n")
        .expect("a build-test stage");
    let (build_test, _) = build_test.split_once(";;").expect("build-test is closed");
    assert!(
        build_test.lines().any(|l| {
            let l = l.trim();
            l.starts_with("run cargo test ")
                && l.contains(" --workspace")
                && l.contains(" --release")
        }),
        "ci/check.sh build-test no longer runs `cargo test --workspace --release`, \
         so no stage holds the host-rate floors"
    );
}

#[test]
fn unknown_stage_is_refused_naming_the_valid_ones() {
    let sh = std::fs::read_to_string(CHECK_SH).expect("read ci/check.sh");
    let out = Command::new("bash")
        .args([CHECK_SH, "no-such-stage"])
        .output()
        .expect("run ci/check.sh");
    assert!(!out.status.success(), "an unknown stage must not pass");
    assert!(out.stdout.is_empty(), "nothing ran");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains(list(&sh, "STAGES=(", ')')), "{err}");
}

//! The `ibflow-bench` command line over the [`EXPERIMENTS`] table.

use ibflow_bench::EXPERIMENTS;
use std::process::Command;

fn bench(arg: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ibflow-bench"))
        .arg(arg)
        .output()
        .expect("spawn ibflow-bench")
}

#[test]
fn names_are_unique_and_kebab_case() {
    for (i, e) in EXPERIMENTS.iter().enumerate() {
        assert!(
            e.name
                .split('-')
                .all(|w| !w.is_empty() && w.bytes().all(|b| matches!(b, b'a'..=b'z' | b'0'..=b'9'))),
            "{:?} is not kebab-case",
            e.name
        );
        assert!(
            !["list", "all"].contains(&e.name),
            "{:?} shadows a subcommand",
            e.name
        );
        assert!(
            EXPERIMENTS[..i].iter().all(|p| p.name != e.name),
            "{:?} appears twice",
            e.name
        );
    }
}

#[test]
fn list_prints_every_name() {
    let out = bench("list");
    assert!(out.status.success());
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        names.join("\n") + "\n"
    );
}

#[test]
fn unknown_name_prints_usage_and_exits_2() {
    let out = bench("fig2_latency");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "usage goes to stderr");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage: ibflow-bench"), "{err}");
    for e in EXPERIMENTS {
        assert!(
            err.lines().any(|l| l.trim() == e.name),
            "usage omits {}",
            e.name
        );
    }
}

//! CLI driver: `simlint [--root <path>]`.
//!
//! Prints one line per finding and exits 0 when there are none, 1
//! otherwise, 2 on usage/I-O errors. Run from anywhere inside the
//! workspace; the root defaults to the nearest ancestor containing a
//! workspace `Cargo.toml`, falling back to `.`.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("simlint: --root requires a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "simlint: credit/quiesce path-obligation lint\n\
                     usage: simlint [--root <path>]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("simlint: unknown argument {other:?}");
                return ExitCode::from(2);
            }
        }
    }
    let root = root.unwrap_or_else(find_workspace_root);
    let report = match simlint::lint_tree(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("simlint: failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    print!("{}", simlint::render_human(&report));
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Walks up from the current directory to the first `Cargo.toml` that
/// declares `[workspace]`; falls back to `.` so `--root` stays optional
/// outside a workspace.
fn find_workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}

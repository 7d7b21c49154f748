//! The lint levels DESIGN.md §8 relies on are set where it says they are,
//! and the source-layout rules held as text (credit privacy, one
//! connection-establishment path, one creation path for verbs objects,
//! test-only ids built only in tests, one post site per verb, one
//! host-timing harness, one scheme list, scheme variants named only in
//! config) still hold.
//!
//! An `#[expect(lint)]` is fulfilled whenever `lint` *would* fire at that
//! site, whatever level surrounds it. So the audited `#[expect]`s and the
//! canary in `mpib::wire` vouch for lint names and `clippy.toml` entries
//! (drop one and `lint` fails on an unfulfilled expectation) — but not
//! for the `deny` that makes an *unaudited* site an error. That is a line
//! of text in a crate or module header, and this holds the lines.

use mpib::FlowControlScheme;

fn read(rel: &str) -> String {
    let path = format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The lints named by the `#![deny(clippy::…)]` at the head of `rel`.
fn denied(rel: &str) -> Vec<String> {
    let src = read(rel);
    let (_, rest) = src.split_once("#![deny(\n    clippy::").unwrap_or_else(|| {
        src.split_once("#![deny(clippy::")
            .unwrap_or_else(|| panic!("{rel} denies no clippy lint"))
    });
    let (lints, _) = rest.split_once(")]").expect("attribute is closed");
    lints
        .split(',')
        .map(|l| l.trim().trim_start_matches("clippy::").to_string())
        .collect()
}

/// Paper §4.2's rule that a credit consumed reaches the peer is held by
/// privacy (DESIGN.md §8): `CreditWindow`'s three consume operations are
/// private to `conn.rs`, where only the calls that post what they take
/// reach them. Declaring one `pub` or `pub(crate)` is how a leak could be
/// written again, so the declarations are held here as text.
#[test]
fn credit_consume_ops_are_private_to_conn() {
    let src = read("crates/core/src/conn.rs");
    for op in ["spend", "take_piggyback", "take_mailbox_return"] {
        let decl = format!("fn {op}(");
        let decls: Vec<&str> = src
            .lines()
            .map(str::trim_start)
            .filter(|l| l.contains(&decl))
            .collect();
        assert_eq!(decls.len(), 1, "conn.rs declares `{op}` once: {decls:?}");
        assert!(
            decls[0].starts_with(&decl),
            "conn.rs must declare `{op}` private, not `{}`",
            decls[0]
        );
    }
}

/// Every `(file, enclosing fn)` of `crates/core/src` with a code line
/// (not a comment) containing `needle`.
fn core_sites(needle: &str) -> std::collections::BTreeSet<(String, String)> {
    sites(&rust_files("crates/core/src"), needle, false)
}

/// Every `(file name, enclosing fn)` of `files` (paths relative to the
/// workspace root) with a code line (not a comment) containing `needle`,
/// up to each file's `#[cfg(test)]` when `non_test`. The enclosing fn is
/// the last `fn` item opened above the line — enough for the flat modules
/// these rules read.
fn sites(
    files: &[String],
    needle: &str,
    non_test: bool,
) -> std::collections::BTreeSet<(String, String)> {
    sites_where(files, non_test, |code| code.contains(needle))
}

/// [`sites`] for the code lines `holds` accepts.
fn sites_where(
    files: &[String],
    non_test: bool,
    holds: impl Fn(&str) -> bool,
) -> std::collections::BTreeSet<(String, String)> {
    let mut sites = std::collections::BTreeSet::new();
    for path in files {
        let file = path.rsplit('/').next().unwrap_or(path).to_string();
        let mut func = String::new();
        for line in read(path).lines() {
            let code = line.trim_start();
            if non_test && code.starts_with("#[cfg(test)]") {
                break;
            }
            if code.starts_with("//") {
                continue;
            }
            let item = ["pub(crate) ", "pub ", "const ", "async "]
                .iter()
                .fold(code, |l, q| l.strip_prefix(q).unwrap_or(l));
            if let Some(rest) = item.strip_prefix("fn ") {
                func = rest
                    .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                    .next()
                    .unwrap_or_default()
                    .to_string();
            }
            if holds(code) {
                sites.insert((file.clone(), func.clone()));
            }
        }
    }
    sites
}

/// DESIGN.md §3, "Connection establishment": one path establishes a
/// connection. Its fabric half, `world::establish`, creates both sides'
/// queue pairs and regions and posts the pool before it runs the
/// handshake (so the handshake advertises the pool as credits); its
/// `Conn` half, `Conn::establish`, is the one constructor of a
/// connection, and builds it established, from the two `Endpoint`s the
/// fabric half made — which `world::establish` alone writes and
/// `Endpoint::of` alone reads back from a queue pair's context. A second
/// `ibfabric::connect` call, a `Conn { … }` literal in library code
/// outside `Conn::establish` — a bare connection, established later — or
/// an `Endpoint { … }` literal elsewhere — handles worked out rather than
/// read back — is how the forks this replaced would come back. (A
/// checkpoint restore connects nothing: the fabric image replays each
/// queue pair with its connected state, and the restore builds each
/// connection its image records through `Conn::establish` onto the
/// endpoints it reads back.)
#[test]
fn connections_are_established_on_one_path() {
    let site = |file: &str, func: &str| (file.to_string(), func.to_string());
    assert_eq!(
        core_sites("ibfabric::connect("),
        [site("world.rs", "establish")].into(),
        "`ibfabric::connect(` outside `world::establish`"
    );
    let core = rust_files("crates/core/src");
    assert_eq!(
        sites_where(&core, true, |code| builds(code, "Conn")),
        [site("conn.rs", "establish")].into(),
        "a `Conn {{ … }}` literal outside `Conn::establish`"
    );
    assert_eq!(
        sites_where(&core, true, |code| builds(code, "Endpoint")),
        [site("world.rs", "establish"), site("world.rs", "of")].into(),
        "an `Endpoint {{ … }}` literal outside `world::establish` and `Endpoint::of`"
    );
}

/// Whether the code line `code` holds a `ty { … }` struct literal: `ty {`
/// as a whole type name that does not close a declaration (`struct ty {`,
/// `impl ty {`, `impl … for ty {`) or a signature (`-> ty {`,
/// `-> &mut ty {`, `-> Option<ty> {`).
fn builds(code: &str, ty: &str) -> bool {
    let literal = format!("{ty} {{");
    code.match_indices(&literal).any(|(at, _)| {
        let before = &code[..at];
        let head = before.trim_end();
        !before.ends_with(|c: char| c.is_alphanumeric() || c == '_')
            && !["struct", "impl", "for", "->", "&", "mut", "<"]
                .iter()
                .any(|t| head.ends_with(t))
    })
}

/// A restore builds the world the way a run does, so the verbs objects
/// are created on one path each: nodes and completion queues by
/// `world::bootstrap_fabric`, which a fresh run and `MpiWorld::restore`
/// both call, and a connection's queue pairs by `world::establish`, which
/// the fabric image replays in id order (`snap.rs::restore_fabric`). A
/// third site creating them — a decoder rebuilding a connection its own
/// way, say — is another constructor that must agree with these on every
/// id. Test code builds what rigs it likes.
#[test]
fn verbs_objects_are_created_on_one_path() {
    let mut files = rust_files("crates/core/src");
    files.push("crates/fabric/src/snap.rs".to_string());
    let site = |file: &str, func: &str| (file.to_string(), func.to_string());
    for needle in [".add_node()", ".create_cq("] {
        assert_eq!(
            sites(&files, needle, true),
            [site("world.rs", "bootstrap_fabric")].into(),
            "`{needle}` outside `world::bootstrap_fabric`"
        );
    }
    assert_eq!(
        sites(&files, ".create_qp(", true),
        [
            site("world.rs", "establish"),
            site("snap.rs", "restore_fabric")
        ]
        .into(),
        "`.create_qp(` outside `world::establish` and its replay"
    );
}

/// `QpId::from_index_for_tests` and `MrId::from_index_for_tests` name an
/// id no fabric handed out. Library or binary code calling one would be
/// computing a verbs handle — the id arithmetic that endpoints read back
/// from the fabric replaced — so no crate of the repository calls either
/// outside its tests.
#[test]
fn test_ids_are_built_only_in_tests() {
    let mut files: Vec<String> = ["src", "examples", "benchmark/src"]
        .into_iter()
        .flat_map(rust_files)
        .collect();
    let crates = format!("{}/crates", env!("CARGO_MANIFEST_DIR"));
    for entry in std::fs::read_dir(&crates).unwrap_or_else(|e| panic!("{crates}: {e}")) {
        let name = entry
            .expect("entry")
            .file_name()
            .to_string_lossy()
            .into_owned();
        files.extend(rust_files(&format!("crates/{name}/src")));
    }
    let callers = sites_where(&files, true, |code| {
        code.contains("from_index_for_tests(") && !code.contains("fn from_index_for_tests(")
    });
    assert!(
        callers.is_empty(),
        "`from_index_for_tests` called outside tests: {callers:?}"
    );
}

/// Paper §4.1–4.3's schemes differ only in when a frame may be posted and
/// which window it spends, so `mpib` posts each verb from one site: every
/// send work request through `MpiRank::post_send_wr` (`conn.rs`), every
/// receive through `world::establish` (the bootstrap pool) or
/// `MpiRank::post_recv_slot` (`rank.rs`: pool growth and reposts). A
/// second site is how a hand-copied post, with its own cost or counter,
/// would come back.
#[test]
fn work_requests_are_posted_on_one_path() {
    let site = |file: &str, func: &str| (file.to_string(), func.to_string());
    assert_eq!(
        core_sites("ibfabric::post_send("),
        [site("conn.rs", "post_send_wr")].into(),
        "`ibfabric::post_send(` outside `MpiRank::post_send_wr`"
    );
    assert_eq!(
        core_sites(".post_recv("),
        [
            site("rank.rs", "post_recv_slot"),
            site("world.rs", "establish")
        ]
        .into(),
        "`.post_recv(` outside `world::establish` and `MpiRank::post_recv_slot`"
    );
}

/// Every `.rs` file under `rel` (a directory of the workspace), as paths
/// relative to the workspace root.
fn rust_files(rel: &str) -> Vec<String> {
    let dir = format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for entry in std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("{dir}: {e}")) {
        let entry = entry.expect("entry");
        let path = format!("{rel}/{}", entry.file_name().to_string_lossy());
        if entry.file_type().expect("file type").is_dir() {
            files.extend(rust_files(&path));
        } else if path.ends_with(".rs") {
            files.push(path);
        }
    }
    files
}

/// Host wall clock guards the simulator's speed and nothing else (the
/// paper's results are virtual time), and one place measures it: the
/// `ibflow-bench` binary's "done in" line and the release-only floors
/// test. The per-layer timing record is the ledger under `benchmark/`.
/// A second harness would show up here as a new `Instant` site; clippy's
/// `disallowed_types` lets it through once its module `#[expect]`s the
/// lint.
#[test]
fn one_host_timing_harness() {
    let mut sites: Vec<String> = ["crates", "src", "tests", "examples"]
        .into_iter()
        .flat_map(rust_files)
        // This file names the type it looks for.
        .filter(|f| f != file!())
        .filter(|f| {
            read(f)
                .lines()
                .filter(|l| !l.trim_start().starts_with("//"))
                .any(|l| {
                    l.split(|c: char| !(c.is_alphanumeric() || c == '_'))
                        .any(|word| word == "Instant")
                })
        })
        .collect();
    sites.sort();
    assert_eq!(
        sites,
        [
            "crates/bench/src/main.rs",
            "crates/bench/tests/host_floors.rs"
        ],
        "`Instant` outside the two host-timing sites"
    );
}

/// Whether `line` is one element of a hand-written scheme list: a
/// `FlowControlScheme` variant — by its path or through a one-segment
/// alias such as `S::Hardware` — alone or heading a tuple, ending in a
/// comma; not a match arm or pattern.
fn lists_one_scheme(line: &str) -> bool {
    let Some(element) = line.trim().strip_suffix(',') else {
        return false;
    };
    let element = element.strip_prefix('(').unwrap_or(element);
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let Some((_, rest)) = element
        .split_once("FlowControlScheme::")
        .filter(|(path, _)| path.chars().all(|c| ident(c) || c == ':'))
        .or_else(|| {
            element
                .split_once("::")
                .filter(|(alias, _)| !alias.is_empty() && alias.chars().all(ident))
        })
    else {
        return false;
    };
    let variant: String = rest.chars().take_while(|&c| ident(c)).collect();
    FlowControlScheme::ALL
        .iter()
        .any(|s| format!("{s:?}") == variant)
        && !rest.contains("=>")
        && !rest.contains('|')
}

/// `FlowControlScheme::ALL` is the one place the scheme list is written:
/// every battery, figure and test iterates it or filters it by a
/// predicate. Three or more consecutive lines that each list one variant
/// are a second list, and a second list is how a fork of the battery
/// would come back.
#[test]
fn one_scheme_list() {
    let mut lists = Vec::new();
    for file in ["crates", "src", "tests", "examples"]
        .into_iter()
        .flat_map(rust_files)
        .filter(|f| f != file!())
    {
        let src = read(&file);
        let lines: Vec<&str> = src.lines().collect();
        let mut start = 0;
        for (i, line) in lines.iter().enumerate() {
            if !lists_one_scheme(line) {
                start = i + 1;
                continue;
            }
            let is_all = start > 0 && lines[start - 1].contains("const ALL: [FlowControlScheme;");
            let run_ends = !lines.get(i + 1).is_some_and(|l| lists_one_scheme(l));
            if run_ends && i + 1 - start >= 3 && !is_all {
                lists.push(format!("{file}:{}", start + 1));
            }
        }
    }
    assert!(
        lists.is_empty(),
        "scheme lists outside `FlowControlScheme::ALL`: {lists:?}"
    );
}

/// A scheme is a preset of the two growth caps (DESIGN.md §3): outside
/// `config.rs`, where `pool_cap`/`ring_cap` set the presets, the library
/// asks the mechanism predicates and the caps, never which scheme runs. A
/// variant named in library code is how a per-scheme fork would come
/// back. Comments and test code — the lines from a file's `#[cfg(test)]`
/// or `mod tests {` on — may name one.
#[test]
fn schemes_are_named_only_in_config() {
    let mut sites = Vec::new();
    for file in rust_files("crates/core/src") {
        if file.ends_with("/config.rs") {
            continue;
        }
        let src = read(&file);
        let library = src
            .lines()
            .take_while(|l| !matches!(l.trim(), "#[cfg(test)]" | "mod tests {"));
        for (i, line) in library.enumerate() {
            let code = line.trim_start();
            let names = |s: &FlowControlScheme| code.contains(&format!("FlowControlScheme::{s:?}"));
            if !code.starts_with("//") && FlowControlScheme::ALL.iter().any(names) {
                sites.push(format!("{file}:{}", i + 1));
            }
        }
    }
    assert!(
        sites.is_empty(),
        "scheme variants named outside config.rs: {sites:?}"
    );
}

/// No bench target: the host-rate floors are an ordinary test, run by
/// `cargo test --release`. Cargo would also discover a `benches/`
/// directory on its own, so none may exist either.
#[test]
fn no_workspace_package_declares_a_bench() {
    for package in packages() {
        let manifest = format!("{package}/Cargo.toml");
        assert!(
            !read(&manifest).contains("[[bench]]"),
            "{manifest} declares a bench target"
        );
        let benches = format!("{}/{package}/benches", env!("CARGO_MANIFEST_DIR"));
        assert!(
            !std::path::Path::new(&benches).exists(),
            "{package}/benches exists"
        );
    }
}

/// The directory of every package in the workspace: the root and each of
/// `crates/`.
fn packages() -> Vec<String> {
    let crates =
        std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/crates")).expect("crates/");
    crates
        .map(|e| format!("crates/{}", e.expect("entry").file_name().to_string_lossy()))
        .chain([".".to_string()])
        .collect()
}

#[test]
fn lint_levels_are_set_where_design_says() {
    for lib in ["sim", "fabric", "core"] {
        assert_eq!(
            denied(&format!("crates/{lib}/src/lib.rs")),
            [
                "unwrap_used",
                "expect_used",
                "panic",
                "unreachable",
                "todo",
                "unimplemented",
                "wildcard_enum_match_arm"
            ],
            "crates/{lib}/src/lib.rs"
        );
    }
    for guarded in ["core/src/wire.rs", "core/src/conn.rs", "fabric/src/qp.rs"] {
        assert_eq!(
            denied(&format!("crates/{guarded}")),
            ["cast_possible_truncation"],
            "{guarded}"
        );
    }
    // No bare `#[allow]`, no reason-less `#[expect]`: set once for the
    // workspace and inherited by every package in it.
    let root = read("Cargo.toml");
    assert!(root.contains(
        "[workspace.lints.clippy]\nallow_attributes = \"deny\"\nallow_attributes_without_reason = \"deny\"\n"
    ));
    for manifest in packages().iter().map(|p| format!("{p}/Cargo.toml")) {
        assert!(
            read(&manifest).contains("[lints]\nworkspace = true\n"),
            "{manifest} does not inherit the workspace lints"
        );
    }
}

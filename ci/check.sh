#!/usr/bin/env bash
# Local mirror of .github/workflows/ci.yml — run before pushing.
#
# The workspace is hermetic (path-only dependencies), so everything runs
# with --locked --offline; a step that needs the network is a bug.
#
# The `ci_parity` test (tests/ci_parity.rs) asserts every cargo
# invocation here also appears in ci.yml and vice versa — edit both
# files together.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

# Like run, but reports the step's wall time in milliseconds (used for
# the per-target smoke runs so throughput regressions are visible in the
# CI log; `$SECONDS` has 1-second resolution, useless for sub-second
# smoke targets).
timed() {
    echo "==> $*"
    local t0 t1
    t0=$(date +%s%N)
    "$@"
    t1=$(date +%s%N)
    echo "    took $(((t1 - t0) / 1000000))ms (wall)"
}

run cargo build --release --workspace --locked --offline
run cargo test -q --workspace --release --locked --offline
run cargo fmt --check
run cargo run --release -p simlint --locked --offline -- --stats --stats-json bench_results/simlint_stats.json
run cargo clippy --workspace --all-targets --locked --offline -- -D warnings
# Intra-doc links are checked too, so a link to a deleted item fails
# here instead of rotting.
run env RUSTDOCFLAGS=-Dwarnings cargo doc --workspace --no-deps --locked --offline
run cargo bench -p ibfabric --bench transport --locked --offline -- --test
run cargo bench -p ibflow-bench --bench paper --locked --offline -- --test
# The engine bench's --test mode enforces the committed throughput
# floors: the 1M events/s event-loop/handoff rates, and the 100k
# frames/s ring_poll floor guarding the RDMA channel's O(active)
# polling path.
run cargo bench -p ibflow-bench --bench engine --locked --offline -- --test

# Goldens must be byte-identical at every pool width: serial, moderate,
# and deliberately oversubscribed (mirrors the CI golden matrix).
for jobs in 1 4 16; do
    run env IBFLOW_JOBS=$jobs cargo test -q --release --locked --offline -p ibflow-bench --test golden
done

# Chaos battery at the fixed default seed: same-seed determinism across
# pool widths plus the golden counter snapshot.
run cargo test -q --release --locked --offline -p ibflow-bench --test chaos

# Checkpoint/restore matrix: the snapshot-kill-restore ladder must land
# byte-identically on its golden at serial and moderate pool widths
# (mirrors the CI ckpt-restore matrix).
for jobs in 1 4; do
    run env IBFLOW_JOBS=$jobs cargo test -q --release --locked --offline -p ibflow-bench --test ckpt
done

# Smoke: the two headline experiment binaries must complete cleanly with
# the pool engaged, and print how long each takes.
timed env IBFLOW_JOBS=4 cargo run --release --locked --offline -p ibflow-bench --bin fig2_latency >/dev/null
timed env IBFLOW_CLASS=test IBFLOW_JOBS=4 cargo run --release --locked --offline -p ibflow-bench --bin table1_ecm >/dev/null
timed env IBFLOW_JOBS=4 cargo run --release --locked --offline -p ibflow-bench --bin chaos >/dev/null
timed env IBFLOW_JOBS=4 cargo run --release --locked --offline -p ibflow-bench --bin ckpt >/dev/null

# The benchmark harness pins part of the public surface (benchmark/README.md,
# "The public surface this harness pins"); its quick self-check catches
# drift before a paired parent-vs-change run does.
run bash benchmark/run.sh --check

echo "All checks passed."

#!/usr/bin/env bash
# The gate. `ci/check.sh <stage>` runs one stage; with no argument every
# stage runs, in the order of STAGES. .github/workflows/ci.yml runs one
# job per stage and holds no cargo invocation of its own
# (tests/ci_parity.rs checks both files name the same stages).
#
# The workspace is hermetic (path-only dependencies), so everything runs
# with --locked --offline; a step that needs the network is a bug.
set -euo pipefail
cd "$(dirname "$0")/.."

STAGES=(build-test golden ckpt lint smoke)

run() {
    echo "==> $*"
    "$@"
}

# Like run, but reports the step's wall time in milliseconds (used for
# the smoke runs so throughput regressions are visible in the CI log;
# `$SECONDS` has 1-second resolution, useless for sub-second targets).
# Reports on stderr: the smoke runs send their tables to /dev/null.
timed() {
    echo "==> $*" >&2
    local t0 t1
    t0=$(date +%s%N)
    "$@"
    t1=$(date +%s%N)
    echo "    took $(((t1 - t0) / 1000000))ms (wall)" >&2
}

BENCH=(cargo run --release --locked --offline -p ibflow-bench --)

stage() {
    case "$1" in
    build-test)
        run cargo build --release --workspace --locked --offline
        # The release suite also enforces the committed throughput floors
        # (crates/bench/tests/host_floors.rs, ignored in debug builds):
        # the 1M events/s event-loop/handoff rates, and the 100k frames/s
        # ring_poll floor guarding the RDMA channel's O(active) polling
        # path. tests/ci_parity.rs holds this step's --release. The same
        # run covers the chaos battery (crates/bench/tests/chaos.rs sets
        # IBFLOW_JOBS itself, so it needs no step of its own).
        run cargo test -q --workspace --release --locked --offline
        # The benchmark harness pins part of the public surface
        # (benchmark/README.md, "The public surface this harness pins");
        # its quick self-check catches drift before a paired
        # parent-vs-change run does.
        run bash benchmark/run.sh --check
        ;;
    golden)
        # Goldens must be byte-identical at every pool width: serial,
        # moderate, and deliberately oversubscribed.
        for jobs in 1 4 16; do
            run env IBFLOW_JOBS=$jobs cargo test -q --release --locked --offline -p ibflow-bench --test golden
        done
        ;;
    ckpt)
        # The snapshot-kill-restore ladder (all five schemes, clean
        # restore + kill-and-replace + chaos soak) must land
        # byte-identically on its golden at serial and moderate widths.
        for jobs in 1 4; do
            run env IBFLOW_JOBS=$jobs cargo test -q --release --locked --offline -p ibflow-bench --test ckpt
        done
        ;;
    lint)
        run cargo fmt --check
        # Every enforced invariant is a clippy lint configured in
        # clippy.toml, the three simulation libraries' lint headers and
        # [workspace.lints], or a type (DESIGN.md §8). -D warnings also
        # makes an #[expect] that suppresses nothing an error.
        run cargo clippy --workspace --all-targets --locked --offline -- -D warnings
        # Intra-doc links are checked too, so a link to a deleted item
        # fails here instead of rotting.
        run env RUSTDOCFLAGS=-Dwarnings cargo doc --workspace --no-deps --locked --offline
        ;;
    smoke)
        # The headline experiments must complete cleanly through the one
        # binary with the pool engaged, and print how long each takes.
        timed env IBFLOW_JOBS=4 "${BENCH[@]}" fig2 >/dev/null
        timed env IBFLOW_CLASS=test IBFLOW_JOBS=4 "${BENCH[@]}" table1 >/dev/null
        timed env IBFLOW_JOBS=4 "${BENCH[@]}" chaos >/dev/null
        timed env IBFLOW_JOBS=4 "${BENCH[@]}" ckpt >/dev/null
        # Every paper row at class W against the committed record: the
        # title and the bytes each experiment has.
        timed env IBFLOW_CLASS=w IBFLOW_JOBS=4 "${BENCH[@]}" all
        run git diff --exit-code bench_results/experiments.md
        ;;
    *)
        echo "unknown stage '$1'; valid stages: ${STAGES[*]}" >&2
        exit 2
        ;;
    esac
}

if [ $# -gt 1 ]; then
    echo "usage: ci/check.sh [stage]; valid stages: ${STAGES[*]}" >&2
    exit 2
fi
if [ $# -eq 0 ]; then
    set -- "${STAGES[@]}"
fi
for s in "$@"; do
    stage "$s"
done
echo "All checks passed."

#!/usr/bin/env bash
# Paired parent-vs-change benchmark run, as benchmark/README.md
# ("Comparing") prescribes for every PR that claims a gain.
#
#   ci/bench_pair.sh <parent-rev> [--pairs N] [--workload W] [--seed S] [--traced]
#
# Checks <parent-rev> out into a temporary `git worktree`, then runs
# `benchmark/run.sh --out` N times on each side (default 10, the fewest a
# claim may rest on), alternating which side goes first, on the
# benchmark's default seed 1; repeats the whole series on seed S (default
# 2), a seed not used while the change was written; and ends each series
# with `benchmark/compare.sh A.json B.json` (A = parent, B = this tree).
# With --workload only that workload runs. With --traced each series ends
# with one `run.sh --traced` set per side (A-seedS-traced.json,
# B-seedS-traced.json, and each side's ledger.md rendering beside them),
# so the per-layer rows a PR cites (mpib.bootstrap_ms.*, alloc.*, ckpt.*,
# nasbench.wall_ms.*) come from the same trees as the verdict. Exit status
# 1 if either comparison reports a regression or a sim mismatch.
#
# Each side builds the harness from its own sources into its own
# benchmark/target/. Result files go to a fresh directory under
# ${TMPDIR:-/tmp}, printed at the end; no tracked file under benchmark/ is left changed.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    sed -n '2,22s/^# \{0,1\}//p' "$0" >&2
    exit 2
}

[ $# -ge 1 ] || usage
parent_rev=$1
shift
pairs=10
workload=
held_out_seed=2
traced=
while [ $# -gt 0 ]; do
    case $1 in
        --pairs) pairs=${2:?--pairs needs a number}; shift 2 ;;
        --workload) workload=${2:?--workload needs a name}; shift 2 ;;
        --seed) held_out_seed=${2:?--seed needs a number}; shift 2 ;;
        --traced) traced=1; shift ;;
        *) usage ;;
    esac
done
case $pairs in '' | *[!0-9]* | 0) usage ;; esac
case $held_out_seed in '' | *[!0-9]*) usage ;; esac

change=$PWD
work=$(mktemp -d "${TMPDIR:-/tmp}/bench_pair.XXXXXX")
parent=$work/parent
git worktree add --quiet --detach "$parent" "$parent_rev"
trap 'git -C "$change" worktree remove --force "$parent"' EXIT

# One benchmark run of the tree at $1 with seed $2, appended to $3.
run_side() {
    local tree=$1 seed=$2 out=$3
    if [ -z "$workload" ]; then
        (cd "$tree" && benchmark/run.sh --seed "$seed" --out "$out") >/dev/null
        return
    fi
    # A single worker writes one bare record; wrap the records in the
    # `runs` list `run.sh --out` appends to, which is what compare.sh reads.
    local rec=$work/record.json
    (cd "$tree" && benchmark/run.sh --workload "$workload" --seed "$seed" --trace 0 --out "$rec") >/dev/null
    {
        if [ -s "$out.sets" ]; then echo ","; fi
        printf '{"seed": %s, "traced": false, "workloads": {"%s": ' "$seed" "$workload"
        cat "$rec"
        echo "}}"
    } >>"$out.sets"
    { echo '{"schema": 1, "runs": ['; cat "$out.sets"; echo ']}'; } >"$out"
}

# One traced set of the tree at $1 with seed $2, written to $3. A full
# traced run re-renders the tree's benchmark/results/ledger.md, a tracked
# file: the rendering is kept beside $3 and the tree's copy put back.
run_traced() {
    local tree=$1 seed=$2 out=$3 rc=0
    if [ -n "$workload" ]; then
        (cd "$tree" && benchmark/run.sh --workload "$workload" --seed "$seed" --trace 1 --out "$out") >/dev/null
        return
    fi
    local ledger=$tree/benchmark/results/ledger.md
    cp "$ledger" "$work/ledger.keep"
    (cd "$tree" && benchmark/run.sh --seed "$seed" --sets 0 --traced --out "$out") >/dev/null || rc=$?
    cp "$ledger" "${out%.json}-ledger.md"
    cp "$work/ledger.keep" "$ledger"
    return $rc
}

status=0
for seed in 1 "$held_out_seed"; do
    a=$work/A-seed$seed.json
    b=$work/B-seed$seed.json
    for i in $(seq 1 "$pairs"); do
        echo "==> seed $seed, pair $i/$pairs" >&2
        if [ $((i % 2)) -eq 1 ]; then
            run_side "$parent" "$seed" "$a"
            run_side "$change" "$seed" "$b"
        else
            run_side "$change" "$seed" "$b"
            run_side "$parent" "$seed" "$a"
        fi
    done
    if [ -n "$traced" ]; then
        echo "==> seed $seed, traced sets" >&2
        run_traced "$parent" "$seed" "${a%.json}-traced.json"
        run_traced "$change" "$seed" "${b%.json}-traced.json"
    fi
    echo "==> seed $seed: $a (parent $parent_rev) vs $b (this tree)"
    benchmark/compare.sh "$a" "$b" || status=1
done
echo "result files: $work"
exit $status

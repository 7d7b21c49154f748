#!/usr/bin/env bash
# Paired parent-vs-change benchmark run, as benchmark/README.md
# ("Comparing") prescribes for every PR that claims a gain.
#
#   ci/bench_pair.sh <parent-rev> [--pairs N] [--workload W] [--seed S] [--traced]
#                    [--rebaseline W]
#
# Unpacks <parent-rev> (`git archive`) into a temporary directory, then runs
# `benchmark/run.sh --out` N times on each side (default 10, the fewest a
# claim may rest on), alternating which side goes first, on the
# benchmark's default seed 1; repeats the whole series on seed S (default
# 2), a seed not used while the change was written; and ends each series
# with `benchmark/compare.sh A.json B.json` (A = parent, B = this tree).
# With --workload only that workload runs. With --traced each series ends
# with one `run.sh --traced` set per side (A-seedS-traced.json,
# B-seedS-traced.json, and each side's ledger.md rendering beside them),
# so the per-layer rows a PR cites (mpib.bootstrap_ms.*, alloc.*, ckpt.*,
# nasbench.wall_ms.*) come from the same trees as the verdict.
#
# A change that is *meant* to alter what a workload's simulation produces
# declares it: `--rebaseline W` accepts compare.sh's exit 1 on a seed when,
# and only when, no row reads REGRESSION, the one `DIFFER` line is W's, and
# either it names `sim_digest` alone and no count of W differs (a change of
# what the digest hashes and nothing else, e.g. a snapshot format version),
# or it names exactly `sim_digest, counts` and between the two sides'
# records of W exactly one count differs and it fell (it is printed with
# both values: for `ckpt_ladder` under a sparser snapshot format,
# `ckpt.snapshot_bytes`, which the harness also folds into the digest). A
# second workload that differs, a `sim_time_ms` or op count that moves, a
# second count, or a count that rose still fails the run.
#
# Last, three facts about the harness that can sink a PR whose code is
# innocent (each only for the workloads the run covers):
#   * peak_rss_mb of `fabric_raw` and `sim_raw` over seeds 1-10, 1 s each,
#     on both trees. `fabric_raw` reads 11.4 MB or 15.4 MB (+35%, past
#     BENCHMARK.json's 20% bound) by how the harness binary is compiled,
#     not by what the libraries allocate: `wl_fabric.rs`'s `write4m` leg
#     builds its two 4 MiB payloads as `vec![b; WRITE_BYTES].into()`, and
#     whether LLVM folds each `Vec` temporary into the `Arc` it is copied
#     into depends on inlining decisions that library code the leg never
#     runs can move. Traced with a malloc-counting LD_PRELOAD shim, a
#     15.4 MB binary makes two 4 194 304 B allocations per world the leg
#     builds (16 in a 1 s run) that an 11.4 MB binary does not make at
#     all. A seed on which this tree reads more than 10% above the parent
#     fails the run; reading lower passes.
#   * peak_rss_mb of `ckpt_ladder` over the same seeds in the two forms a
#     worker is started in: as BENCHMARK.json's command starts it, and as a
#     full run's orchestrator does, with `--out <relative path>`. While a
#     snapshot was a dozen 1 MiB blocks of zeros, which of them were ever
#     touched depended on the heap layout at start-up, and a longer
#     argument list was enough to move it between 44 and 57 MB (+28%). The
#     distinct readings per side are printed; a seed and form on which
#     this tree reads more than 10% above the parent fails the run.
#   * `nas_w`'s warm-up quantum. The worker repeats warm-up reps until
#     2.5 s have passed, so `setup_s` is 0.1 s of probes plus a whole
#     number of reps: a rep that falls from above 2.5 s to 1.75-2.4 s
#     doubles it, and it comes back level only once two reps cost what one
#     did (or three, or four). Per side and seed, from the series' own
#     result files: the median rep wall, the median `setup_s` and the
#     number of warm-up reps the two imply. A seed on which this tree's
#     median `setup_s` exceeds the parent's by more than 20% fails the
#     run, 5 points inside BENCHMARK.json's 25% bound.
#
# To steer a change to `nas_w`'s rep wall, run
# `ci/bench_pair.sh <parent-rev> --workload nas_w --pairs 3` (~6 min)
# after every step and read those three numbers; run the full series
# once the landing is right.
#
# Exit status 1 if either comparison reports a regression or a sim
# mismatch, or the resident-memory or set-up check fails.
#
# Each side builds the harness from its own sources into its own
# benchmark/target/. Result files go to a fresh directory under
# ${TMPDIR:-/tmp}, printed at the end; no tracked file under benchmark/ is left changed.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    sed -n '2,72s/^# \{0,1\}//p' "$0" >&2
    exit 2
}

[ $# -ge 1 ] || usage
parent_rev=$1
shift
pairs=10
workload=
held_out_seed=2
traced=
rebaseline=
while [ $# -gt 0 ]; do
    case $1 in
        --pairs) pairs=${2:?--pairs needs a number}; shift 2 ;;
        --workload) workload=${2:?--workload needs a name}; shift 2 ;;
        --seed) held_out_seed=${2:?--seed needs a number}; shift 2 ;;
        --traced) traced=1; shift ;;
        --rebaseline) rebaseline=${2:?--rebaseline needs a workload}; shift 2 ;;
        *) usage ;;
    esac
done
case $pairs in '' | *[!0-9]* | 0) usage ;; esac
case $held_out_seed in '' | *[!0-9]*) usage ;; esac

change=$PWD
work=$(mktemp -d "${TMPDIR:-/tmp}/bench_pair.XXXXXX")
parent=$work/parent
mkdir "$parent"
git archive "$parent_rev" | tar -x -C "$parent"
trap 'rm -rf "$parent"' EXIT

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

# "wall_s setup_s" of every `nas_w` record in the result file $1. The
# files are pretty-printed with sorted keys: each metric's "value" line
# follows its name, and a record's "workload" line comes last.
nas_w_runs() {
    awk '
        /"(wall_s|setup_s)": \{/ { gsub(/[^a-z_]/, "", $1); want = $1 }
        /"value":/ && want != "" { v[want] = $2; want = "" }
        /"workload": "nas_w"/ { print v["wall_s"], v["setup_s"] }
    ' "$1"
}
# Median of column $1 of the lines on stdin.
median_of() {
    cut -d' ' -f"$1" | sort -g | awk '
        { v[NR] = $1 }
        END { if (NR) print (NR % 2 ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2) }'
}

# "name value" for every count in the first record of workload $2 in the
# result file $1, the record compare.sh takes the sim outputs from:
# "counts" opens a record's block of them, one per line.
counts_of() {
    awk -v w="\"workload\": \"$2\"" '
        /"counts": \{/ { n = 0; inside = 1; next }
        inside && /\}/ { inside = 0 }
        inside { gsub(/[",:]/, ""); name[n] = $1; value[n] = $2; n++ }
        index($0, w) { for (i = 0; i < n; i++) print name[i], value[i]; exit }
    ' "$1"
}
# True when compare.sh's exit 1 on the result files $2 (parent) and $3
# (this tree), its output in $1, is the re-baseline `--rebaseline` declared
# and nothing more.
declared_rebaseline() {
    local verdict=$1 differ moved
    if grep -q REGRESSION "$verdict"; then return 1; fi
    differ=$(grep DIFFER "$verdict" | tr -s ' ')
    case $differ in
        "$rebaseline DIFFER: sim_digest" | "$rebaseline DIFFER: sim_digest, counts") ;;
        *) return 1 ;;
    esac
    moved=$(awk '
        NR == FNR { a[$1] = $2; next }
        { b[$1] = $2 }
        END {
            for (k in a) if (a[k] != b[k]) print k, a[k], "->", b[k]
            for (k in b) if (!(k in a)) print k, "absent ->", b[k]
        }' <(counts_of "$2" "$rebaseline") <(counts_of "$3" "$rebaseline"))
    echo "$rebaseline counts that differ (parent -> this tree):"
    echo "${moved:-none found}"
    if [ "$differ" = "$rebaseline DIFFER: sim_digest" ]; then
        [ -z "$moved" ]
    else
        [ "$(grep -c . <<<"$moved")" -eq 1 ] && awk '{ exit !($4 < $2) }' <<<"$moved"
    fi
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
    verdict=$work/compare-seed$seed.txt
    if ! benchmark/compare.sh "$a" "$b" | tee "$verdict"; then
        if [ -n "$rebaseline" ] && declared_rebaseline "$verdict" "$a" "$b"; then
            echo "seed $seed: accepted as the declared re-baseline of $rebaseline"
        else
            status=1
        fi
    fi
    if [ -z "$workload" ] || [ "$workload" = nas_w ]; then
        echo "==> seed $seed: nas_w warm-up (median rep wall, median setup_s, warm-up reps implied)"
        for side in parent change; do
            if [ $side = parent ]; then runs=$(nas_w_runs "$a"); else runs=$(nas_w_runs "$b"); fi
            wall=$(median_of 1 <<<"$runs")
            setup=$(median_of 2 <<<"$runs")
            awk -v s=$side -v w="$wall" -v u="$setup" \
                'BEGIN { printf "%-6s rep %.3f s, setup_s %.3f s, %d warm-up rep(s)\n", s, w, u, u / w + 0.5 }'
            if [ $side = parent ]; then parent_setup=$setup; fi
        done
        if awk -v a="$parent_setup" -v b="$setup" 'BEGIN { exit !(b > 1.2 * a) }'; then
            echo "seed $seed: this tree's median setup_s is more than 20% above the parent's: its rep wall sits between two warm-up counts"
            status=1
        fi
    fi
done
# Prints the metric lines of a 1 s untraced run of workload $2 at seed $3
# in the tree at $1 (further arguments go to the worker); `metric NAME`
# picks one value out of them.
one_run() {
    (cd "$1" && benchmark/run.sh --workload "$2" --seed "$3" --seconds 1 --trace 0 "${@:4}") 2>/dev/null
}
metric() {
    awk -v m="$1" '$1 == m { print $2 }'
}

for w in fabric_raw sim_raw; do
    [ -z "$workload" ] || [ "$workload" = "$w" ] || continue
    echo "==> $w peak_rss_mb, seeds 1-10: parent, this tree"
    for seed in $(seq 1 10); do
        a=$(one_run "$parent" "$w" "$seed" | metric peak_rss_mb)
        b=$(one_run "$change" "$w" "$seed" | metric peak_rss_mb)
        if awk -v a="$a" -v b="$b" 'BEGIN { exit !(b > 1.1 * a) }'; then
            echo "seed $seed: $a MB, $b MB  this tree more than 10% above the parent"
            status=1
        else
            echo "seed $seed: $a MB, $b MB"
        fi
    done
done
if [ -z "$workload" ] || [ "$workload" = ckpt_ladder ]; then
    echo "==> ckpt_ladder peak_rss_mb, seeds 1-10, bare command / with --out <relative path>: parent, this tree"
    probe=benchmark/results/raw/rss-probe.json
    mkdir -p "$parent/${probe%/*}" "$change/${probe%/*}"
    : >"$work/rss-parent" >"$work/rss-change"
    for seed in $(seq 1 10); do
        for out in "" "--out $probe"; do
            # shellcheck disable=SC2086  # $out is zero or two words
            a=$(one_run "$parent" ckpt_ladder "$seed" $out | metric peak_rss_mb)
            # shellcheck disable=SC2086
            b=$(one_run "$change" ckpt_ladder "$seed" $out | metric peak_rss_mb)
            echo "$a" >>"$work/rss-parent"
            echo "$b" >>"$work/rss-change"
            if awk -v a="$a" -v b="$b" 'BEGIN { exit !(b > 1.1 * a) }'; then
                echo "seed $seed ${out:-(bare)}: $a MB, $b MB  this tree more than 10% above the parent"
                status=1
            else
                echo "seed $seed ${out:-(bare)}: $a MB, $b MB"
            fi
        done
    done
    rm -f "$parent/$probe" "$change/$probe"
    for side in parent change; do
        echo "$side states (runs x MB): $(awk '{ printf "%.0f\n", $1 }' "$work/rss-$side" | sort -n | uniq -c | awk '{ printf "%s%d x %d", (NR > 1 ? ", " : ""), $1, $2 }')"
    done
fi
echo "result files: $work"
exit $status

#!/usr/bin/env bash
# Paired comparison of two result files written by `run.sh --out`:
#
#   benchmark/compare.sh A.json B.json      # A = parent commit, B = change
#
# Pairs run i of A with run i of B and prints, per workload and end-to-end
# metric, both medians with quartiles, B's wins out of the pairs and a
# verdict (gain / no regression / unresolved / REGRESSION), then checks
# that every sim count and sim_digest match exactly. Exit code 1 on a
# regression or a sim mismatch. See benchmark/README.md, "Comparing".
set -euo pipefail
cd "$(dirname "$0")/.."
[ $# -eq 2 ] || { echo "usage: benchmark/compare.sh A.json B.json" >&2; exit 2; }
cargo build --release --locked --offline --manifest-path benchmark/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/ibflow-ledger" compare "$1" "$2"

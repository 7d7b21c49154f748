#!/usr/bin/env bash
# The repo's benchmark: builds the harness from source, then runs it.
#
#   benchmark/run.sh [--seed N] [--sets K] [--traced] [--seconds S] [--out FILE]
#       every workload, one process per workload, one thread, no ibpool
#   benchmark/run.sh --check
#       tiny sizes: output schema against BENCHMARK.json, every correctness check
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one workload; what BENCHMARK.json's "command" is run with
#
# See benchmark/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."

# Keep freed memory in the process instead of handing it back to the kernel
# and faulting fresh zero pages in again on the next world or snapshot. In
# this sandbox first-touch page-fault time alone moved ckpt_ladder's wall by
# 20-25% from run to run (it is ~60% of that workload's wall with the
# defaults), which would be the noise floor of every memory-heavy workload.
# README.md, "Allocator settings", says what this hides and how to see it.
export MALLOC_MMAP_THRESHOLD_=33554432   # glibc's maximum (32 MiB)
export MALLOC_TRIM_THRESHOLD_=4294967296
export MALLOC_TOP_PAD_=67108864

# Cargo's progress goes to stderr; stdout carries only the harness's output.
cargo build --release --locked --offline --manifest-path benchmark/Cargo.toml >&2

exec "${CARGO_TARGET_DIR:-benchmark/target}/release/ibflow-ledger" "$@"

#!/usr/bin/env bash
# Builds the benchmark from source (offline, release) and runs it.
#
#   bash perfbench/run.sh --workload table1 --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every argument is passed to the benchmark
# binary; the last line of standard output is the JSON result. The build
# goes to $CARGO_TARGET_DIR when set, else to perfbench/target.
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- "$@"

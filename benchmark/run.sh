#!/usr/bin/env bash
# The benchmark's one command: build the runner from source, then hand it
# the arguments. See benchmark/README.md; `run.sh --help` lists the modes.
#
# Everything is read and written inside the checkout this script sits in:
# the build under $CARGO_TARGET_DIR (default .bench_build at its root),
# results, traces and scratch campaign stores under benchmark/out/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

# Build output goes to stderr: stdout carries the metrics, and its last
# line is the object the benchmark pipeline parses.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

exec "$CARGO_TARGET_DIR/release/regnet-benchmark" "$@"

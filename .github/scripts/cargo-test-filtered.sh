#!/usr/bin/env bash
# Run a name-filtered `cargo test` that fails when a filter names no test.
#
#   cargo-test-filtered.sh CARGO_ARGS... -- [--exact] FILTER...
#
# runs `cargo test CARGO_ARGS... -- [--exact] FILTER...` after listing,
# for each FILTER alone, the tests it selects. libtest passes a filter
# that matches nothing as an empty run, so a renamed test would
# otherwise turn the step into a no-op.
set -euo pipefail

cargo_args=()
while [ $# -gt 0 ] && [ "$1" != "--" ]; do
    cargo_args+=("$1")
    shift
done
[ $# -gt 0 ] && shift
exact=()
if [ "${1:-}" = "--exact" ]; then
    exact=(--exact)
    shift
fi
if [ $# -eq 0 ]; then
    echo "usage: $0 CARGO_ARGS... -- [--exact] FILTER..." >&2
    exit 2
fi

for filter in "$@"; do
    listed=$(cargo test "${cargo_args[@]}" -- --list "${exact[@]}" "$filter")
    if ! grep -q ': test$' <<<"$listed"; then
        echo "no test matches '$filter' in cargo test ${cargo_args[*]}" >&2
        exit 1
    fi
done
cargo test "${cargo_args[@]}" -- "${exact[@]}" "$@"

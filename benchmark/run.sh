#!/bin/sh
# Build the benchmark (offline, release) and run it.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--trace]
#       every workload, each in its own process, one after another;
#       prints every metric by name and unit, writes benchmark/out/results.json;
#       with --trace also the per-span tables, chrome traces and the selfcheck
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one workload; the last line of stdout is the result as one JSON object
#   benchmark/run.sh compare A.json B.json
#   benchmark/run.sh selfcheck [--seed N]
#       checks the results.json a --trace run left in benchmark/out
#
# Exits non-zero when the build or any check fails.
set -eu

here=$(cd "$(dirname "$0")" && pwd)
target=${CARGO_TARGET_DIR:-$here/target}

# The build talks on stderr only: stdout belongs to the result.
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2

bin=$target/release/neat-benchmark
case "${1:-}" in
    compare) exec "$bin" "$@" ;;
    selfcheck) shift && exec "$bin" selfcheck --out "$here/out" "$@" ;;
    *) exec "$bin" --out "$here/out" "$@" ;;
esac

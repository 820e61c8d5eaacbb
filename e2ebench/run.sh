#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs one workload:
#
#   bash e2ebench/run.sh --workload reproduce|calibrate|serve-mixed \
#        --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build output goes to stderr; the last
# line of stdout is the JSON result.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2
exec "$CARGO_TARGET_DIR/release/reram-e2ebench" "$@"

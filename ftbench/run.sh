#!/usr/bin/env bash
# Builds `ftspan_serve` and the benchmark from this checkout, then runs one
# workload:
#
#   bash ftbench/run.sh --workload serve-zipf --seed 1 --seconds 30 --trace 0
#
# Run from the root of the checkout. Build output lands in $CARGO_TARGET_DIR
# (default `.bench_build`); the benchmark's scratch files in `.bench_work`.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p ftspan-net --bin ftspan_serve
cargo build --release --offline --quiet --manifest-path ftbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/ftbench" --serve-bin "$CARGO_TARGET_DIR/release/ftspan_serve" "$@"

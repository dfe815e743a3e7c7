#!/usr/bin/env bash
# Builds `xmlpruned` (the repository's workspace) and the benchmark
# (its own workspace under perfbench/) from source, then runs the
# benchmark with the daemon it starts for the serve phase.
#
#   bash perfbench/run.sh --workload paper43 --seed 1 --seconds 45 --trace 0
#
# Run from the repository root. Builds go to $CARGO_TARGET_DIR
# (default .bench_build).
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --quiet --release --offline --locked --manifest-path Cargo.toml -p xproj-server --bin xmlpruned
cargo build --quiet --release --offline --locked --manifest-path perfbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/perfbench" --server-bin "$CARGO_TARGET_DIR/release/xmlpruned" "$@"

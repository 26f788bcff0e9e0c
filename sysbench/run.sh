#!/usr/bin/env bash
# Builds the program under test and the benchmark from source, then runs
# the benchmark. Run from anywhere; arguments go to `benchmark` unchanged:
#
#   bash sysbench/run.sh --workload serve_lookup --seed 1 --seconds 20 --trace 0
#
# Both builds go to $CARGO_TARGET_DIR (default: ./target of the checkout).
# In a directory without the lorentz workspace the first build fails and
# the script exits non-zero without printing a result.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p lorentz-cli
cargo build --release --offline --quiet --manifest-path sysbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/benchmark" --lorentz "$CARGO_TARGET_DIR/release/lorentz" "$@"

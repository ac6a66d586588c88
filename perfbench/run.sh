#!/usr/bin/env bash
# Builds `asm` and the benchmark from source, then runs one workload:
#
#   bash perfbench/run.sh --workload asti-ic --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build). The last line of standard output is the result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$CARGO_TARGET_DIR"
target="$(cd "$CARGO_TARGET_DIR" && pwd)"

# Cargo reports on stderr, so standard output keeps only the benchmark's.
cargo build --release --quiet --offline --manifest-path Cargo.toml -p smin-cli --bin asm
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml

exec "$target/release/perfbench" --asm "$target/release/asm" "$@"

#!/usr/bin/env bash
# Build selectd and the benchmark from source, then run one benchmark pass.
#
#   bash perfbench/run.sh --workload serve-mixed|serve-overload|host-lib \
#       --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); spool directories and span files go to
# .perfbench/. The last line of standard output is the result JSON.
set -euo pipefail

bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$bench_dir")
target=${CARGO_TARGET_DIR:-.bench_build}
case "$target" in
/*) ;;
*) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin selectd 1>&2
cargo build --release --offline --quiet --manifest-path "$bench_dir/Cargo.toml" 1>&2

exec "$target/release/perfbench" \
    --selectd "$target/release/selectd" \
    --scratch "$root/.perfbench" \
    "$@"

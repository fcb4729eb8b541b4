#!/usr/bin/env bash
# Builds the benchmark from source and runs one measurement. From the
# repository root:
#
#   bash perfbench/run.sh --workload crawl --seed 1 --seconds 20 --trace 0
#
# `--trace 0` runs the gated, untraced binary (end-to-end metrics);
# `--trace 1` runs the traced binary (per-layer metrics). Builds go to
# $CARGO_TARGET_DIR (default perfbench/target). The last line of stdout is
# the JSON result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
bin=perfbench
prev=""
for arg in "$@"; do
    if [ "$prev" = "--trace" ] && [ "$arg" = "1" ]; then
        bin=perfbench-traced
    fi
    prev="$arg"
done
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bin "$bin" >&2
exec "$target/release/$bin" "$@"

#!/usr/bin/env bash
# Builds the release `thinslice` binary and the benchmark driver from
# source, then runs the driver with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload serve-read --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the driver's last stdout line is the result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
target="${CARGO_TARGET_DIR:-target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"
cargo build --release --quiet --manifest-path Cargo.toml -p thinslice-cli >&2
cargo build --release --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" --thinslice "$target/release/thinslice" --workdir .perfbench_work "$@"

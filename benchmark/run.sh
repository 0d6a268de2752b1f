#!/usr/bin/env bash
# The benchmark's one command (see BENCHMARK.json):
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash benchmark/run.sh --check
#   bash benchmark/run.sh --repeat <n> [--seed <n>] [--vary-seed]
#
# Builds the package offline (a no-op when it is up to date) and hands
# the arguments to the `e2e` bin, or to `layers` for the traced pass.
# Without the workspace crates beside it the build fails, and so does
# this script, before anything is printed.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export PEEPUL_BENCH_DIR="$here"
# The driver sets CARGO_TARGET_DIR; by hand, share the repo's target/.
target="${CARGO_TARGET_DIR:-$here/../target}"

CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" 1>&2

bin=e2e
prev=
for arg in "$@"; do
    if [ "$prev" = "--trace" ] && [ "$arg" != "0" ]; then
        bin=layers
    fi
    prev="$arg"
done
exec "$target/release/$bin" "$@"

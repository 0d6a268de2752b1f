#!/usr/bin/env bash
# Code lines the way the simplicity gates count them: per `*.rs` file under
# each given directory, the lines that are neither blank nor `//` comments
# (`///` and `//!` included), up to the file's first `#[cfg(test)]`; a
# file named `tests.rs` is the out-of-line body of such a module and is
# skipped whole. Prints one total per directory, then the grand total.
#
#   scripts/loc.sh crates/store/src crates/net/src
set -euo pipefail

[ $# -gt 0 ] || { echo "usage: $0 <dir>..." >&2; exit 2; }

total=0
for dir in "$@"; do
    n=$(find "$dir" -name '*.rs' ! -name tests.rs -print0 | sort -z | xargs -0 awk '
        FNR == 1 { in_tests = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + 0 }')
    printf '%6d  %s\n' "$n" "$dir"
    total=$((total + n))
done
[ $# -eq 1 ] || printf '%6d  total\n' "$total"

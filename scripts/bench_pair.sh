#!/usr/bin/env bash
# Alternating before/after runs of one benchmark workload: the committed
# tree of <parent-rev> against the working tree.
#
#   scripts/bench_pair.sh <parent-rev> <workload> [pairs=10] [seconds=28] [seed]
#
# Both sides are exported into one fresh `mktemp -d` directory under the
# repo's target/, as siblings of the same name length: <parent-rev> with
# `git archive` into parent/, the working tree (tracked and untracked
# files, less what .gitignore excludes) into change/. Each side builds
# into its own checkout's target/ and keeps its run data under its own
# benchmark/out/, so the two sides differ only in code; the repo's own
# target/ and benchmark/Cargo.lock are left alone. `HEAD` on a clean
# tree gives an A/A run.
# Pair i runs `benchmark/run.sh --workload … --seconds … [--seed …] --trace 0`
# on both sides, parent first on even i and change first on odd i.
#
# Prints, per end-to-end metric of BENCHMARK.json, each side's median and
# quartiles (exclusive method, as the benchmark's own statistics), how
# many pairs the change won, and a verdict: WORSE when the change's median
# is worse than the parent's by more than the metric's bound, better when
# the change won at least 9 pairs in 10 and its median gain exceeds the
# parent's interquartile distance. Exits 1 on any WORSE metric or failed
# operation. The temporary directory is removed on exit.
set -euo pipefail

[ $# -ge 2 ] || {
    echo "usage: $0 <parent-rev> <workload> [pairs=10] [seconds=28] [seed]" >&2
    exit 2
}
rev=$1 workload=$2 pairs=${3:-10} seconds=${4:-28} seed=${5:-}

root="$(git rev-parse --show-toplevel)"
# Under the repo, not in /tmp: fsync must cost what it costs beside a
# real checkout (/tmp may be tmpfs, where it is free).
mkdir -p "$root/target"
tmp="$(mktemp -d "$root/target/bench_pair.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/parent" "$tmp/change"
git -C "$root" archive "$rev" | tar -x -C "$tmp/parent"
# Files deleted in the working tree but still tracked are left out.
git -C "$root" ls-files -z -co --exclude-standard |
    while IFS= read -r -d '' f; do if [ -e "$root/$f" ]; then printf '%s\0' "$f"; fi; done |
    tar -C "$root" --null -T - -cf - | tar -x -C "$tmp/change"

echo "building $rev and the working tree" >&2
for side in parent change; do
    CARGO_TARGET_DIR="$tmp/$side/target" cargo build --release --offline --quiet \
        --manifest-path "$tmp/$side/benchmark/Cargo.toml"
done

args=(--workload "$workload" --seconds "$seconds" --trace 0)
[ -z "$seed" ] || args+=(--seed "$seed")

run() { # <side> <pair>
    local log=$tmp/$1-$2.log
    CARGO_TARGET_DIR="$tmp/$1/target" bash "$tmp/$1/benchmark/run.sh" "${args[@]}" >"$log" 2>&1 ||
        { echo "$1 run $2 failed:" >&2; tail -20 "$log" >&2; exit 1; }
    tail -n 1 "$log" >"$tmp/$1-$2.json"
}

for ((i = 0; i < pairs; i++)); do
    n=$(printf '%02d' "$i")
    if ((i % 2 == 0)); then run parent "$n"; run change "$n"; else run change "$n"; run parent "$n"; fi
    echo "pair $((i + 1))/$pairs done" >&2
done

jq -n -r \
    --slurpfile spec "$root/BENCHMARK.json" \
    --slurpfile p <(cat "$tmp"/parent-*.json) \
    --slurpfile c <(cat "$tmp"/change-*.json) '
def median: sort | length as $n
    | if $n % 2 == 1 then .[($n - 1) / 2] else (.[$n / 2 - 1] + .[$n / 2]) / 2 end;
def quartiles: sort as $d | ($d | length) as $n
    | if $n < 2 then [$d[0], $d[0]] else
        [1, 3] | map((. * ($n + 1)) as $im
            | ([([($im / 4 | floor), 1] | max), $n - 1] | min) as $j
            | ($im - $j * 4) as $delta
            | ($d[$j - 1] * (4 - $delta) + $d[$j] * $delta) / 4)
      end;
def fmt: . * 100 | round / 100;
"failed operations: parent \([$p[].failed] | add), change \([$c[].failed] | add); "
    + "incorrect runs: parent \([$p[] | select(.correct != true)] | length), "
    + "change \([$c[] | select(.correct != true)] | length)",
(["metric", "parent", "[q1", "q3]", "change", "[q1", "q3]", "change_%", "wins", "verdict"] | @tsv),
($spec[0].end_to_end[] as $m
    | [$p[] | .metrics[$m.name].value] as $pv
    | [$c[] | .metrics[$m.name].value] as $cv
    | (if $m.better == "lower" then 1 else -1 end) as $sign
    | ($pv | median) as $pm | ($cv | median) as $cm
    | ($pv | quartiles) as $pq | ($cv | quartiles) as $cq
    | ([range(0; $pv | length) | select(($cv[.] - $pv[.]) * $sign < 0)] | length) as $wins
    | (if $pm == 0 then 0 else ($cm - $pm) / $pm end) as $rel
    | (if $rel * $sign > $m.bound then "WORSE"
       elif $wins * 10 >= ($pv | length) * 9 and ($pm - $cm) * $sign > ($pq[1] - $pq[0]) then "better"
       else "same" end) as $verdict
    | [$m.name, ($pm | fmt), ($pq[0] | fmt), ($pq[1] | fmt), ($cm | fmt), ($cq[0] | fmt),
       ($cq[1] | fmt), ($rel * 100 | fmt), "\($wins)/\($pv | length)", $verdict]
    | @tsv)
' | awk -F'\t' '{ for (i = 1; i <= NF; i++) printf(i == 1 ? "%-14s" : " %10s", $i); print "" }' |
    tee "$tmp/summary.txt"

! grep -qE 'WORSE' "$tmp/summary.txt" &&
    grep -qE '^failed operations: parent [0-9]+, change 0; incorrect runs: parent [0-9]+, change 0' \
        "$tmp/summary.txt"

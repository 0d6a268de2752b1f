#!/usr/bin/env bash
# End-to-end smoke test of the service layer: a 3-node peepul-server
# fleet driven entirely through peepul-cli.
#
#   scripts/service_smoke.sh [BIN_DIR]
#
# BIN_DIR defaults to target/release; it must contain peepul-server and
# peepul-cli (CI builds them first: cargo build --release -p
# peepul-server -p peepul-cli).
#
# The scenario: three nodes on ephemeral ports, each peering with the
# previously started ones (each peer round pulls every branch, then
# pushes every branch, so a chain suffices to connect the fleet). n3
# runs a coalesced flush policy, so its background flusher runs too. Writes, forks and merges land on
# *different* nodes, and two first puts to a fresh tenant race on one
# node; the test then polls `peepul-cli serve-status` until
# every node reports identical heads for every non-tracking branch, and
# finally asserts each node serves every write. The whole run is bounded
# by a hard timeout and always tears the fleet down.

set -euo pipefail

BIN_DIR="${1:-target/release}"
SERVER="$BIN_DIR/peepul-server"
CLI="$BIN_DIR/peepul-cli"
DEADLINE_SECS="${SMOKE_DEADLINE_SECS:-60}"

for bin in "$SERVER" "$CLI"; do
  if [ ! -x "$bin" ]; then
    echo "service_smoke: missing binary $bin (build with: cargo build --release -p peepul-server -p peepul-cli)" >&2
    exit 2
  fi
done

WORK="$(mktemp -d "${TMPDIR:-/tmp}/peepul-smoke.XXXXXX")"
PIDS=()

cleanup() {
  local status=$?
  for pid in "${PIDS[@]:-}"; do
    kill "$pid" 2>/dev/null || true
  done
  for pid in "${PIDS[@]:-}"; do
    wait "$pid" 2>/dev/null || true
  done
  if [ "$status" -ne 0 ]; then
    echo "--- node logs ---" >&2
    cat "$WORK"/n*.log >&2 || true
    # Keep $WORK so CI can upload the logs as an artifact.
  else
    rm -rf "$WORK"
  fi
  exit "$status"
}
trap cleanup EXIT INT TERM

# Absolute hard stop: if anything below wedges (a node that never
# converges, a cli call that hangs), this watchdog kills the whole
# process group rather than letting CI idle until the job timeout.
( sleep "$((DEADLINE_SECS + 30))" && echo "service_smoke: HARD TIMEOUT" >&2 && kill -- -$$ ) &
WATCHDOG=$!
disown "$WATCHDOG" 2>/dev/null || true

start_node() { # name, peers... (extra server flags in $NODE_FLAGS)
  # Runs in this shell, not a command substitution, so the pid reaches
  # PIDS and the cleanup trap tears the node down.
  local name="$1"; shift
  local peer_flags=()
  for p in "$@"; do peer_flags+=(--peer "$p"); done
  # shellcheck disable=SC2086 # NODE_FLAGS is a flag list, split on purpose
  "$SERVER" --listen 127.0.0.1:0 --data "$WORK/$name" --name "$name" \
    --sync-interval-ms 200 ${NODE_FLAGS:-} "${peer_flags[@]+"${peer_flags[@]}"}" \
    > "$WORK/$name.log" 2>&1 &
  PIDS+=($!)
}

addr_of() { # name -> the ephemeral address the node announced
  for _ in $(seq 1 50); do
    if grep -q "listening on" "$WORK/$1.log"; then break; fi
    sleep 0.1
  done
  grep -o "listening on .*" "$WORK/$1.log" | awk '{print $3}'
}

echo "== starting 3-node fleet"
start_node n1
A=$(addr_of n1)
start_node n2 "$A"
B=$(addr_of n2)
NODE_FLAGS="--flush coalesced:50" start_node n3 "$A" "$B"
C=$(addr_of n3)
echo "   n1=$A n2=$B n3=$C"
if ! "$CLI" --addr "$C" serve-status | grep -qx 'flush coalesced:50ms'; then
  echo "service_smoke: FAIL — n3 does not report its coalesced flush policy" >&2
  "$CLI" --addr "$C" serve-status >&2
  exit 1
fi

echo "== writes, forks and merges against different nodes"
"$CLI" --addr "$A" put main city lyon
"$CLI" --addr "$B" put main river rhone
"$CLI" --addr "$C" put main country france
# A fork worked on one node, merged back on another.
"$CLI" --addr "$A" fork main feature
"$CLI" --addr "$A" put feature dish quenelle
# Let the fork replicate before merging it elsewhere.
deadline=$((SECONDS + DEADLINE_SECS))
until "$CLI" --addr "$B" get feature dish >/dev/null 2>&1; do
  if [ "$SECONDS" -ge "$deadline" ]; then
    echo "service_smoke: FAIL — fork never replicated to n2" >&2
    exit 1
  fi
  sleep 0.2
done
"$CLI" --addr "$B" merge main feature
# Tenant traffic rides the same fleet.
"$CLI" --addr "$C" --tenant acme put main secret s3cret
# Two first puts race into one fresh tenant on one node: each forks the
# tenant's branch from the root (or finds it already forked), then
# applies. Both must be acknowledged.
"$CLI" --addr "$A" --tenant fresh put main k1 one &
RACE1=$!
"$CLI" --addr "$A" --tenant fresh put main k2 two &
RACE2=$!
race_ok=1
wait "$RACE1" || race_ok=0
wait "$RACE2" || race_ok=0
if [ "$race_ok" -ne 1 ]; then
  echo "service_smoke: FAIL — a racing first put to a fresh tenant was refused" >&2
  exit 1
fi

echo "== waiting for convergence (identical non-tracking heads on every node)"
heads() { # addr -> sorted "branch name head state" lines, tracking branches excluded
  "$CLI" --addr "$1" serve-status | grep '^branch ' | grep -v '^branch remote/' | sort
}
deadline=$((SECONDS + DEADLINE_SECS))
while true; do
  HA=$(heads "$A"); HB=$(heads "$B"); HC=$(heads "$C")
  if [ -n "$HA" ] && [ "$HA" = "$HB" ] && [ "$HB" = "$HC" ]; then
    break
  fi
  if [ "$SECONDS" -ge "$deadline" ]; then
    echo "service_smoke: FAIL — fleet did not converge within ${DEADLINE_SECS}s" >&2
    printf 'n1:\n%s\nn2:\n%s\nn3:\n%s\n' "$HA" "$HB" "$HC" >&2
    exit 1
  fi
  sleep 0.3
done
echo "$HA" | sed 's/^/   /'

echo "== every node serves every write"
for addr in "$A" "$B" "$C"; do
  [ "$("$CLI" --addr "$addr" get main city)" = "lyon" ]
  [ "$("$CLI" --addr "$addr" get main river)" = "rhone" ]
  [ "$("$CLI" --addr "$addr" get main country)" = "france" ]
  [ "$("$CLI" --addr "$addr" get main dish)" = "quenelle" ]   # merged from the fork
  [ "$("$CLI" --addr "$addr" --tenant acme get main secret)" = "s3cret" ]
  [ "$("$CLI" --addr "$addr" --tenant fresh get main k1)" = "one" ]
  [ "$("$CLI" --addr "$addr" --tenant fresh get main k2)" = "two" ]
done

echo "== metrics exposition covers every subsystem"
# `peepul-cli metrics` parses the exposition itself (it fails on empty or
# malformed output); on top of that the fleet must actually have reported
# from each subsystem: store commits, net replication, server requests.
METRICS=$("$CLI" --addr "$B" metrics)
for prefix in peepul_store_ peepul_net_ peepul_server_; do
  if ! grep -q "^$prefix" <<< "$METRICS"; then
    echo "service_smoke: FAIL — metrics exposition has no $prefix* samples" >&2
    printf '%s\n' "$METRICS" >&2
    exit 1
  fi
done
# The fleet converged, so every node has synced: lag gauges must exist
# and requests must have been counted.
grep -q '^peepul_net_lag_ticks' <<< "$METRICS"
grep -q '^peepul_server_requests_total' <<< "$METRICS"

kill "$WATCHDOG" 2>/dev/null || true
echo "service_smoke: PASS"

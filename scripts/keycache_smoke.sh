#!/usr/bin/env bash
# keycache_smoke.sh — end-to-end smoke of the budgeted tenant-key tier.
#
# Registers more tenants than the key budget admits (8 full-catalog
# bundles of ~0.7 MB against a 2 MiB budget: roughly 25% resident; the
# loadgen draws every tenant's keys from one generator, so the 8 bundles
# are distinct and the spill dir holds 8 files) and drives Zipf-skewed
# load so hot tenants ride the resident cache while the tail churns
# through spill, eviction and blocking reload. Two rounds:
#   1. Emulator backend: every response decrypt-and-verified, zero errors
#      allowed; /metrics must show evictions happened AND resident bytes
#      never exceeding the budget.
#   2. 2-worker cluster backend: the coordinator's key cache is the one
#      owner of what workers hold, so its evictions invalidate worker
#      residency (key_evicts >= 1, keys_resident printed), still with zero
#      errors.
set -euo pipefail
cd "$(dirname "$0")/.."

LOGN=${LOGN:-8}
LEVELS=${LEVELS:-3}
SEED=${SEED:-20260805}
TENANTS=${TENANTS:-8}
BUDGET_MB=${BUDGET_MB:-2}
WPORTS=(9111 9112)
SERVE_PORT=8093
BIN=$(mktemp -d)
SPILL=$(mktemp -d)
PIDS=()

cleanup() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$BIN" "$SPILL"
}
trap cleanup EXIT

metric() { # metric <name> -> first numeric value in /metrics (0 if absent)
  # head -1: per-backend snapshots repeat cluster counters; the first
  # occurrence is the aggregate.
  curl -sf "http://127.0.0.1:$SERVE_PORT/metrics" \
    | grep -oE "\"$1\": *-?[0-9]+" | head -1 | grep -oE '[0-9]+$' || echo 0
}

assert_cache_bounded() {
  local budget resident evictions declined spilled spillread
  budget=$(metric budget_bytes)
  resident=$(metric resident_bytes)
  evictions=$(metric evictions)
  declined=$(metric admissions_declined)
  spilled=$(metric spilled_tenants)
  spillread=$(metric spill_bytes_read)
  echo "key cache: resident ${resident}B / budget ${budget}B, $spilled spilled, $evictions evictions, $declined admissions declined, ${spillread}B spill read"
  if [ "$budget" -le 0 ]; then
    echo "FAIL: key budget not active (budget_bytes=$budget)" >&2
    exit 1
  fi
  if [ "$resident" -gt "$budget" ]; then
    echo "FAIL: resident bytes $resident exceed budget $budget" >&2
    exit 1
  fi
  if [ "$evictions" -lt 1 ]; then
    echo "FAIL: expected at least one eviction with $TENANTS tenants over a ${BUDGET_MB} MiB budget" >&2
    exit 1
  fi
}

wait_healthy() {
  for i in $(seq 1 100); do
    curl -sf "http://127.0.0.1:$SERVE_PORT/healthz" >/dev/null 2>&1 && return 0
    sleep 0.2
  done
  echo "FAIL: server never became healthy" >&2
  exit 1
}

echo "== building binaries =="
go build -o "$BIN" ./cmd/cinnamon-worker ./cmd/cinnamon-serve ./cmd/cinnamon-loadgen

echo "== 1. emulator backend: $TENANTS tenants, ${BUDGET_MB} MiB budget, zipf load =="
"$BIN/cinnamon-serve" -addr "127.0.0.1:$SERVE_PORT" \
  -logn "$LOGN" -levels "$LEVELS" -seed "$SEED" \
  -key-budget-mb "$BUDGET_MB" -key-spill-dir "$SPILL/emulator" &
SERVE_PID=$!
PIDS+=($SERVE_PID)
wait_healthy

"$BIN/cinnamon-loadgen" -url "http://127.0.0.1:$SERVE_PORT" -program all \
  -tenants "$TENANTS" -tenant-skew zipf \
  -requests 48 -rate 40 -max-slot-err 1e-3 -max-error-rate 0
assert_cache_bounded

kill "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true

echo "== 2. cluster backend: 2 workers behind the coordinator budget =="
for port in "${WPORTS[@]}"; do
  "$BIN/cinnamon-worker" -addr "127.0.0.1:$port" \
    -logn "$LOGN" -levels "$LEVELS" -seed "$SEED" &
  PIDS+=($!)
done
WORKERS=$(IFS=,; echo "${WPORTS[*]/#/127.0.0.1:}")
for i in $(seq 1 50); do
  ok=true
  for port in "${WPORTS[@]}"; do
    (exec 3<>"/dev/tcp/127.0.0.1/$port") 2>/dev/null || { ok=false; break; }
    exec 3>&- || true
  done
  $ok && break
  sleep 0.2
done

"$BIN/cinnamon-serve" -addr "127.0.0.1:$SERVE_PORT" -cluster "$WORKERS" \
  -logn "$LOGN" -levels "$LEVELS" -seed "$SEED" \
  -key-budget-mb "$BUDGET_MB" -key-spill-dir "$SPILL/cluster" &
PIDS+=($!)
wait_healthy

"$BIN/cinnamon-loadgen" -url "http://127.0.0.1:$SERVE_PORT" -program all \
  -tenants "$TENANTS" -tenant-skew zipf \
  -requests 48 -rate 40 -max-slot-err 1e-3 -max-error-rate 0
assert_cache_bounded

KEY_EVICTS=$(metric key_evicts)
KEYS_RESIDENT=$(metric keys_resident)
echo "cluster key flow: $KEY_EVICTS worker invalidations, $KEYS_RESIDENT keys resident on workers"
if [ "$KEY_EVICTS" -lt 1 ]; then
  echo "FAIL: coordinator evictions never invalidated worker residency" >&2
  exit 1
fi

echo "== keycache smoke PASS =="

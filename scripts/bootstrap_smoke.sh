#!/usr/bin/env bash
# bootstrap_smoke.sh — end-to-end smoke of the bootstrapping service.
#
# The exit criterion of the bootstrapping-as-a-service subsystem,
# exercised for real over HTTP:
#   1. cinnamon-serve -bootstrap (emulator backend, 16 levels, sparse
#      secret) compiles the depth-20 logreg16-deep program as a
#      scheduler-path entry; cinnamon-loadgen runs deep one-shots
#      (each with a mid-program bootstrap) and a 3-step encrypted
#      session, decrypting and verifying every response/step against
#      the plaintext model. /metrics must report bootstraps_total > 0.
#   2. The same deep program again with serve in -cluster
#      -require-cluster mode over a 2-process worker cluster: level ops
#      and refreshes alike run the distributed keyswitch path (a
#      refresh bootstraps on its request's evaluator), nothing may fall
#      back to local execution, and every step must still verify.
set -euo pipefail
cd "$(dirname "$0")/.."

LOGN=${LOGN:-8}
LEVELS=${LEVELS:-16}
SEED=${SEED:-20260805}
WPORTS=(9121 9122)
SERVE_PORT=8094
BIN=$(mktemp -d)
PIDS=()

cleanup() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$BIN"
}
trap cleanup EXIT

wait_healthy() {
  for i in $(seq 1 150); do
    curl -sf "http://127.0.0.1:$SERVE_PORT/healthz" >/dev/null 2>&1 && return 0
    sleep 0.2
  done
  echo "FAIL: serve on :$SERVE_PORT never became healthy" >&2
  return 1
}

drive_load() {
  # Deep one-shots: each request runs the depth-20 program with at least
  # one mid-program refresh; the loadgen decrypts every response against
  # the plaintext model (verify_tolerance from /v1/programs). Generous
  # timeout: a bootstrapped run takes seconds on one core.
  "$BIN/cinnamon-loadgen" -url "http://127.0.0.1:$SERVE_PORT" -program logreg16-deep \
    -tenant "$1" -requests 3 -rate 2 -timeout 120s -max-error-rate 0
  # A 3-step encrypted session: step 1 seeds the server-held state, steps
  # 2-3 iterate it server-side (resuming from exhausted levels, so the
  # scheduler refreshes before every multiply), with per-step
  # decrypt-and-verify against the iterated plaintext model.
  "$BIN/cinnamon-loadgen" -url "http://127.0.0.1:$SERVE_PORT" -program logreg16-deep \
    -tenant "$1-sess" -sessions 1 -session-steps 3 -timeout 300s
}

check_bootstraps() {
  local total
  total=$(echo "$1" | grep -o '"bootstraps_total": *[0-9]*' | grep -o '[0-9]*$')
  if [ -z "$total" ] || [ "$total" -lt 1 ]; then
    echo "FAIL: bootstraps_total=$total after deep load" >&2
    exit 1
  fi
  echo "   bootstraps_total=$total  $(echo "$1" | tr -d '\n' | tr -s ' ' | grep -o '"bootstrap_ms": *{[^}]*}')"
}

# check_on_cluster: the deep load ran on the workers — collectives happened
# and, the server running -require-cluster, not one run replayed locally (the
# cluster engine has no fallback of its own to hide a lost worker behind).
check_on_cluster() {
  local bcasts efb
  bcasts=$(echo "$1" | grep -o '"broadcasts": *[0-9]*' | grep -o '[0-9]*$' || true)
  # emulator_fallbacks is omitted from /metrics while it is zero.
  efb=$(echo "$1" | grep -o '"emulator_fallbacks": *[0-9]*' | grep -o '[0-9]*$' || true)
  if [ "${bcasts:-0}" -lt 1 ] || [ "${efb:-0}" -ne 0 ]; then
    echo "FAIL: broadcasts=$bcasts emulator_fallbacks=$efb after deep load on the cluster" >&2
    exit 1
  fi
  echo "   broadcasts=$bcasts emulator_fallbacks=${efb:-0}"
}

echo "== building binaries =="
go build -o "$BIN" ./cmd/cinnamon-worker ./cmd/cinnamon-serve ./cmd/cinnamon-loadgen

echo "== 1. emulator backend: serve -bootstrap + verified deep load + session =="
"$BIN/cinnamon-serve" -addr "127.0.0.1:$SERVE_PORT" \
  -logn "$LOGN" -levels "$LEVELS" -seed "$SEED" -bootstrap &
SERVE_PID=$!
PIDS+=($SERVE_PID)
wait_healthy

# The deep program must be in the catalog as a scheduler-path entry.
PROGS=$(curl -sf "http://127.0.0.1:$SERVE_PORT/v1/programs")
echo "$PROGS" | grep -q '"logreg16-deep"' || {
  echo "FAIL: logreg16-deep missing from /v1/programs" >&2
  exit 1
}
echo "$PROGS" | grep -q '"bootstraps_required"' || {
  echo "FAIL: /v1/programs does not advertise bootstraps_required" >&2
  exit 1
}

drive_load deep-emu
check_bootstraps "$(curl -sf "http://127.0.0.1:$SERVE_PORT/metrics")"

kill "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true

echo "== 2. cluster backend: 2 workers + serve -cluster -bootstrap + verified deep load =="
for port in "${WPORTS[@]}"; do
  "$BIN/cinnamon-worker" -addr "127.0.0.1:$port" -logn "$LOGN" -levels "$LEVELS" -seed "$SEED" &
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

"$BIN/cinnamon-serve" -addr "127.0.0.1:$SERVE_PORT" -cluster "$WORKERS" -require-cluster \
  -logn "$LOGN" -levels "$LEVELS" -seed "$SEED" -bootstrap &
PIDS+=($!)
wait_healthy

drive_load deep-cluster
METRICS=$(curl -sf "http://127.0.0.1:$SERVE_PORT/metrics")
check_bootstraps "$METRICS"
check_on_cluster "$METRICS"

echo "== bootstrap smoke PASS =="

#!/usr/bin/env bash
# failover_smoke.sh — end-to-end smoke of backend failover and durable
# encrypted sessions, over real processes and TCP.
#
# Two independent 2-worker clusters (failure domains) behind one
# cinnamon-serve with -require-cluster and a -session-log:
#   1. Verified load across the backend set; /healthz must enumerate both
#      backends with circuit state.
#   2. Kill the primary cluster whole (both workers) and drive load
#      again: every response must still decrypt correctly (zero wrong
#      decrypts, zero errors) and /metrics must count a failover.
#   3. Restart cinnamon-serve mid-session: a 4-step encrypted session
#      with a client-side pause between steps is in flight while serve is
#      SIGTERMed and relaunched over the same session log. The client
#      retries the step with bounded backoff (re-uploading its key
#      bundle after the restart), and every step — including the resumed
#      ones — must decrypt and verify. /metrics must count a restore.
#   4. cinnamon-chaos -mode domains: the in-process version of the same
#      schedule, which additionally asserts the resumed session is
#      bit-identical to an uninterrupted run.
set -euo pipefail
cd "$(dirname "$0")/.."

LOGN=${LOGN:-8}
LEVELS=${LEVELS:-4}
SEED=${SEED:-20260805}
APORTS=(9141 9142)
BPORTS=(9143 9144)
SERVE_PORT=8095
BIN=$(mktemp -d)
STATE=$(mktemp -d)
PIDS=()

cleanup() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  kill "${SERVE_PID:-0}" 2>/dev/null || true
  wait 2>/dev/null || true
  rm -rf "$BIN" "$STATE"
}
trap cleanup EXIT

metric() {
  curl -sf "http://127.0.0.1:$SERVE_PORT/metrics" | grep -oE "\"$1\": *-?[0-9]+" | grep -oE '[0-9]+$' || echo 0
}

wait_healthy() {
  for i in $(seq 1 150); do
    curl -sf "http://127.0.0.1:$SERVE_PORT/healthz" >/dev/null 2>&1 && return 0
    sleep 0.2
  done
  echo "FAIL: serve on :$SERVE_PORT never became healthy" >&2
  return 1
}

start_serve() {
  "$BIN/cinnamon-serve" -addr "127.0.0.1:$SERVE_PORT" \
    -cluster "$BACKEND_A;$BACKEND_B" -require-cluster -heartbeat 250ms \
    -session-log "$STATE/sessions.log" \
    -logn "$LOGN" -levels "$LEVELS" -seed "$SEED" &
  SERVE_PID=$!
  wait_healthy
}

echo "== building binaries =="
go build -o "$BIN" ./cmd/cinnamon-worker ./cmd/cinnamon-serve ./cmd/cinnamon-loadgen ./cmd/cinnamon-chaos

echo "== starting two 2-worker clusters =="
APIDS=()
for port in "${APORTS[@]}"; do
  "$BIN/cinnamon-worker" -addr "127.0.0.1:$port" -logn "$LOGN" -levels "$LEVELS" -seed "$SEED" &
  APIDS+=($!); PIDS+=($!)
done
for port in "${BPORTS[@]}"; do
  "$BIN/cinnamon-worker" -addr "127.0.0.1:$port" -logn "$LOGN" -levels "$LEVELS" -seed "$SEED" &
  PIDS+=($!)
done
BACKEND_A=$(IFS=,; echo "${APORTS[*]/#/127.0.0.1:}")
BACKEND_B=$(IFS=,; echo "${BPORTS[*]/#/127.0.0.1:}")
for i in $(seq 1 50); do
  ok=true
  for port in "${APORTS[@]}" "${BPORTS[@]}"; do
    (exec 3<>"/dev/tcp/127.0.0.1/$port") 2>/dev/null || { ok=false; break; }
    exec 3>&- || true
  done
  $ok && break
  sleep 0.2
done

echo "== 1. serve over both backends + verified load =="
start_serve
"$BIN/cinnamon-loadgen" -url "http://127.0.0.1:$SERVE_PORT" -program square \
  -requests 12 -rate 20 -max-slot-err 1e-3 -max-error-rate 0

# One "circuit_state" key per backend row, and nowhere else in /healthz.
BACKENDS=$(curl -sf "http://127.0.0.1:$SERVE_PORT/healthz" | grep -o '"circuit_state"' | wc -l)
if [ "$BACKENDS" -ne 2 ]; then
  echo "FAIL: /healthz enumerates $BACKENDS backends, want 2" >&2
  exit 1
fi

echo "== 2. kill the primary cluster whole; load must fail over =="
for pid in "${APIDS[@]}"; do kill "$pid"; done
"$BIN/cinnamon-loadgen" -url "http://127.0.0.1:$SERVE_PORT" -program square \
  -tenant loadgen2 -requests 8 -rate 10 -max-slot-err 1e-3 -max-error-rate 0

FAILOVERS=$(metric failovers_total)
echo "failovers after killing cluster A: $FAILOVERS"
if [ "$FAILOVERS" -lt 1 ]; then
  echo "FAIL: expected failovers_total >= 1 after killing the primary cluster" >&2
  exit 1
fi

echo "== 3. restart serve mid-session; the session must resume verified =="
"$BIN/cinnamon-loadgen" -url "http://127.0.0.1:$SERVE_PORT" -program square \
  -tenant sess -sessions 1 -session-steps 4 -step-interval 2s -max-slot-err 1e-3 \
  -step-retries 15 -step-backoff 500ms -timeout 20s >"$STATE/session.out" 2>&1 &
LOADGEN_PID=$!
sleep 3  # let the session seed and take at least one step
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
start_serve
if ! wait "$LOADGEN_PID"; then
  echo "FAIL: session load did not survive the serve restart:" >&2
  cat "$STATE/session.out" >&2
  exit 1
fi
cat "$STATE/session.out"

RESTORES=$(metric session_restores_total)
echo "sessions restored from checkpoint log: $RESTORES"
if [ "$RESTORES" -lt 1 ]; then
  echo "FAIL: expected session_restores_total >= 1 after the restart" >&2
  exit 1
fi
if ! grep -q "resumed after" "$STATE/session.out"; then
  echo "FAIL: no step reported as resumed — the restart window missed the session" >&2
  exit 1
fi

echo "== 4. in-process domain soak (kills + restart, bit-exact resume) =="
"$BIN/cinnamon-chaos" -mode domains -duration 2s -json

echo "== failover smoke PASS =="

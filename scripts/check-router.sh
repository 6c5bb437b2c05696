#!/usr/bin/env bash
# Sharded serving tier gate: certify that a consistent-hash router in
# front of real `certainty serve` processes stays byte-identical to
# the single-process engine, survives losing a shard, and — on a
# multicore runner — actually scales.
#
# What must hold for this script to exit 0:
#   - `bench --router --smoke` (in-process) passes: every routed
#     response byte-identical to Service.handle with jobs = 1, the
#     replicated-update phase verdict-identical on every replica, and
#     the failover phase losing no request to a hang or a wrong
#     answer (the bench itself FATALs otherwise);
#   - external mode: 4 `certainty serve` processes behind a
#     `certainty router` serve the same workload byte-identically
#     (the "identical": false re-check below is belt and braces);
#   - kill/restore: SIGKILLing one external shard drops the router's
#     health to shards_up=3 while a client request on the routed
#     socket still gets a valid answer (correct bytes or a typed
#     shard_unavailable — never a hang); restarting the shard brings
#     shards_up back to 4;
#   - eviction: behind a second router, two `serve --max-sessions 1`
#     shards hold one session each; after an insert into session A
#     and one request on session B (which evicts A from the shard it
#     reaches), both reads of A (one per replica) still see the insert
#     — the router replays A's log where a shard lost it, instead of
#     letting the shard reload A's original text;
#   - on a multicore runner (recommended_domain_count >= 2) the
#     external run's speedup_vs_1shard is >= ROUTER_MIN_SPEEDUP
#     (default 3.0) at 4 shards. Single-core runners skip the speedup
#     clause with a notice — the identity and failover clauses always
#     apply.
#
# CI runs this after the build; run it locally with:
#
#   dune build && scripts/check-router.sh
set -eu
cd "$(dirname "$0")/.."

OUT="${ROUTER_BENCH_OUT:-BENCH_router.json}"
OUT_SMOKE="${ROUTER_BENCH_SMOKE_OUT:-BENCH_router_smoke.json}"
MIN_SPEEDUP="${ROUTER_MIN_SPEEDUP:-3.0}"
NSHARDS=4

dune build bench/main.exe bin/certainty_cli.exe

CERTAINTY="_build/default/bin/certainty_cli.exe"
DIR="$(mktemp -d "${TMPDIR:-/tmp}/certainty-router.XXXXXX")"
PIDS=()

cleanup() {
  for pid in "${PIDS[@]:-}"; do
    kill -TERM "$pid" 2>/dev/null || true
  done
  for pid in "${PIDS[@]:-}"; do
    wait "$pid" 2>/dev/null || true
  done
  rm -rf "$DIR"
}
trap cleanup EXIT

wait_health() { # socket [tries]
  local tries="${2:-100}"
  for _ in $(seq "$tries"); do
    if "$CERTAINTY" client --socket "$1" health >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.1
  done
  echo "FATAL: no health on $1" >&2
  return 1
}

wait_shards_up() { # expected-count
  for _ in $(seq 100); do
    if "$CERTAINTY" client --socket "$DIR/router.sock" health 2>/dev/null \
        | grep -q "\"shards_up\":$1,"; then
      return 0
    fi
    sleep 0.1
  done
  echo "FATAL: router never reported shards_up=$1" >&2
  "$CERTAINTY" client --socket "$DIR/router.sock" health >&2 || true
  return 1
}

echo "== in-process router smoke (identity + replication + failover gates) =="
dune exec --no-build bench/main.exe -- --router --smoke --out "$OUT_SMOKE"

echo "== booting $NSHARDS shards + router on unix sockets =="
for i in $(seq $NSHARDS); do
  "$CERTAINTY" serve --socket "$DIR/shard$i.sock" --shard-id "shard$i" \
    2>"$DIR/shard$i.log" &
  PIDS+=($!)
done
for i in $(seq $NSHARDS); do
  wait_health "$DIR/shard$i.sock"
done

SHARD_ARGS=()
for i in $(seq $NSHARDS); do
  SHARD_ARGS+=(--shard "$DIR/shard$i.sock")
done
"$CERTAINTY" router --socket "$DIR/router.sock" "${SHARD_ARGS[@]}" \
  --replicas 2 --probe-interval 0.1 --fail-threshold 2 \
  2>"$DIR/router.log" &
ROUTER_PID=$!
PIDS+=("$ROUTER_PID")
wait_health "$DIR/router.sock"
wait_shards_up $NSHARDS

echo "== byte-identity load: router vs 1 external shard =="
dune exec --no-build bench/main.exe -- --router \
  --socket "$DIR/router.sock" --ref-socket "$DIR/shard1.sock" --out "$OUT"

echo "== kill/restore: losing shard2 must not lose requests =="
VICTIM_PID="${PIDS[1]}"
kill -KILL "$VICTIM_PID" 2>/dev/null
wait "$VICTIM_PID" 2>/dev/null || true
wait_shards_up $((NSHARDS - 1))
# The dead shard's arcs are served by replicas now: a fresh session
# must still answer, and with the exact engine bytes.
RESP="$("$CERTAINTY" client --socket "$DIR/router.sock" certain --id kr1 \
  -s "R(a); S(a)" -d "R = { ('k1'), ('k2') }; S = { (~1) }" \
  -q "Q(x) := R(x) & !S(x)")" || {
    echo "FATAL: request failed outright during the outage" >&2
    exit 1
  }
case "$RESP" in
  *'"possible":"(k1); (k2)"'*) ;;
  *'"error":"shard_unavailable"'*)
    echo "FATAL: a 2-replica session went unavailable on a 1-shard outage" >&2
    echo "$RESP" >&2
    exit 1 ;;
  *)
    echo "FATAL: wrong bytes during the outage: $RESP" >&2
    exit 1 ;;
esac
"$CERTAINTY" serve --socket "$DIR/shard2.sock" --shard-id "shard2" \
  2>>"$DIR/shard2.log" &
PIDS[1]=$!
wait_shards_up $NSHARDS
echo "  ok: ejected at $((NSHARDS - 1)) live, correct bytes under outage, re-admitted at $NSHARDS"

echo "== eviction: an acknowledged update survives --max-sessions 1 =="
EV_PIDS=()
for i in 1 2; do
  "$CERTAINTY" serve --socket "$DIR/ev$i.sock" --max-sessions 1 \
    2>"$DIR/ev$i.log" &
  EV_PIDS+=($!)
done
PIDS+=("${EV_PIDS[@]}")
for i in 1 2; do
  wait_health "$DIR/ev$i.sock"
done
"$CERTAINTY" router --socket "$DIR/evr.sock" --shard "$DIR/ev1.sock" \
  --shard "$DIR/ev2.sock" --replicas 2 2>"$DIR/evr.log" &
EV_PIDS+=($!)
PIDS+=($!)
wait_health "$DIR/evr.sock"
ev() { "$CERTAINTY" client --socket "$DIR/evr.sock" "$@"; }
ev update --id ev-u -s "R(a)" -d "R = { ('x') }" --action insert \
  --relation R -t "('y')" | grep -q '"ok":true' || {
    echo "FATAL: insert into session A refused" >&2
    exit 1
  }
ev certain --id ev-b -s "R(a)" -d "R = { ('b') }" -q "Q(x) := R(x)" \
  | grep -q '"certain":"(b)"' || {
    echo "FATAL: session B did not answer" >&2
    exit 1
  }
for i in 1 2; do
  RESP="$(ev certain --id "ev-a$i" -s "R(a)" -d "R = { ('x') }" \
    -q "Q(x) := R(x)")"
  case "$RESP" in
    *'"certain":"(x); (y)"'*) ;;
    *)
      echo "FATAL: session A lost its acknowledged insert: $RESP" >&2
      exit 1 ;;
  esac
done
for pid in "${EV_PIDS[@]}"; do
  kill -TERM "$pid" 2>/dev/null || true
  wait "$pid" 2>/dev/null || true
done
echo "  ok: both replicas of A answer (x); (y) after B evicted it"

echo "== external run: identical + speedup_vs_1shard >= $MIN_SPEEDUP at $NSHARDS shards =="
awk -v min="$MIN_SPEEDUP" -v nshards="$NSHARDS" '
  /"recommended_domain_count":/ {
    if (match($0, /[0-9]+/)) domains = substr($0, RSTART, RLENGTH) + 0
  }
  /"identical": false/ {
    print "FATAL: a routed response differed from the single-process engine" \
      > "/dev/stderr"
    bad = 1
  }
  /"speedup_vs_1shard":/ {
    # The number after the colon: the key name itself holds a digit.
    v = $0; sub(/^[^:]*:[ \t]*/, "", v)
    if (match(v, /^[0-9.]+/)) { s = substr(v, RSTART, RLENGTH) + 0; seen = 1 }
  }
  END {
    if (!seen) {
      print "FATAL: no speedup_vs_1shard in the bench output" > "/dev/stderr"
      exit 1
    }
    if (bad) exit 1
    if (domains < 2)
      printf "notice: single-core runner (recommended_domain_count=%d); \
speedup clause skipped, identity and failover clauses enforced\n", domains
    else if (s < min) {
      printf "FATAL: speedup_vs_1shard %.2f < %.2f at %d shards\n", \
        s, min, nshards > "/dev/stderr"
      exit 1
    }
    else
      printf "router gate: %.2fx at %d shards, all responses identical\n", \
        s, nshards
  }
' "$OUT"

echo "check-router: OK"

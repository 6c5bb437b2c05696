#!/usr/bin/env bash
# Serve gate: boot a real `certainty serve` daemon, drive it with the
# bench load generator, probe its failure paths, drain it with SIGTERM,
# and validate the span trace it wrote.
#
# What must hold for this script to exit 0:
#   - the server becomes healthy on a Unix socket;
#   - `bench --serve --smoke --socket` sees zero protocol errors and
#     every response byte-identical to the sequential engine
#     (it exits nonzero otherwise, and writes BENCH_serve.json);
#   - a malformed probe line gets a typed parse_error while the same
#     connection keeps working (client exits 1: one error response);
#   - on one connection, three health lines and a `certain` request
#     over a generated db of at least 256 KiB (so its line spans
#     several 64 KiB read blocks) get exactly one response each, in
#     order, the last with "ok":true;
#   - SIGTERM drains the server: exit status 0, socket unlinked;
#   - the server's --trace output passes scripts/check-trace.sh.
#
# CI runs this after the build; run it locally with:
#
#   dune build && scripts/serve-smoke.sh
set -eu
cd "$(dirname "$0")/.."

SOCK="${TMPDIR:-/tmp}/certainty-serve-smoke-$$.sock"
TRACE="${SERVE_TRACE:-_build/serve-trace.jsonl}"
OUT="${SERVE_BENCH_OUT:-BENCH_serve.json}"

# The built binary, not `dune exec`: a backgrounded `dune exec` races
# the client invocations for the build lock, and the loser cannot find
# the executable.
CERTAINTY=(_build/default/bin/certainty_cli.exe)

dune build bin/certainty_cli.exe bench/main.exe

"${CERTAINTY[@]}" serve --socket "$SOCK" --trace "$TRACE" &
SERVE_PID=$!
trap 'kill -TERM "$SERVE_PID" 2>/dev/null || true' EXIT

for _ in $(seq 100); do
  if "${CERTAINTY[@]}" client --socket "$SOCK" health >/dev/null 2>&1; then
    healthy=1
    break
  fi
  sleep 0.1
done
[ "${healthy:-}" = 1 ] || { echo "FATAL: server never became healthy" >&2; exit 1; }

echo "== load generation (bench --serve --smoke) =="
dune exec --no-build bench/main.exe -- --serve --smoke --socket "$SOCK" --out "$OUT"

echo "== failure-path probe: malformed line, surviving connection =="
if "${CERTAINTY[@]}" client --socket "$SOCK" --raw '{oops' health --id probe; then
  echo "FATAL: client should exit 1 on the parse_error response" >&2
  exit 1
fi

echo "== large-line probe: a >= 256 KiB request among health lines =="
BIGDB="${TMPDIR:-/tmp}/certainty-serve-smoke-$$.db"
trap 'kill -TERM "$SERVE_PID" 2>/dev/null || true; rm -f "$BIGDB"' EXIT
# Every triple over 14 constants with 33-byte names: 2744 rows, ~320 KB,
# shaped like the routed benchmark sessions so it evaluates quickly.
PAD=xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx
{
  printf 'R = { '
  sep=''
  for a in $(seq 14); do for b in $(seq 14); do for c in $(seq 14); do
    printf "%s('g%d%s', 'g%d%s', 'g%d%s')" "$sep" "$a" "$PAD" "$b" "$PAD" "$c" "$PAD"
    sep=', '
  done; done; done
  printf " }; S = { ('g1%s', ~1), ('g2%s', 'g3%s') }" "$PAD" "$PAD" "$PAD"
} > "$BIGDB"
[ "$(wc -c < "$BIGDB")" -ge 262144 ] || { echo "FATAL: generated db under 256 KiB" >&2; exit 1; }
BIGOUT=$("${CERTAINTY[@]}" client --socket "$SOCK" \
  --raw '{"id":"h1","op":"health"}' --raw '{"id":"h2","op":"health"}' \
  --raw '{"id":"h3","op":"health"}' \
  certain --id big -s "R(a,b,c); S(a,b)" --db "@$BIGDB" \
  -q "Q(x) := exists y. exists z. S(x, y) & R(y, x, z)") \
  || { echo "FATAL: large-line probe failed" >&2; echo "$BIGOUT" | cut -c1-300 >&2; exit 1; }
[ "$(printf '%s\n' "$BIGOUT" | wc -l)" -eq 4 ] \
  || { echo "FATAL: expected 4 response lines" >&2; exit 1; }
for n in 1 2 3; do
  printf '%s\n' "$BIGOUT" | sed -n "${n}p" | grep -q "^{\"id\":\"h$n\",\"ok\":true," \
    || { echo "FATAL: response $n does not answer health h$n" >&2; exit 1; }
done
printf '%s\n' "$BIGOUT" | sed -n 4p | grep -q '^{"id":"big","ok":true,"op":"certain"' \
  || { echo "FATAL: the large certain request was not answered ok" >&2; exit 1; }
echo "4 lines, 4 responses in order; the $(wc -c < "$BIGDB")-byte db answered ok"
rm -f "$BIGDB"

echo "== graceful drain on SIGTERM =="
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || { echo "FATAL: serve exited nonzero on SIGTERM" >&2; exit 1; }
trap - EXIT
[ ! -e "$SOCK" ] || { echo "FATAL: socket not unlinked after drain" >&2; exit 1; }

echo "== trace gate over the server's spans =="
bash scripts/check-trace.sh "$TRACE"

echo "serve smoke OK ($OUT, $TRACE)"

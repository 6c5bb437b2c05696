#!/usr/bin/env bash
# Approx gate: certify the (ε,δ)-approximate measure engine
# (lib/approx_measure) end to end.
#
# What must hold for this script to exit 0:
#   - `bench --approx-gate` passes: 200-seed accuracy vs the exact µ^k
#     (≥ (1−δ)·200 within ε), fixed-seed bit-identity across
#     jobs = 1/2/4 (stratified pass included), an estimate on a space
#     ~10^3× past the Bigint.Overflow frontier, and conditional CIs
#     containing the exact µ^k(Q|Σ);
#   - the CLI reproduces one estimate byte-identically under
#     --jobs 1/2/4 (the library gate re-checked through bin/certainty);
#   - on a space ~10^3x past the 2^62 rank frontier both paths answer
#     with exit 0: the exact µ^k, read off the class census, lies
#     inside the --approx 0.25,0.25 interval.
#
# CI runs this after the build; run it locally with:
#
#   dune build && scripts/check-approx.sh
set -eu
cd "$(dirname "$0")/.."

CERTAINTY=(dune exec --no-build -- certainty)

dune build bin/certainty_cli.exe bench/main.exe

echo "== statistical gate (bench --approx-gate) =="
dune exec --no-build bench/main.exe -- --approx-gate

echo "== CLI fixed-seed bit-identity across --jobs 1/2/4 =="
TMP="${TMPDIR:-/tmp}/certainty-approx-$$"
mkdir -p "$TMP"
trap 'rm -rf "$TMP"' EXIT
for jobs in 1 2 4; do
  "${CERTAINTY[@]}" measure \
    -s "R1(c,p); R2(c,p)" \
    -d "R1 = { ('c1', ~1) }; R2 = { (~2, 'x') }" \
    -q "Q(x,y) := R1(x,y) & !R2(x,y)" -t "('c1', ~1)" \
    --ks 4,6 --approx 0.05,0.01 --seed 42 --stratify --jobs "$jobs" \
    > "$TMP/jobs$jobs.out"
done
cmp "$TMP/jobs1.out" "$TMP/jobs2.out" || {
  echo "FATAL: --jobs 1 and --jobs 2 disagree" >&2; exit 1; }
cmp "$TMP/jobs1.out" "$TMP/jobs4.out" || {
  echo "FATAL: --jobs 1 and --jobs 4 disagree" >&2; exit 1; }
echo "  ok: identical output for jobs 1/2/4"

echo "== oversized space: the exact µ^k lies inside the --approx CI =="
# k = 3*10^7 over 3 nulls: 2.7*10^22 valuations, ~5.9*10^3 times past
# the 2^62 rank frontier.
OVERSIZED=(-s "U(a,b,c)" -d "U = { (~1, ~2, ~3) }"
  -q "Q() := exists x. U(x, x, x)" --ks 30000000)
"${CERTAINTY[@]}" measure "${OVERSIZED[@]}" > "$TMP/exact.out" 2>&1 || {
  echo "FATAL: exact measure failed on the oversized space" >&2
  cat "$TMP/exact.out" >&2
  exit 1
}
"${CERTAINTY[@]}" measure "${OVERSIZED[@]}" --approx 0.25,0.25 --seed 7 \
  > "$TMP/approx.out"
EXACT=$(sed -n 's/.*µ^k = \([0-9/]*\) .*/\1/p' "$TMP/exact.out")
CI=$(sed -n 's/.*CI \[\([0-9/]*\), \([0-9/]*\)\]$/\1 \2/p' "$TMP/approx.out")
awk -v x="$EXACT" -v ci="$CI" '
  function val(r,  p) { return split(r, p, "/") == 2 ? p[1] / p[2] : p[1] }
  BEGIN {
    if (x == "" || split(ci, b, " ") != 2) exit 1
    exit !(val(b[1]) <= val(x) && val(x) <= val(b[2]))
  }' || {
  echo "FATAL: exact µ^k '$EXACT' is not inside the --approx CI '$CI'" >&2
  cat "$TMP/exact.out" "$TMP/approx.out" >&2
  exit 1
}
echo "  ok: exact µ^k = $EXACT lies inside CI [${CI/ /, }]"

echo "approx gate OK"

#!/usr/bin/env bash
# Decomposition gate: the factorized µ^k sweeps agree with the
# monolithic oracle sweep, and the CLI reports the decomposition
# certificate. No request runs a factorized pipeline: every exact µ^k
# is read off the class census, and the certificate only names the
# decomposition (the `decomposition:` line, `decomp_*` fields, ANL401).
#
# What must hold for this script to exit 0:
#   - `bench --parallel --smoke` passes with the mu_k_decomposed row
#     present and "identical": true (the bench itself FATALs if any
#     decomp variant's digest differs from the monolithic oracle
#     sweep);
#   - every decomp-engine row of that kernel reports
#     speedup_vs_baseline ≥ 5 over the monolithic oracle sweep;
#   - on the benched two-block workload the CLI reports the
#     decomposition (ANL401). The series itself is read off the class
#     census whatever the route; that the census equals the monolithic
#     and factorized sweeps is held by the census = sweep property in
#     test/test_zeroone.ml and by the bench digest rows above;
#   - `certainty analyze --json` on the same workload emits the
#     decomposition certificate (ANL401) and the weak-acyclicity
#     verdict; the JSON is kept as a CI artifact
#     (_build/decomp-analysis.json).
#
# CI runs this after the build; run it locally with:
#
#   dune build && scripts/check-decomp.sh
set -eu
cd "$(dirname "$0")/.."

CERTAINTY=(dune exec --no-build -- certainty)
OUT="${DECOMP_BENCH_OUT:-BENCH_decomp_smoke.json}"
ANALYSIS_OUT="${DECOMP_ANALYSIS_OUT:-_build/decomp-analysis.json}"
MIN_SPEEDUP="${DECOMP_MIN_SPEEDUP:-5}"

dune build bin/certainty_cli.exe bench/main.exe

# The two-block workload benched as mu_k_decomposed (bench/main.ml).
SCHEMA="R1(a, b); R2(a, b); S1(a, b); S2(a, b)"
DB="R1 = { ('c1', ~1), ('c2', ~2), ('c3', ~3) }; R2 = { ('c1', ~2), ('c2', ~3) }; S1 = { ('d1', ~4), ('d2', ~5), ('d3', ~6) }; S2 = { ('d1', ~5), ('d2', ~6) }"
QUERY="Q() := R1('c1', 'c1') & !R2('c2', 'c2') & S1('d1', 'd1') & !S2('d2', 'd2')"

echo "== bench identity smoke (includes mu_k_decomposed digest gate) =="
dune exec --no-build bench/main.exe -- --parallel --smoke --out "$OUT"

echo "== mu_k_decomposed row: identical + speedup >= $MIN_SPEEDUP =="
awk -v min="$MIN_SPEEDUP" '
  /"name": "mu_k_decomposed"/ { in_row = 1 }
  in_row && /"identical": false/ {
    print "FATAL: mu_k_decomposed digests differ" > "/dev/stderr"; exit 1 }
  in_row && /"engine": "decomp"/ {
    if (match($0, /"speedup_vs_baseline": [0-9.]+/)) {
      s = substr($0, RSTART + 23, RLENGTH - 23) + 0
      rows++
      if (s < min) {
        printf "FATAL: decomp row speedup %.3f < %d\n%s\n", s, min, $0 \
          > "/dev/stderr"
        exit 1
      }
    }
  }
  in_row && /^    \}/ { in_row = 0 }
  END {
    if (rows == 0) {
      print "FATAL: no decomp-engine rows in mu_k_decomposed" > "/dev/stderr"
      exit 1
    }
    printf "  ok: %d decomp rows, all speedups >= %d\n", rows, min
  }' "$OUT"

echo "== CLI reports the decomposition (ANL401) =="
TMP="${TMPDIR:-/tmp}/certainty-decomp-$$"
mkdir -p "$TMP"
trap 'rm -rf "$TMP"' EXIT
"${CERTAINTY[@]}" measure -s "$SCHEMA" -d "$DB" -q "$QUERY" -t "()" \
  --ks 0,2,3,5 > "$TMP/decomp.out"
grep -q "ANL401" "$TMP/decomp.out" || {
  echo "FATAL: measure did not report the decomposition (ANL401)" >&2
  cat "$TMP/decomp.out" >&2
  exit 1
}
echo "  ok: decomposition line present"

echo "== analyze --json emits the decomposition certificate =="
"${CERTAINTY[@]}" analyze -s "$SCHEMA" -d "$DB" -q "$QUERY" -t "()" \
  -c "ind R2[1] <= R1[1]" --json > "$ANALYSIS_OUT"
grep -q '"ANL401"' "$ANALYSIS_OUT" || {
  echo "FATAL: analyze --json has no ANL401 decomposition certificate" >&2
  cat "$ANALYSIS_OUT" >&2
  exit 1
}
grep -q '"decomp"' "$ANALYSIS_OUT" || {
  echo "FATAL: analyze --json has no decomp object" >&2; exit 1; }
grep -q '"wacyclic"' "$ANALYSIS_OUT" || {
  echo "FATAL: analyze --json has no weak-acyclicity verdict" >&2; exit 1; }
echo "  ok: certificate saved to $ANALYSIS_OUT"

echo "decomp gate OK"

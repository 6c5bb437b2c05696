#!/usr/bin/env bash
# Parallel-scaling gate: certify that multicore fan-out stays correct
# and keeps paying.
#
# What must hold for this script to exit 0:
#   - `bench --parallel --smoke` passes (the bench itself FATALs if
#     any engine/jobs/cache variant's digest differs from the naive
#     reference, or if a µ^k brute-force row sweeps ≠ k^3 valuations);
#   - no kernel reports "identical": false in the emitted JSON
#     (belt-and-braces re-check of the bench's own gate);
#   - `bench --concurrent` gets no wrong answer: 8 threads send 64 000
#     measure/conditional/certain requests with jobs 4 to one session
#     store, and every response must be byte-identical to the jobs=1
#     reference (no compiled kernel's scratch is shared between
#     requests in flight);
#   - on a multicore runner (recommended_domain_count ≥ 2), every
#     jobs ∈ {2, 4} row reports speedup_vs_jobs1 ≥ PARALLEL_MIN_SPEEDUP
#     (default 1.0): parallel fan-out must never lose to the same
#     engine single-threaded.
#
# On a single-core runner the pool has zero workers, so jobs=2/4 run
# the identical sequential schedule and their vs_jobs1 ratios are pure
# timer noise — the speedup clause is skipped (with a notice); the
# identity clause always applies.
#
# CI runs this after the build; run it locally with:
#
#   dune build && scripts/check-parallel.sh
set -eu
cd "$(dirname "$0")/.."

OUT="${PARALLEL_BENCH_OUT:-BENCH_parallel_smoke.json}"
MIN_SPEEDUP="${PARALLEL_MIN_SPEEDUP:-1.0}"

dune build bench/main.exe

echo "== bench identity smoke (digest gate vs naive reference) =="
dune exec --no-build bench/main.exe -- --parallel --smoke --out "$OUT"

echo "== concurrent requests on one session store vs the jobs=1 reference =="
dune exec --no-build bench/main.exe -- --concurrent

echo "== parallel rows: identical + jobs=2/4 speedup_vs_jobs1 >= $MIN_SPEEDUP =="
awk -v min="$MIN_SPEEDUP" '
  /"recommended_domain_count":/ {
    if (match($0, /[0-9]+/)) domains = substr($0, RSTART, RLENGTH) + 0
  }
  /"name":/ { kernel = $0; sub(/^.*"name": "/, "", kernel); sub(/".*$/, "", kernel) }
  /"identical": false/ {
    printf "FATAL: %s: digests differ from the naive reference\n", kernel \
      > "/dev/stderr"
    bad = 1
  }
  /"jobs": [24],/ {
    if (match($0, /"speedup_vs_jobs1": [0-9.]+/)) {
      s = substr($0, RSTART + 20, RLENGTH - 20) + 0
      jrows++
      if (domains >= 2 && s < min) {
        printf "FATAL: %s: speedup_vs_jobs1 %.3f < %.3f\n%s\n", \
          kernel, s, min, $0 > "/dev/stderr"
        bad = 1
      }
    }
  }
  END {
    if (jrows == 0) {
      print "FATAL: no jobs=2/4 rows in the bench output" > "/dev/stderr"
      exit 1
    }
    if (bad) exit 1
    if (domains < 2)
      printf "notice: single-core runner (recommended_domain_count=%d); \
speedup clause skipped, identity clause enforced on %d parallel rows\n", \
        domains, jrows
    else
      printf "parallel gate: %d jobs=2/4 rows >= %.3fx, all digests \
identical\n", jrows, min
  }
' "$OUT"

echo "check-parallel: OK"

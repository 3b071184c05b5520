#!/usr/bin/env bash
# bench.sh — PR-level benchmark snapshot.
#
# Runs the width-sweep microbenchmarks (including the width-1 zero-alloc
# entry), the engine-level BenchmarkPageRank, the serving hot-path,
# load-shed and cached-query microbenchmarks (cmd/mixenserve), the
# sparse-frontier study, the skew-aware reordering + block auto-tuning study
# (mixenbench -experiment reorder), the mmap cold-start study (mixenbench
# -experiment coldstart), and the serving-cache zipf replay study
# (mixenbench -experiment serve — cache-on/off p50/p99/QPS/hit-rate with
# a bit-identity hard gate), then bundles everything into BENCH_PR10.json.
# When a committed BENCH_PR9.bench.txt exists and benchstat is installed,
# it also emits a benchstat comparison against that baseline.
# Artifacts:
#   BENCH_PR10.bench.txt raw `go test -bench` lines; feed two of these to
#                        benchstat to compare commits
#   BENCH_PR10.json      parsed numbers + the raw lines, for dashboards
#
# Usage: scripts/bench.sh [outdir]   (default: repo root)
#
# BENCH_SMOKE=1 shrinks everything (count=3, shrink=32, fewer graphs) for
# a CI smoke pass that still exercises every study and gate end to end.
set -euo pipefail

cd "$(dirname "$0")/.."
outdir="${1:-.}"
mkdir -p "$outdir"

if [ "${BENCH_SMOKE:-0}" = "1" ]; then
  count="${BENCH_COUNT:-3}"
  shrink="${BENCH_SHRINK:-32}"
  graphs="${BENCH_GRAPHS:-wiki}"
  reorder_graphs="${BENCH_REORDER_GRAPHS:-wiki}"
  coldstart_graphs="${BENCH_COLDSTART_GRAPHS:-wiki}"
else
  count="${BENCH_COUNT:-7}"
  shrink="${BENCH_SHRINK:-8}"
  graphs="${BENCH_GRAPHS:-weibo,wiki,rmat}"
  reorder_graphs="${BENCH_REORDER_GRAPHS:-weibo,wiki,road}"
  coldstart_graphs="${BENCH_COLDSTART_GRAPHS:-wiki,weibo,rmat}"
fi
benchtxt="$outdir/BENCH_PR10.bench.txt"
json="$outdir/BENCH_PR10.json"

echo ">> microbenchmarks: main-phase width sweep (count=$count)" >&2
go test -run=NONE -bench 'BenchmarkMainPhaseWidth' -benchmem -count="$count" \
    ./internal/core/ | tee "$benchtxt" >&2

echo ">> microbenchmarks: engine-level PageRank (count=$count)" >&2
go test -run=NONE -bench 'BenchmarkPageRank' -benchmem -count="$count" \
    . | tee -a "$benchtxt" >&2

echo ">> microbenchmarks: serving hot path + load shed + cached query (count=$count)" >&2
go test -run=NONE -bench 'BenchmarkServe' -benchmem -count="$count" \
    ./cmd/mixenserve/ | tee -a "$benchtxt" >&2

echo ">> sparse-frontier study (mixenbench -experiment frontier)" >&2
fronttxt="$(mktemp)"
reordertxt="$(mktemp)"
coldtxt="$(mktemp)"
servetxt="$(mktemp)"
benchstattxt="$(mktemp)"
trap 'rm -f "$fronttxt" "$reordertxt" "$coldtxt" "$servetxt" "$benchstattxt"' EXIT
go run ./cmd/mixenbench -experiment frontier -graphs "$graphs" \
    -shrink "$shrink" | tee "$fronttxt" >&2

echo ">> reordering + auto-tuning study (mixenbench -experiment reorder)" >&2
go run ./cmd/mixenbench -experiment reorder -graphs "$reorder_graphs" \
    -shrink "$shrink" | tee "$reordertxt" >&2

echo ">> mmap cold-start study (mixenbench -experiment coldstart)" >&2
go run ./cmd/mixenbench -experiment coldstart -graphs "$coldstart_graphs" \
    -shrink "$shrink" | tee "$coldtxt" >&2

echo ">> serving-cache zipf replay study (mixenbench -experiment serve)" >&2
go run ./cmd/mixenbench -experiment serve -shrink "$shrink" | tee "$servetxt" >&2

# benchstat vs the committed PR9 baseline (shared width-sweep, PageRank and
# serving lines; BenchmarkServeCachedQuery is new in PR10 and simply has no
# baseline column). Informational — missing benchstat or a missing baseline
# must not fail the snapshot.
benchstat_ok=false
if [ -f BENCH_PR9.bench.txt ] && command -v benchstat >/dev/null 2>&1; then
  if benchstat BENCH_PR9.bench.txt "$benchtxt" > "$benchstattxt" 2>&1; then
    benchstat_ok=true
    echo ">> benchstat vs BENCH_PR9.bench.txt" >&2
    cat "$benchstattxt" >&2
  fi
else
  echo ">> benchstat or BENCH_PR9.bench.txt unavailable; skipping comparison" >&2
fi

{
  echo '{'
  echo '  "bench": "PR10 serving-layer result cache",'
  echo "  \"go\": \"$(go env GOVERSION)\","
  echo "  \"commit\": \"$(git rev-parse --short HEAD 2>/dev/null || echo unknown)\","

  # Parsed go-bench lines: name, ns/op, B/op, allocs/op, plus custom
  # metrics (p99-ns from BenchmarkServeCachedQuery).
  echo '  "microbench": ['
  awk '/^Benchmark/ {
    line = $0
    printf "%s    {\"name\": \"%s\", \"iters\": %s, \"ns_per_op\": %s", sep, $1, $2, $3
    for (i = 4; i < NF; i++) {
      if ($(i+1) == "B/op")      printf ", \"bytes_per_op\": %s", $i
      if ($(i+1) == "allocs/op") printf ", \"allocs_per_op\": %s", $i
      if ($(i+1) == "p99-ns")    printf ", \"p99_ns\": %s", $i
    }
    printf "}"
    sep = ",\n"
  } END { print "" }' "$benchtxt"
  echo '  ],'

  # Parsed frontier-study rows:
  # Graph iter dense_ms sparse_ms speedup entries entries(sp) last-iter 1st-sp sp-rows identical.
  echo '  "frontier_study": ['
  awk '$2 ~ /^[0-9]+$/ && $1 != "Graph" && NF >= 11 {
    sp = $5; sub(/x$/, "", sp)
    lf = $8; sub(/%$/, "", lf)
    printf "%s    {\"graph\": \"%s\", \"iterations\": %s, \"dense_ms\": %s, \"sparse_ms\": %s, \"speedup\": %s, \"dense_entries\": %s, \"sparse_entries\": %s, \"last_iter_entry_pct\": %s, \"first_sparse_iter\": %s, \"sparse_row_iters\": %s, \"identical\": %s}", \
      sep, $1, $2, $3, $4, sp, $6, $7, lf, $9, $10, $11
    sep = ",\n"
  } END { print "" }' "$fronttxt"
  echo '  ],'

  # Parsed reorder-study rows:
  # Graph strategy main_s/it prep_s reorder_s bandwidth avg_span llc% MB ident.
  echo '  "reorder_study": ['
  awk '$2 ~ /^(original|degree|random|hubsort|hubcluster|dbg)$/ && NF == 10 {
    printf "%s    {\"graph\": \"%s\", \"strategy\": \"%s\", \"main_sec_per_iter\": %s, \"prep_sec\": %s, \"reorder_sec\": %s, \"bandwidth\": %s, \"avg_span\": %s, \"llc_miss_pct\": %s, \"traffic_mb\": %s, \"identical\": %s}", \
      sep, $1, $2, $3, $4, $5, $6, $7, $8, $9, $10
    sep = ",\n"
  } END { print "" }' "$reordertxt"
  echo '  ],'

  # Parsed autotune-study rows:
  # Graph source side main_s/it tune_s [*best].
  echo '  "autotune_study": ['
  awk '$2 ~ /^(sweep|measured|predicted|default)$/ && $3 ~ /^[0-9]+$/ && NF >= 5 {
    best = (NF >= 6 && $6 == "*") ? "true" : "false"
    printf "%s    {\"graph\": \"%s\", \"source\": \"%s\", \"side\": %s, \"main_sec_per_iter\": %s, \"tune_sec\": %s, \"best\": %s}", \
      sep, $1, $2, $3, $4, $5, best
    sep = ",\n"
  } END { print "" }' "$reordertxt"
  echo '  ],'

  # Parsed coldstart-study rows:
  # Graph nodes edges build_ms mmap_ms speedup file_MB build_heap mmap_heap identical.
  echo '  "coldstart_study": ['
  awk '$2 ~ /^[0-9]+$/ && $1 != "Graph" && NF == 10 {
    sp = $6; sub(/x$/, "", sp)
    bh = $8; sub(/M$/, "", bh)
    mh = $9; sub(/M$/, "", mh)
    printf "%s    {\"graph\": \"%s\", \"nodes\": %s, \"edges\": %s, \"build_ms\": %s, \"mmap_ms\": %s, \"speedup\": %s, \"file_mb\": %s, \"build_heap_mb\": %s, \"mmap_heap_mb\": %s, \"identical\": %s}", \
      sep, $1, $2, $3, $4, $5, sp, $7, bh, mh, $10
    sep = ",\n"
  } END { print "" }' "$coldtxt"
  echo '  ],'

  # Parsed serve-study rows:
  # Skew cache queries hotset warm-hit% hit% p50_ms p99_ms qps identical.
  echo '  "serve_study": ['
  awk '$2 ~ /^(on|off)$/ && NF == 10 {
    printf "%s    {\"skew\": %s, \"cache\": \"%s\", \"queries\": %s, \"hot_set\": %s, \"warm_hit_pct\": %s, \"hit_pct\": %s, \"p50_ms\": %s, \"p99_ms\": %s, \"qps\": %s, \"identical\": %s}", \
      sep, $1, $2, $3, $4, $5, $6, $7, $8, $9, $10
    sep = ",\n"
  } END { print "" }' "$servetxt"
  echo '  ],'

  # benchstat output vs the committed PR9 baseline, when available.
  if $benchstat_ok; then
    echo '  "benchstat_vs_pr9": ['
    awk 'NF {
      gsub(/\\/, "\\\\"); gsub(/"/, "\\\""); gsub(/\t/, " ")
      printf "%s    \"%s\"", sep, $0
      sep = ",\n"
    } END { print "" }' "$benchstattxt"
    echo '  ],'
  fi

  # Raw bench lines, verbatim, for benchstat-style tooling downstream.
  echo '  "raw_bench": ['
  awk '/^Benchmark/ {
    gsub(/\\/, "\\\\"); gsub(/"/, "\\\""); gsub(/\t/, " ")
    printf "%s    \"%s\"", sep, $0
    sep = ",\n"
  } END { print "" }' "$benchtxt"
  echo '  ]'
  echo '}'
} > "$json"

echo ">> wrote $benchtxt and $json" >&2

#!/usr/bin/env bash
# bench.sh — run the perf-tracking benchmarks and record the results in
# BENCH_<date>.json at the repository root.
#
# Usage:
#   scripts/bench.sh                 # default: -benchtime=2x
#   BENCHTIME=10x scripts/bench.sh   # longer, steadier numbers
#   BENCH_FILTER='BenchmarkEngineThroughput$' scripts/bench.sh
#   BENCH_OUT=bench_ci.json scripts/bench.sh   # write elsewhere (the CI
#                                  bench-gate uses this so the committed
#                                  BENCH_<date>.json baseline is never
#                                  overwritten by a CI run)
#
# The tracked benchmarks are the ones named in the perf methodology
# (README.md): BenchmarkEngineThroughput (single-core inference hot
# path; watch ns/op and allocs/op), BenchmarkRunWindowParallel
# (day-sharded replay; compare workers=1 against the multi-worker rows),
# BenchmarkRunStreaming (the same window through Detector.Run with a
# live subscriber; must match BenchmarkRunWindowParallel row for row),
# and the event-store rows: BenchmarkStoreIngest (append path: encode +
# checksummed log write + index insert, per event),
# BenchmarkStoreIngestGroupCommit (the same append path under the
# group-commit fsync policy, every=64 — the price of bounded crash
# loss), BenchmarkStoreQueryLPM (indexed longest-prefix-match point
# queries — must stay in the microsecond range, with no replay in the
# query path), BenchmarkStoreIngestInstrumented (the ingest path with
# the full telemetry seam attached — must stay within 1.15x of bare
# BenchmarkStoreIngest, proving observability is near-free),
# BenchmarkQueryEnriched (the same LPM point queries with legitimacy
# enrichment on: indexed covering-ROA validation plus dictionary lookups
# per returned event — must stay within 3x BenchmarkStoreQueryLPM),
# BenchmarkCompactTiered (one tiered compaction pass: run merge,
# marker-led atomic commit, in-place index swap), the alerting wall:
# BenchmarkRuleMatch (a day of live inference with a 100-rule alerting
# hub on the event-close hook, detection-time enrichment included) vs
# BenchmarkRuleMatchBaseline (the bare engine) — the hub must stay
# within 1.3x — BenchmarkFederatedQueryLPM (the same LPM point queries
# through a FederatedStore over three local prefix-split shards: fan
# -out, per-shard indexed lookups, k-way merge on RecordKey — must stay
# within 5x BenchmarkStoreQueryLPM, the federation-overhead wall) —
# and the memory-speed read-path walls:
# BenchmarkStoreColdOpen (sidecar-backed open, zero sealed-segment
# decodes) vs BenchmarkStoreFullOpen (classic decode-everything open) —
# cold must stay under 0.25x full — and BenchmarkFigure4Materialized
# (O(days) answers from the refcounted per-day aggregates) vs
# BenchmarkFigure4Scan (the reference full scan) — materialized must
# stay under 0.1x scan — plus BenchmarkRecordLinesScan (a full NDJSON
# scan through StoreBackend, the shard's per-line projection and
# encoding), BenchmarkRegistryValidate (internal/rpki: one RPKI origin
# validation, a covering walk of the prefix trie) and BenchmarkOriginOf
# (internal/topology: one origin lookup, a longest-prefix match of the
# same trie); these three are tracked, not gated.
#
# CI gates BenchmarkStoreIngest, BenchmarkStoreIngestGroupCommit,
# BenchmarkStoreQueryLPM and BenchmarkQueryEnriched against the
# committed baseline, plus the QueryEnriched:StoreQueryLPM,
# RuleMatch:RuleMatchBaseline, FederatedQueryLPM:StoreQueryLPM,
# StoreColdOpen:StoreFullOpen and Figure4Materialized:Figure4Scan
# cross-row walls, via scripts/bench_compare.go (see the bench-gate
# job in .github/workflows/ci.yml).
set -euo pipefail

cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-2x}"
FILTER="${BENCH_FILTER:-BenchmarkEngineThroughput\$|BenchmarkRunWindowParallel|BenchmarkRunStreaming|BenchmarkStoreIngest\$|BenchmarkStoreIngestInstrumented\$|BenchmarkStoreIngestGroupCommit\$|BenchmarkStoreQueryLPM\$|BenchmarkQueryEnriched\$|BenchmarkFederatedQueryLPM\$|BenchmarkCompactTiered\$|BenchmarkRuleMatch\$|BenchmarkRuleMatchBaseline\$|BenchmarkStoreColdOpen\$|BenchmarkStoreFullOpen\$|BenchmarkFigure4Scan\$|BenchmarkFigure4Materialized\$|BenchmarkRecordLinesScan\$|BenchmarkRegistryValidate\$|BenchmarkOriginOf\$}"
OUT="${BENCH_OUT:-BENCH_$(date +%Y%m%d).json}"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

go test -run '^$' -bench "$FILTER" -benchmem -benchtime="$BENCHTIME" . ./internal/rpki ./internal/topology | tee "$RAW"

{
  printf '{\n'
  printf '  "date": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
  printf '  "go": "%s",\n' "$(go version | sed 's/"/\\"/g')"
  printf '  "cpus": %s,\n' "$(nproc)"
  printf '  "benchtime": "%s",\n' "$BENCHTIME"
  if [ -n "${BENCH_NOTES:-}" ]; then
    printf '  "notes": "%s",\n' "$(printf '%s' "$BENCH_NOTES" | sed 's/"/\\"/g')"
  fi
  printf '  "benchmarks": [\n'
  awk '
    /^Benchmark/ {
      name = $1; iters = $2; ns = ""; bytes = ""; allocs = ""
      for (i = 3; i <= NF; i++) {
        if ($(i) == "ns/op")     ns = $(i-1)
        if ($(i) == "B/op")      bytes = $(i-1)
        if ($(i) == "allocs/op") allocs = $(i-1)
      }
      if (ns == "") next
      if (n++) printf ",\n"
      printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", name, iters, ns
      if (bytes != "")  printf ", \"bytes_per_op\": %s", bytes
      if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
      printf "}"
    }
    END { if (n) printf "\n" }
  ' "$RAW"
  printf '  ]\n'
  printf '}\n'
} > "$OUT"

echo "wrote $OUT"

#!/usr/bin/env bash
# Kernel + runtime benchmark harness. Runs the tensor microbenchmarks
# and the 1F1B runtime epoch benchmark, writes the raw `go test -bench`
# output to BENCH_kernels.txt (the format benchstat consumes — keep one
# file per PR and diff with `benchstat old.txt new.txt`), and distills
# the same numbers into BENCH_kernels.json for dashboards and the
# perf-trajectory record in CHANGES.md.
#
# Usage: scripts/bench.sh [output-dir]
#   BENCHTIME=2s COUNT=5 scripts/bench.sh   # longer runs for benchstat
set -euo pipefail
cd "$(dirname "$0")/.."

OUT_DIR="${1:-.}"
BENCHTIME="${BENCHTIME:-1s}"
COUNT="${COUNT:-1}"
PATTERN='^(BenchmarkTensorMatMul128|BenchmarkTensorMatMulParallel|BenchmarkConvForwardParallel|BenchmarkConvInferImages|BenchmarkTensorIm2Col|BenchmarkDenseForwardBackward|BenchmarkLSTMForwardBackward|BenchmarkPipelineRuntimeEpoch|BenchmarkGradSync)$'

TXT="$OUT_DIR/BENCH_kernels.txt"
JSON="$OUT_DIR/BENCH_kernels.json"

go test -run '^$' -bench "$PATTERN" -benchmem \
  -benchtime "$BENCHTIME" -count "$COUNT" . | tee "$TXT"

# Serving benchmarks: batch-size-1 baseline vs dynamic batching;
# batch1/dynamic ns-per-op is the batching speedup at saturation. The
# fleet benchmarks replicate a device-bound pipeline 1/2/4 ways;
# replicas1/replicas2 ns-per-op is the data-parallel serving speedup
# (fleet_speedup in the JSON).
SERVE_TXT="$OUT_DIR/BENCH_serve.txt"
SERVE_JSON="$OUT_DIR/BENCH_serve.json"

go test -run '^$' -bench '^BenchmarkServe(Batch1|Dynamic)$|^BenchmarkFleetReplicas[124]$' -benchmem \
  -benchtime "$BENCHTIME" -count "$COUNT" . | tee "$SERVE_TXT"

# Distill "BenchmarkName-P  N  ns/op  B/op  allocs/op" lines to JSON.
awk -v parallelism="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)" '
BEGIN { print "{"; printf "  \"ncpu\": %d,\n  \"benchmarks\": [", parallelism; first = 1 }
/^Benchmark/ && / ns\/op/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    ns = ""; bytes = "null"; allocs = "null"
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")     ns = $(i-1)
        if ($i == "B/op")      bytes = $(i-1)
        if ($i == "allocs/op") allocs = $(i-1)
    }
    if (ns == "") next
    if (!first) printf ","
    first = 0
    printf "\n    {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", name, ns, bytes, allocs
}
END { print "\n  ]\n}" }
' "$TXT" > "$JSON"

# Serve JSON adds the headline number: dynamic-batching speedup over
# the batch-size-1 baseline (ratio of mean ns/op), plus per-benchmark
# allocs/op and the median request latency (p50_us).
awk -v parallelism="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)" '
/^Benchmark/ && / ns\/op/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    ns = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")     ns = $(i-1)
        if ($i == "B/op")      { bsum[name] += $(i-1); bcnt[name]++ }
        if ($i == "allocs/op") { asum[name] += $(i-1); acnt[name]++ }
        if ($i == "p50_us")    { psum[name] += $(i-1); pcnt[name]++ }
        if ($i == "p99_us")    { p9sum[name] += $(i-1); p9cnt[name]++ }
    }
    if (ns == "") next
    sum[name] += ns; cnt[name]++
}
function field(s, c, name) { return (c[name] ? sprintf("%.1f", s[name] / c[name]) : "null") }
END {
    print "{"
    printf "  \"ncpu\": %d,\n", parallelism
    printf "  \"benchmarks\": ["
    first = 1
    for (name in sum) {
        if (!first) printf ","
        first = 0
        printf "\n    {\"name\": \"%s\", \"ns_per_op\": %.1f, \"bytes_per_op\": %s, \"allocs_per_op\": %s, \"p50_us\": %s, \"p99_us\": %s}", \
            name, sum[name] / cnt[name], field(bsum, bcnt, name), field(asum, acnt, name), field(psum, pcnt, name), field(p9sum, p9cnt, name)
    }
    print "\n  ],"
    b1 = sum["BenchmarkServeBatch1"] / cnt["BenchmarkServeBatch1"]
    dyn = sum["BenchmarkServeDynamic"] / cnt["BenchmarkServeDynamic"]
    printf "  \"dynamic_batching_speedup\": %.2f", b1 / dyn
    # Fleet scaling: req/s and p99 at each replica count, plus the
    # 2-replica speedup over 1 (the data-parallel serving headline).
    if (cnt["BenchmarkFleetReplicas1"] && cnt["BenchmarkFleetReplicas2"]) {
        printf ",\n  \"fleet\": ["
        ffirst = 1
        for (r = 1; r <= 4; r *= 2) {
            name = "BenchmarkFleetReplicas" r
            if (!cnt[name]) continue
            if (!ffirst) printf ","
            ffirst = 0
            printf "\n    {\"replicas\": %d, \"req_per_s\": %.1f, \"p99_us\": %s}", \
                r, 1e9 / (sum[name] / cnt[name]), field(p9sum, p9cnt, name)
        }
        printf "\n  ],\n  \"fleet_speedup\": %.2f", \
            (sum["BenchmarkFleetReplicas1"] / cnt["BenchmarkFleetReplicas1"]) / \
            (sum["BenchmarkFleetReplicas2"] / cnt["BenchmarkFleetReplicas2"])
    }
    print "\n}"
}
' "$SERVE_TXT" > "$SERVE_JSON"

echo "wrote $TXT, $JSON, $SERVE_TXT and $SERVE_JSON"

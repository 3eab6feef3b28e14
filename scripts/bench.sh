#!/bin/sh
# Per-phase pipeline benchmark runner. Runs the Benchmark{Tokenize,Tidy,
# BuildTree,Subtree,Separator,ExtractE2E} suite over the small/medium/large
# bench pages, plus the serving layer's BenchmarkServeExtract{Hot,Longtail}
# and BenchmarkServeRecordsHot (a cached-rule replay, an unseen site's
# discovery, and a replay projected to records, through the whole HTTP
# handler), and the cluster's BenchmarkClusterHop (a coordinator
# proxying a hot /extract to one warm peer over loopback), and emits
# BENCH_pipeline.json with ns/op, B/op and allocs/op per benchmark, so
# successive changes can diff the performance trajectory.
#
#   ./scripts/bench.sh                # run, refresh "current" in the JSON
#   ./scripts/bench.sh -rebaseline    # also overwrite the stored baseline
#
# The baseline lives in scripts/bench_baseline.json (committed); the emitted
# BENCH_pipeline.json carries both baseline and current so the delta is
# visible in one file. BENCH_COUNT (default 6) repetitions are taken and the
# median of each figure is kept; BENCH_TIME (default 1s) sets -benchtime.
# B/op and allocs/op repeat from run to run on any host; ns/op moves with
# the host and its load, so only ns/op taken on one host in one sitting
# compare.
set -eu

cd "$(dirname "$0")/.."

REBASELINE=0
[ "${1:-}" = "-rebaseline" ] && REBASELINE=1

COUNT=${BENCH_COUNT:-6}
BENCHTIME=${BENCH_TIME:-1s}
BASELINE=scripts/bench_baseline.json
OUT=BENCH_pipeline.json
PIPELINE='^Benchmark(Tokenize|Tidy|BuildTree|Subtree|Separator|ExtractE2E)$'
SERVE='^BenchmarkServe(ExtractHot|ExtractLongtail|RecordsHot)$'
CLUSTER='^BenchmarkClusterHop$'

raw=$(go test -run '^$' -bench "$PIPELINE" -benchmem -benchtime "$BENCHTIME" -count "$COUNT" .
    go test -run '^$' -bench "$SERVE" -benchmem -benchtime "$BENCHTIME" -count "$COUNT" ./internal/serve
    go test -run '^$' -bench "$CLUSTER" -benchmem -benchtime "$BENCHTIME" -count "$COUNT" ./internal/cluster)

printf '%s\n' "$raw" >&2

# Fold repeated runs to the median of each figure (the mean of the two
# middle runs for an even count) and print one JSON object body.
current=$(printf '%s\n' "$raw" | awk '
function median(list,    v, n, i, j, t) {
    n = split(list, v, " ")
    for (i = 2; i <= n; i++)
        for (j = i; j > 1 && v[j-1] + 0 > v[j] + 0; j--) {
            t = v[j]; v[j] = v[j-1]; v[j-1] = t
        }
    if (n % 2) return v[(n + 1) / 2]
    return (v[n / 2] + v[n / 2 + 1]) / 2
}
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns = bop = aop = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")     ns  = $(i-1)
        if ($i == "B/op")      bop = $(i-1)
        if ($i == "allocs/op") aop = $(i-1)
    }
    if (ns == "") next
    if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
    nsl[name] = nsl[name] " " ns
    bl[name] = bl[name] " " bop
    al[name] = al[name] " " aop
}
END {
    for (i = 1; i <= n; i++) {
        name = order[i]
        printf "    \"%s\": {\"ns_op\": %.0f, \"b_op\": %.0f, \"allocs_op\": %.0f}%s\n", \
            name, median(nsl[name]), median(bl[name]), median(al[name]), (i < n ? "," : "")
    }
}')

if [ "$REBASELINE" = 1 ] || [ ! -f "$BASELINE" ]; then
    {
        echo '{'
        printf '%s\n' "$current"
        echo '}'
    } > "$BASELINE"
    echo "==> baseline written to $BASELINE" >&2
fi

# Baseline object body: strip the outer braces of the stored file.
baseline=$(sed '1d;$d' "$BASELINE")

{
    echo '{'
    echo "  \"suite\": \"go test -bench $PIPELINE -benchmem . && go test -bench $SERVE -benchmem ./internal/serve && go test -bench $CLUSTER -benchmem ./internal/cluster\","
    echo "  \"benchtime\": \"$BENCHTIME\","
    echo "  \"count\": $COUNT,"
    echo '  "fold": "median of the runs, each figure on its own",'
    echo '  "note": "b_op and allocs_op repeat exactly on any host and compare with every earlier refresh. ns_op depends on the host and its load: it compares only with ns_op taken on the same host in the same sitting, not with earlier refreshes of this file.",'
    echo '  "baseline": {'
    printf '%s\n' "$baseline" | sed 's/^    /      /'
    echo '  },'
    echo '  "current": {'
    printf '%s\n' "$current" | sed 's/^    /      /'
    echo '  }'
    echo '}'
} > "$OUT"

echo "==> wrote $OUT" >&2

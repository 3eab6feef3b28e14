#!/bin/sh
# Pre-merge check: formatting, vet, build, and the full test suite under
# the race detector. Run from the repository root:
#
#   ./scripts/ci.sh
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt -s"
unformatted=$(gofmt -s -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt -s needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

# The serving benchmark is a nested module (perfbench/go.mod), so the
# root ./... patterns skip it, yet it links against the serve, farm and
# cluster APIs. Vetting it here keeps an API change from breaking the
# benchmark build unnoticed.
echo "==> go vet ./... (perfbench module)"
(cd perfbench && GOFLAGS= GOWORK=off go vet ./...)

# Project invariants: the governor, observability, error-wrapping,
# context, purity, and concurrency/resource-hygiene contracts are
# enforced mechanically (DESIGN.md §11, §16). Deliberate exceptions
# live in lint.baseline; the second run fails if any baseline entry
# names code that no longer exists. OMINILINT=0 skips (e.g. while
# iterating on a known-red tree).
OMINILINT="${OMINILINT:-1}"
if [ "$OMINILINT" != "0" ]; then
    echo "==> ominilint ./..."
    go run ./cmd/ominilint -baseline=lint.baseline ./...
    echo "==> ominilint stale-baseline check"
    go run ./cmd/ominilint -only=baseline -baseline=lint.baseline ./...
fi

echo "==> go build ./..."
go build ./...

echo "==> go test -race ./..."
go test -race ./...

# Allocation budgets at a fast GC pace: TestAllocBudgets pauses the
# collector around each count, so every entry must read the same count
# at any GOGC. The race run above skips it (its file builds only
# without -race); a plain `go test ./...` runs it at the default pace,
# and this run gates the pace independence itself.
echo "==> allocation budgets under GOGC=25"
GOGC=25 go test -run TestAllocBudgets -count=1 .

# Targeted race pass over the distributed layer: the packages whose
# goroutines, locks, and channels the concurrency analyzers reason
# about, and core and serve, which a pooled page crosses from request
# to request, get an extra uncached -race run under a hard time budget,
# so a schedule-dependent regression cannot hide behind the test cache.
# RACE_BUDGET=0 skips.
RACE_BUDGET="${RACE_BUDGET:-240s}"
if [ "$RACE_BUDGET" != "0" ]; then
    echo "==> distributed-layer race pass (-count=1, ${RACE_BUDGET} budget)"
    go test -race -count=1 -timeout "$RACE_BUDGET" \
        ./internal/farm/ ./internal/ruledist/ ./internal/cluster/ ./internal/obs/ \
        ./internal/core/ ./internal/serve/
fi

# Batch anti-flake gate: a batch learns each site once through the
# farm's singleflight, so its results may not depend on how the workers
# interleave. The batch tests live beside core's dispatch loop and
# drive it through farm.Farm.ExtractBatch. Fifty uncached runs of each
# under -race catch a schedule-dependent regression (a second learn of
# a site, a flight a panicking leader never retires) that one run
# would pass by luck.
echo "==> batch anti-flake gate (-race -count=50)"
go test -race -count=50 -run '^TestExtractBatch' ./internal/core/

# Cluster mode: the kill-a-node chaos proof must stay race-clean — a
# 200-page batch (fetched through connection resets and slow-drip
# responses) across a three-node cluster with one node killed mid-batch
# completes 100% in input order, with failover and ejection recorded
# (DESIGN.md §12).
echo "==> cluster kill-a-node chaos under -race"
go test -race -run '^TestKillANodeChaosProof$' ./internal/cluster/

# Warm failover: the kill extends to a restart. In a three-node cluster
# that has learned 8 sites and replicated every rule, killing the owner
# of the most sites must leave every remapped site served fast-path by
# its new owner with zero relearns; the killed node must then restart
# into a warm cache — rules pulled from ring peers before /readyz
# flips, zero learns after re-admission (DESIGN.md §15).
echo "==> warm-failover restart chaos under -race"
go test -race -run '^TestWarmFailoverChaosProof$' ./internal/ruledist/

# Resource governor: every adversarial page in testdata/pathological must
# extract or fail fast with a typed limit/deadline error under the race
# detector — no hangs, panics, or stack overflows (DESIGN.md §10).
echo "==> pathological corpus under -race"
go test -race -run Pathological ./...

# Fuzz smoke: each target runs briefly so a lexer or builder regression that
# panics on malformed input fails the merge, without the cost of a long
# campaign. FUZZTIME=0 skips (e.g. on machines without the fuzz cache).
FUZZTIME="${FUZZTIME:-10s}"
if [ "$FUZZTIME" != "0" ]; then
    echo "==> fuzz smoke (${FUZZTIME} per target)"
    go test -run '^$' -fuzz '^FuzzTokenize$' -fuzztime "$FUZZTIME" ./internal/htmlparse/
    go test -run '^$' -fuzz '^FuzzParse$' -fuzztime "$FUZZTIME" ./internal/tagtree/
    go test -run '^$' -fuzz '^FuzzCollapseSpace$' -fuzztime "$FUZZTIME" ./internal/tagtree/
    go test -run '^$' -fuzz '^FuzzPathSignature$' -fuzztime "$FUZZTIME" ./internal/tagtree/
    go test -run '^$' -fuzz '^FuzzPooledParse$' -fuzztime "$FUZZTIME" ./internal/core/
    go test -run '^$' -fuzz '^FuzzSnapshotCodec$' -fuzztime "$FUZZTIME" ./internal/farm/
    go test -run '^$' -fuzz '^FuzzFindNext$' -fuzztime "$FUZZTIME" ./internal/nav/
    go test -run '^$' -fuzz '^FuzzLogLine$' -fuzztime "$FUZZTIME" ./internal/obs/
    go test -run '^$' -fuzz '^FuzzExtractResponse$' -fuzztime "$FUZZTIME" ./internal/serve/
    go test -run '^$' -fuzz '^FuzzRecordsAnswer$' -fuzztime "$FUZZTIME" ./internal/serve/
fi

# Wrapper farm: the fast/slow-path parity suite is the farm's core
# correctness claim — rule replay must be byte-identical to full
# discovery on every golden page, through core and through the farm's
# caching layers, under the race detector (DESIGN.md §13). The full
# `go test -race ./...` above already runs it; this named gate keeps
# the claim visible even if the suite is ever filtered there.
echo "==> fast/slow-path parity under -race"
go test -race -run 'Parity' .

# Bench smoke: one iteration of every benchmark proves the harness still
# compiles and runs; timing is scripts/bench.sh's job.
echo "==> bench smoke (-benchtime=1x)"
go test -run '^$' -bench . -benchtime=1x ./... > /dev/null

# Observability: the telemetry package must stay vet- and race-clean on its
# own (it is imported by every layer), and a real ominiserve process must
# expose non-empty metrics and profiles. OBS_SMOKE=0 skips the server smoke
# (e.g. where binding a loopback port is not allowed).
echo "==> go vet ./internal/obs/..."
go vet ./internal/obs/...
go test -race ./internal/obs/...

OBS_SMOKE="${OBS_SMOKE:-1}"
if [ "$OBS_SMOKE" != "0" ]; then
    echo "==> ominiserve /metricsz + pprof smoke"
    tmpdir=$(mktemp -d)
    trap 'kill "$srv_pid" 2>/dev/null || true; rm -rf "$tmpdir"' EXIT
    go build -o "$tmpdir/ominiserve" ./cmd/ominiserve
    "$tmpdir/ominiserve" -addr 127.0.0.1:0 2> "$tmpdir/serve.log" &
    srv_pid=$!
    # The first log line is JSON with an "addr" field naming the bound port.
    addr=""
    for _ in $(seq 1 50); do
        addr=$(sed -n 's/.*"addr":"\([^"]*\)".*/\1/p' "$tmpdir/serve.log" | head -n 1)
        [ -n "$addr" ] && break
        sleep 0.1
    done
    if [ -z "$addr" ]; then
        echo "ominiserve did not report a listen address" >&2
        cat "$tmpdir/serve.log" >&2
        exit 1
    fi
    metrics=$(curl -sf "http://$addr/metricsz")
    echo "$metrics" | grep -q 'omini_phase_seconds_bucket{phase="tidy"' || {
        echo "/metricsz missing phase histograms:" >&2
        echo "$metrics" | head -n 20 >&2
        exit 1
    }
    echo "$metrics" | grep -q '^serve_panics 0$' || {
        echo "/metricsz missing serve counters" >&2
        exit 1
    }
    # Every family is self-describing and well-formed: its one # TYPE
    # line comes right after its one # HELP line.
    echo "$metrics" | awk '
        /^# HELP / { if (help[$3]++) bad = bad " " $3 "(two HELP)"; last = $3; next }
        /^# TYPE / { if ($3 != last || type[$3]++) bad = bad " " $3 "(TYPE without HELP, or twice)"; last = ""; next }
        END { if (bad != "") { print "/metricsz families:" bad > "/dev/stderr"; exit 1 } }' || exit 1
    heap=$(curl -sf "http://$addr/debug/pprof/heap?debug=1")
    [ -n "$heap" ] || { echo "/debug/pprof/heap returned empty body" >&2; exit 1; }
    # Requests carry pprof labels only while a CPU profile is captured:
    # serve /extract pages, one curl posting to many URLs over one
    # connection, until a 1-second capture returns, and the profile's
    # string table must hold the site label key (a length-4 entry of
    # field 6, the bytes 0x32 0x04 "site").
    go run ./cmd/sitegen -out "$tmpdir/corpus" -pages 2 -set test -q
    page=$(ls "$tmpdir/corpus"/*/*.html | head -n 1)
    psite=$(basename "$(dirname "$page")")
    curl -sf -o "$tmpdir/cpu.pb.gz" "http://$addr/debug/pprof/profile?seconds=1" &
    prof_pid=$!
    urls=""
    for _ in $(seq 1 50); do urls="$urls http://$addr/extract?site=$psite"; done
    while kill -0 "$prof_pid" 2>/dev/null; do
        # shellcheck disable=SC2086 # one word per URL
        curl -s --data-binary @"$page" $urls > /dev/null || true
    done
    wait "$prof_pid" || { echo "/debug/pprof/profile failed" >&2; exit 1; }
    gzip -dc "$tmpdir/cpu.pb.gz" | grep -aq "$(printf '\062\004site')" || {
        echo "CPU profile captured under /extract load carries no site label" >&2
        exit 1
    }
    kill "$srv_pid"
    wait "$srv_pid" 2>/dev/null || true
    trap - EXIT
    rm -rf "$tmpdir"
fi

# Wrapper farm warm-path smoke: a live ominiserve with -rule-store takes
# 10 pages from each of the 15 sitegen test-set hosts (150 requests).
# The first request per host learns; every later one must replay, so
# the farm hit rate must reach 0.9 and the fast-path p50 must beat the
# slow-path p50 on /metricsz. The store file must survive shutdown.
# FARM_SMOKE=0 skips (same caveats as OBS_SMOKE).
FARM_SMOKE="${FARM_SMOKE:-1}"
if [ "$FARM_SMOKE" != "0" ]; then
    echo "==> warm-farm smoke: 150 requests, hit-rate + latency gates"
    tmpdir=$(mktemp -d)
    trap 'kill "$srv_pid" 2>/dev/null || true; rm -rf "$tmpdir"' EXIT
    go run ./cmd/sitegen -out "$tmpdir/corpus" -pages 10 -set test -q
    go build -o "$tmpdir/ominiserve" ./cmd/ominiserve
    "$tmpdir/ominiserve" -addr 127.0.0.1:0 -rule-store "$tmpdir/rules.json" \
        2> "$tmpdir/serve.log" &
    srv_pid=$!
    addr=""
    for _ in $(seq 1 50); do
        addr=$(sed -n 's/.*"addr":"\([^"]*\)".*/\1/p' "$tmpdir/serve.log" | head -n 1)
        [ -n "$addr" ] && break
        sleep 0.1
    done
    if [ -z "$addr" ]; then
        echo "ominiserve did not report a listen address" >&2
        cat "$tmpdir/serve.log" >&2
        exit 1
    fi
    for sitedir in "$tmpdir/corpus"/*/; do
        site=$(basename "$sitedir")
        for pagefile in "$sitedir"*.html; do
            curl -sf --data-binary @"$pagefile" \
                "http://$addr/extract?site=$site" > /dev/null || {
                echo "extract failed for $site ($pagefile)" >&2
                exit 1
            }
        done
    done
    metrics=$(curl -sf "http://$addr/metricsz")
    hits=$(echo "$metrics" | awk '$1 == "farm_hits" { print $2 }')
    misses=$(echo "$metrics" | awk '$1 == "farm_misses" { print $2 }')
    if [ -z "$hits" ] || [ -z "$misses" ] || [ "$misses" -eq 0 ]; then
        echo "farm counters missing from /metricsz (hits=$hits misses=$misses)" >&2
        exit 1
    fi
    # hits/(hits+misses) >= 0.9 without floating point: one miss per
    # host to learn, nine replays. Equality passes.
    if [ $((hits * 10)) -lt $(((hits + misses) * 9)) ]; then
        echo "warm-farm hit rate below 0.9: hits=$hits misses=$misses" >&2
        exit 1
    fi
    fast_p50=$(echo "$metrics" | awk '/^farm_path_seconds_quantile\{path="fast",quantile="0.5"\}/ { print $2 }')
    slow_p50=$(echo "$metrics" | awk '/^farm_path_seconds_quantile\{path="slow",quantile="0.5"\}/ { print $2 }')
    if [ -z "$fast_p50" ] || [ -z "$slow_p50" ]; then
        echo "farm path latency quantiles missing from /metricsz" >&2
        exit 1
    fi
    awk -v fast="$fast_p50" -v slow="$slow_p50" \
        'BEGIN { exit !(fast + 0 < slow + 0) }' || {
        echo "fast-path p50 ($fast_p50) not below slow-path p50 ($slow_p50)" >&2
        exit 1
    }
    echo "    hit rate: $hits/$((hits + misses)), fast p50 ${fast_p50}s vs slow p50 ${slow_p50}s"
    # Distributed tracing rides the same live server: the 150 requests
    # above were all sampled (default -trace-sample 1.0), so /tracez
    # must hold both farm paths — the first request per host traced the
    # slow (discovery) path, the replays the fast path — and a trace
    # fetched by ID must carry its handler root span. Responses are
    # compact JSON.
    traces=$(curl -sf "http://$addr/tracez")
    echo "$traces" | grep -q '"path":"fast"' || {
        echo "/tracez holds no fast-path trace" >&2
        echo "$traces" | head -n 20 >&2
        exit 1
    }
    echo "$traces" | grep -q '"path":"slow"' || {
        echo "/tracez holds no slow-path trace" >&2
        echo "$traces" | head -n 20 >&2
        exit 1
    }
    tid=$(echo "$traces" | grep -o '"traceId":"[0-9a-f]\{32\}"' | sed -n 's/.*:"\(.*\)"/\1/p' | head -n 1)
    if [ -z "$tid" ]; then
        echo "/tracez summaries carry no well-formed 32-hex traceId" >&2
        exit 1
    fi
    trace_detail=$(curl -sf "http://$addr/tracez?id=$tid")
    echo "$trace_detail" | grep -q '"name":"handler"' || {
        echo "/tracez?id=$tid lacks the handler root span" >&2
        echo "$trace_detail" | head -n 20 >&2
        exit 1
    }
    echo "    tracez: fast + slow path traces present, $tid has a span tree"
    # The trace boundary end to end: the X-Omini-Trace header a client
    # gets back names a trace that /tracez serves with its handler root.
    first_page=$(ls "$tmpdir/corpus"/*/*.html | head -n 1)
    first_site=$(basename "$(dirname "$first_page")")
    hdr_tid=$(curl -si --data-binary @"$first_page" "http://$addr/extract?site=$first_site" |
        tr -d '\r' | sed -n 's/^[Xx]-[Oo]mini-[Tt]race: 00-\([0-9a-f]\{32\}\)-[0-9a-f]\{16\}-01$/\1/p')
    if [ -z "$hdr_tid" ]; then
        echo "/extract response carries no sampled X-Omini-Trace header" >&2
        exit 1
    fi
    curl -sf "http://$addr/tracez?id=$hdr_tid" | grep -q '"name":"handler"' || {
        echo "/tracez?id=$hdr_tid (from the response header) lacks the handler root span" >&2
        exit 1
    }
    echo "    boundary: response header trace $hdr_tid served by /tracez"
    kill "$srv_pid"
    wait "$srv_pid" 2>/dev/null || true
    grep -q '"version": 2' "$tmpdir/rules.json" || {
        echo "-rule-store file missing or not a v2 snapshot after shutdown" >&2
        exit 1
    }
    trap - EXIT
    rm -rf "$tmpdir"
fi

echo "==> ci.sh: all checks passed"

#!/bin/sh
# Repo verification gate: vet, build everything, run the project's own
# static-analysis pass (raivet — clock/context/span/HTTP/concurrency
# invariants, see internal/lint), the full suite under the race
# detector, a one-iteration smoke of every benchmark so the perf
# harness (DESIGN.md §3, §11) can't rot, and a closed-loop macro-bench
# smoke compared against the committed baseline (DESIGN.md §12). Used
# by CI and before committing.
set -eux

go vet ./...
go build ./...
# The benchmark is its own module over this one (perfbench/go.mod
# replaces rai with ../): build, vet and unit-test it here so an
# internal API change that breaks the benchmark fails verification.
(cd perfbench && go vet ./... && go test ./...)
# The full static-analysis pass, with the suppression budget pinned to
# the current debt: adding a //lint:ignore now means paying one down or
# raising the number here in review.
go run ./cmd/raivet -max-ignores 4 ./...
# Concurrency checks over _test.go too — tests spawn the same
# goroutines production does, and a leaky test helper poisons -race
# runs for everyone.
go run ./cmd/raivet -tests -enable goroleak,lockcopy,wgadd ./...
go test -race ./...
go test -run='^$' -bench=. -benchtime=1x .
# One-iteration smoke of the analysis benchmark: catches the engine
# regressing into re-type-checking per check (DESIGN.md §15).
go test -run='^$' -bench=BenchmarkRaivetFullTree -benchtime=1x ./internal/lint

# Macro-benchmark smoke: boot the real daemons, drive 8 simulated
# students for 10s, and gate on the tracked baseline with generous
# thresholds — this catches collapses (queue stalls, dead phases,
# order-of-magnitude tail growth), not single-digit-percent noise.
BENCH_OUT=$(mktemp -d)
trap 'rm -rf "$BENCH_OUT"' EXIT
go run ./cmd/raibench run -students 8 -duration 10s -workers 2 \
	-out "$BENCH_OUT/BENCH_smoke.json"
go run ./cmd/raibench compare \
	-max-throughput-drop 0.6 -max-latency-growth 3.0 -latency-floor 2s \
	BENCH_6.json "$BENCH_OUT/BENCH_smoke.json"

# Cache smoke: the resubmission workload against real booted daemons.
# raibench itself exits nonzero unless unchanged trees transfer ≥90%
# fewer bytes and the warm build cache hits; on top of that, gate the
# ISSUE's bar — a resubmitted identical tree must move < 5% of the cold
# upload's bytes — and assert the cache hit is visible in the phase
# attribution (a "cache" phase resolved from the worker's spans).
go run ./cmd/raibench run -students 4 -duration 10s -workers 2 \
	-resubmit -out "$BENCH_OUT/BENCH_resubmit.json"
awk '/"unchanged_reduction"/ { gsub(/[,]/, ""); r = $2 }
	/"cache_hits"/ { gsub(/[,]/, ""); h = $2 }
	END { if (r + 0 < 0.95 || h + 0 < 1) { print "cache smoke: reduction " r ", hits " h; exit 1 } }' \
	"$BENCH_OUT/BENCH_resubmit.json"
grep -q '"cache": {' "$BENCH_OUT/BENCH_resubmit.json"

# The SLO engine is the one package whose races would lie to operators
# (Observe/Evaluate/Export run concurrently in the collector): race it
# twice on top of the full -race pass above.
go test -race -count=2 ./internal/slo/
# The docstore holds the one-ranking-row-per-team and journal-replay
# invariants under concurrent writers: race its property tests three
# more times.
go test -race -count=3 ./internal/docstore/

# Sampling smoke: the same macro-bench at 10% head sampling with the
# collector's SLO engine on. raibench itself exits nonzero unless the
# kept fraction tracks the rate and rai_slo_* gauges appear on the
# collector; the greps assert phase attribution resolved for the kept
# traces instead of degrading to an empty report.
go run ./cmd/raibench run -students 8 -duration 10s -workers 2 \
	-trace-sample 0.1 -slo \
	-out "$BENCH_OUT/BENCH_sampled.json"
grep -E '"traced_jobs": [1-9]' "$BENCH_OUT/BENCH_sampled.json"
if grep -E '"missing_traces": [1-9]' "$BENCH_OUT/BENCH_sampled.json"; then
	echo "verify: sampled run left kept traces unattributed" >&2
	exit 1
fi

#!/usr/bin/env bash
# Builds the RAI daemons and the perfbench load generator from source,
# then runs one workload:
#
#   bash perfbench/run.sh --workload course --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build product, cache and
# scratch file stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/raiworker" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of the RAI repository" >&2
	exit 2
fi

out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/tmp" "$out/gocache" "$out/gomodcache"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS="-mod=mod -buildvcs=false" GOWORK=off

go build -o "$out/bin/" ./cmd/raibroker ./cmd/raifs ./cmd/raidb ./cmd/raiworker ./cmd/raiadmin >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/runs" "$@"

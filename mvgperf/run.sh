#!/usr/bin/env bash
# Builds mvgserve, mvgproxy and the benchmark from this checkout's sources
# into .bench_build/, then runs the benchmark with the given arguments:
#   bash mvgperf/run.sh --workload offline --seed 1 --seconds 20 --trace 0
# Every file it writes stays under .bench_build/ in the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ] || [ ! -d cmd/mvgserve ]; then
	echo "mvgperf: run from a checkout of the mvg repository (no go.mod or cmd/mvgserve here)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOFLAGS="-mod=mod -buildvcs=false" GOTOOLCHAIN=local GOTELEMETRY=off GOPROXY=off GOWORK=off
go build -o "$build/bin/mvgserve" ./cmd/mvgserve >&2
go build -o "$build/bin/mvgproxy" ./cmd/mvgproxy >&2
(cd mvgperf && go build -o "$build/bin/mvgperf" .) >&2
exec "$build/bin/mvgperf" -bin "$build/bin" -workdir "$build/work" "$@"

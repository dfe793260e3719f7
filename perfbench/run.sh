#!/usr/bin/env bash
# Builds yprov-server and the benchmark from the tree it is run in, then
# runs the benchmark with the given arguments. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
#
# Everything it writes (Go build cache, binaries, data directories,
# logs, results) stays under .bench_build/ in the repository root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
bin="$out/bin"
mkdir -p "$bin" "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0

# Rebuild when a binary is missing or any Go source is newer than it.
stale() {
	[ ! -x "$1" ] || [ -n "$(find "$root" -path "$out" -prune -o \( -name '*.go' -o -name go.mod \) -newer "$1" -print -quit)" ]
}
if stale "$bin/yprov-server"; then
	go build -o "$bin/yprov-server" ./cmd/yprov-server >&2
fi
if stale "$bin/perfbench"; then
	(cd perfbench && go build -o "$bin/perfbench" .) >&2
fi
exec "$bin/perfbench" --server "$bin/yprov-server" --work "$out/work" "$@"

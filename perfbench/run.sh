#!/usr/bin/env bash
# Builds sesd, sesrouter and the benchmark program from this checkout,
# then runs one benchmark invocation; all arguments pass through, e.g.
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 20 --trace 0
# Run from the repository root. Build outputs and the Go build cache
# stay under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off
mkdir -p "$out/bin"
go build -o "$out/bin/sesd" ./cmd/sesd >&2
go build -o "$out/bin/sesrouter" ./cmd/sesrouter >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"

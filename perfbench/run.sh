#!/usr/bin/env bash
# Builds dcwsd and the perfbench load generator from the checkout in the
# current directory, then runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload home-lod --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" PPROF_TMPDIR="$build/tmp" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -o "$build/bin/dcwsd" ./cmd/dcwsd
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -dcwsd "$build/bin/dcwsd" -work "$build" "$@"

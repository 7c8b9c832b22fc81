#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given flags. Run from the repository root:
#
#	bash perfbench/run.sh --workload operator --seed 1 --seconds 12 --trace 0
#
# Build outputs, the Go build cache and the run's scratch stores all
# live under .bench_build/ in the checkout.
set -eu
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (no go.mod here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -workdir "$out" "$@"

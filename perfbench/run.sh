#!/usr/bin/env bash
# Build the benchmark from source and run it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload table3 --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory: the Go build cache, the binary, the daemon
# stores and the trace files. A tree without the repository's Go module
# next to perfbench/ fails to build, and the script exits non-zero
# without printing a result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOENV=off
export GOPROXY=off

if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "perfbench: $root does not hold the balsabm module" >&2
	exit 1
fi
go -C "$root/perfbench" build -o "$build/perfbench" . >&2
exec "$build/perfbench" --workdir "$build/perfbench-work" "$@"

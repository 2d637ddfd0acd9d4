#!/usr/bin/env bash
# Builds the geomds benchmark from the checkout it is run in and runs it:
#
#   bash perfbench/run.sh --workload wire_rw --seed 1 --seconds 12 --trace 0
#
# Run from the repository root. Everything the build and the run write stays
# under .bench_build/ in that root: the Go build cache, the binary, the
# benchmark's data directories and the span files of traced runs.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"

# The go command keeps its caches and its settings under HOME and the XDG
# directories; point them into the checkout and keep it off the network.
(
	cd "$root/perfbench"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
		GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOENV=off \
		GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-mod=readonly \
		go build -o "$out/perfbench" .
)
exec "$out/perfbench" --workdir "$out" "$@"

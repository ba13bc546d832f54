#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it. Run from the checkout root:
#
#   bash perfbench/run.sh --workload compile --seed 1 --seconds 20 --trace 0
#
# Every build artifact (Go build cache, binary, span files) stays under
# .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a vcsched checkout" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export TMPDIR="$out/tmp"
export GOTMPDIR="$out/tmp"
export GOCACHE="$out/go-cache"
export GOPATH="$out/go-path"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"

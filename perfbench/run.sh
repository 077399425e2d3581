#!/usr/bin/env bash
# Builds the perfbench binary from source and runs it with the given
# arguments (see main.go for the flags). Run from the repository root:
#
#	bash perfbench/run.sh --workload plan-large --seed 1 --seconds 20 --trace 0
#
# Every build artefact, cache and temporary file lands under .bench_build
# in the current directory, so the run reads and writes nothing outside
# the checkout.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config" \
	GOMODCACHE="$out/gomod" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly CGO_ENABLED=0
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"

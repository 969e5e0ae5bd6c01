#!/usr/bin/env bash
# Builds vmcubench from source into .bench_build and runs it with the given
# arguments. Run it from the repository root, e.g.
#
#   bash vmcubench/run.sh -workload verify-vww -seed 1 -seconds 20 -trace 0
#
# The Go build cache and temporary files stay under .bench_build, and the
# build never reaches the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
go build -C "$root/vmcubench" -o "$out/vmcubench" .
exec "$out/vmcubench" "$@"

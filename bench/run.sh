#!/usr/bin/env bash
# Builds the host-performance benchmark from source and runs it from the
# repository root with the given flags, e.g.
#
#   bash bench/run.sh --workload frame64-ds --seed 0 --seconds 30 --trace 0
#
# The binary, the Go build cache, GOPATH and the compiler's temporary files
# all stay in .bench_build/ under the repository root; the build reads no
# user configuration and fetches nothing.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C "$root/bench" build -o "$out/chopinbench" .
cd "$root"
exec "$out/chopinbench" "$@"

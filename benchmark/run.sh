#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the given arguments. Everything the go tool
# writes (build cache, temporaries) stays under .bench_build/ too.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
bin="$out/gvfs-benchmark"
# VCS stamping records the git SHA in the output; a checkout whose git
# metadata is unusable builds without it.
go build -C benchmark -o "$bin" . 2>"$out/build.log" ||
	go build -C benchmark -buildvcs=false -o "$bin" .
exec "$bin" "$@"

#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments (see main.go). Every build and run artifact stays
# inside the checkout: the Go build cache and binary under .bench_build/,
# traces, run reports and scratch files under .bench_out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "perfbench: no asmodel source tree next to $here; run from a full checkout" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod CGO_ENABLED=0
go build -C "$here" -o "$build/perfbench" .
exec "$build/perfbench" -out-dir "$root/.bench_out" "$@"

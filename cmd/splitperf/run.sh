#!/usr/bin/env bash
# Builds splitperf from source inside the checkout and runs it with the
# given arguments, from the checkout's root. Everything the build writes
# (binary, go build cache, temporary files) stays under .bench_build/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build/splitperf"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

bin="$build/splitperf"
# Rebuild when any Go source of the repository is newer than the binary.
if [ ! -x "$bin" ] || [ -n "$(find "$root" -path "$root/.bench_build" -prune -o \
	\( -name '*.go' -o -name go.mod \) -newer "$bin" -print -quit)" ]; then
	(cd "$here" && go build -o "$bin" .)
fi

cd "$root"
exec "$bin" "$@"

#!/usr/bin/env bash
# Builds e2ebench from source into .bench_build/ and runs it with the
# given arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload ispd_sparse --seed 1 --seconds 20 --trace 0
#
# Every file the build writes (compiler cache, binary, spans) stays
# under .bench_build/ in the current directory; nothing is downloaded.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"

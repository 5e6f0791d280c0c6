#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash _perfbench/run.sh --workload paper-suite --seed 1 --seconds 20 --trace 0
#   bash _perfbench/run.sh compare DIR_A DIR_B
#
# Run from the repository root. Everything the build and the runs leave
# behind (Go build cache, binary, traces, results) goes to .bench_build/.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"

# Keep the toolchain off the network and its caches inside the checkout.
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config"

# The commit is recorded with every result; a checkout without git history
# records "unknown".
commit="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
go -C "$root/_perfbench" build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/perfbench" .
exec "$out/perfbench" "$@"

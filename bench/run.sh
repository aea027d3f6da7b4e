#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it with the given arguments. Everything the build writes stays under
# .bench_build/ at the checkout root; the benchmark itself runs from the
# checkout root so it can find the committed golden files.
#
#   bash bench/run.sh --workload eval-cold --seed 1 --seconds 20 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly
go -C "$root/bench" build -o "$out/fgpbench" . >&2
cd "$root"
exec "$out/fgpbench" "$@"

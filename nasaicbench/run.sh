#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root, e.g.
#   bash nasaicbench/run.sh --workload explore-rl-w3 --seed 1 --seconds 10 --trace 0
# The Go build cache, the binary and everything a run writes stay under
# .bench_build/ in the repository root.
set -euo pipefail
bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "nasaicbench: no nasaic module at $root; run from a full checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gotmp" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/gotmp"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0
(cd "$bench_dir" && go build -o "$out/nasaicbench" .)
exec "$out/nasaicbench" --tmpdir "$out/tmp" "$@"

#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#
#   bash perfbench/run.sh --workload snoop --seed 1 --seconds 35 --trace 0
#
# Every file the build and the run write (Go build cache, temporary files,
# the binary, spans, CPU profiles, manifests) stays under .bench_build/ at
# the checkout root. The build needs the checkout's Go module one level up,
# so outside a full checkout it fails and nothing is printed on stdout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/.." && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -outdir "$out" "$@"

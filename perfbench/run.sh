#!/usr/bin/env bash
# Builds the CellDTA benchmark from the sources of this checkout and runs it.
#
#   bash perfbench/run.sh --workload blocking --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# the span files of traced runs go to $CARGO_TARGET_DIR (default
# .bench_build), so nothing is written outside the checkout.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

# XDG_CONFIG_HOME keeps the go command's telemetry counters in $out too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)

# madvdontneed=0 makes the Go runtime hand freed heap pages back to the
# kernel lazily (MADV_FREE) instead of at once. Returned pages fault in
# again on reuse, about 170 faults per set-up of the simulator
# workloads against 5 without it; on a VM whose host reclaims guest
# memory those faults tripled setup_s (9 to 31 ms) for minutes at a time.
GODEBUG=madvdontneed=0 exec "$out/perfbench" -out "$out" "$@"

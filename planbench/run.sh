#!/usr/bin/env bash
# Builds the planbench binary from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash planbench/run.sh --workload serve_sample --seed 1 --seconds 10 --trace 0
#
# Build products and the Go build cache stay under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build), so the run reads and
# writes nothing outside the checkout.
set -euo pipefail
root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C "$root/planbench" build -o "$out/planbench" .
exec "$out/planbench" "$@"

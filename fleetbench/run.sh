#!/usr/bin/env bash
# Builds the fleet serving benchmark from the checkout it sits in and runs
# it with the given arguments. Run it from the repository root:
#
#   bash fleetbench/run.sh --workload fleet-steady --seed 1 --seconds 10 --trace 0
#
# Every build artefact (Go build cache, module cache, the binary) goes
# under $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local
export GOPROXY=off GOSUMDB=off GOTELEMETRY=off

(cd "$here" && go build -o "$out/fleetbench" .)
exec "$out/fleetbench" -out "$out" "$@"

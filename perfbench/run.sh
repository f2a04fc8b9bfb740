#!/usr/bin/env bash
# Builds the benchmark from the source tree it is run in, then runs it.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build outputs go to $CARGO_TARGET_DIR
# (default .bench_build); nothing is read or written outside the tree.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOENV=off GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"

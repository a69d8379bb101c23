#!/usr/bin/env bash
# Builds higgsd and the benchmark from source, then runs one benchmark
# invocation. Run it from the root of the repository:
#
#   bash loadbench/run.sh --workload scan --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binaries, the daemons' WAL
# directories (removed when the run ends) and the traced run's spans.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/loadbench" && go build -o "$out/loadbench" . && go build -o "$out/higgsd" higgs/cmd/higgsd) >&2

exec "$out/loadbench" --higgsd "$out/higgsd" --work "$out/work-$$" --spans "$out/spans" "$@"

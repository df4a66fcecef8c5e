#!/usr/bin/env bash
# Builds armus-serve, armus-store and the benchmark driver from this
# checkout into .bench_build/ and runs the driver with the given arguments,
# for example:
#
#   bash perfbench/run.sh --workload gate-avoid --seed 1 --seconds 12 --trace 0
#
# Run it from the repository root. Everything it builds, caches and writes
# stays under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/armus-serve || ! -d cmd/armus-store || ! -d internal ]]; then
  echo "perfbench: run from the root of the armus repository (go.mod, cmd/ and internal/ not found)" >&2
  exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/gocache" "$out/gopath"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=

go build -o "$out/bin/" ./cmd/armus-serve ./cmd/armus-store
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"

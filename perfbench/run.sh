#!/usr/bin/env bash
# run.sh — build spannerd and the perfbench program from this checkout, then
# run one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload enumerate_contacts --seed 1 --seconds 35 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: binaries, the Go build cache and the trace's span files. Build
# time is not part of any metric.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ ! -f go.mod ] || [ ! -d cmd/spannerd ] || [ ! -d internal/gen ]; then
  echo "perfbench: $(pwd) is not a spanners checkout (need go.mod, cmd/spannerd and internal/gen)" >&2
  exit 2
fi

if ! command -v go >/dev/null; then
  echo "perfbench: the go toolchain is not on PATH" >&2
  exit 2
fi

out=$(pwd)/.bench_build/perfbench
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$out/spannerd" ./cmd/spannerd >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -spannerd "$out/spannerd" -out "$out" "$@"

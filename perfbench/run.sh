#!/usr/bin/env bash
# Builds the cosim and cosimd CLIs and the perfbench program from the
# checkout in the working directory, then runs perfbench:
#
#   bash perfbench/run.sh --workload fig4 --seed 1 --seconds 40 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in
# the checkout (Go build cache and temp files included). The layer
# tracer, which imports the simulator's internal packages, is built only
# for --trace 1, so an internal API change cannot break the end-to-end
# runs.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
bin="$out/bin"
mkdir -p "$bin" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off

# With telemetry on (the default, "local"), a go command may fork a
# detached upload process that outlives this script. Turn it off in the
# private config dir before any other go command runs.
go telemetry off

trace=0
prev=""
for a in "$@"; do
	case "$prev" in --trace | -trace) trace="$a" ;; esac
	case "$a" in --trace=* | -trace=*) trace="${a#*=}" ;; esac
	prev="$a"
done

go build -o "$bin/" ./cmd/cosim ./cmd/cosimd
(cd perfbench && go build -o "$bin/perfbench" .)
if [[ "$trace" == "1" ]]; then
	(cd perfbench && go build -o "$bin/perfbench-layers" ./layers)
fi
exec "$bin/perfbench" -bin "$bin" "$@"

#!/usr/bin/env bash
# Builds pfdserved and the perfbench command from this checkout's source,
# then runs perfbench with the given arguments. Run from the root of the
# checkout:
#
#   bash perfbench/run.sh --workload ingest-rules --seed 1 --seconds 40 --trace 0
#   bash perfbench/run.sh --workload ingest-rules,batch-paper --steady 10 --seconds 40
#
# Builds, caches and run scratch stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

go build -o "$out/bin/pfdserved" ./cmd/pfdserved >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -root "$root" -server "$out/bin/pfdserved" "$@"

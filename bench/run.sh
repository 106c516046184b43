#!/usr/bin/env bash
# Builds the ledger from the checkout's source and runs it with the
# driver's arguments. Everything the Go toolchain writes (build cache,
# module cache, telemetry) is kept under .bench_build inside the
# checkout; a rebuild of unchanged source is a cache hit.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "bench/run.sh: no go.mod in $PWD: the program's source is not here" >&2
	exit 1
fi
out="$PWD/.bench_build"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTOOLCHAIN=local
# With a fresh HOME the go command would start a detached telemetry child
# that outlives the build; mode "off" keeps it from starting one.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$out/ledger" ./bench
exec "$out/ledger" "$@"

#!/usr/bin/env bash
# Builds the register-service benchmark from the checkout that contains this
# directory and runs it from the checkout's root. Every file the build and
# the run write lands under <checkout>/.bench_build.
#
#   bash regbench/run.sh --workload read-mostly --seed 1 --seconds 10 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOWORK=off
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$out/regbench" .)
cd "$root"
exec "$out/regbench" "$@"

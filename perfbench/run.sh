#!/usr/bin/env bash
# Builds the benchmark and pcapd from source, then runs one workload.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload matrix|fleet|pcapd --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binaries, pcapd's uploads and the
# span files of traced runs. Build output goes to standard error, so the
# last line of standard output is the benchmark's JSON result.
set -euo pipefail

root="$(pwd)"
build="${root}/.bench_build"
mkdir -p "${build}/bin" "${build}/tmp" "${build}/out"

export GOCACHE="${build}/gocache"
export GOMODCACHE="${build}/gomod"
export GOPATH="${build}/gopath"
export GOTMPDIR="${build}/tmp"
export TMPDIR="${build}/tmp"
export XDG_CONFIG_HOME="${build}/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=

(cd "${root}/perfbench" && go build -o "${build}/bin/perfbench" .) >&2
go build -o "${build}/bin/pcapd" ./cmd/pcapd >&2

exec "${build}/bin/perfbench" -root "${root}" -pcapd "${build}/bin/pcapd" -out "${build}/out" "$@"

#!/usr/bin/env bash
# Builds the benchmark from the checkout it is started in and runs it with
# the given arguments (--workload, --seed, --seconds, --trace). Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload ns-ideal --seed 1 --seconds 20 --trace 0
#
# --workload all runs ns-ideal, real-gas and serve one after the other, each
# in a fresh process. Everything it writes (Go build cache, binary, run
# scratch, span files) stays under .bench_build in that directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= GOENV=off
bin="$build/perfbench"
linked=$(cksum <"$bin" 2>/dev/null || true)
# The go command's own config and telemetry files land under .bench_build.
(cd "$root/perfbench" && HOME="$build/home" XDG_CONFIG_HOME="$build/config" \
	go build -o "$bin" .)
all=()
args=("$@")
for i in "${!args[@]}"; do
	if [ "${args[$i]}" = "--workload" ] && [ "${args[$((i + 1))]:-}" = "all" ]; then
		all=(--workload ns-ideal)
	fi
done
# The first process after the binary changes runs slow, so a new binary is
# first run once briefly with its output discarded. (An up-to-date build
# only touches the binary, so its checksum tells.)
if [ "$(cksum <"$bin")" != "$linked" ]; then
	"$bin" "$@" "${all[@]}" --seconds 1 --trace 0 >/dev/null 2>&1 || true
fi
if [ ${#all[@]} -gt 0 ]; then
	for w in ns-ideal real-gas serve; do
		"$bin" "$@" --workload "$w"
	done
	exit 0
fi
exec "$bin" "$@"

#!/usr/bin/env bash
# Builds the streaming benchmark from the sources of the checkout it is
# run in and executes it with the given arguments, for example:
#
#   bash streambench/run.sh --workload steady --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. The build cache, the binary and any
# trace files stay under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/streambench/go.mod" ]]; then
	echo "streambench: run from the repository root (go.mod or streambench/go.mod missing)" >&2
	exit 2
fi

out="$root/.bench_build/streambench"
mkdir -p "$out/gocache" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0 GOFLAGS=

(cd "$root/streambench" && go build -o "$out/streambench" .) >&2
exec "$out/streambench" "$@"

#!/usr/bin/env bash
# Builds the reramsim benchmark from source and runs one workload.
#
#   bash perfbench/run.sh --workload cold-sweep --seed 1 --seconds 35 --trace 0
#
# Run from the repository root. Everything the build and the run leave
# behind (Go build cache, binary, scratch journals and solve caches) goes
# under $CARGO_TARGET_DIR, default .bench_build, inside the repository.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp" "$out/work"

# The go command also keeps telemetry counters and its env file under the
# user config directory; point that inside the build directory too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0

go -C "$root/perfbench" build -buildvcs=false -o "$out/perfbench" .

commit=unknown
if rev=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null); then
	commit=$rev
fi
exec "$out/perfbench" -workdir "$out/work" -commit "$commit" "$@"

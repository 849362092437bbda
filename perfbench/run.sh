#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments, e.g.
#   bash perfbench/run.sh --workload exec --seed 1 --seconds 10 --trace 0
# Run from the repository root. Build outputs, the Go build and temp
# directories and Go's own config files all stay under the build directory
# ($CARGO_TARGET_DIR, default .bench_build) inside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config GOTMPDIR=$out/tmp
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
if ! command -v go >/dev/null && [ -x /usr/local/go/bin/go ]; then
	PATH=$PATH:/usr/local/go/bin
fi
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"

#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash perfbench/run.sh --workload router-json-cold --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, the go command's config, telemetry and
# temporary files and the trace files stay under the build directory
# ($CARGO_TARGET_DIR if set, else .bench_build at the root).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" GOWORK=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" --out "$out/traces" "$@"

#!/usr/bin/env bash
# Builds perfbench from the checkout it sits in and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload query --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The build cache, the binary, the
# databases and the results all live under .bench_build/ there.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/gocache" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
export GOPROXY=off GOTELEMETRY=off
# The Go runtime returns freed heap pages with MADV_FREE rather than
# MADV_DONTNEED, so a page it reuses is still mapped. On a virtual machine
# each new mapping costs a fault in the guest and one in the host, whose
# price follows the host's load; this keeps most of them out of the
# CPU time the benchmark measures (about 8x fewer faults per run).
export GODEBUG=madvdontneed=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .)

commit=unknown
if command -v git >/dev/null 2>&1 && git -C "$root" rev-parse --git-dir >/dev/null 2>&1; then
	commit=$(git -C "$root" rev-parse HEAD)
fi
exec "$out/perfbench" -commit "$commit" -out "$out" "$@"

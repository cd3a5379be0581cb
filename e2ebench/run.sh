#!/usr/bin/env bash
# Builds the optsync end-to-end benchmark from the sources of the current
# checkout and runs it with the given arguments. Run it from the
# repository root:
#
#   bash e2ebench/run.sh --workload auth-mesh --seed 1 --seconds 20 --trace 0
#
# Everything it writes (Go build cache, binary, scratch files) stays under
# .bench_build/ in the working directory. Without the optsync sources
# next to this directory the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build/e2ebench"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" PPROF_TMPDIR="$out/tmp"
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0

commit=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
# Digest of the Go sources and module files the binary is built from: the
# build's identity when the checkout carries no git metadata.
digest=$(cd "$root" && find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print |
	LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)

go build -C "$src" -trimpath \
	-ldflags "-X main.commit=$commit -X main.sourceDigest=$digest" \
	-o "$out/e2ebench" .
exec "$out/e2ebench" -workdir "$out/work" "$@"

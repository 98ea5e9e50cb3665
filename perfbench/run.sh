#!/usr/bin/env bash
# Builds the benchmark from the surrounding checkout and runs one
# workload. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 20 --trace 0
#
# Every build product and output stays inside the checkout, under
# .bench_build/perfbench. The last line of standard output is the JSON
# result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false
export GOWORK=off

# The commit for the machine stamp. Outside a git checkout a digest of
# the Go sources stands in for it, and in a checkout with uncommitted
# changes the digest follows the commit, so a run of the changes is not
# stamped as a run of the commit.
src_digest() {
	echo "src-sha256:$(find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod \) -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"
}
commit=
if [ -d "$root/.git" ] && command -v git >/dev/null 2>&1; then
	export GIT_CEILING_DIRECTORIES="$(dirname "$root")"
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || true)
	if [ -n "$commit" ] && [ -n "$(git -C "$root" status --porcelain 2>/dev/null)" ]; then
		commit="$commit+dirty:$(src_digest)"
	fi
fi
if [ -z "$commit" ]; then
	commit=$(src_digest)
fi

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" --commit "$commit" "$@"

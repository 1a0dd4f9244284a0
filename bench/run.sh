#!/usr/bin/env bash
# The benchmark's build file: builds ./bench from source inside the checkout
# and runs it with the given arguments. Everything the build leaves behind
# (binary, Go build cache) stays under .bench_build/ at the checkout root; the
# run's own scratch data and trace files go to bench/out/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
# bench is a package of the repository's module; without the module there is
# nothing to measure (and no ancestor directory's go.mod may stand in for it).
[ -f go.mod ] || { echo "bench/run.sh: no go.mod in $root: not a checkout of the repository" >&2; exit 1; }

build="$root/.bench_build"
mkdir -p "$build"
# Keep the toolchain's own writes inside the checkout too.
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
go build -o "$build/spa-bench" ./bench

exec "$build/spa-bench" "$@"

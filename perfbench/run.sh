#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash perfbench/run.sh --workload sweep|heavy|daemon --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under perfbench/.build and
# perfbench/.work (both git-ignored).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
export GOCACHE="$here/.build/cache"
export GOPATH="$here/.build/gopath"
export XDG_CONFIG_HOME="$here/.build/config"
# The analysis disk cache would make set-up warm; the benchmark measures it cold.
unset ANDURIL_CACHE_DIR
(cd "$here" && go build -o .build/perfbench .)
exec "$here/.build/perfbench" --work "$here/.work" "$@"

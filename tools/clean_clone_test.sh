#!/usr/bin/env bash
# Tier-1 from a clean export of the committed tree.
#
# Exports `git archive HEAD` into a temporary directory, then configures,
# builds and runs the full ctest suite there.  A test that passes in a
# working tree but fails here depends on an untracked file — a golden
# swallowed by .gitignore, a stray build input — and the file must be
# committed.
#
# Usage (from anywhere inside the repository):
#   tools/clean_clone_test.sh [workdir]
# Environment: JOBS (parallel build/test jobs, default nproc),
#              CMAKE_ARGS (extra configure arguments, word-split).
set -euo pipefail

ROOT=$(git rev-parse --show-toplevel)
WORKDIR=${1:-$(mktemp -d)}
JOBS=${JOBS:-$(nproc)}

mkdir -p "$WORKDIR/src"
git -C "$ROOT" archive HEAD | tar -x -C "$WORKDIR/src"
echo "== exported $(git -C "$ROOT" rev-parse --short HEAD) to $WORKDIR/src =="

# shellcheck disable=SC2086  # CMAKE_ARGS is a word list on purpose
cmake -B "$WORKDIR/build" -S "$WORKDIR/src" ${CMAKE_ARGS:-}
cmake --build "$WORKDIR/build" -j "$JOBS"
cd "$WORKDIR/build"
ctest --output-on-failure -j "$JOBS"

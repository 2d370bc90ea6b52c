#!/usr/bin/env bash
# Has this check ever fired? Replays today's pcsi-vet over every commit of
# this repository and prints findings per check per commit, testdata/
# skipped. Run it before adding or retiring a row of internal/analysis
# (DESIGN.md §5 "earn a row"). A developer script, not a CI step: CI clones
# are shallow.
set -euo pipefail
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/pcsi-vet" ./cmd/pcsi-vet
for c in $(git log --reverse --format=%h); do
    mkdir "$tmp/tree"
    git archive "$c" | tar -x -C "$tmp/tree"
    found=$(cd "$tmp/tree" && "$tmp/pcsi-vet" ./... 2>/dev/null | grep -v testdata/ |
        cut -d' ' -f2 | sort | uniq -c | awk '{printf "  %s %d", $2, $1}' || true)
    echo "$c${found:-  clean}"
    rm -rf "$tmp/tree"
done

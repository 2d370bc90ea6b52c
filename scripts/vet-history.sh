#!/usr/bin/env bash
# Has this check ever fired? Replays today's pcsi-vet over every commit of
# this repository and prints findings per check per commit, testdata/
# skipped. Run it before adding or retiring a row of internal/analysis
# (DESIGN.md §5 "earn a row").
#
# With --against <ref> it also builds pcsi-vet as of <ref>, replays both
# binaries, and prints only "<commit> file:line:col:" for the positions the
# old binary reports and today's does not: what a rewrite of a check lost.
# Empty output means nothing was.
#
# A developer script, not a CI step: CI clones are shallow.
set -euo pipefail
cd "$(dirname "$0")/.."
against=
if [ "${1:-}" = --against ]; then
    against=${2:?usage: vet-history.sh [--against <ref>]}
fi
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/pcsi-vet" ./cmd/pcsi-vet
if [ -n "$against" ]; then
    mkdir "$tmp/ref"
    git archive "$against" | tar -x -C "$tmp/ref"
    (cd "$tmp/ref" && go build -o "$tmp/pcsi-vet-old" ./cmd/pcsi-vet)
fi
# findings <binary>: the diagnostics of one binary over $tmp/tree.
findings() {
    (cd "$tmp/tree" && "$1" ./... 2>/dev/null | grep -v testdata/ || true)
}
for c in $(git log --reverse --format=%h); do
    mkdir "$tmp/tree"
    git archive "$c" | tar -x -C "$tmp/tree"
    if [ -n "$against" ]; then
        comm -23 <(findings "$tmp/pcsi-vet-old" | cut -d' ' -f1 | sort -u) \
            <(findings "$tmp/pcsi-vet" | cut -d' ' -f1 | sort -u) | sed "s/^/$c /"
    else
        found=$(findings "$tmp/pcsi-vet" | cut -d' ' -f2 | sort | uniq -c |
            awk '{printf "  %s %d", $2, $1}')
        echo "$c${found:-  clean}"
    fi
    rm -rf "$tmp/tree"
done

#!/usr/bin/env bash
# Alternating benchmark pairs: the working tree against a base revision.
#
#   scripts/pairs.sh <base-rev> -workload W [-seed S] [-n N] [-seconds T]
#
# Checks <base-rev> out with `git worktree` under .bench_build/, then runs
# N pairs of `bash bench/run.sh -workload W -seed S -seconds T`, one run in
# each tree. The base goes first in odd pairs and the working tree in even
# ones, so neither side is favoured by running first. It prints every
# run's result line, then for each end-to-end metric of BENCHMARK.json the
# two medians, their ratio, the base's interquartile range and how many
# pairs the working tree won, and whether every run was "correct":true.
# Defaults: -seed 1, -n 10, -seconds 15. Nothing needs the network.
set -euo pipefail

cd "$(dirname "$0")/.."
root=$(pwd)

usage() {
    echo "usage: scripts/pairs.sh <base-rev> -workload W [-seed S] [-n N] [-seconds T]" >&2
    exit 2
}
[ $# -ge 1 ] || usage
base_rev=$1
shift
workload= seed=1 n=10 seconds=15
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case $1 in
    -workload) workload=$2 ;;
    -seed) seed=$2 ;;
    -n) n=$2 ;;
    -seconds) seconds=$2 ;;
    *) usage ;;
    esac
    shift 2
done
[ -n "$workload" ] || usage

base_sha=$(git rev-parse --verify "$base_rev^{commit}")
wt="$root/.bench_build/pairs-base"
drop_base() {
    git worktree remove --force "$wt" 2>/dev/null || rm -rf "$wt"
    git worktree prune
}
drop_base # left by a run that was killed
tmp=$(mktemp -d)
trap 'drop_base; rm -rf "$tmp"' EXIT
mkdir -p "$root/.bench_build"
git worktree add --quiet --detach "$wt" "$base_sha"

# Build both binaries before the first timed run.
for tree in "$wt" "$root"; do
    bash "$tree/bench/run.sh" -print-spec > /dev/null
done

# The end-to-end metrics and which way is better, from BENCHMARK.json.
metrics=$(awk '/"end_to_end"/ { f = 1 }
    f && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
    f && /"better"/ { gsub(/[",]/, "", $2); print name, $2 }
    f && /^  \]/ { f = 0 }' "$root/BENCHMARK.json")

run() { # side tree pair
    local line
    line=$(bash "$2/bench/run.sh" -workload "$workload" -seed "$seed" -seconds "$seconds" | tail -n 1) || true
    echo "$line" > "$tmp/$1.$3"
    echo "pair $3 $1: $line"
}
echo "base $base_rev ($base_sha) against the working tree: $workload, seed $seed, $n pairs of $seconds s"
for i in $(seq "$n"); do
    if [ $((i % 2)) -eq 1 ]; then
        run base "$wt" "$i"
        run change "$root" "$i"
    else
        run change "$root" "$i"
        run base "$wt" "$i"
    fi
done

value() { # metric file
    sed -n "s/.*\"$1\":{\"value\":\([0-9.e+-]*\).*/\1/p" "$2"
}
correct=0
for f in "$tmp"/*.*; do
    grep -q '"correct":true' "$f" && correct=$((correct + 1))
done
echo
printf '%-14s %-7s %14s %14s %8s %12s %6s\n' metric better base change ratio base-IQR wins
echo "$metrics" | while read -r m better; do
    for i in $(seq "$n"); do
        echo "$(value "$m" "$tmp/base.$i") $(value "$m" "$tmp/change.$i")"
    done | awk -v m="$m" -v better="$better" '
        # q is the p-quantile of the sorted x[1..k], linearly interpolated.
        function q(x, k, p,    h, lo) {
            h = (k - 1) * p + 1
            lo = int(h)
            return lo >= k ? x[k] : x[lo] + (h - lo) * (x[lo + 1] - x[lo])
        }
        function isort(x, k,    i, j, t) {
            for (i = 2; i <= k; i++)
                for (j = i; j > 1 && x[j - 1] > x[j]; j--) {
                    t = x[j]; x[j] = x[j - 1]; x[j - 1] = t
                }
        }
        NF == 2 {
            k++; b[k] = $1; c[k] = $2
            if (better == "higher" ? $2 > $1 : $2 < $1) wins++
        }
        END {
            if (k == 0) { printf "%-14s %-7s %14s\n", m, better, "no values"; exit }
            isort(b, k); isort(c, k)
            mb = q(b, k, 0.5); mc = q(c, k, 0.5)
            printf "%-14s %-7s %14.6g %14.6g %8.4f %12.6g %3d/%d\n", m, better, mb, mc,
                mb == 0 ? 0 : mc / mb, q(b, k, 0.75) - q(b, k, 0.25), wins, k
        }'
done
echo "correct:true in $correct of $((2 * n)) runs"
[ "$correct" -eq $((2 * n)) ]

#!/usr/bin/env sh
# CI gate: build, vet (go vet + the repo's own invariant analyzers), then
# the full test suite under the race detector. Run from anywhere; operates
# on the repository containing this script.
set -eu

cd "$(dirname "$0")/.."

echo '== go build'
go build ./...

echo '== go vet'
go vet ./...

echo '== pcsi-vet (invariant analyzers)'
t0=$(date +%s)
go run ./cmd/pcsi-vet ./...
# The "small" ledger every PR reports the same way (nothing is gated on it).
loc=$(find internal cmd pcsi -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -exec cat {} + | wc -l)
echo "pcsi-vet ./... took $(($(date +%s) - t0)) s; non-test Go under internal/ cmd/ pcsi/: $loc lines"

echo '== pcsi-vet SARIF (the uploaded artifact; byte-identical across runs)'
# pcsi-vet exits 1 when diagnostics fire, but the tree is clean here (the
# text run above already gated).
go run ./cmd/pcsi-vet -format sarif ./... > pcsi-vet.sarif
go run ./cmd/pcsi-vet -format sarif ./... > /tmp/pcsi-vet-b.sarif
cmp pcsi-vet.sarif /tmp/pcsi-vet-b.sarif || { echo 'pcsi-vet -format sarif not byte-identical across runs' >&2; exit 1; }

echo '== gofmt'
badfmt=$(gofmt -l . | grep -v '^\.git' || true)
if [ -n "$badfmt" ]; then
    echo "gofmt needed on:" >&2
    echo "$badfmt" >&2
    exit 1
fi

echo '== go test -race'
go test -race ./...

echo '== trace export smoke'
go run ./cmd/pcsictl trace e1 -o /tmp/t.json 2>/dev/null
go run ./cmd/pcsictl trace -verify /tmp/t.json

echo '== chaos smoke (seed sweep with fault injection; exits 1 on invariant violation)'
go run ./cmd/pcsictl chaos E4 -seeds 5

echo '== E13/E14/E15 smokes (byte-identical across runs; required shape checks present; exits 1 on FAIL)'
# id:required-PASS-labels. pcsi-bench itself exits 1 when any check FAILs;
# the labels guard against a check silently disappearing.
for smoke in \
    E13: \
    E14:hot-keys-hit,lease-zero-stale \
    E15:faasfs-serializable,faasfs-beats-rest
do
    id=${smoke%%:*}
    go run ./cmd/pcsi-bench -run "$id" > "/tmp/$id-a.txt"
    go run ./cmd/pcsi-bench -run "$id" > "/tmp/$id-b.txt"
    cmp "/tmp/$id-a.txt" "/tmp/$id-b.txt" || { echo "$id not byte-identical across runs" >&2; exit 1; }
    for label in $(echo "${smoke#*:}" | tr ',' ' '); do
        grep -q "\[PASS\] $label" "/tmp/$id-a.txt" || { echo "$id shape check $label missing" >&2; exit 1; }
    done
done

echo '== dashboard smoke (telemetry plane; HTML + JSON timeline must be byte-identical across re-runs)'
go run ./cmd/pcsictl dash e13 -seed 1 -o /tmp/dash-a.html 2>/dev/null
go run ./cmd/pcsictl dash e13 -seed 1 -o /tmp/dash-b.html 2>/dev/null
cmp /tmp/dash-a.html /tmp/dash-b.html || { echo 'dash HTML not byte-identical across runs' >&2; exit 1; }
cmp /tmp/dash-a.json /tmp/dash-b.json || { echo 'dash JSON timeline not byte-identical across runs' >&2; exit 1; }
cp /tmp/dash-a.html pcsi-dash-e13.html
cp /tmp/dash-a.json pcsi-dash-e13.json

echo '== fuzz smoke (10 s each; a finding is written under internal/pcsinet/testdata/fuzz and fails the gate)'
go test -run '^$' -fuzz FuzzReadFrame -fuzztime 10s ./internal/pcsinet
go test -run '^$' -fuzz FuzzDispatch -fuzztime 10s ./internal/pcsinet

echo '== pcsid/pcsictl smoke (the two binaries end to end over loopback)'
smoke=$(mktemp -d)
go build -o "$smoke/pcsid" ./cmd/pcsid
go build -o "$smoke/pcsictl" ./cmd/pcsictl
"$smoke/pcsid" -addr 127.0.0.1:0 > "$smoke/pcsid.log" &
pcsid_pid=$!
trap 'kill "$pcsid_pid" 2>/dev/null || true; rm -rf "$smoke"' EXIT
addr=
for _ in $(seq 20); do
    addr=$(sed -n 's/^pcsid serving PCSI on \([^ ]*\) .*/\1/p' "$smoke/pcsid.log")
    [ -n "$addr" ] && break
    sleep 0.25
done
[ -n "$addr" ] || { echo 'pcsid did not come up' >&2; cat "$smoke/pcsid.log" >&2; exit 1; }
ctl() { "$smoke/pcsictl" -addr "$addr" "$@"; }
tok=$(ctl create regular)
ctl put "$tok" 'smoke payload'
[ "$(ctl get "$tok")" = 'smoke payload' ] || { echo 'pcsictl get did not return what put wrote' >&2; exit 1; }
ctl stat "$tok" | grep -q '^size  *13$' || { echo 'pcsictl stat size is not 13' >&2; exit 1; }
sock=$(ctl create socket)
ctl socksend "$sock" client ping
[ "$(ctl sockrecv "$sock" server)" = ping ] || { echo 'socket message did not round-trip' >&2; exit 1; }
ctl stats | grep -q '^virtual_now' || { echo 'pcsictl stats printed no virtual_now' >&2; exit 1; }
rc=0
ctl get ref-bogus 2>/dev/null || rc=$?
[ "$rc" -eq 1 ] || { echo "pcsictl get <bogus-token> exited $rc, want 1" >&2; exit 1; }
kill "$pcsid_pid"

echo '== bench harness (smoke, drift, oracle and compare tests; engine-storm event count + golden digest)'
(cd bench && go test ./...)
# Exits non-zero unless the pass dispatches exactly 351,402 events with
# 37,401 peak live procs and matches bench/golden/engine-storm.seed1.
bash bench/run.sh -workload engine-storm -seed 1 -seconds 5 -trace 0
# Copy tripwire: an 8 MiB task graph owes one 8 MiB allocation (Put's ingress
# copy). A second one — 16.0 MiB/graph before frozen bytes were shared — means
# a copy of IMMUTABLE content crept back in (DESIGN §5, "Who may share a
# backing array").
graph=$(bash bench/run.sh -workload graph-bytes -seed 1 -seconds 5 -trace 1 | tail -n 1)
echo "$graph" | grep -q '"correct":true' || { echo "graph-bytes not correct: $graph" >&2; exit 1; }
mib=$(echo "$graph" | sed -n 's/.*"object\.alloc_mib_per_graph":{"value":\([0-9.e+-]*\).*/\1/p')
awk -v v="$mib" 'BEGIN { exit !(v != "" && v + 0 < 9) }' || { echo "graph-bytes object.alloc_mib_per_graph = '$mib', want < 9" >&2; exit 1; }
echo "graph-bytes object.alloc_mib_per_graph = $mib MiB/graph"
# Copy tripwire for the node cache: a node holds no payload of an object that
# is not IMMUTABLE, only a version mark, so a cached-read op stays near 2.1
# allocations (3.355 when Put and Get staged a copy; the metric repeats to
# four digits). 3.0 or more means a payload copy for the node cache crept back.
reads=$(bash bench/run.sh -workload data-read -seed 1 -seconds 3 -trace 0 | tail -n 1)
echo "$reads" | grep -q '"correct":true' || { echo "data-read not correct: $reads" >&2; exit 1; }
allocs=$(echo "$reads" | sed -n 's/.*"allocs_per_op":{"value":\([0-9.e+-]*\).*/\1/p')
awk -v v="$allocs" 'BEGIN { exit !(v != "" && v + 0 < 3.0) }' || { echo "data-read allocs_per_op = '$allocs', want < 3.0" >&2; exit 1; }
echo "data-read allocs_per_op = $allocs"

echo 'CI OK'

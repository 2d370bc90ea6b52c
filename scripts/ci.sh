#!/usr/bin/env sh
# CI gate: build, vet (go vet + the repo's own invariant analyzers), then
# the full test suite under the race detector. Run from anywhere; operates
# on the repository containing this script.
set -eu

cd "$(dirname "$0")/.."

echo '== go toolchain (go1.23 or newer)'
# internal/sim/worker.go, which the engine cannot build without, is
# //go:build go1.23 (iter.Pull); an older toolchain fails deep in the build.
gover=$(go env GOVERSION)
minor=$(echo "$gover" | sed -n 's/^go1\.\([0-9][0-9]*\).*/\1/p')
[ -z "$minor" ] || [ "$minor" -ge 23 ] || { echo "$gover is older than go1.23, which internal/sim/worker.go needs: install go1.23 or newer" >&2; exit 1; }

echo '== go directive (go.mod and bench/go.mod agree)'
# bench/run.sh builds the bench module with GOFLAGS=-mod=readonly. A root
# go line newer than bench/go.mod's makes that build want to rewrite
# bench/go.mod, which it may not, so every benchmark run would fail.
root_go=$(sed -n 's/^go //p' go.mod)
bench_go=$(sed -n 's/^go //p' bench/go.mod)
[ "$root_go" = "$bench_go" ] || { echo "go.mod says go $root_go but bench/go.mod says go $bench_go: bench/run.sh builds with -mod=readonly and would fail; change both go lines together" >&2; exit 1; }

echo '== go build'
go build ./...

echo '== go vet'
go vet ./...

echo '== pcsi-vet (invariant analyzers)'
t0=$(date +%s)
go run ./cmd/pcsi-vet ./...
# The "small" ledger every PR reports the same way (nothing is gated on it).
loc=$(find internal cmd pcsi -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -exec cat {} + | wc -l)
# Exported top-level names of the facade (one per alias, const, var, type
# and func line) and the reachability walk's exemptions.
facade=$(grep -cE '^(func|type|var) [A-Z]|^	[A-Z][A-Za-z]* += ' pcsi/pcsi.go)
exempt=$(awk '/^var reachExempt/{f=1;next} f&&/^}/{f=0} f&&/^\t"/{n++} END{print n}' internal/analysis/reach_test.go)
echo "pcsi-vet ./... took $(($(date +%s) - t0)) s; non-test Go under internal/ cmd/ pcsi/: $loc lines; pcsi exports: $facade; reachExempt entries: $exempt"

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

echo '== trace export smoke (one experiment, then a merged list)'
go run ./cmd/pcsictl trace e1 -o /tmp/t.json 2>/dev/null
go run ./cmd/pcsictl trace -verify /tmp/t.json
go run ./cmd/pcsictl trace E2,E4 -o /tmp/t2.json 2>/dev/null
go run ./cmd/pcsictl trace -verify /tmp/t2.json

echo '== chaos smoke (seed sweep with fault injection; exits 1 on invariant violation)'
go run ./cmd/pcsictl chaos E4 -seeds 5

echo '== profile smoke (pcsictl run -cpuprofile writes a profile pprof reads)'
go run ./cmd/pcsictl run E4 -cpuprofile /tmp/pcsictl-cpu.prof > /dev/null
go tool pprof -top /tmp/pcsictl-cpu.prof > /dev/null

echo '== width smoke (fanned arms and chaos seeds print the same bytes at GOMAXPROCS 1 and 4)'
for w in 1 4; do
    GOMAXPROCS=$w go run ./cmd/pcsictl run E4,E5,E7,E9,E13,E14,E15 > /tmp/width-run-$w.txt
    GOMAXPROCS=$w go run ./cmd/pcsictl chaos E4 -seeds 3 > /tmp/width-chaos-$w.txt
done
cmp /tmp/width-run-1.txt /tmp/width-run-4.txt || { echo 'pcsictl run output depends on GOMAXPROCS' >&2; exit 1; }
cmp /tmp/width-chaos-1.txt /tmp/width-chaos-4.txt || { echo 'pcsictl chaos output depends on GOMAXPROCS' >&2; exit 1; }

echo '== E13/E14/E15 smoke (exits 1 on FAIL; required shape checks present)'
# The tests above already pin every simulated report byte-for-byte to the
# committed pcsi_bench_output.txt, so the labels are grepped there: they
# guard against a check silently disappearing from the golden itself.
go run ./cmd/pcsictl run E13,E14,E15 > /dev/null
for label in qos-kills-retry-storm noqos-retry-storm hot-keys-hit lease-zero-stale faasfs-serializable faasfs-beats-rest; do
    grep -q "\[PASS\] $label" pcsi_bench_output.txt || { echo "shape check $label missing from pcsi_bench_output.txt" >&2; exit 1; }
done

echo '== dashboard smoke (telemetry plane; HTML + JSON timeline must be byte-identical across re-runs)'
go run ./cmd/pcsictl dash e13 -seed 1 -o /tmp/dash-a.html 2>/dev/null
go run ./cmd/pcsictl dash e13 -seed 1 -o /tmp/dash-b.html 2>/dev/null
cmp /tmp/dash-a.html /tmp/dash-b.html || { echo 'dash HTML not byte-identical across runs' >&2; exit 1; }
cmp /tmp/dash-a.json /tmp/dash-b.json || { echo 'dash JSON timeline not byte-identical across runs' >&2; exit 1; }
cp /tmp/dash-a.html pcsi-dash-e13.html
cp /tmp/dash-a.json pcsi-dash-e13.json
# E13's SLOs and the dashboard read series that qos registers itself.
for m in qos_invoke_shed qos_invoke_admitted; do
    grep -q "\"metric\": \"$m\"" pcsi-dash-e13.json || { echo "pcsi-dash-e13.json has no $m series" >&2; exit 1; }
done

echo '== fuzz smoke (10 s each; a finding is written under testdata/fuzz in its package and fails the gate)'
go test -run '^$' -fuzz FuzzReadFrame -fuzztime 10s ./internal/pcsinet
go test -run '^$' -fuzz FuzzDispatch -fuzztime 10s ./internal/pcsinet
go test -run '^$' -fuzz FuzzLatticePayload -fuzztime 10s ./internal/fncache
go test -run '^$' -fuzz FuzzPayloadHolders -fuzztime 10s ./internal/object
go test -run '^$' -fuzz FuzzEngineOrder -fuzztime 10s ./internal/sim

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
# SIGINT is the signal pcsid handles: it must drain (Server.Close) and exit 0.
kill -INT "$pcsid_pid"
for _ in $(seq 20); do
    kill -0 "$pcsid_pid" 2>/dev/null || break
    sleep 0.25
done
kill -0 "$pcsid_pid" 2>/dev/null && { echo 'pcsid did not exit within 5 s of SIGINT' >&2; exit 1; }
rc=0
wait "$pcsid_pid" || rc=$?
[ "$rc" -eq 0 ] || { echo "pcsid exited $rc after SIGINT, want 0" >&2; cat "$smoke/pcsid.log" >&2; exit 1; }
grep -q '^pcsid: shutting down$' "$smoke/pcsid.log" || { echo 'pcsid log lacks "pcsid: shutting down"' >&2; exit 1; }

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
# is not IMMUTABLE, only a version mark, so a cached-read op stays near 1.4
# allocations (3.355 when Put and Get staged a copy; the metric repeats to
# four digits). 3.0 or more means a payload copy for the node cache crept back.
reads=$(bash bench/run.sh -workload data-read -seed 1 -seconds 3 -trace 0 | tail -n 1)
echo "$reads" | grep -q '"correct":true' || { echo "data-read not correct: $reads" >&2; exit 1; }
allocs=$(echo "$reads" | sed -n 's/.*"allocs_per_op":{"value":\([0-9.e+-]*\).*/\1/p')
awk -v v="$allocs" 'BEGIN { exit !(v != "" && v + 0 < 3.0) }' || { echo "data-read allocs_per_op = '$allocs', want < 3.0" >&2; exit 1; }
echo "data-read allocs_per_op = $allocs"
# Spawn tripwire for replication: a replicated write runs its replica legs as
# engine callbacks, so a write op stays near 4.3 allocations (6.58 when each
# leg was a process). 6.0 or more means a fan-out spawns again (DESIGN §5,
# "Replication rounds"). The golden digest pins the event count and the
# virtual end time, so a moved event fails the run first.
writes=$(bash bench/run.sh -workload data-write -seed 1 -seconds 3 -trace 0 | tail -n 1)
echo "$writes" | grep -q '"correct":true' || { echo "data-write not correct: $writes" >&2; exit 1; }
allocs=$(echo "$writes" | sed -n 's/.*"allocs_per_op":{"value":\([0-9.e+-]*\).*/\1/p')
awk -v v="$allocs" 'BEGIN { exit !(v != "" && v + 0 < 6.0) }' || { echo "data-write allocs_per_op = '$allocs', want < 6.0" >&2; exit 1; }
echo "data-write allocs_per_op = $allocs"
# The reproduction as a user runs it: E1–E15 and a 2-seed E4 chaos sweep must
# pass all 76 shape checks and match bench/golden/repro-suite.seed1. E1's
# checks are the only host-measured input to that verdict; its fast-network
# check counts in the host's own system calls, so a fast host passes it as a
# slow one does.
suite=$(bash bench/run.sh -workload repro-suite -seed 1 -seconds 5 -trace 0 | tail -n 1)
echo "$suite" | grep -q '"correct":true' || { echo "repro-suite not correct: $suite" >&2; exit 1; }

echo 'CI OK'

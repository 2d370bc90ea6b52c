package experiments

import (
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/simnet"
)

// chaosSchedule is a fixed deterministic fault script layered on top of the
// stochastic rates: a node crash with later recovery, plus a transient
// partition isolating one node.
func chaosSchedule() []fault.Event {
	return []fault.Event{
		{At: 5 * time.Millisecond, Action: fault.CrashNode, Node: 1},
		{At: 20 * time.Millisecond, Action: fault.Partition, Groups: [][]simnet.NodeID{nil, {2}}},
		{At: 40 * time.Millisecond, Action: fault.Heal},
		{At: 60 * time.Millisecond, Action: fault.RecoverNode, Node: 1},
	}
}

func renderChaos(t *testing.T, cfg ChaosConfig) string {
	t.Helper()
	rep, err := RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	rep.Render(&buf)
	if !rep.InvariantsHeld() {
		t.Fatalf("chaos invariants violated:\n%s", buf.String())
	}
	return buf.String()
}

// Seed-sweep regression: E2 and E4 under a fixed fault schedule plus
// stochastic rates, 25 seeds each, must render byte-identically run to run
// and hold every invariant (no stale linearizable reads, convergence after
// quiescence, no leaked graphs or capabilities).
func TestChaosSweepByteIdenticalAndInvariantsHold(t *testing.T) {
	for _, exp := range []string{"E2", "E4"} {
		t.Run(exp, func(t *testing.T) {
			cfg := ChaosConfig{
				Exp:       exp,
				Seeds:     25,
				FaultRate: 0.02,
				Schedule:  chaosSchedule(),
			}
			first := renderChaos(t, cfg)
			second := renderChaos(t, cfg)
			if first != second {
				t.Fatalf("chaos sweep not byte-identical across runs:\n--- first ---\n%s\n--- second ---\n%s", first, second)
			}
			if !strings.Contains(first, "node.crash") {
				t.Errorf("scheduled crash left no counter trace:\n%s", first)
			}
		})
	}
}

// Cache coherence under faults: E14's colocated caches ride through node
// crashes (FailNode drops the node's cached state) and partitions, 10 seeds
// at a hefty fault rate. The cache invariants — zero stale lease serves and
// lattice convergence after heal + quiescence — are checked per seed by the
// chaos harness, and the sweep must render byte-identically run to run.
func TestChaosE14CacheInvariants(t *testing.T) {
	cfg := ChaosConfig{
		Exp:       "E14",
		Seeds:     10,
		FaultRate: 0.05,
		Schedule:  chaosSchedule(),
	}
	first := renderChaos(t, cfg)
	second := renderChaos(t, cfg)
	if first != second {
		t.Fatalf("E14 chaos sweep not byte-identical across runs:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	if !strings.Contains(first, "node.crash") {
		t.Errorf("scheduled crash left no counter trace:\n%s", first)
	}
}

// Transactional file system under faults: E15's faasfs arm must never
// expose a stale or half-committed transaction — after HealAll the store
// must match the committed model exactly (the redo log rolls forward in
// the quiescent audit), across a 10-seed sweep at fault rate 0.05. The
// sweep must also render byte-identically run to run.
func TestChaosE15FaaSFSInvariants(t *testing.T) {
	cfg := ChaosConfig{
		Exp:       "E15",
		Seeds:     10,
		FaultRate: 0.05,
		Schedule:  chaosSchedule(),
	}
	first := renderChaos(t, cfg)
	second := renderChaos(t, cfg)
	if first != second {
		t.Fatalf("E15 chaos sweep not byte-identical across runs:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	if !strings.Contains(first, "node.crash") {
		t.Errorf("scheduled crash left no counter trace:\n%s", first)
	}
}

// An E5 seed whose first deployment completes nothing sets no later one
// up: the seed's counters hold only the first deployment's failed setup op,
// as when the configs ran in a loop that returned at the first failure.
func TestChaosE5StopsAtFailedDeployment(t *testing.T) {
	out := renderChaos(t, ChaosConfig{Exp: "E5", Seeds: 2, FaultRate: 0.5, NoRetry: true})
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "seed ") && !strings.HasSuffix(l, "experiment fail (setup-dedicated, completed-dedicated) | op.error=1") {
			t.Errorf("want only the dedicated deployment's failed setup, got %q", l)
		}
	}
}

// Different base seeds explore different fault interleavings: at a hefty
// fault rate the injected-fault counters must differ across seeds while
// invariants still hold on every one.
func TestChaosSeedsDiffer(t *testing.T) {
	out := renderChaos(t, ChaosConfig{Exp: "E2", Seeds: 3, FaultRate: 0.1})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	seen := make(map[string]bool)
	for _, l := range lines {
		if strings.HasPrefix(l, "seed ") {
			if _, counters, ok := strings.Cut(l, "|"); ok {
				seen[counters] = true
			}
		}
	}
	if len(seen) < 2 {
		t.Errorf("3 seeds produced %d distinct counter mixes, want ≥2:\n%s", len(seen), out)
	}
}

// An unknown experiment is a config error, not a panic.
func TestChaosUnknownExperiment(t *testing.T) {
	if _, err := RunChaos(ChaosConfig{Exp: "E99"}); err == nil {
		t.Fatal("RunChaos accepted an unknown experiment")
	}
}

// Rate zero with no schedule still runs the sweep (sessions are idle):
// experiments must pass exactly as they do fault-free.
func TestChaosZeroRateIsCleanPassthrough(t *testing.T) {
	out := renderChaos(t, ChaosConfig{Exp: "E2", Seeds: 2})
	if !strings.Contains(out, "experiment checks: 2/2 seeds clean") {
		t.Errorf("fault-free chaos sweep not clean:\n%s", out)
	}
	if strings.Contains(out, "op.error") || strings.Contains(out, "link.drop") {
		t.Errorf("idle spec injected faults:\n%s", out)
	}
}

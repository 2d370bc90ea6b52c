package taskgraph

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/faas"
	"repro/internal/fault"
	"repro/internal/platform"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/trace"
)

func testRT(seed int64, colocate bool) (*sim.Env, *faas.Runtime) {
	env := sim.NewEnv(seed)
	net := simnet.New(env, simnet.DC2021)
	cl := cluster.New(env, net, cluster.Config{
		Racks: 2, NodesPerRack: 4,
		NodeCap:         cluster.Resources{MilliCPU: 16000, MemMB: 32768},
		GPUNodesPerRack: 1,
	})
	var plc faas.Placer
	if colocate {
		plc = scheduler.Colocate{C: cl}
	} else {
		plc = scheduler.Naive{C: cl}
	}
	return env, faas.NewRuntime(cl, plc, faas.Config{CodeStore: net.AddNode(0), Metrics: trace.NewRegistry()})
}

func reg(t *testing.T, rt *faas.Runtime, name string, d time.Duration) {
	t.Helper()
	err := rt.Register(&faas.Function{
		Name: name, Kind: platform.Wasm,
		Handler: func(inv *faas.Invocation) error { inv.Proc().Sleep(d); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGraphValidateTopo(t *testing.T) {
	g := NewGraph()
	for _, task := range []*Task{
		{Name: "c", Fn: "f", After: []string{"a", "b"}},
		{Name: "a", Fn: "f"},
		{Name: "b", Fn: "f", After: []string{"a"}},
	} {
		if err := g.Add(task); err != nil {
			t.Fatal(err)
		}
	}
	topo, err := g.Validate()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, n := range topo {
		pos[n] = i
	}
	if !(pos["a"] < pos["b"] && pos["b"] < pos["c"]) {
		t.Errorf("topo = %v", topo)
	}
}

func TestGraphCycleDetected(t *testing.T) {
	g := NewGraph()
	_ = g.Add(&Task{Name: "a", Fn: "f", After: []string{"b"}})
	_ = g.Add(&Task{Name: "b", Fn: "f", After: []string{"a"}})
	if _, err := g.Validate(); !errors.Is(err, ErrCycle) {
		t.Errorf("err = %v, want ErrCycle", err)
	}
}

func TestGraphUnknownDep(t *testing.T) {
	g := NewGraph()
	_ = g.Add(&Task{Name: "a", Fn: "f", After: []string{"ghost"}})
	if _, err := g.Validate(); !errors.Is(err, ErrUnknown) {
		t.Errorf("err = %v, want ErrUnknown", err)
	}
}

func TestGraphDuplicateTask(t *testing.T) {
	g := NewGraph()
	if err := g.Add(&Task{Name: "a", Fn: "f"}); err != nil {
		t.Fatal(err)
	}
	if err := g.Add(&Task{Name: "a", Fn: "f"}); !errors.Is(err, ErrDupTask) {
		t.Errorf("err = %v, want ErrDupTask", err)
	}
}

func TestExecuteRespectsOrder(t *testing.T) {
	env, rt := testRT(1, false)
	reg(t, rt, "f", time.Millisecond)
	g, err := Pipeline([]string{"s1", "s2", "s3"}, []string{"f", "f", "f"})
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(rt)
	var results map[string]*Result
	env.Go("main", func(p *sim.Proc) {
		results, err = ex.Execute(p, g)
	})
	env.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	if results["s2"].Start < results["s1"].End {
		t.Error("s2 started before s1 finished")
	}
	if results["s3"].Start < results["s2"].End {
		t.Error("s3 started before s2 finished")
	}
}

func TestExecutePipelinesIndependentBranches(t *testing.T) {
	env, rt := testRT(2, false)
	reg(t, rt, "slow", 50*time.Millisecond)
	reg(t, rt, "fast", time.Millisecond)
	g := NewGraph()
	_ = g.Add(&Task{Name: "a", Fn: "slow"})
	_ = g.Add(&Task{Name: "b", Fn: "fast"})
	ex := NewExecutor(rt)
	var results map[string]*Result
	env.Go("main", func(p *sim.Proc) {
		var err error
		results, err = ex.Execute(p, g)
		if err != nil {
			t.Error(err)
		}
	})
	env.Run()
	// b must not wait for a.
	if results["b"].End >= results["a"].End {
		t.Errorf("independent task b (%v) serialised behind a (%v)", results["b"].End, results["a"].End)
	}
}

func TestColocationHintsPlaceTogether(t *testing.T) {
	env, rt := testRT(3, true)
	reg(t, rt, "f", time.Millisecond)
	g, err := Pipeline([]string{"p", "q", "r"}, []string{"f", "f", "f"})
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(rt)
	var results map[string]*Result
	env.Go("main", func(p *sim.Proc) {
		results, err = ex.Execute(p, g)
		if err != nil {
			t.Error(err)
		}
	})
	env.Run()
	n1 := results["p"].Instance.Node.ID
	n2 := results["q"].Instance.Node.ID
	n3 := results["r"].Instance.Node.ID
	if n1 != n2 || n2 != n3 {
		t.Errorf("pipeline scattered across nodes %v, %v, %v with Colocate policy", n1, n2, n3)
	}
}

func TestDependencyFailureShortCircuits(t *testing.T) {
	env, rt := testRT(4, false)
	boom := errors.New("boom")
	if err := rt.Register(&faas.Function{Name: "bad", Kind: platform.Wasm,
		Handler: func(*faas.Invocation) error { return boom }}); err != nil {
		t.Fatal(err)
	}
	reg(t, rt, "ok", time.Millisecond)
	g := NewGraph()
	_ = g.Add(&Task{Name: "a", Fn: "bad"})
	_ = g.Add(&Task{Name: "b", Fn: "ok", After: []string{"a"}})
	ex := NewExecutor(rt)
	var results map[string]*Result
	var execErr error
	env.Go("main", func(p *sim.Proc) {
		results, execErr = ex.Execute(p, g)
	})
	env.Run()
	if execErr == nil {
		t.Fatal("Execute swallowed the failure")
	}
	if results["b"].Err == nil {
		t.Error("dependent task ran despite failed dependency")
	}
	if results["b"].Instance != nil {
		t.Error("dependent task was invoked")
	}
}

func TestPipelineHelperValidation(t *testing.T) {
	if _, err := Pipeline([]string{"a"}, []string{"f", "g"}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := Pipeline(nil, nil); err == nil {
		t.Error("empty pipeline accepted")
	}
	g, err := Pipeline([]string{"a", "b"}, []string{"f", "g"})
	if err != nil || g.Len() != 2 {
		t.Fatalf("Pipeline = %v, %v", g, err)
	}
}

// The executor's one retry path: the bound policy re-invokes a failed task,
// and Attempts counts the failures either way.
func TestRetryPolicyCountsFailedAttempts(t *testing.T) {
	for _, tc := range []struct {
		name     string
		failures int
		wantErr  bool
	}{
		{"recovers", 2, false},
		{"exhausted", 3, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env, rt := testRT(7, false)
			left := tc.failures
			if err := rt.Register(&faas.Function{Name: "flaky", Kind: platform.Wasm,
				Handler: func(*faas.Invocation) error {
					if left > 0 {
						left--
						return errors.New("transient")
					}
					return nil
				}}); err != nil {
				t.Fatal(err)
			}
			g := NewGraph()
			_ = g.Add(&Task{Name: "a", Fn: "flaky"})
			ex := NewExecutor(rt)
			ex.Retry = (&fault.Policy{MaxAttempts: 3, Retryable: func(error) bool { return true }}).Bind(env)
			env.Go("main", func(p *sim.Proc) {
				results, err := ex.Execute(p, g)
				if (err != nil) != tc.wantErr {
					t.Errorf("Execute = %v, want error: %v", err, tc.wantErr)
				}
				if results["a"].Attempts != tc.failures {
					t.Errorf("Attempts = %d, want %d", results["a"].Attempts, tc.failures)
				}
			})
			env.Run()
		})
	}
}

// Package taskgraph implements PCSI task graphs (§3.1): compositions of
// functions whose structure is visible to the system, "which opens up
// optimization opportunities such as pipelining or physical co-location."
//
// Graphs are specified ahead of time (Cloudburst-style). The executor runs
// every task whose dependencies have completed, so independent branches
// pipeline naturally, and passes each task a placement hint pointing at the
// node its first dependency ran on.
package taskgraph

import (
	"fmt"

	"repro/internal/faas"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Errors returned by graph construction and execution. All are structural
// defects in the submitted graph — fatal, since resubmitting the same
// shape can never succeed.
var (
	ErrCycle   = fault.Fatal("taskgraph: dependency cycle")
	ErrDupTask = fault.Fatal("taskgraph: duplicate task name")
	ErrUnknown = fault.Fatal("taskgraph: unknown dependency")
)

// Task is one node in a graph.
type Task struct {
	Name string
	// Fn names the registered function to invoke.
	Fn string
	// Body is the pass-by-value argument.
	Body []byte
	// After lists dependency task names.
	After []string
	// Colocate asks the executor to hint placement near the first
	// dependency's execution node.
	Colocate bool
	// PreferGPUNode hints placement onto a GPU-equipped node even for
	// CPU work, anticipating an accelerator-bound consumer (§4.1).
	PreferGPUNode bool
}

// Graph is a DAG of tasks.
type Graph struct {
	tasks map[string]*Task
	order []string
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return &Graph{tasks: make(map[string]*Task)} }

// Add inserts a task. Dependencies may be added in any order but must all
// exist by Execute time.
func (g *Graph) Add(t *Task) error {
	if t.Name == "" || t.Fn == "" {
		return fault.Fatal("taskgraph: task needs a name and function")
	}
	if _, dup := g.tasks[t.Name]; dup {
		return fmt.Errorf("%w: %q", ErrDupTask, t.Name)
	}
	g.tasks[t.Name] = t
	g.order = append(g.order, t.Name)
	return nil
}

// Len returns the number of tasks.
func (g *Graph) Len() int { return len(g.tasks) }

// Validate checks that dependencies exist and the graph is acyclic,
// returning a topological order.
func (g *Graph) Validate() ([]string, error) {
	indeg := make(map[string]int, len(g.tasks))
	out := make(map[string][]string, len(g.tasks))
	for name, t := range g.tasks {
		if _, ok := indeg[name]; !ok {
			indeg[name] = 0
		}
		for _, dep := range t.After {
			if _, ok := g.tasks[dep]; !ok {
				return nil, fmt.Errorf("%w: %q needs %q", ErrUnknown, name, dep)
			}
			indeg[name]++
			out[dep] = append(out[dep], name)
		}
	}
	var topo []string
	var ready []string
	for _, name := range g.order { // deterministic order
		if indeg[name] == 0 {
			ready = append(ready, name)
		}
	}
	for len(ready) > 0 {
		n := ready[0]
		ready = ready[1:]
		topo = append(topo, n)
		for _, m := range out[n] {
			indeg[m]--
			if indeg[m] == 0 {
				ready = append(ready, m)
			}
		}
	}
	if len(topo) != len(g.tasks) {
		return nil, ErrCycle
	}
	return topo, nil
}

// Result records one task's execution.
type Result struct {
	Task     *Task
	Instance *faas.Instance
	Start    sim.Time
	End      sim.Time
	Err      error
	// Attempts counts failed tries before the recorded outcome.
	Attempts int
	// Span is the task's trace span, or 0 when tracing was off. Dependent
	// tasks link their spans to it, giving the trace the graph's causal
	// edges.
	Span trace.SpanID
}

// Executor runs graphs on a FaaS runtime.
type Executor struct {
	rt *faas.Runtime
	// MakeCtx, when set, builds each task's invocation context (the PCSI
	// data context).
	MakeCtx func(t *Task) any
	// Retry, when set, re-invokes a failed task under a bound policy
	// (backoff, deadline, error classification); nil invokes it once.
	Retry *fault.Policy

	results map[string]*Result
	done    map[string]*sim.Event
	gspan   trace.SpanID // current graph/run span; task spans parent here
}

// NewExecutor returns an executor over rt.
func NewExecutor(rt *faas.Runtime) *Executor {
	return &Executor{rt: rt}
}

// Execute runs the whole graph from the calling process, returning
// per-task results. Tasks run as soon as their dependencies finish.
func (e *Executor) Execute(p *sim.Proc, g *Graph) (map[string]*Result, error) {
	if _, err := g.Validate(); err != nil {
		return nil, err
	}
	env := p.Env()
	e.results = make(map[string]*Result, g.Len())
	e.done = make(map[string]*sim.Event, g.Len())
	gsp := trace.Of(env).Start(p, "graph", "run", trace.Int("tasks", int64(g.Len())))
	e.gspan = gsp.SpanID()
	for _, name := range g.order {
		e.done[name] = env.NewEvent()
	}
	for _, name := range g.order {
		t := g.tasks[name]
		env.Go("task:"+t.Name, func(tp *sim.Proc) { e.runTask(tp, t) })
	}
	// Wait for every task.
	var firstErr error
	for _, name := range g.order {
		if _, err := p.Wait(e.done[name]); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, r := range e.results {
		if r.Err != nil && firstErr == nil {
			firstErr = r.Err
		}
	}
	gsp.Close(p)
	return e.results, firstErr
}

// runTask waits for dependencies, computes hints, and invokes. When traced,
// the dependency waits become root "task/wait" spans (queueing time, kept
// out of the graph span's attribution) and the execution becomes a "task"
// span parented under the graph/run span with causal links to every
// dependency's span.
func (e *Executor) runTask(p *sim.Proc, t *Task) {
	tr := trace.Of(p.Env())
	hints := faas.PlacementHints{PreferGPUNode: t.PreferGPUNode}
	var links []trace.SpanID
	for i, dep := range t.After {
		wsp := tr.Start(p, "task.wait", "wait:"+dep)
		v, err := p.Wait(e.done[dep])
		wsp.Close(p)
		r, _ := v.(*Result)
		if err == nil && r != nil && r.Err != nil {
			err = r.Err
		}
		if err != nil {
			e.finish(t, &Result{Task: t, Err: fmt.Errorf("taskgraph: dependency %q failed: %w", dep, err)})
			return
		}
		if r != nil && r.Span != 0 {
			links = append(links, r.Span)
		}
		if i == 0 && t.Colocate && r != nil && r.Instance != nil {
			hints.NearNode = r.Instance.Node.ID
			hints.HasNear = true
		}
	}
	res := &Result{Task: t, Start: p.Now()}
	tsp := tr.StartSpan(p, e.gspan, links, "task", t.Name, trace.Str("fn", t.Fn))
	var ctx any
	if e.MakeCtx != nil {
		ctx = e.MakeCtx(t)
	}
	var inst *faas.Instance
	// p is the task's own process, named "task:<name>" where it was spawned.
	err := e.Retry.Do(p, p.Name(), func() error {
		var ierr error
		inst, ierr = e.rt.Invoke(p, t.Fn, t.Body, hints, ctx)
		if ierr != nil {
			res.Attempts++
		}
		return ierr
	})
	if res.Attempts > 0 {
		tsp.Annotate(trace.Int("retries", int64(res.Attempts)))
	}
	tsp.Close(p)
	res.Span = tsp.SpanID()
	res.Instance = inst
	res.End = p.Now()
	res.Err = err
	e.finish(t, res)
}

func (e *Executor) finish(t *Task, r *Result) {
	e.results[t.Name] = r
	e.done[t.Name].Complete(r)
}

package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// Local Metric implementors: the real metrics package lives beside trace in
// the substrate tier, and trace itself may only import internal/sim.
type fakeCounter struct{ name string }

func (c *fakeCounter) Name() string { return c.name }

type fakeHistogram struct{ name string }

func (h *fakeHistogram) Name() string { return h.name }

// collect hands fn a constructor of environments traced by a fresh
// collector and returns the collector's data.
func collect(t *testing.T, fn func(newEnv func(seed int64) *sim.Env)) *Data {
	t.Helper()
	c := NewCollector()
	fn(func(seed int64) *sim.Env {
		env := sim.NewEnv(seed)
		c.Attach(env)
		return env
	})
	return c.Data()
}

func TestOfWithoutCollectorIsNil(t *testing.T) {
	env := sim.NewEnv(1)
	if tr := Of(env); tr != nil {
		t.Fatalf("Of with no collector attached = %v, want nil", tr)
	}
	if tr := Of(nil); tr != nil {
		t.Fatalf("Of(nil) = %v, want nil", tr)
	}
}

func TestNilSafety(t *testing.T) {
	// Every instrumentation-facing method must be a no-op on nil.
	var tr *Tracer
	tr.SetLabel("x")
	tr.Instant("track", "cat", "name")
	if sp := tr.Mark("track", "cat", "name", 0, 1); sp != nil {
		t.Fatalf("nil tracer Mark = %v, want nil", sp)
	}
	env := sim.NewEnv(1)
	env.Go("p", func(p *sim.Proc) {
		sp := tr.Start(p, "cat", "name")
		if sp != nil {
			t.Errorf("nil tracer Start = %v, want nil", sp)
		}
		sp.Annotate(Str("k", "v"))
		sp.Close(p)
		if id := sp.SpanID(); id != 0 {
			t.Errorf("nil span SpanID = %d, want 0", id)
		}
	})
	env.Run()
}

func TestNestingAndTrackInheritance(t *testing.T) {
	var outer, inner, root *Span
	d := collect(t, func(newEnv func(int64) *sim.Env) {
		env := newEnv(1)
		env.Go("driver", func(p *sim.Proc) {
			tr := Of(env)
			outer = tr.Start(p, "a", "outer")
			p.Sleep(10 * time.Millisecond)
			inner = tr.Start(p, "b", "inner")
			if got := current(p); got != inner {
				t.Errorf("Current = %v, want inner", got)
			}
			p.Sleep(5 * time.Millisecond)
			inner.Close(p)
			if got := current(p); got != outer {
				t.Errorf("after inner close Current = %v, want outer", got)
			}
			root = tr.StartSpan(p, NoParent, nil, "c", "root")
			root.Close(p)
			outer.Close(p)
		})
		env.Run()
	})
	if inner.Parent != outer.ID {
		t.Errorf("inner.Parent = %d, want outer %d", inner.Parent, outer.ID)
	}
	if inner.Track != "driver" || outer.Track != "driver" {
		t.Errorf("tracks = %q/%q, want driver", inner.Track, outer.Track)
	}
	if root.Parent != 0 {
		t.Errorf("NoParent span Parent = %d, want 0", root.Parent)
	}
	if got := inner.Duration(); got != 5*time.Millisecond {
		t.Errorf("inner duration = %v, want 5ms", got)
	}
	if len(d.Runs) != 1 || len(d.Runs[0].Spans) != 3 {
		t.Fatalf("collected %+v, want 1 run with 3 spans", d)
	}
}

// TestDataClosesOpenSpans leaks a span on purpose to prove Data closes
// still-open spans at collection time, and reports the leak.
//
//pcsi:allow spanleak the leak is the behavior under test
func TestDataClosesOpenSpans(t *testing.T) {
	d := collect(t, func(newEnv func(int64) *sim.Env) {
		env := newEnv(1)
		env.Go("p", func(p *sim.Proc) {
			Of(env).Start(p, "cat", "leaked")
			p.Sleep(time.Millisecond)
		})
		env.Run()
	})
	s := d.Runs[0].Spans[0]
	if s.open {
		t.Fatal("Data left span open")
	}
	if s.End.Sub(s.Start) != time.Millisecond {
		t.Fatalf("leaked span closed at %v after start, want 1ms (env final time)", s.End.Sub(s.Start))
	}
	if len(d.Leaked) != 1 || d.Leaked[0] != s {
		t.Fatalf("Leaked = %v, want the span whose process returned", d.Leaked)
	}
}

// A span left open by a process that Close aborted, or that closed it, is
// not a leak.
func TestAbortedSpanIsNoLeak(t *testing.T) {
	d := collect(t, func(newEnv func(int64) *sim.Env) {
		env := newEnv(1)
		never := env.NewEvent()
		env.Go("stuck", func(p *sim.Proc) {
			sp := Of(env).Start(p, "cat", "aborted")
			p.Wait(never) //nolint:errcheck
			sp.Close(p)
		})
		env.Go("tidy", func(p *sim.Proc) {
			sp := Of(env).Start(p, "cat", "closed")
			p.Sleep(time.Millisecond)
			sp.Close(p)
		})
		env.RunUntil(sim.Time(time.Second))
		env.Close()
	})
	if len(d.Runs[0].Spans) != 2 || len(d.Leaked) != 0 {
		t.Fatalf("%d spans, Leaked = %v; want 2 spans and no leak", len(d.Runs[0].Spans), d.Leaked)
	}
}

// Collectors are values: two of them trace their own environments and
// nothing else, and the process default exists only between
// StartCollecting and Stop.
func TestCollectorsAreIndependent(t *testing.T) {
	a, b := NewCollector(), NewCollector()
	ea, eb, none := sim.NewEnv(1), sim.NewEnv(1), sim.NewEnv(1)
	a.Attach(ea)
	b.Attach(eb)
	var nilCollector *Collector
	nilCollector.Attach(none)
	Of(ea).SetLabel("a")
	Of(eb).SetLabel("b")
	if Of(none) != nil || Of(ea) == Of(eb) {
		t.Fatal("a collector traced an environment it was not attached to")
	}
	if da, db := a.Data(), b.Data(); len(da.Runs) != 1 || da.Runs[0].Label != "a" || len(db.Runs) != 1 || db.Runs[0].Label != "b" {
		t.Fatalf("runs = %+v / %+v, want one each", da.Runs, db.Runs)
	}
	if Collecting() != nil {
		t.Fatal("a process default exists before StartCollecting")
	}
	c := StartCollecting()
	if Collecting() != c {
		t.Fatal("StartCollecting did not install its collector")
	}
	a.Stop()
	if Collecting() != c {
		t.Fatal("stopping another collector uninstalled the default")
	}
	c.Stop()
	if Collecting() != nil {
		t.Fatal("Stop left the default installed")
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	h := &fakeHistogram{name: "lat"}
	c := &fakeCounter{name: "ops"}
	r.Register(h)
	r.Register(c)
	r.Register(nil) // no-op
	if got := r.Names(); len(got) != 2 || got[0] != "lat" || got[1] != "ops" {
		t.Fatalf("Names = %v, want [lat ops]", got)
	}
	if r.Get("lat") != Metric(h) {
		t.Fatal("Get(lat) did not return the registered histogram")
	}
	if got := Lookup[*fakeCounter](r, "ops"); got != c {
		t.Fatalf("Lookup[*fakeCounter](ops) = %v, want %v", got, c)
	}
	if got := Lookup[*fakeCounter](r, "lat"); got != nil {
		t.Fatalf("Lookup with wrong type = %v, want nil", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	r.Register(&fakeCounter{name: "ops"})
}

// runWorkload drives a small two-process workload and returns its trace.
func runWorkload(t *testing.T, seed int64) *Data {
	return collect(t, func(newEnv func(int64) *sim.Env) {
		env := newEnv(seed)
		tr := Of(env)
		tr.SetLabel("workload")
		done := env.NewEvent()
		var firstID SpanID
		env.Go("producer", func(p *sim.Proc) {
			sp := tr.Start(p, "stage", "produce", Int("n", 3))
			p.Sleep(time.Duration(1+env.Rand().Intn(5)) * time.Millisecond)
			sp.Close(p)
			firstID = sp.ID
			done.Complete(nil)
		})
		env.Go("consumer", func(p *sim.Proc) {
			p.Wait(done)
			sp := tr.StartSpan(p, 0, []SpanID{firstID}, "stage", "consume")
			p.Sleep(2 * time.Millisecond)
			sp.Close(p)
		})
		tr.Instant("events", "mark", "tick")
		env.Run()
	})
}

func TestExportDeterministic(t *testing.T) {
	var bufs [2]bytes.Buffer
	for i := range bufs {
		if err := Export(&bufs[i], runWorkload(t, 7)); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
		t.Fatalf("same seed produced different exports:\n%s\n--\n%s", bufs[0].String(), bufs[1].String())
	}
	var f struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(bufs[0].Bytes(), &f); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(f.TraceEvents) == 0 {
		t.Fatal("export has no traceEvents")
	}
	phases := make(map[string]int)
	for _, ev := range f.TraceEvents {
		phases[ev["ph"].(string)]++
	}
	// 1 process + 3 thread metadata, 2 X spans, 1 instant, 1 flow pair.
	for ph, want := range map[string]int{"M": 4, "X": 2, "i": 1, "s": 1, "f": 1} {
		if phases[ph] != want {
			t.Errorf("ph %q count = %d, want %d (all: %v)", ph, phases[ph], want, phases)
		}
	}
}

func TestSpanIDsDifferAcrossSeeds(t *testing.T) {
	a := runWorkload(t, 1).Runs[0].Spans[0].ID
	b := runWorkload(t, 2).Runs[0].Spans[0].ID
	if a == b {
		t.Fatalf("span IDs identical across seeds (%d): not drawn from the seeded observer stream", a)
	}
}

// mkSpan builds a closed synthetic span for analyzer tests.
func mkSpan(id, parent SpanID, seq int, cat, name, track string, start, end time.Duration, links ...SpanID) *Span {
	return &Span{
		ID: id, Parent: parent, Links: links, Cat: cat, Name: name,
		Track: track, Start: sim.Time(start), End: sim.Time(end), seq: seq,
	}
}

func TestCriticalPathLinearChain(t *testing.T) {
	// Three sequential ops on one track: the chain covers everything.
	run := Run{Label: "lin", Spans: []*Span{
		mkSpan(1, 0, 0, "net", "a", "t", 0, 10*time.Millisecond),
		mkSpan(2, 0, 1, "core.data", "b", "t", 10*time.Millisecond, 30*time.Millisecond),
		mkSpan(3, 0, 2, "net", "c", "t", 30*time.Millisecond, 40*time.Millisecond),
	}}
	rep := CriticalPath(run)
	if len(rep.Chain) != 3 {
		t.Fatalf("chain length = %d, want 3", len(rep.Chain))
	}
	if rep.Coverage() != 1 {
		t.Fatalf("coverage = %v, want 1", rep.Coverage())
	}
	want := map[string]time.Duration{"net": 20 * time.Millisecond, "core.data": 20 * time.Millisecond}
	for _, c := range rep.Components {
		if want[c.Cat] != c.Total {
			t.Errorf("component %s = %v, want %v", c.Cat, c.Total, want[c.Cat])
		}
		delete(want, c.Cat)
	}
	if len(want) != 0 {
		t.Errorf("missing components: %v", want)
	}
}

func TestCriticalPathFollowsLinks(t *testing.T) {
	// Fork/join: join links to both branches; the longer branch (slow, on
	// its own track) must be chosen over the same-track short one.
	run := Run{Label: "fork", Spans: []*Span{
		mkSpan(1, 0, 0, "net", "start", "t1", 0, 5*time.Millisecond),
		mkSpan(2, 0, 1, "task", "fast", "t1", 5*time.Millisecond, 10*time.Millisecond, 1),
		mkSpan(3, 0, 2, "task", "slow", "t2", 5*time.Millisecond, 40*time.Millisecond, 1),
		mkSpan(4, 0, 3, "task", "join", "t1", 40*time.Millisecond, 50*time.Millisecond, 2, 3),
	}}
	rep := CriticalPath(run)
	names := make([]string, len(rep.Chain))
	for i, s := range rep.Chain {
		names[i] = s.Name
	}
	if got := strings.Join(names, ">"); got != "start>slow>join" {
		t.Fatalf("chain = %s, want start>slow>join", got)
	}
	if rep.Coverage() != 1 {
		t.Fatalf("coverage = %v, want 1", rep.Coverage())
	}
}

func TestCriticalPathSelfTimeAttribution(t *testing.T) {
	// A parent mostly covered by a child charges only its self-time.
	run := Run{Label: "nest", Spans: []*Span{
		mkSpan(1, 0, 0, "faas", "invoke", "t", 0, 100*time.Millisecond),
		mkSpan(2, 1, 1, "fn", "handler", "t", 10*time.Millisecond, 90*time.Millisecond),
	}}
	rep := CriticalPath(run)
	got := make(map[string]time.Duration)
	for _, c := range rep.Components {
		got[c.Cat] = c.Total
	}
	if got["faas"] != 20*time.Millisecond || got["fn"] != 80*time.Millisecond {
		t.Fatalf("attribution = %v, want faas=20ms fn=80ms", got)
	}
}

func TestCriticalPathEmptyAndInstantOnly(t *testing.T) {
	rep := CriticalPath(Run{Label: "empty"})
	if len(rep.Chain) != 0 || rep.Coverage() != 1 {
		t.Fatalf("empty run report = %+v, want empty chain, coverage 1", rep)
	}
	inst := &Span{ID: 1, Cat: "c", Name: "n", Instant: true}
	rep = CriticalPath(Run{Label: "inst", Spans: []*Span{inst}})
	if len(rep.Chain) != 0 {
		t.Fatalf("instant-only run chain = %v, want empty", rep.Chain)
	}
	var buf bytes.Buffer
	rep.Render(&buf)
	if !strings.Contains(buf.String(), "no timed spans") {
		t.Fatalf("Render of empty report = %q", buf.String())
	}
}

func TestMerge(t *testing.T) {
	a := &Data{Runs: []Run{{Label: "a"}}}
	b := &Data{Runs: []Run{{Label: "b"}, {Label: "c"}}}
	m := Merge(a, nil, b)
	if len(m.Runs) != 3 || m.Runs[0].Label != "a" || m.Runs[2].Label != "c" {
		t.Fatalf("Merge = %+v", m.Runs)
	}
}

// TestUntracedSpansAllocateNothing pins the cost of instrumentation nobody
// is collecting: integer attributes stay unrendered and the variadic slice
// stays on the caller's stack, so the hot call sites (simnet.Send opens
// exactly this span per message) need no "if tracing" guard of their own.
func TestUntracedSpansAllocateNothing(t *testing.T) {
	env := sim.NewEnv(1)
	env.SetObserver("another package's slot", 1) // the lookup skips it
	env.Go("p", func(p *sim.Proc) {
		from, to, size := int64(p.Now()), int64(2), int64(4096)
		if n := testing.AllocsPerRun(100, func() {
			Of(env).Start(p, "net", "send", Int("from", from), Int("to", to), Int("bytes", size)).Close(p)
		}); n != 0 {
			t.Errorf("untraced Start/Close with three attributes: %v allocs, want 0", n)
		}
		if n := testing.AllocsPerRun(100, func() {
			Of(env).Instant("net", "net", "drop", Int("from", from), Int("to", to), Str("why", "partition"))
		}); n != 0 {
			t.Errorf("untraced Instant with three attributes: %v allocs, want 0", n)
		}
	})
	env.Run()
}

// current returns the process's innermost open span, or nil.
func current(p *sim.Proc) *Span {
	s, _ := p.SpanCtx().(*Span)
	return s
}

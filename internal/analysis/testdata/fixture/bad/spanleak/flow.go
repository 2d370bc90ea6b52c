package spanleak

import (
	"fixture/internal/sim"
	"fixture/internal/trace"
)

// NilGuarded touches sp behind a nil check and never closes it: comparing
// a span with nil does not hand it to anyone.
func NilGuarded(p *sim.Proc, tr *trace.Tracer) {
	sp := tr.Start(p, "cat", "guarded")
	if sp != nil {
		sp.Touch()
	}
	return // want: spanbalance
}

// ConditionalClose closes sp only when c holds.
func ConditionalClose(p *sim.Proc, tr *trace.Tracer, c bool) {
	sp := tr.Start(p, "cat", "maybe")
	if c {
		sp.Close(p)
	}
	return // want: spanbalance
}

// ClosedOnEveryExit closes sp before each way out, one of them a branch
// that leaves the loop body the span lives in: no diagnostic.
func ClosedOnEveryExit(p *sim.Proc, tr *trace.Tracer, n int) {
	for i := 0; i < n; i++ {
		sp := tr.Start(p, "cat", "step")
		if i == 3 {
			sp.Close(p)
			continue
		}
		if i == 7 {
			sp.Close(p)
			return
		}
		sp.Close(p)
	}
}

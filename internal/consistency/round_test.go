package consistency

import (
	"testing"
	"time"

	"repro/internal/object"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// Pinned allocations of one replicated write on three replicas. Apply:
// the round, its two legs' callbacks, and the clock sent with the state.
// Create: the same three, the object's lock and clock, and on each replica
// the object (two), its metadata and its copy of the clock.
const (
	applyAllocs  = 4
	createAllocs = 17
)

// A linearizable Apply and a Create on three replicas start no process:
// every leg of their round is an engine callback. The link hook sees each
// leg's messages leave while the writer is the only live process. Each
// write allocates at most its pinned count.
func TestReplicatedWritesStartNoProcess(t *testing.T) {
	env, net, g, client := testbed(1)
	sends, spawned := 0, 0
	net.SetLinkFaultFunc(func(a, b simnet.NodeID, size int) simnet.LinkFault {
		sends++
		if env.LiveProcs() > 1 {
			spawned++
		}
		return simnet.LinkFault{}
	})
	same := func(*object.Object) error { return nil }
	var applyN, createN float64
	env.Go("writer", func(p *sim.Proc) {
		id, err := g.Create(p, client, object.Regular)
		if err != nil {
			t.Error(err)
			return
		}
		// Each write is followed by a pause long enough for the leg the
		// majority did not wait for to finish inside the measurement.
		applyN = testing.AllocsPerRun(100, func() {
			if err := g.Apply(p, client, id, Linearizable, 0, same); err != nil {
				t.Error(err)
			}
			p.Sleep(time.Millisecond)
		})
		createN = testing.AllocsPerRun(100, func() {
			if _, err := g.Create(p, client, object.Regular); err != nil {
				t.Error(err)
			}
			p.Sleep(time.Millisecond)
		})
	})
	env.Run()
	if sends != 203*6 {
		t.Errorf("%d messages sent, want %d (six per write)", sends, 203*6)
	}
	if spawned != 0 {
		t.Errorf("%d messages left while a process besides the writer lived, want 0", spawned)
	}
	if applyN > applyAllocs {
		t.Errorf("a linearizable Apply on 3 replicas: %v allocations, want ≤ %d", applyN, applyAllocs)
	}
	if createN > createAllocs {
		t.Errorf("a Create on 3 replicas: %v allocations, want ≤ %d", createN, createAllocs)
	}
}

// A finished round leaves no span open: each leg closes the span of each
// of its two messages when the message arrives. A span left open would
// read as ending at the run's last event, a second after the round.
func TestFinishedRoundLeavesNoOpenSpan(t *testing.T) {
	env, _, g, client := testbed(1)
	coll := trace.NewCollector()
	coll.Attach(env)
	env.Go("writer", func(p *sim.Proc) {
		id, err := g.Create(p, client, object.Regular)
		if err != nil {
			t.Error(err)
			return
		}
		if err := g.Apply(p, client, id, Linearizable, 5, setData([]byte("hello"))); err != nil {
			t.Error(err)
		}
		p.Sleep(time.Second)
	})
	end := env.Run()
	d := coll.Data()
	legs := 0
	for _, s := range d.Runs[0].Spans {
		if s.Track != "replicate" {
			continue
		}
		legs++
		if s.Cat != "net" || s.Name != "send" || s.Parent != 0 {
			t.Errorf("replicate span %s/%s parent %d, want a root net/send", s.Cat, s.Name, s.Parent)
		}
		if s.End == end || s.End < s.Start {
			t.Errorf("replicate span %v–%v was not closed on arrival (run ends at %v)", s.Start, s.End, end)
		}
	}
	if legs != 8 {
		t.Errorf("%d replicate spans, want 8 (two writes, two legs each, two messages a leg)", legs)
	}
	if len(d.Leaked) != 0 {
		t.Errorf("%d spans leaked", len(d.Leaked))
	}
}

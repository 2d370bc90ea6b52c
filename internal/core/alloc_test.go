package core

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/object"
	"repro/internal/platform"
	"repro/internal/sim"
)

// A warm Invoke allocates the call's inputs/outputs holder, the faas
// Invocation and the adapter's FnCtx (which holds its node Client by value),
// and nothing per attempt beyond those two: the retry label is built at
// registration. Not parallel: AllocsPerRun counts the whole process.
func TestWarmInvokeAllocations(t *testing.T) {
	c := testCloud(1)
	cl := c.NewClient(0)
	var n float64
	run(t, c, func(p *sim.Proc) {
		fn, err := cl.RegisterFunction(p, FnConfig{Name: "noop", Kind: platform.Wasm, Handler: func(*FnCtx) error { return nil }})
		if err != nil {
			t.Error(err)
			return
		}
		in, err := cl.Create(p, object.Regular)
		if err != nil {
			t.Error(err)
			return
		}
		args := InvokeArgs{Inputs: []Ref{in}, Outputs: []Ref{in}}
		var ierr error
		n = testing.AllocsPerRun(50, func() {
			if _, err := cl.Invoke(p, fn, args); err != nil {
				ierr = err
			}
		})
		if ierr != nil {
			t.Error(ierr)
		}
		if c.Runtime().ColdStarts.Value() != 1 {
			t.Errorf("%d cold starts, want 1: the measured calls were not warm", c.Runtime().ColdStarts.Value())
		}
	})
	if n > 3 {
		t.Errorf("a warm Invoke made %v allocations, want ≤ 3", n)
	}
}

// payloadBytes reports the bytes one call of op allocates, averaged over
// calls inside a process of c.
func payloadBytes(t *testing.T, c *Cloud, setup func(p *sim.Proc) (op func() error)) uint64 {
	t.Helper()
	const calls = 20
	var per uint64
	run(t, c, func(p *sim.Proc) {
		op := setup(p)
		if op == nil {
			return
		}
		if err := op(); err != nil { // warm up: caches, histograms, heap slots
			t.Error(err)
			return
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			if err := op(); err != nil {
				t.Error(err)
				return
			}
		}
		runtime.ReadMemStats(&after)
		per = (after.TotalAlloc - before.TotalAlloc) / calls
	})
	return per
}

// View hands back the object's own bytes at every level: a 64 KiB MUTABLE
// payload costs it no payload allocation, while Get still copies it.
func TestViewAllocatesNoPayload(t *testing.T) {
	const size = 64 << 10
	read := func(view bool) uint64 {
		c := testCloud(1)
		cl := c.NewClient(0)
		return payloadBytes(t, c, func(p *sim.Proc) func() error {
			r, err := cl.Create(p, object.Regular)
			if err == nil {
				err = cl.Put(p, r, make([]byte, size))
			}
			if err != nil {
				t.Error(err)
				return nil
			}
			return func() error {
				var got []byte
				if view {
					got, err = cl.View(p, r)
				} else {
					got, err = cl.Get(p, r)
				}
				if err == nil && len(got) != size {
					t.Errorf("read %d bytes, want %d", len(got), size)
				}
				return err
			}
		})
	}
	if got := read(false); got < size {
		t.Errorf("Get of a 64 KiB MUTABLE object allocated %d bytes, want ≥ %d: it no longer copies", got, size)
	}
	if got := read(true); got >= size/16 {
		t.Errorf("View of a 64 KiB MUTABLE object allocated %d bytes, want < %d: it copies the payload", got, size/16)
	}
}

// Cloud.DataLat (pcsi_data_ops) samples each observed verb's virtual
// latency: a script times every verb with p.Now(), and the histogram's
// count, extremes and mean must be the script's own figures for exactly the
// rows that sample (Stat does not). It runs once alone, where the script's
// sleeps are mostly the engine's next event and run inline, and once beside
// a second process that keeps the queue busy, so they park; the figures
// must not differ.
func TestDataLatSamplesVirtualTime(t *testing.T) {
	type figures struct {
		count          int64
		min, max, mean time.Duration
	}
	script := func(busy bool) (want, got figures) {
		c := testCloud(3)
		cl := c.NewClient(0)
		done := false
		if busy {
			c.Env().Go("busy", func(p *sim.Proc) {
				for !done {
					p.Sleep(time.Microsecond)
				}
			})
		}
		run(t, c, func(p *sim.Proc) {
			defer func() { done = true }()
			var r Ref
			steps := []struct {
				name    string
				samples bool
				do      func() error
			}{
				{"create", true, func() (err error) { r, err = cl.Create(p, object.Regular); return err }},
				{"put", true, func() error { return cl.Put(p, r, make([]byte, 4096)) }},
				{"get", true, func() error { _, err := cl.Get(p, r); return err }},
				{"get_at", true, func() error { _, err := cl.GetAt(p, r, r.Level()); return err }},
				{"read_at", true, func() error { _, err := cl.ReadAt(p, r, 100, 1000); return err }},
				{"append", true, func() error { return cl.Append(p, r, make([]byte, 512)) }},
				{"stat", false, func() error { _, err := cl.Stat(p, r); return err }},
			}
			var sum time.Duration
			for _, s := range steps {
				start := p.Now()
				if err := s.do(); err != nil {
					t.Errorf("%s: %v", s.name, err)
					return
				}
				d := p.Now().Sub(start)
				if d <= 0 {
					t.Errorf("%s took no virtual time", s.name)
				}
				if !s.samples {
					continue
				}
				if want.count == 0 || d < want.min {
					want.min = d
				}
				want.max = max(want.max, d)
				sum += d
				want.count++
			}
			want.mean = sum / time.Duration(want.count)
			h := c.DataLat
			got = figures{h.Count(), h.Quantile(0), h.Quantile(1), h.Mean()}
		})
		return want, got
	}
	alone, aloneGot := script(false)
	busy, busyGot := script(true)
	for _, r := range []struct {
		name      string
		want, got figures
	}{{"alone", alone, aloneGot}, {"beside a busy process", busy, busyGot}} {
		if r.want.count != 6 || r.got != r.want {
			t.Errorf("%s: DataLat count/min/max/mean = %+v, want the script's %+v (6 sampling rows)", r.name, r.got, r.want)
		}
	}
	if alone != busy {
		t.Errorf("the script's figures differ: alone %+v, beside a busy process %+v", alone, busy)
	}
}

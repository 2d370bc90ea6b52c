package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// The engine's dispatch order, checked against a reference scheduler that
// shares no code with it: a sorted slice of pending (t, seq, who), and each
// process a goroutine that runs only while it holds the one token. Random
// programs — processes that sleep (with ties common), spawn children,
// complete and wait on events, and schedule callbacks — run on both, under
// Run and under a ladder of RunUntil limits, and must log the same (virtual
// time, process, step) sequence and the same dispatch counts.

type stepKind uint8

const (
	stepSleep stepKind = iota
	stepSpawn
	stepComplete
	stepWait
	stepAfter
	stepKinds
)

type step struct {
	kind  stepKind
	d     Duration
	ev    int    // the event completed, waited on, or (After, ≥0) completed by the callback
	child []step // stepSpawn: the child's script
}

type program struct {
	roots  [][]step
	events int
	ladder []Time // RunUntil limits, nondecreasing, before the final Run
}

// chooser draws program shapes from bytes; exhausted input reads as zero.
type chooser struct {
	data []byte
	i    int
}

func (c *chooser) pick(n int) int {
	if c.i >= len(c.data) {
		return 0
	}
	c.i++
	return int(c.data[c.i-1]) % n
}

var sleeps = [...]Duration{0, 1, 2, 5}

func genScript(c *chooser, events, depth int) []step {
	steps := make([]step, 1+c.pick(6))
	for i := range steps {
		s := step{kind: stepKind(c.pick(int(stepKinds)))}
		switch s.kind {
		case stepSpawn:
			if depth >= 2 {
				s.kind = stepSleep
			} else {
				s.child = genScript(c, events, depth+1)
			}
		case stepComplete, stepWait:
			s.ev = c.pick(events)
		case stepAfter:
			s.ev = c.pick(events+1) - 1
		}
		if s.kind == stepSleep || s.kind == stepAfter {
			s.d = sleeps[c.pick(len(sleeps))]
		}
		steps[i] = s
	}
	return steps
}

func genProgram(data []byte) program {
	c := &chooser{data: data}
	pg := program{events: 1 + c.pick(3)}
	for i := 1 + c.pick(4); i > 0; i-- {
		pg.roots = append(pg.roots, genScript(c, pg.events, 0))
	}
	var at Time
	for i := c.pick(5); i > 0; i-- {
		at += Time(c.pick(8))
		pg.ladder = append(pg.ladder, at)
	}
	return pg
}

// actor is a running process of either scheduler; world is the scheduler.
type actor interface {
	Sleep(d Duration)
	wait(ev int)
}

type world interface {
	now() Time
	spawn(body func(a actor))
	complete(ev int)
	after(d Duration, fn func())
	runUntil(limit Time)
	run()
	dispatched() uint64
}

// replay runs pg on w and returns its log.
func replay(w world, pg program, ladder bool) []string {
	var log []string
	var script func(name string, steps []step) func(a actor)
	script = func(name string, steps []step) func(a actor) {
		return func(a actor) {
			for i, s := range steps {
				log = append(log, fmt.Sprintf("%d %s#%d", w.now(), name, i))
				switch s.kind {
				case stepSleep:
					a.Sleep(s.d)
				case stepSpawn:
					w.spawn(script(fmt.Sprintf("%s.%d", name, i), s.child))
				case stepComplete:
					w.complete(s.ev)
				case stepWait:
					a.wait(s.ev)
				case stepAfter:
					cb, ev := fmt.Sprintf("%s.%d", name, i), s.ev
					w.after(s.d, func() {
						log = append(log, fmt.Sprintf("%d cb:%s", w.now(), cb))
						if ev >= 0 {
							w.complete(ev)
						}
					})
				}
			}
		}
	}
	for i, r := range pg.roots {
		w.spawn(script(fmt.Sprintf("r%d", i), r))
	}
	if ladder {
		for _, l := range pg.ladder {
			w.runUntil(l)
			log = append(log, fmt.Sprintf("%d stop dispatched=%d", w.now(), w.dispatched()))
		}
	}
	w.run()
	return append(log, fmt.Sprintf("%d end dispatched=%d", w.now(), w.dispatched()))
}

// engineWorld drives the engine under test.
type engineWorld struct {
	e   *Env
	evs []*Event
}

type engineActor struct {
	p   *Proc
	evs []*Event
}

func (a engineActor) Sleep(d Duration) { a.p.Sleep(d) }
func (a engineActor) wait(ev int)      { a.p.Wait(a.evs[ev]) } //nolint:errcheck // completed with nil

func newEngineWorld(events int) *engineWorld {
	w := &engineWorld{e: NewEnv(1)}
	for i := 0; i < events; i++ {
		w.evs = append(w.evs, w.e.NewEvent())
	}
	return w
}

func (w *engineWorld) now() Time { return w.e.Now() }
func (w *engineWorld) spawn(body func(a actor)) {
	w.e.Go("p", func(p *Proc) { body(engineActor{p, w.evs}) })
}
func (w *engineWorld) complete(ev int)             { w.evs[ev].Complete(nil) }
func (w *engineWorld) after(d Duration, fn func()) { w.e.After(d, fn) }
func (w *engineWorld) runUntil(limit Time)         { w.e.RunUntil(limit) }
func (w *engineWorld) run()                        { w.e.Run() }
func (w *engineWorld) dispatched() uint64          { return w.e.Dispatched() }

// refWorld is the reference: every wake goes through the pending slice and
// every process hands the token back to the scheduler when it waits.
type refWorld struct {
	t       Time
	seq     uint64
	count   uint64
	pending []refEntry
	done    []bool
	waiters [][]*refProc
	parked  map[*refProc]bool
}

type refEntry struct {
	t    Time
	seq  uint64
	proc *refProc
	fn   func()
}

type refProc struct {
	w       *refWorld
	body    func(a actor)
	started bool
	run     chan bool // true: go on; false: unwind (the scheduler is closing)
	back    chan struct{}
}

func newRefWorld(events int) *refWorld {
	return &refWorld{done: make([]bool, events), waiters: make([][]*refProc, events), parked: map[*refProc]bool{}}
}

func (w *refWorld) push(t Time, p *refProc, fn func()) {
	i := sort.Search(len(w.pending), func(i int) bool { return w.pending[i].t > t })
	w.pending = append(w.pending, refEntry{})
	copy(w.pending[i+1:], w.pending[i:])
	w.pending[i] = refEntry{t: t, seq: w.seq, proc: p, fn: fn}
	w.seq++
}

func (w *refWorld) now() Time { return w.t }
func (w *refWorld) spawn(body func(a actor)) {
	w.push(w.t, &refProc{w: w, body: body, run: make(chan bool), back: make(chan struct{})}, nil)
}
func (w *refWorld) complete(ev int) {
	if w.done[ev] {
		return
	}
	w.done[ev] = true
	for _, p := range w.waiters[ev] {
		w.push(w.t, p, nil)
	}
	w.waiters[ev] = nil
}
func (w *refWorld) after(d Duration, fn func()) { w.push(w.t.Add(d), nil, fn) }
func (w *refWorld) dispatched() uint64          { return w.count }

// resume hands p the token and takes it back when p waits or returns.
func (w *refWorld) resume(p *refProc) {
	delete(w.parked, p)
	if !p.started {
		p.started = true
		go func() {
			defer func() { p.back <- struct{}{} }()
			if <-p.run {
				p.body(p)
			}
		}()
	}
	p.run <- true
	<-p.back
}

// yield gives the token back and blocks until the scheduler resumes p.
func (p *refProc) yield() {
	p.w.parked[p] = true
	p.back <- struct{}{}
	if !<-p.run {
		runtime.Goexit()
	}
}

func (p *refProc) Sleep(d Duration) {
	p.w.push(p.w.t.Add(d), p, nil)
	p.yield()
}

func (p *refProc) wait(ev int) {
	if !p.w.done[ev] {
		p.w.waiters[ev] = append(p.w.waiters[ev], p)
		p.yield()
	}
}

func (w *refWorld) runUntil(limit Time) {
	for len(w.pending) > 0 {
		if limit >= 0 && w.pending[0].t > limit {
			w.t = limit
			return
		}
		next := w.pending[0]
		w.pending = w.pending[1:]
		w.t = next.t
		w.count++
		if next.proc != nil {
			w.resume(next.proc)
		} else {
			next.fn()
		}
	}
	if limit > w.t {
		w.t = limit
	}
}

// run drains the queue and unwinds every process still waiting.
func (w *refWorld) run() {
	w.runUntil(-1)
	for p := range w.parked {
		delete(w.parked, p)
		p.run <- false
		<-p.back
	}
}

// checkEngineOrder replays pg on both schedulers, with and without its
// RunUntil ladder, and reports the first line where the logs differ.
func checkEngineOrder(t *testing.T, pg program) {
	t.Helper()
	for _, ladder := range []bool{false, true} {
		got := replay(newEngineWorld(pg.events), pg, ladder)
		want := replay(newRefWorld(pg.events), pg, ladder)
		for i := 0; i < max(len(got), len(want)); i++ {
			var g, w string
			if i < len(got) {
				g = got[i]
			}
			if i < len(want) {
				w = want[i]
			}
			if g != w {
				t.Fatalf("ladder=%v %v: line %d: engine %q, reference %q\nengine:\n%s", ladder, pg.ladder, i, g, w, strings.Join(got, "\n"))
			}
		}
	}
}

func TestEngineOrderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 96)
	for i := 0; i < 2000; i++ {
		rng.Read(data)
		checkEngineOrder(t, genProgram(data))
	}
}

func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 3, 0, 0, 2, 0, 1, 3, 4, 2, 1, 3})
	f.Add([]byte{3, 2, 5, 0, 1, 4, 2, 3, 0, 4, 0, 1, 2, 3, 3, 1, 0, 2, 4, 7, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkEngineOrder(t, genProgram(data))
	})
}

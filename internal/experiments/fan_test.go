package experiments

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/trace"
)

// atWidth runs f with GOMAXPROCS at procs, and restores it after.
func atWidth(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// TestFanOutIndependentOfWidth: the experiments that fan their arms out,
// and a chaos sweep that fans its seeds, render the same report whether 1,
// 2 or 4 arms run at once. Run it under -race.
func TestFanOutIndependentOfWidth(t *testing.T) {
	var renders []func() string
	for _, id := range []string{"E5", "E7", "E13", "E14", "E15"} {
		e := mustGet(t, id)
		renders = append(renders, func() string { return render(e.Run(1)) })
	}
	renders = append(renders, func() string {
		rep, err := RunChaos(ChaosConfig{Exp: "E4", Seeds: 3, FaultRate: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		rep.Render(&b)
		return b.String()
	})
	var want []string
	atWidth(1, func() {
		for _, r := range renders {
			want = append(want, r())
		}
	})
	for _, procs := range []int{2, 4} {
		atWidth(procs, func() {
			for i, r := range renders {
				if got := r(); got != want[i] {
					t.Errorf("GOMAXPROCS=%d: report %d differs from width 1:\n%s", procs, i, firstDiff(got, want[i]))
				}
			}
		})
	}
}

// TestFanRunsEveryArmOnce: each index runs exactly once at widths 1, 2
// and 4; at width 2 the caller starts at index 0 and the helper at n-1;
// and a run carrying any session runs its arms one at a time, in index
// order.
func TestFanRunsEveryArmOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		atWidth(procs, func() {
			for _, n := range []int{0, 1, 3, 17} {
				counts := make([]atomic.Int32, n)
				var mu sync.Mutex
				var helped []int // the indices helpers ran, in start order
				run{}.fan(n, func(i int) bool {
					counts[i].Add(1)
					if onFanHelper() {
						mu.Lock()
						helped = append(helped, i)
						mu.Unlock()
					} else if i == 0 && procs == 2 && n > 1 {
						// Hold the caller's first arm until a helper has
						// taken one, so the helper's first pick is seen.
						waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(helped) > 0 })
					}
					return true
				})
				for i := range counts {
					if c := counts[i].Load(); c != 1 {
						t.Errorf("GOMAXPROCS=%d, n=%d: arm %d ran %d times", procs, n, i, c)
					}
				}
				if procs == 2 && n > 1 && (len(helped) == 0 || helped[0] != n-1) {
					t.Errorf("n=%d: the helper ran %v; want its first arm to be %d", n, helped, n-1)
				}
			}
		})
	}
	atWidth(4, func() {
		for name, rn := range map[string]run{
			"traced":   {trace: trace.NewCollector()},
			"faulted":  {faults: fault.NewSession(fault.Spec{Rate: 0.05})},
			"observed": {obs: obs.NewSession(obs.Config{})},
		} {
			var order []int
			var inflight, overlaps atomic.Int32
			rn.fan(5, func(i int) bool {
				if inflight.Add(1) > 1 {
					overlaps.Add(1)
				}
				for k := 0; k < 1000; k++ {
					runtime.Gosched() // holds the arm open for any other one
				}
				order = append(order, i)
				inflight.Add(-1)
				return true
			})
			if n := overlaps.Load(); n > 0 || fmt.Sprint(order) != "[0 1 2 3 4]" {
				t.Errorf("%s run: %d arms overlapped, order %v; want one at a time, 0-4 in order", name, n, order)
			}
		}
	})
}

// onFanHelper reports whether the calling goroutine is one fan started.
func onFanHelper() bool {
	buf := make([]byte, 1<<12)
	return fanHelper(string(buf[:runtime.Stack(buf, false)]))
}

// waitFor yields until cond holds, and fails t if it still does not after
// ten million yields.
func waitFor(t *testing.T, cond func() bool) {
	for i := 0; !cond(); i++ {
		if i == 1e7 {
			t.Error("gave up waiting after 1e7 yields")
			return
		}
		runtime.Gosched()
	}
}

// TestFanRepanicsInCaller: a panicking arm re-panics in fan's caller with the
// arm's value, at width 1 and above; with several, the lowest index wins.
func TestFanRepanicsInCaller(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		atWidth(procs, func() {
			got := func() (v any) {
				defer func() { v = recover() }()
				run{}.fan(8, func(i int) bool {
					if i == 3 || i == 6 {
						panic(fmt.Errorf("arm %d", i))
					}
					return true
				})
				return nil
			}()
			if err, ok := got.(error); !ok || err.Error() != "arm 3" {
				t.Errorf("GOMAXPROCS=%d: fan re-panicked with %v, want arm 3's error", procs, got)
			}
		})
	}
}

// TestFanStopsAfterFailedArm: an arm that returns false or panics stops the
// fan. Every arm before it has run; at width 1, as in an observed run, no
// arm after it has even started; above it, a few may have.
func TestFanStopsAfterFailedArm(t *testing.T) {
	for _, how := range []string{"false", "panic"} {
		for _, procs := range []int{1, 2, 4} {
			atWidth(procs, func() {
				ran := make([]atomic.Bool, 8)
				func() {
					defer func() { recover() }()
					run{}.fan(len(ran), func(i int) bool {
						ran[i].Store(true)
						if i == 3 && how == "panic" {
							panic("arm 3")
						}
						return i != 3
					})
				}()
				for i := range ran {
					if i <= 3 && !ran[i].Load() {
						t.Errorf("GOMAXPROCS=%d, arm 3 %s: arm %d never ran", procs, how, i)
					}
					if i > 3 && procs == 1 && ran[i].Load() {
						t.Errorf("GOMAXPROCS=1, arm 3 %s: arm %d ran after it", how, i)
					}
				}
			})
		}
	}
}

// TestFanLeavesNoGoroutines: none of a thousand fans leaves anything
// runNoLeak reports once it returns, even though a helper may still be
// exiting after its last wg.Done; and the check still reports a goroutine
// an arm leaks.
func TestFanLeavesNoGoroutines(t *testing.T) {
	atWidth(2, func() {
		for i := 0; i < 1000; i++ {
			before := goroutines()
			run{}.fan(4, func(int) bool { return true })
			for id, stack := range newGoroutines(before) {
				t.Fatalf("fan %d left goroutine %s behind:\n%s", i, id, stack)
			}
		}

		stop := make(chan struct{})
		defer close(stop)
		before := goroutines()
		run{}.fan(2, func(i int) bool {
			if i == 1 {
				go func() { <-stop }()
			}
			return true
		})
		if left := newGoroutines(before); len(left) != 1 {
			t.Errorf("an arm leaked one goroutine; the check found %d", len(left))
		}
	})
}

package experiments

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/trace"
)

// TestHarnessesRunConcurrently: observers are per-run values, so a chaos
// sweep, a traced run, a dashboard run and a plain run proceed at once, and
// each renders exactly what it renders alone. Run it under -race.
func TestHarnessesRunConcurrently(t *testing.T) {
	e2, e13, e14 := mustGet(t, "E2"), mustGet(t, "E13"), mustGet(t, "E14")
	harnesses := map[string]func() string{
		"chaos E4": func() string {
			rep, err := RunChaos(ChaosConfig{Exp: "E4", Seeds: 2, FaultRate: 0.05})
			if err != nil {
				t.Error(err)
				return ""
			}
			var b bytes.Buffer
			rep.Render(&b)
			return b.String()
		},
		"trace E2": func() string {
			rep, data := RunTraced(e2, 1, nil)
			var b bytes.Buffer
			rep.Render(&b)
			if err := trace.Export(&b, data); err != nil {
				t.Error(err)
			}
			return b.String()
		},
		"dash E13": func() string {
			rep, tl := RunDash(e13, 1, nil)
			var b bytes.Buffer
			rep.Render(&b)
			if err := tl.WriteHTML(&b); err != nil {
				t.Error(err)
			}
			if err := tl.WriteJSON(&b); err != nil {
				t.Error(err)
			}
			return b.String()
		},
		"run E14": func() string { return render(e14.Run(1)) },
	}
	alone := map[string]string{}
	for name, h := range harnesses {
		alone[name] = h()
	}
	together := map[string]string{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for name, h := range harnesses {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := h()
			mu.Lock()
			together[name] = out
			mu.Unlock()
		}()
	}
	wg.Wait()
	for name, want := range alone {
		if together[name] != want {
			t.Errorf("%s rendered differently when run alongside the others", name)
		}
	}
}

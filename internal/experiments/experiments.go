// Package experiments implements the reproduction of every quantitative
// artifact in "The RESTless Cloud": Table 1, the §2.1 NFS/DynamoDB
// comparison, Figure 1's mutability lattice, Figure 2's model-serving
// pipeline, and the measurable claims of §3–4. Each experiment returns a
// Report containing rendered tables and machine-checkable shape
// assertions ("who wins, by roughly what factor"), so both `pcsictl run`
// and the test suite consume the same code.
package experiments

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/fault"
	"repro/internal/metrics"
)

// Check is one shape assertion on an experiment's outcome.
type Check struct {
	Name   string
	Pass   bool
	Detail string
}

// Report is one experiment's output.
type Report struct {
	ID     string
	Title  string
	Tables []*metrics.Table
	Checks []Check
}

// Check records an assertion.
func (r *Report) Check(name string, pass bool, detail string, args ...any) {
	r.Checks = append(r.Checks, Check{Name: name, Pass: pass, Detail: fmt.Sprintf(detail, args...)})
}

// Passed reports whether every shape check held.
func (r *Report) Passed() bool {
	for _, c := range r.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

// Render writes the report.
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n\n", r.ID, r.Title)
	for _, t := range r.Tables {
		t.Render(w)
	}
	for _, c := range r.Checks {
		status := "PASS"
		if !c.Pass {
			status = "FAIL"
		}
		fmt.Fprintf(w, "  [%s] %s — %s\n", status, c.Name, c.Detail)
	}
	fmt.Fprintln(w)
}

// Experiment is a runnable reproduction unit.
type Experiment struct {
	ID    string
	Title string
	fn    func(run) *Report
}

// registry holds all experiments keyed by ID.
var registry = map[string]Experiment{}

// register adds e, stamping its ID and Title on every report its fn
// returns, so an experiment names itself only here.
func register(e Experiment) {
	fn := e.fn
	e.fn = func(rn run) *Report {
		r := fn(rn)
		r.ID, r.Title = e.ID, e.Title
		return r
	}
	registry[e.ID] = e
}

// All returns every experiment in ID order.
func All() []Experiment {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		// Numeric-aware: E1 < E2 < ... < E10.
		return expNum(ids[i]) < expNum(ids[j])
	})
	out := make([]Experiment, 0, len(ids))
	for _, id := range ids {
		out = append(out, registry[id])
	}
	return out
}

func expNum(id string) int {
	n := 0
	for _, c := range id {
		if c >= '0' && c <= '9' {
			n = n*10 + int(c-'0')
		}
	}
	return n
}

// Get returns one experiment by ID.
func Get(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// Select resolves a comma-separated, case-insensitive list of experiment
// IDs to experiments in registry order, each once; "" selects them all.
// Unknown IDs fail together: the one error names every one of them, sorted.
func Select(ids string) ([]Experiment, error) {
	if ids == "" {
		return All(), nil
	}
	want := map[string]bool{}
	var unknown []string
	for _, id := range strings.Split(ids, ",") {
		id = strings.ToUpper(strings.TrimSpace(id))
		if _, ok := Get(id); ok {
			want[id] = true
		} else {
			unknown = append(unknown, strconv.Quote(id))
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fault.Fatalf("experiments: unknown experiment %s", strings.Join(slices.Compact(unknown), ", "))
	}
	return slices.DeleteFunc(All(), func(e Experiment) bool { return !want[e.ID] }), nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

package experiments

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// Every experiment must run green: the shape checks ARE the reproduction
// criteria ("who wins, by roughly what factor"). E1 performs wall-clock
// measurements and can be noisy on loaded machines, so its measured rows
// get a retry.

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 15 {
		t.Fatalf("registry has %d experiments, want 15 (E1–E15)", len(all))
	}
	for i, e := range all {
		if e.ID != "E"+itoa(i+1) {
			t.Errorf("experiment %d has ID %s, want E%d (ordering)", i, e.ID, i+1)
		}
		if e.Title == "" || e.Run == nil {
			t.Errorf("%s incomplete", e.ID)
		}
	}
	if _, ok := Get("E2"); !ok {
		t.Error("Get(E2) failed")
	}
	if _, ok := Get("nope"); ok {
		t.Error("Get(nope) succeeded")
	}
}

// TestDocCountsMatch keeps the counts the prose quotes from drifting: every
// "<n> experiments" and "<n> [machine-checked|passing] shape
// checks|assertions" in README, DESIGN and EXPERIMENTS must equal the
// registry size and the number of [PASS] lines in the committed full run.
func TestDocCountsMatch(t *testing.T) {
	read := func(name string) string {
		data, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		return strings.Join(strings.Fields(string(data)), " ") // undo line wrapping
	}
	quoted := map[*regexp.Regexp]int{
		regexp.MustCompile(`(\d+) experiments\b`):                                             len(All()),
		regexp.MustCompile(`(\d+) (?:machine-checked |passing )?shape (?:checks|assertions)`): strings.Count(read("pcsi_bench_output.txt"), "[PASS]"),
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, quotes := read(doc), 0
		for re, want := range quoted {
			for _, m := range re.FindAllStringSubmatch(text, -1) {
				quotes++
				if got, _ := strconv.Atoi(m[1]); got != want {
					t.Errorf("%s says %q, want %d", doc, m[0], want)
				}
			}
		}
		if quotes == 0 {
			t.Errorf("%s quotes no experiment or shape-check count; the patterns here have drifted from the prose", doc)
		}
	}
}

func itoa(n int) string {
	if n >= 10 {
		return string(rune('0'+n/10)) + string(rune('0'+n%10))
	}
	return string(rune('0' + n))
}

func runAndCheck(t *testing.T, id string, retries int) *Report {
	t.Helper()
	e, ok := Get(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	var rep *Report
	for attempt := 0; attempt <= retries; attempt++ {
		rep = e.Run(1)
		if rep.Passed() {
			break
		}
	}
	for _, c := range rep.Checks {
		if !c.Pass {
			t.Errorf("%s check %q failed: %s", id, c.Name, c.Detail)
		}
	}
	if len(rep.Tables) == 0 {
		t.Errorf("%s produced no tables", id)
	}
	return rep
}

func TestE1Table1(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurements")
	}
	rep := runAndCheck(t, "E1", 2)
	out := render(rep)
	for _, want := range []string{"2021 data center network RTT", "WebAssembly", "hypervisor"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing row %q", want)
		}
	}
}

func TestE2Fetch(t *testing.T)         { runAndCheck(t, "E2", 0) }
func TestE3Mutability(t *testing.T)    { runAndCheck(t, "E3", 0) }
func TestE4Pipeline(t *testing.T)      { runAndCheck(t, "E4", 0) }
func TestE5Scavenge(t *testing.T)      { runAndCheck(t, "E5", 0) }
func TestE6Consistency(t *testing.T)   { runAndCheck(t, "E6", 0) }
func TestE7Granularity(t *testing.T)   { runAndCheck(t, "E7", 0) }
func TestE8Auth(t *testing.T)          { runAndCheck(t, "E8", 0) }
func TestE9Autoscale(t *testing.T)     { runAndCheck(t, "E9", 0) }
func TestE10GC(t *testing.T)           { runAndCheck(t, "E10", 0) }
func TestE11Availability(t *testing.T) { runAndCheck(t, "E11", 0) }
func TestE12Variants(t *testing.T)     { runAndCheck(t, "E12", 0) }
func TestE13Overload(t *testing.T)     { runAndCheck(t, "E13", 0) }
func TestE14Cache(t *testing.T)        { runAndCheck(t, "E14", 0) }
func TestE15FaaSFS(t *testing.T)       { runAndCheck(t, "E15", 0) }

func render(r *Report) string {
	var b strings.Builder
	r.Render(&b)
	return b.String()
}

// Determinism: simulated experiments must render identically for the same
// seed. (E1 is excluded: it measures wall-clock time.)
func TestDeterministicBySeed(t *testing.T) {
	for _, id := range []string{"E2", "E4", "E6", "E7", "E13", "E14", "E15"} {
		e, _ := Get(id)
		a := render(e.Run(42))
		b := render(e.Run(42))
		if a != b {
			t.Errorf("%s not deterministic for fixed seed", id)
		}
	}
}

func TestDifferentSeedStillPasses(t *testing.T) {
	for _, id := range []string{"E2", "E4", "E10"} {
		e, _ := Get(id)
		rep := e.Run(99)
		if !rep.Passed() {
			for _, c := range rep.Checks {
				if !c.Pass {
					t.Errorf("%s seed=99 check %q failed: %s", id, c.Name, c.Detail)
				}
			}
		}
	}
}

func TestReportRendering(t *testing.T) {
	r := &Report{ID: "EX", Title: "example"}
	r.Check("good", true, "fine")
	r.Check("bad", false, "broken %d", 7)
	out := render(r)
	if !strings.Contains(out, "[PASS] good") || !strings.Contains(out, "[FAIL] bad — broken 7") {
		t.Errorf("render output:\n%s", out)
	}
	if r.Passed() {
		t.Error("Passed() with failing check")
	}
}

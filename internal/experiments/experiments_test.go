package experiments

import (
	"os"
	"path/filepath"
	"regexp"
	"runtime"
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
		if e.Title == "" || e.fn == nil {
			t.Errorf("%s incomplete", e.ID)
		}
	}
	if _, ok := Get("E2"); !ok {
		t.Error("Get(E2) failed")
	}
	if _, ok := Get("nope"); ok {
		t.Error("Get(nope) succeeded")
	}
	// Every registered ID resolves through the CLI's selector, any case.
	for _, e := range all {
		if got, err := Select(strings.ToLower(e.ID)); err != nil || len(got) != 1 || got[0].ID != e.ID {
			t.Errorf("Select(%q) = %v, %v; want just %s", strings.ToLower(e.ID), ids(got), err, e.ID)
		}
	}
}

// TestSelect pins the selector every local pcsictl command resolves its
// experiment list through.
func TestSelect(t *testing.T) {
	for _, tc := range []struct {
		in, want, err string
	}{
		{in: "", want: "E1 E2 E3 E4 E5 E6 E7 E8 E9 E10 E11 E12 E13 E14 E15"},
		{in: "E4", want: "E4"},
		{in: "e13,E2, e4 ", want: "E2 E4 E13"}, // registry order, any case, spaces trimmed
		{in: "E4,e4,E2,E4", want: "E2 E4"},     // duplicates once
		{in: "E99,E2,e0,E99", err: `experiments: unknown experiment "E0", "E99"`},
		{in: "E2,", err: `experiments: unknown experiment ""`},
	} {
		got, err := Select(tc.in)
		if tc.err != "" {
			if err == nil || err.Error() != tc.err || got != nil {
				t.Errorf("Select(%q) = %v, %v; want error %q", tc.in, ids(got), err, tc.err)
			}
			continue
		}
		if err != nil || ids(got) != tc.want {
			t.Errorf("Select(%q) = %q, %v; want %q", tc.in, ids(got), err, tc.want)
		}
	}
}

func ids(exps []Experiment) string {
	var out []string
	for _, e := range exps {
		out = append(out, e.ID)
	}
	return strings.Join(out, " ")
}

// TestDocsNameExistingBinaries: every cmd/<name> the docs cite must be a
// directory under cmd/, so a folded or renamed binary cannot linger in an
// instruction. (bench/ is its own module with its own docs.)
func TestDocsNameExistingBinaries(t *testing.T) {
	root := filepath.Join("..", "..")
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "doc.go", filepath.Join(".claude", "skills", "verify", "SKILL.md")} {
		data, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range regexp.MustCompile(`\bcmd/([\w-]+)`).FindAllStringSubmatch(string(data), -1) {
			if fi, err := os.Stat(filepath.Join(root, "cmd", m[1])); err != nil || !fi.IsDir() {
				t.Errorf("%s names %s, which is not a directory under cmd/", doc, m[0])
			}
		}
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

func mustGet(t *testing.T, id string) Experiment {
	t.Helper()
	e, ok := Get(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	return e
}

// runAndCheck runs one experiment at seed 1 and requires every shape check
// to pass and, for the simulated experiments (all but E1, whose rows are
// measured on the host clock), the report to render byte-for-byte as its
// section of the committed full run, pcsi_bench_output.txt.
func runAndCheck(t *testing.T, id string, retries int) *Report {
	t.Helper()
	e := mustGet(t, id)
	var rep *Report
	for attempt := 0; attempt <= retries; attempt++ {
		rep = runNoLeak(t, e)
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
	if id != "E1" {
		checkGolden(t, id, render(rep))
	}
	return rep
}

// checkGolden compares got with id's section of pcsi_bench_output.txt:
// from its "== <id>: " header to the next experiment's header or the
// trailer.
func checkGolden(t *testing.T, id, got string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "pcsi_bench_output.txt"))
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	start := strings.Index(text, "== "+id+": ")
	if start < 0 {
		t.Fatalf("pcsi_bench_output.txt has no %s section; regenerate with `go run ./cmd/pcsictl run > pcsi_bench_output.txt`", id)
	}
	want := text[start:]
	if end := regexp.MustCompile(`(?m)^(== E\d+: |all \d+ experiments )`).FindStringIndex(want[1:]); end != nil {
		want = want[:1+end[0]]
	}
	if got == want {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; ; i++ {
		if i >= len(g) || i >= len(w) || g[i] != w[i] {
			t.Errorf("%s report drifted from pcsi_bench_output.txt at line %d of its section:\n  got:  %q\n  want: %q\n"+
				"if the change is meant to alter simulated output, regenerate with `go run ./cmd/pcsictl run > pcsi_bench_output.txt`",
				id, i+1, line(g, i), line(w, i))
			return
		}
	}
}

// runNoLeak runs e at seed 1 and requires it to leave no goroutine
// behind: an environment left parked by RunUntil and never closed keeps a
// goroutine, and a pooled worker, per parked process. It compares the
// goroutine IDs of one stack dump taken before the run with one taken
// after, so a goroutine that exits meanwhile cannot cancel one that
// leaked. Workers idle in the sim pool are suspended goroutines the next
// run reuses, and a goroutine in runtime.goexit1 has already returned;
// neither is a leak.
func runNoLeak(t *testing.T, e Experiment) *Report {
	t.Helper()
	before := goroutines()
	rep := e.Run(1)
	for id, stack := range goroutines() {
		if _, ok := before[id]; !ok && !idleWorker(stack) && !strings.Contains(stack, "\nruntime.goexit1(") {
			t.Errorf("%s left goroutine %s behind:\n%s", e.ID, id, stack)
		}
	}
	return rep
}

// goroutines maps the ID of every goroutine to its stack, from one
// runtime.Stack snapshot.
func goroutines() map[string]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	m := make(map[string]string)
	for _, g := range strings.Split(string(buf), "\n\n") {
		if rest, ok := strings.CutPrefix(g, "goroutine "); ok {
			id, _, _ := strings.Cut(rest, " ")
			m[id] = g
		}
	}
	return m
}

// idleWorker reports whether stack is a sim pool worker waiting for a
// process: it is in the worker loop, and runs no process body.
func idleWorker(stack string) bool {
	return strings.Contains(stack, "repro/internal/sim.(*worker).loop(") &&
		!strings.Contains(stack, "repro/internal/sim.(*Proc).main(")
}

func line(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<end of section>"
}

func TestE1Table1(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurements")
	}
	// Under -race the host-measured rows no longer reflect the host, so only
	// the table's rows are checked, not the shape checks built on them.
	var rep *Report
	if raceEnabled {
		rep = runNoLeak(t, mustGet(t, "E1"))
	} else {
		rep = runAndCheck(t, "E1", 2)
	}
	out := render(rep)
	for _, want := range []string{"2021 data center network RTT", "PCSI binary protocol", "WebAssembly", "hypervisor"} {
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

// TestE4AllocatesOneUpload: no stage looks at or writes E4's upload bytes,
// so both arms put one shared buffer (PutShared). A fresh 8 MiB buffer per
// request would allocate 480 MiB per run. It must not run in parallel:
// TotalAlloc counts the whole process.
func TestE4AllocatesOneUpload(t *testing.T) {
	e := mustGet(t, "E4")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e.Run(1)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 32<<20 {
		t.Errorf("one E4 run allocated %.1f MiB, want < 32 MiB: an upload buffer per request crept back",
			float64(got)/(1<<20))
	}
}

// simulated returns every experiment but E1, whose rows are measured on
// the host clock.
func simulated() []Experiment { return All()[1:] }

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

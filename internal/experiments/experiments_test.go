package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/object"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// Every experiment must run green: the shape checks ARE the reproduction
// criteria ("who wins, by roughly what factor"). E1 performs wall-clock
// measurements, and its checks hold whatever the host's speed
// (TestE1ChecksIndependentOfHostSpeed).

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
func runAndCheck(t *testing.T, id string) *Report {
	t.Helper()
	rep := runNoLeak(t, mustGet(t, id))
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
	if want := goldenSection(t, id); got != want {
		t.Errorf("%s report drifted from pcsi_bench_output.txt at %s\n"+
			"if the change is meant to alter simulated output, regenerate with `go run ./cmd/pcsictl run > pcsi_bench_output.txt`",
			id, firstDiff(got, want))
	}
}

// goldenSection returns id's section of pcsi_bench_output.txt.
func goldenSection(t *testing.T, id string) string {
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
	return want
}

// firstDiff names the first line, counted from 1, at which got and want
// differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; ; i++ {
		if i >= len(g) || i >= len(w) || g[i] != w[i] {
			return fmt.Sprintf("line %d:\n  got:  %q\n  want: %q", i+1, line(g, i), line(w, i))
		}
	}
}

// runNoLeak runs e at seed 1 and requires it to leave no goroutine
// behind: an environment left parked by RunUntil and never closed keeps a
// goroutine, and a pooled worker, per parked process. It compares the
// goroutine IDs of one stack dump taken before the run with one taken
// after, so a goroutine that exits meanwhile cannot cancel one that
// leaked. Workers idle in the sim pool are suspended goroutines the next
// run reuses, a goroutine in runtime.goexit1 has already returned, and a
// helper that run.fan started has passed its last wg.Done, since fan
// returns only after that; none of them is a leak.
func runNoLeak(t *testing.T, e Experiment) *Report {
	t.Helper()
	before := goroutines()
	rep := e.Run(1)
	for id, stack := range newGoroutines(before) {
		t.Errorf("%s left goroutine %s behind:\n%s", e.ID, id, stack)
	}
	return rep
}

// newGoroutines returns the goroutines running now that are not in before
// and are not idle workers, exiting, or fan helpers.
func newGoroutines(before map[string]string) map[string]string {
	left := map[string]string{}
	for id, stack := range goroutines() {
		if _, ok := before[id]; !ok && !idleWorker(stack) && !fanHelper(stack) &&
			!strings.Contains(stack, "\nruntime.goexit1(") {
			left[id] = stack
		}
	}
	return left
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

// fanHelper reports whether stack is a goroutine run.fan started.
func fanHelper(stack string) bool {
	return strings.Contains(stack, "\ncreated by repro/internal/experiments.run.fan in goroutine ")
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
	// Under -race JSON and HTTP run about 10× slower and getpid does not, so
	// the absolute checks are skipped and the ones that compare host with
	// host still hold, with a wider margin.
	var rep *Report
	if raceEnabled {
		rep = runNoLeak(t, mustGet(t, "E1"))
		required := 0
		for _, c := range rep.Checks {
			switch c.Name {
			case "protocol-dominates-fastnet", "wasm-cheapest", "network-generations":
				required++
				if !c.Pass {
					t.Errorf("E1 check %q failed under -race: %s", c.Name, c.Detail)
				}
			}
		}
		if required != 3 {
			t.Errorf("E1 reported %d of the 3 checks -race requires", required)
		}
	} else {
		rep = runAndCheck(t, "E1")
	}
	out := render(rep)
	for _, want := range []string{"2021 data center network RTT", "PCSI binary protocol", "WebAssembly", "hypervisor"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing row %q", want)
		}
	}
}

// TestE1ChecksIndependentOfHostSpeed feeds e1Checks the committed E1 rows
// with every measured row scaled by k, as a host k times slower would
// measure them: no verdict may move. Two plants must fail the fast-network
// claim: marshaling at the binary codec's cost, at most ten system calls,
// and an HTTP overhead of zero, which is HTTP replaced by raw TCP.
func TestE1ChecksIndependentOfHostSpeed(t *testing.T) {
	rows := committedE1Rows(t)
	verdicts := func(rows []e1Row) string {
		var b strings.Builder
		for _, c := range e1Checks(rows) {
			fmt.Fprintf(&b, "%s=%v ", c.Name, c.Pass)
		}
		return b.String()
	}
	want := verdicts(rows)
	if strings.Count(want, "=true") != 5 {
		t.Fatalf("committed E1 rows: %s, want all 5 checks passing", want)
	}
	for _, k := range []float64{0.25, 0.5, 2, 4} {
		scaled := slices.Clone(rows)
		for i, rw := range scaled {
			if strings.HasPrefix(rw.source, "measured") {
				scaled[i].ours = time.Duration(float64(rw.ours) * k)
			}
		}
		if got := verdicts(scaled); got != want {
			t.Errorf("measured rows ×%v: %s, want %s", k, got, want)
		}
	}

	at := func(op string) int { return slices.IndexFunc(rows, func(rw e1Row) bool { return rw.op == op }) }
	sys := rows[at("Linux system call")].ours
	for _, plant := range []struct {
		op   string
		ours time.Duration
	}{
		{"Object marshaling (1k)", 10 * sys}, // wire.BinaryCodec's round trip, 2–10 system calls
		{"HTTP protocol", 0},                 // HTTP replaced by raw TCP
	} {
		planted := slices.Clone(rows)
		planted[at(plant.op)].ours = plant.ours
		for _, c := range e1Checks(planted) {
			if c.Name == "protocol-dominates-fastnet" && c.Pass {
				t.Errorf("%s at %v passes protocol-dominates-fastnet: %s", plant.op, plant.ours, c.Detail)
			}
		}
	}
}

// committedE1Rows parses Table 1's rows back out of E1's section of
// pcsi_bench_output.txt.
func committedE1Rows(t *testing.T) []e1Row {
	t.Helper()
	parse := func(s string) time.Duration {
		if s == "—" {
			return 0
		}
		d, err := time.ParseDuration(s)
		if err != nil {
			t.Fatalf("E1 golden row: %v", err)
		}
		return d
	}
	lines := strings.Split(goldenSection(t, "E1"), "\n")
	first := slices.IndexFunc(lines, func(l string) bool { return strings.HasPrefix(l, "---") }) + 1
	var rows []e1Row
	for _, l := range lines[first:] {
		if l == "" || strings.HasPrefix(l, "  ") { // the table's note, or its end
			break
		}
		f := regexp.MustCompile(`\s{2,}`).Split(l, -1)
		if len(f) != 4 {
			t.Fatalf("E1 golden row %q has %d columns, want 4", l, len(f))
		}
		rows = append(rows, e1Row{op: f[0], paper: parse(f[1]), ours: parse(f[2]), source: f[3]})
	}
	if len(rows) != 10 {
		t.Fatalf("E1 golden section has %d table rows, want 10", len(rows))
	}
	return rows
}

// TestMeasureIgnoresOneStall: E1's measured rows report the median batch,
// so one host stall does not move a row, while a function that is slow
// every time reads slow and still fails rtt-dominates-today.
//
//pcsi:allow wallclock plants a host stall in E1's wall-clock estimator.
func TestMeasureIgnoresOneStall(t *testing.T) {
	const iters = 300 // E1's HTTP row
	const stall = 5 * time.Millisecond
	calls := 0
	got := measure(0, iters, func() {
		if calls++; calls == iters/2 {
			time.Sleep(stall)
		}
	})
	// A mean over all iterations moves by stall/iters, 16.7µs.
	if limit := stall / iters / 4; got >= limit {
		t.Errorf("a no-op with one %v stall measured %v per call, want < %v", stall, got, limit)
	}

	env := sim.NewEnv(1)
	net := simnet.New(env, simnet.DC2021)
	rtt := net.RTT(net.AddNode(0), net.AddNode(1))
	const slow = 250 * time.Microsecond
	if got := measure(0, 50, func() { time.Sleep(slow) }); got < slow || got <= rtt {
		t.Errorf("a call that always takes %v measured %v, want at least that and above the 2021 RTT %v", slow, got, rtt)
	}
}

func TestE2Fetch(t *testing.T)         { runAndCheck(t, "E2") }
func TestE3Mutability(t *testing.T)    { runAndCheck(t, "E3") }
func TestE4Pipeline(t *testing.T)      { runAndCheck(t, "E4") }
func TestE5Scavenge(t *testing.T)      { runAndCheck(t, "E5") }
func TestE6Consistency(t *testing.T)   { runAndCheck(t, "E6") }
func TestE7Granularity(t *testing.T)   { runAndCheck(t, "E7") }
func TestE8Auth(t *testing.T)          { runAndCheck(t, "E8") }
func TestE9Autoscale(t *testing.T)     { runAndCheck(t, "E9") }
func TestE10GC(t *testing.T)           { runAndCheck(t, "E10") }
func TestE11Availability(t *testing.T) { runAndCheck(t, "E11") }
func TestE12Variants(t *testing.T)     { runAndCheck(t, "E12") }
func TestE13Overload(t *testing.T)     { runAndCheck(t, "E13") }
func TestE14Cache(t *testing.T)        { runAndCheck(t, "E14") }
func TestE15FaaSFS(t *testing.T)       { runAndCheck(t, "E15") }

// TestE4AllocatesNoStandInPayload: no stage reads E4's upload, weights or
// result bytes, and no one reads a function's code, so every one of them is
// a view of the shared zero region (object.Zeros) put with PutShared. A
// fresh 8 MiB upload per run, as before, would allocate more than 8 MiB;
// one per request, 480 MiB. It must not run in parallel: TotalAlloc counts
// the whole process.
func TestE4AllocatesNoStandInPayload(t *testing.T) {
	e := mustGet(t, "E4")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e.Run(1)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2<<20 {
		t.Errorf("one E4 run allocated %.1f MiB, want < 2 MiB: a stand-in payload buffer crept back",
			float64(got)/(1<<20))
	}
}

// The experiments that put object.Zeros views leave the region all zero:
// every holder copies before it writes, and no reader writes a view.
func TestZerosStayZero(t *testing.T) {
	for _, id := range []string{"E4", "E7", "E13"} {
		mustGet(t, id).Run(1)
		for i, c := range object.Zeros(8 << 20) {
			if c != 0 {
				t.Fatalf("after %s, byte %d of the zero region is %#x", id, i, c)
			}
		}
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

// Determinism: every simulated experiment, and a chaos sweep, must render
// identically for the same seed, at two seeds. (E1 is excluded: it
// measures wall-clock time.)
func TestDeterministicBySeed(t *testing.T) {
	chaos := func(seed int64) string {
		rep, err := RunChaos(ChaosConfig{Exp: "E4", Seeds: 2, BaseSeed: seed, FaultRate: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		rep.Render(&b)
		return b.String()
	}
	for _, seed := range []int64{42, 7} {
		for _, e := range simulated() {
			if a, b := render(e.Run(seed)), render(e.Run(seed)); a != b {
				t.Errorf("%s not deterministic at seed %d:\n%s", e.ID, seed, firstDiff(b, a))
			}
		}
		if a, b := chaos(seed), chaos(seed); a != b {
			t.Errorf("chaos E4 not deterministic at base seed %d:\n%s", seed, firstDiff(b, a))
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

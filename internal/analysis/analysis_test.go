package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// loadFixture type-checks the fixture module under testdata and runs every
// analyzer over all of its packages.
func loadFixture(t *testing.T) (*Loader, []Diagnostic) {
	t.Helper()
	l, err := NewLoader(filepath.Join("testdata", "fixture"))
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return l, Run(l, pkgs, All())
}

// wantMarkers scans the fixture sources for expectation markers:
//
//	code // want: check [check...]   — diagnostics expected on this line
//	// want-next: check [check...]   — diagnostics expected on the next line
//
// and returns the expected check names per "relpath:line" key, sorted.
func wantMarkers(t *testing.T, root string) map[string][]string {
	t.Helper()
	want := make(map[string][]string)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			marker, target := "// want:", i+1
			idx := strings.Index(line, marker)
			if j := strings.Index(line, "// want-next:"); j >= 0 {
				marker, target, idx = "// want-next:", i+2, j
			}
			if idx < 0 {
				continue
			}
			checks := strings.Fields(line[idx+len(marker):])
			if len(checks) == 0 {
				return fmt.Errorf("%s:%d: empty want marker", rel, i+1)
			}
			key := fmt.Sprintf("%s:%d", filepath.ToSlash(rel), target)
			want[key] = append(want[key], checks...)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range want {
		sort.Strings(v)
	}
	return want
}

// TestFixtureDiagnostics compares every diagnostic the analyzers produce on
// the fixture module against the // want markers in its sources: nothing
// missing, nothing extra, on any line of any fixture package (including
// in-package and external test files).
func TestFixtureDiagnostics(t *testing.T) {
	l, diags := loadFixture(t)
	got := make(map[string][]string)
	for _, d := range diags {
		rel, err := filepath.Rel(l.Root, d.Pos.Filename)
		if err != nil {
			t.Fatalf("diagnostic outside fixture root: %v", d)
		}
		key := fmt.Sprintf("%s:%d", filepath.ToSlash(rel), d.Pos.Line)
		got[key] = append(got[key], d.Check)
	}
	for _, v := range got {
		sort.Strings(v)
	}
	want := wantMarkers(t, l.Root)
	for key, checks := range want {
		if !reflect.DeepEqual(got[key], checks) {
			t.Errorf("%s: want checks %v, got %v", key, checks, got[key])
		}
	}
	for key, checks := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("%s: unexpected diagnostics %v", key, checks)
		}
	}
}

// TestExactPositions pins the full file:line:column positions and messages
// for the wallclock fixture: the diagnostics must point at the offending
// selector expression, not merely the right line.
func TestExactPositions(t *testing.T) {
	l, diags := loadFixture(t)
	var got []string
	for _, d := range diags {
		rel, _ := filepath.Rel(l.Root, d.Pos.Filename)
		if filepath.ToSlash(rel) != "bad/wallclock/wallclock.go" {
			continue
		}
		got = append(got, fmt.Sprintf("%d:%d:%s:time.%s",
			d.Pos.Line, d.Pos.Column, d.Check, afterPrefix(d.Message, "wall-clock time.")))
	}
	want := []string{
		"8:11:simtime:time.Now",
		"9:2:simtime:time.Sleep",
		"10:9:simtime:time.Since",
		"15:9:simtime:time.NewTimer",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("wallclock positions:\n got %v\nwant %v", got, want)
	}
}

// afterPrefix returns the first word of s after prefix, or s if absent.
func afterPrefix(s, prefix string) string {
	rest, ok := strings.CutPrefix(s, prefix)
	if !ok {
		return s
	}
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// TestXTestPackagesLoaded asserts the external test package of the wallclock
// fixture loads as its own "_test" package and is analyzed.
func TestXTestPackagesLoaded(t *testing.T) {
	l, err := NewLoader(filepath.Join("testdata", "fixture"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./bad/wallclock")
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.Path)
	}
	want := []string{"fixture/bad/wallclock", "fixture/bad/wallclock_test"}
	if !reflect.DeepEqual(paths, want) {
		t.Fatalf("Load paths = %v, want %v", paths, want)
	}
	if !pkgs[1].XTest {
		t.Error("external test package not marked XTest")
	}
}

// TestOnlySelectedAnalyzers asserts Run honors the analyzer subset: with
// only detrand, the wallclock fixture produces no diagnostics.
func TestOnlySelectedAnalyzers(t *testing.T) {
	l, err := NewLoader(filepath.Join("testdata", "fixture"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./bad/wallclock")
	if err != nil {
		t.Fatal(err)
	}
	if diags := Run(l, pkgs, []*Analyzer{DetRand}); len(diags) != 0 {
		t.Errorf("detrand-only run on wallclock fixture reported %v", diags)
	}
}

// TestRelPath pins the module-relative path helper.
func TestRelPath(t *testing.T) {
	cases := []struct{ module, path, want string }{
		{"repro", "repro", "."},
		{"repro", "repro/internal/sim", "internal/sim"},
		{"repro", "other/pkg", "other/pkg"},
		{"fixture", "fixture/bad/wallclock_test", "bad/wallclock_test"},
	}
	for _, c := range cases {
		if got := relPath(c.module, c.path); got != c.want {
			t.Errorf("relPath(%q, %q) = %q, want %q", c.module, c.path, got, c.want)
		}
	}
}

// TestDiagnosticsSorted asserts Run returns diagnostics in position order,
// which the CLI and the marker test rely on.
func TestDiagnosticsSorted(t *testing.T) {
	_, diags := loadFixture(t)
	if len(diags) == 0 {
		t.Fatal("fixture produced no diagnostics")
	}
	sorted := sort.SliceIsSorted(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	if !sorted {
		t.Error("diagnostics not sorted by position")
	}
}

// TestSpanLeakExactPositions pins file:line:column for the spanbalance
// fixture: reports must anchor on the leaking return/panic/discard site and
// name the line the span was opened on.
func TestSpanLeakExactPositions(t *testing.T) {
	l, diags := loadFixture(t)
	var got []string
	for _, d := range diags {
		rel, _ := filepath.Rel(l.Root, d.Pos.Filename)
		if filepath.ToSlash(rel) != "bad/spanleak/spanleak.go" {
			continue
		}
		where := "discarded"
		if i := strings.Index(d.Message, "opened at line "); i >= 0 {
			where = afterPrefix(d.Message[i:], "opened at line ")
		}
		got = append(got, fmt.Sprintf("%d:%d:%s:%s", d.Pos.Line, d.Pos.Column, d.Check, where))
	}
	want := []string{
		"15:3:spanbalance:13", // early return leaks the span from line 13
		"22:2:spanbalance:discarded",
		"29:3:spanbalance:27", // panic path leaks the span from line 27
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("spanleak positions:\n got %v\nwant %v", got, want)
	}
}

// TestMapOrderExactPositions pins file:line:column for the maprange
// fixture: rule 1 anchors on the for keyword, rule 2 on the sink call, and
// rule 3 on the first tainted append.
func TestMapOrderExactPositions(t *testing.T) {
	l, diags := loadFixture(t)
	var got []string
	for _, d := range diags {
		rel, _ := filepath.Rel(l.Root, d.Pos.Filename)
		if filepath.ToSlash(rel) != "bad/maporder/maporder.go" {
			continue
		}
		got = append(got, fmt.Sprintf("%d:%d:%s", d.Pos.Line, d.Pos.Column, d.Check))
	}
	want := []string{
		"16:2:maprange", // rule 1: arbitrary pick, at the for keyword
		"36:3:maprange", // rule 2: fmt.Println sink
		"44:3:maprange", // rule 2: Proc.Sleep sink
		"52:9:maprange", // rule 3: unsorted append
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("maporder positions:\n got %v\nwant %v", got, want)
	}
}

// TestHotPathExactPositions pins file:line:column for the hotpath fixture:
// each rule must anchor on the offending expression or statement (the
// closure literal, the defer keyword, the append call, the concatenation,
// the Sprintf call, the boxed argument, the stray directive).
func TestHotPathExactPositions(t *testing.T) {
	l, diags := loadFixture(t)
	var got []string
	for _, d := range diags {
		rel, _ := filepath.Rel(l.Root, d.Pos.Filename)
		if filepath.ToSlash(rel) != "bad/hotpath/hotpath.go" {
			continue
		}
		got = append(got, fmt.Sprintf("%d:%d", d.Pos.Line, d.Pos.Column))
	}
	want := []string{
		"18:9",  // rule 1: closure capture, at the func literal
		"26:3",  // rule 2: defer in loop, at the defer keyword
		"31:9",  // rule 3: unpreallocated append, at the append call
		"43:7",  // rule 5: concatenation, at the outermost BinaryExpr
		"47:3",  // rule 5: string +=, at the statement
		"51:10", // rule 6: Sprintf off the error path, at the call
		"54:10", // rule 4: boxing, at the boxed argument
		"78:1",  // stray directive, at the comment
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("hotpath positions:\n got %v\nwant %v", got, want)
	}
}

// TestErrClassExactPositions pins positions and origin kinds for the
// mint-site rule on the taskgraph fixture: findings anchor on the error
// construction site, the declaration rule on the type name.
func TestErrClassExactPositions(t *testing.T) {
	l, diags := loadFixture(t)
	var got []string
	for _, d := range diags {
		rel, _ := filepath.Rel(l.Root, d.Pos.Filename)
		if filepath.ToSlash(rel) != "internal/taskgraph/taskgraph.go" || d.Check != "errclass" {
			continue
		}
		origin := "?"
		for _, k := range []string{"errors.New", "fmt.Errorf", "error type opError", "taskgraph.opError"} {
			if strings.Contains(d.Message, k) {
				origin = k
				break
			}
		}
		got = append(got, fmt.Sprintf("%d:%d:%s", d.Pos.Line, d.Pos.Column, origin))
	}
	want := []string{
		"30:10:errors.New",        // step's raw errors.New
		"33:10:fmt.Errorf",        // step's %w-less Errorf
		"35:10:taskgraph.opError", // step's composite literal, at the type not the &
		"40:6:error type opError", // the declaration rule
		"53:10:errors.New",        // inside the closure handed to retry
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("errclass positions:\n got %v\nwant %v", got, want)
	}
}

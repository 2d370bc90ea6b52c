package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRepoInvariants is the self-enforcement gate required by DESIGN.md §5:
// it loads this repository's own source — every package, including test
// files — and fails on any diagnostic. A wall-clock call, a global rand
// draw, a layering breach, or an unchecked mutation anywhere in the tree
// fails `go test ./...`, not just `go run ./cmd/pcsi-vet ./...`.
func TestRepoInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("full-repo type check is not short")
	}
	l, err := NewLoader(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("NewLoader(repo root): %v", err)
	}
	if l.Module != "repro" {
		t.Fatalf("loaded module %q; test must run from internal/analysis", l.Module)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatalf("Load repo: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("only %d packages loaded; repo walk looks broken", len(pkgs))
	}
	for _, d := range Run(l, pkgs, All()) {
		rel := d.Pos.Filename
		if r, err := filepath.Rel(l.Root, rel); err == nil {
			rel = r
		}
		t.Errorf("%s:%d:%d: %s: %s", rel, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
	}
}

// TestAnalyzerRegistry pins the analyzer roster: all nine checks
// present, with unique names, unique suppression keywords, kinds, docs,
// and Run hooks — so a registry edit cannot silently drop a check from
// pcsi-vet, the CI gate, and TestRepoInvariants at once.
func TestAnalyzerRegistry(t *testing.T) {
	all := All()
	want := []struct{ name, kind string }{
		{"simtime", "syntactic"}, {"detrand", "syntactic"},
		{"layering", "syntactic"}, {"capdiscipline", "syntactic"},
		{"maprange", "dataflow"}, {"obsrand", "syntactic"},
		{"errclass", "syntactic"}, {"spanbalance", "dataflow"},
		{"hotpath", "interprocedural"},
	}
	if len(all) != len(want) {
		t.Fatalf("All() has %d analyzers, want %d", len(all), len(want))
	}
	names := make(map[string]bool)
	directives := make(map[string]bool)
	for i, a := range all {
		if a.Name != want[i].name || a.Kind != want[i].kind {
			t.Errorf("All()[%d] = %s (%s), want %s (%s)", i, a.Name, a.Kind, want[i].name, want[i].kind)
		}
		if names[a.Name] || directives[a.Directive] {
			t.Errorf("duplicate analyzer name/directive %q/%q", a.Name, a.Directive)
		}
		names[a.Name] = true
		directives[a.Directive] = true
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %s missing Doc or Run", a.Name)
		}
	}
}

// TestReadmeCheckTable asserts README.md embeds exactly the check table
// MarkdownCheckTable generates from the registry (the segment between the
// BEGIN/END CHECK TABLE markers), so the documentation cannot drift from
// All(). Regenerate with: go run ./cmd/pcsi-vet -list -format md
func TestReadmeCheckTable(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatalf("read README.md: %v", err)
	}
	const begin, end = "<!-- BEGIN CHECK TABLE -->\n", "<!-- END CHECK TABLE -->"
	s := string(data)
	i := strings.Index(s, begin)
	j := strings.Index(s, end)
	if i < 0 || j < 0 || j < i {
		t.Fatalf("README.md is missing the CHECK TABLE markers")
	}
	got := s[i+len(begin) : j]
	want := MarkdownCheckTable(All())
	if got != want {
		t.Errorf("README check table drifted from the registry; regenerate with `go run ./cmd/pcsi-vet -list -format md`:\n--- README ---\n%s\n--- registry ---\n%s", got, want)
	}
}

package analysis

import (
	"bytes"
	"encoding/json"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

func emitInput() (string, []Diagnostic) {
	root := filepath.Join("/work", "repo")
	diags := []Diagnostic{
		{
			Pos:     token.Position{Filename: filepath.Join(root, "internal", "sim", "sim.go"), Line: 12, Column: 3},
			Check:   "maprange",
			Message: "unsorted iteration",
		},
		{
			Pos:     token.Position{Filename: filepath.Join(root, "cmd", "x", "main.go"), Line: 4, Column: 1},
			Check:   "directive",
			Message: "unused //pcsi:allow maporder",
		},
	}
	return root, diags
}

// TestWriteSARIFShape decodes the SARIF log and pins the schema, rule set
// (analyzers plus the directive/typecheck pseudo-rules), and locations.
func TestWriteSARIFShape(t *testing.T) {
	root, diags := emitInput()
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, root, All(), diags); err != nil {
		t.Fatal(err)
	}
	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string
					Rules []struct{ ID string }
				}
			}
			Results []struct {
				RuleID    string `json:"ruleId"`
				Level     string
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct{ URI string }
						Region           struct{ StartLine, StartColumn int }
					}
				}
			}
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" || !strings.Contains(log.Schema, "sarif-2.1.0") {
		t.Errorf("version/schema = %q / %q", log.Version, log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "pcsi-vet" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	rules := make(map[string]bool)
	for _, r := range run.Tool.Driver.Rules {
		rules[r.ID] = true
	}
	for _, a := range All() {
		if !rules[a.Name] {
			t.Errorf("rule %s missing", a.Name)
		}
	}
	if !rules["directive"] || !rules["typecheck"] {
		t.Error("pseudo-rules directive/typecheck missing")
	}
	if len(run.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(run.Results))
	}
	loc := run.Results[0].Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "internal/sim/sim.go" {
		t.Errorf("uri = %q", loc.ArtifactLocation.URI)
	}
	if loc.Region.StartLine != 12 || loc.Region.StartColumn != 3 {
		t.Errorf("region = %d:%d, want 12:3", loc.Region.StartLine, loc.Region.StartColumn)
	}
	if run.Results[0].Level != "error" {
		t.Errorf("level = %q", run.Results[0].Level)
	}
}

// TestEmitDeterministic asserts the SARIF emitter is byte-identical across
// repeated invocations on the same input — the property CI smoke-tests with
// a double run of pcsi-vet -format sarif.
func TestEmitDeterministic(t *testing.T) {
	root, diags := emitInput()
	var a, b bytes.Buffer
	if err := WriteSARIF(&a, root, All(), diags); err != nil {
		t.Fatal(err)
	}
	if err := WriteSARIF(&b, root, All(), diags); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("sarif output differs between two runs on equal input")
	}
}

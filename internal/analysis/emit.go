package analysis

import (
	"encoding/json"
	"io"
	"path/filepath"
	"strings"
)

// Emitters. The SARIF log is byte-stable: equal inputs produce equal
// output, file paths are module-root-relative with forward slashes, and
// every map is marshaled through ordered structs — so CI can diff two runs
// and archive artifacts that do not churn.

// emitPath makes a diagnostic filename root-relative with forward slashes;
// paths outside the root (or already relative) pass through slash-mapped.
func emitPath(root, file string) string {
	if root != "" {
		if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = rel
		}
	}
	return filepath.ToSlash(file)
}

// MarkdownCheckTable renders the analyzer registry as the README's check
// table, so the docs are generated from All() and cannot drift from it
// (pcsi-vet -list -format md prints it; a test diffs it against README.md).
func MarkdownCheckTable(analyzers []*Analyzer) string {
	var b strings.Builder
	b.WriteString("| check | suppress with | enforces |\n")
	b.WriteString("|---|---|---|\n")
	for _, a := range analyzers {
		b.WriteString("| `" + a.Name + "` | `//pcsi:allow " + a.Directive + "` | " + a.Doc + " |\n")
	}
	return b.String()
}

// SARIF 2.1.0 structures — only the subset the format requires.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// pseudoRules are diagnostic checks emitted by the framework itself rather
// than by a registered analyzer.
var pseudoRules = []sarifRule{
	{ID: "directive", ShortDescription: sarifMessage{Text: "malformed, unknown, or unused //pcsi:allow directive"}},
	{ID: "typecheck", ShortDescription: sarifMessage{Text: "type error in analyzed package"}},
}

// WriteSARIF emits the diagnostics as a deterministic SARIF 2.1.0 log, for
// CI artifact upload and code-scanning ingestion.
func WriteSARIF(w io.Writer, root string, analyzers []*Analyzer, diags []Diagnostic) error {
	rules := make([]sarifRule, 0, len(analyzers)+len(pseudoRules))
	for _, a := range analyzers {
		rules = append(rules, sarifRule{ID: a.Name, ShortDescription: sarifMessage{Text: a.Doc}})
	}
	rules = append(rules, pseudoRules...)
	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		line := d.Pos.Line
		if line < 1 {
			line = 1 // typecheck diagnostics may carry a bare directory
		}
		results = append(results, sarifResult{
			RuleID:  d.Check,
			Level:   "error",
			Message: sarifMessage{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{URI: emitPath(root, d.Pos.Filename)},
					Region:           sarifRegion{StartLine: line, StartColumn: d.Pos.Column},
				},
			}},
		})
	}
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "pcsi-vet", Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}

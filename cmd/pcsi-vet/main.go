// Command pcsi-vet runs the repository's invariant analyzers
// (internal/analysis) over package patterns:
//
//	go run ./cmd/pcsi-vet ./...
//	go run ./cmd/pcsi-vet -checks simtime,layering ./internal/...
//	go run ./cmd/pcsi-vet -format sarif ./... > pcsi-vet.sarif
//
// -checks selects a subset of analyzers by name; a name the registry no
// longer has (wrapclass, lockorder, ...) is a usage error. Packages are
// analyzed in parallel; output order is deterministic regardless.
//
// -list prints the analyzer table (name, directive, doc); with
// -format md it prints the markdown check table README.md embeds, so the
// docs are generated from the registry.
//
// It exits 0 when the tree is clean, 1 when any diagnostic fires, and 2 on
// usage or load errors. With -format text (the default) diagnostics print
// as file:line:col: check: message; -format sarif writes a SARIF 2.1.0 log
// to stdout that is byte-identical across runs on identical input. See
// README.md "Static analysis & invariants" for the checks and the
// //pcsi:allow directive syntax.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

func main() {
	checks := flag.String("checks", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list available analyzers and exit")
	format := flag.String("format", "text", "output format: text or sarif (md with -list)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: pcsi-vet [-checks names] [-format text|sarif] [-list] [package patterns]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		if *format == "md" {
			fmt.Print(analysis.MarkdownCheckTable(analysis.All()))
			return
		}
		for _, a := range analysis.All() {
			fmt.Printf("%-14s //pcsi:allow %-11s %s\n", a.Name, a.Directive, a.Doc)
		}
		return
	}

	if *format != "text" && *format != "sarif" {
		fmt.Fprintf(os.Stderr, "pcsi-vet: unknown -format %q (want text or sarif)\n", *format)
		os.Exit(2)
	}

	analyzers, err := selectAnalyzers(*checks)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pcsi-vet:", err)
		os.Exit(2)
	}

	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pcsi-vet:", err)
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := analysis.NewLoader(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pcsi-vet:", err)
		os.Exit(2)
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pcsi-vet:", err)
		os.Exit(2)
	}
	diags := analysis.Run(loader, pkgs, analyzers)
	if *format == "sarif" {
		err = analysis.WriteSARIF(os.Stdout, root, analyzers, diags)
	} else {
		for _, d := range diags {
			pos := d.Pos
			if rel, err := filepath.Rel(root, pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
				pos.Filename = rel
			}
			fmt.Printf("%s: %s: %s\n", pos, d.Check, d.Message)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pcsi-vet:", err)
		os.Exit(2)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "pcsi-vet: %d problem(s) in %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
}

// selectAnalyzers resolves -checks names against the registry.
func selectAnalyzers(checks string) ([]*analysis.Analyzer, error) {
	all := analysis.All()
	if checks == "" {
		return all, nil
	}
	byName := make(map[string]*analysis.Analyzer)
	for _, a := range all {
		byName[a.Name] = a
	}
	var picked []*analysis.Analyzer
	for _, name := range strings.Split(checks, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		picked = append(picked, a)
	}
	return picked, nil
}

// findModuleRoot walks up from the working directory to the nearest go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above working directory")
		}
		dir = parent
	}
}

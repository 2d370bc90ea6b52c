package pcsi_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// README.md's "## API" section lists the facade: every exported top-level
// name declared in pcsi.go, and nothing else.
func TestReadmeListsTheFacade(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "pcsi.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var facade []string
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if decl.Recv == nil && decl.Name.IsExported() {
				facade = append(facade, decl.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					if spec.Name.IsExported() {
						facade = append(facade, spec.Name.Name)
					}
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						if id.IsExported() {
							facade = append(facade, id.Name)
						}
					}
				}
			}
		}
	}
	readme, err := os.ReadFile("../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n## API\n")
	if !ok {
		t.Fatal("README.md has no ## API section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	// The list is the section's bullets: a line starting "* " and the
	// indented lines that continue it.
	ident := regexp.MustCompile("`([A-Za-z]+)`")
	var listed []string
	bullet := false
	for _, line := range strings.Split(section, "\n") {
		bullet = strings.HasPrefix(line, "* ") || bullet && strings.HasPrefix(line, "  ")
		if bullet {
			for _, m := range ident.FindAllStringSubmatch(line, -1) {
				listed = append(listed, m[1])
			}
		}
	}
	slices.Sort(facade)
	slices.Sort(listed)
	for _, name := range facade {
		if _, found := slices.BinarySearch(listed, name); !found {
			t.Errorf("pcsi.%s is not listed in README's API section", name)
		}
	}
	for i, name := range listed {
		if _, found := slices.BinarySearch(facade, name); !found {
			t.Errorf("README's API section lists %s, which pcsi.go does not export", name)
		} else if i > 0 && listed[i-1] == name {
			t.Errorf("README's API section lists %s twice", name)
		}
	}
}

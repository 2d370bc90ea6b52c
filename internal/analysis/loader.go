package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one type-checked target package, including its in-package test
// files. External test packages (package foo_test) load as a separate
// Package whose Path carries a "_test" suffix.
type Package struct {
	// Path is the import path ("repro/internal/sim"). For external test
	// packages it is the tested package's path plus "_test".
	Path string
	// Dir is the absolute directory the package was loaded from.
	Dir string
	// Files are the parsed sources, with comments.
	Files []*ast.File
	// Types and Info carry go/types results for Files.
	Types *types.Package
	Info  *types.Info
	// TypeErrors are type-checking problems in this package's own files.
	// Analysis runs on the partial information anyway.
	TypeErrors []error
	// XTest reports whether this is an external (package foo_test) package.
	XTest bool
}

// Loader parses and type-checks packages of one module plus their
// dependencies using only the standard library: repo packages resolve
// under the module root, everything else from GOROOT source (with the
// GOROOT vendor directory as fallback). Dependencies are checked with
// IgnoreFuncBodies, targets with full bodies.
type Loader struct {
	Root   string // absolute module root (directory containing go.mod)
	Module string // module path from go.mod
	Fset   *token.FileSet

	ctx     build.Context
	deps    map[string]*types.Package // external packages, exported API only
	full    map[string]*Package       // module packages, fully checked once
	loading map[string]bool           // cycle guard for module packages
}

// NewLoader returns a loader for the module rooted at root.
func NewLoader(root string) (*Loader, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	ctx := build.Default
	ctx.CgoEnabled = false // select pure-Go variants of std packages
	return &Loader{
		Root:    root,
		Module:  mod,
		Fset:    token.NewFileSet(),
		ctx:     ctx,
		deps:    make(map[string]*types.Package),
		full:    make(map[string]*Package),
		loading: make(map[string]bool),
	}, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			rest = strings.TrimSpace(rest)
			rest = strings.Trim(rest, `"`)
			if rest != "" {
				return rest, nil
			}
		}
	}
	return "", fmt.Errorf("no module directive in %s", gomod)
}

// dirFor maps an import path to the directory holding its source.
func (l *Loader) dirFor(path string) (string, error) {
	if path == l.Module {
		return l.Root, nil
	}
	if rest, ok := strings.CutPrefix(path, l.Module+"/"); ok {
		return filepath.Join(l.Root, filepath.FromSlash(rest)), nil
	}
	goroot := runtime.GOROOT()
	dir := filepath.Join(goroot, "src", filepath.FromSlash(path))
	if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
		return dir, nil
	}
	// Std packages vendor golang.org/x dependencies under src/vendor.
	vdir := filepath.Join(goroot, "src", "vendor", filepath.FromSlash(path))
	if fi, err := os.Stat(vdir); err == nil && fi.IsDir() {
		return vdir, nil
	}
	return "", fmt.Errorf("cannot resolve import %q", path)
}

// Import implements types.Importer. Module-internal packages resolve to
// their single fully-checked instance so type identity is consistent across
// the whole analyzed tree; external packages load exported-API-only.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		p, err := l.loadFull(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	if p, ok := l.deps[path]; ok {
		return p, nil
	}
	dir, err := l.dirFor(path)
	if err != nil {
		return nil, err
	}
	bp, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("import %q: %w", path, err)
	}
	files, err := l.parse(dir, bp.GoFiles, 0)
	if err != nil {
		return nil, err
	}
	conf := types.Config{
		Importer:         l,
		IgnoreFuncBodies: true,
		FakeImportC:      true,
		Error:            func(error) {}, // partial APIs are fine for deps
	}
	pkg, _ := conf.Check(path, l.Fset, files, nil)
	l.deps[path] = pkg
	return pkg, nil
}

// loadFull parses and type-checks a module package exactly once, with its
// in-package test files and full function bodies.
func (l *Loader) loadFull(path string) (*Package, error) {
	if p, ok := l.full[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %q (test files may import only lower layers)", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir, err := l.dirFor(path)
	if err != nil {
		return nil, err
	}
	bp, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("import %q: %w", path, err)
	}
	p, err := l.check(path, dir, append(append([]string{}, bp.GoFiles...), bp.TestGoFiles...), false)
	if err != nil {
		return nil, err
	}
	l.full[path] = p
	return p, nil
}

// FullPackages returns every module package fully loaded so far (targets
// and module-internal dependencies alike, with function bodies), sorted by
// import path. Whole-program analyzers use it to build cross-package
// indexes; it must be called after Load so the set is complete.
func (l *Loader) FullPackages() []*Package {
	paths := make([]string, 0, len(l.full))
	for path := range l.full {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	pkgs := make([]*Package, 0, len(paths))
	for _, path := range paths {
		pkgs = append(pkgs, l.full[path])
	}
	return pkgs
}

func (l *Loader) parse(dir string, names []string, mode parser.Mode) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, mode)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// Load expands patterns ("./...", "./internal/sim", "internal/...") relative
// to the module root and returns the matched packages, fully type-checked,
// in deterministic order. In-package test files are part of their package;
// external test files become an extra "<path>_test" package.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		bp, err := l.ctx.ImportDir(dir, 0)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				continue
			}
			return nil, err
		}
		rel, err := filepath.Rel(l.Root, dir)
		if err != nil {
			return nil, err
		}
		path := l.Module
		if rel != "." {
			path = l.Module + "/" + filepath.ToSlash(rel)
		}
		p, err := l.loadFull(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
		if len(bp.XTestGoFiles) > 0 {
			xp, err := l.check(path+"_test", dir, bp.XTestGoFiles, true)
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, xp)
		}
	}
	return pkgs, nil
}

// check parses and fully type-checks one target package.
func (l *Loader) check(path, dir string, names []string, xtest bool) (*Package, error) {
	files, err := l.parse(dir, names, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Uses:  make(map[*ast.Ident]types.Object),
		Defs:  make(map[*ast.Ident]types.Object),
	}
	p := &Package{Path: path, Dir: dir, Files: files, Info: info, XTest: xtest}
	conf := types.Config{
		Importer:    l,
		FakeImportC: true,
		Error:       func(err error) { p.TypeErrors = append(p.TypeErrors, err) },
	}
	p.Types, _ = conf.Check(path, l.Fset, files, info)
	return p, nil
}

// expand turns package patterns into a sorted list of directories.
func (l *Loader) expand(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		pat = strings.TrimPrefix(pat, "./")
		if pat == "" {
			pat = "."
		}
		if base, ok := strings.CutSuffix(pat, "..."); ok {
			base = strings.TrimSuffix(base, "/")
			start := l.Root
			if base != "" && base != "." {
				start = filepath.Join(l.Root, filepath.FromSlash(base))
			}
			err := filepath.WalkDir(start, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != start && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				add(path)
				return nil
			})
			if err != nil {
				return nil, err
			}
		} else {
			add(filepath.Join(l.Root, filepath.FromSlash(pat)))
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// Package namespace implements PCSI naming (§3.2): there is no global
// namespace — each function receives a directory object as its file-system
// root and reaches additional namespaces through directory references
// passed as arguments.
//
// Namespaces support union layering in the style the paper cites from
// Docker: an upper (writable) layer superimposed on read-mostly lower
// layers, with whiteouts hiding lower entries and copy-up on write.
package namespace

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/fault"
	"repro/internal/object"
	"repro/internal/store"
)

// Errors returned by namespace operations.
var (
	ErrNotDir     = fault.Fatal("namespace: not a directory")
	ErrNotFound   = fault.Fatal("namespace: no such path")
	ErrBadPath    = fault.Fatal("namespace: malformed path")
	ErrReadOnly   = fault.Fatal("namespace: read-only layer")
	ErrDepthLimit = fault.Fatal("namespace: path too deep")
)

// MaxDepth bounds path resolution to defend against cycles.
const MaxDepth = 64

// Namespace is a view of objects rooted at a directory. A plain namespace
// has one layer; union namespaces stack several.
type Namespace struct {
	st *store.Store
	// layers[0] is the top (writable unless readOnly) layer's root
	// directory; later entries are lower, read-only layers.
	layers   []object.ID
	readOnly bool
}

// New returns a single-layer namespace rooted at root (a Directory in st).
func New(st *store.Store, root object.ID) (*Namespace, error) {
	if err := checkDir(st, root); err != nil {
		return nil, err
	}
	return &Namespace{st: st, layers: []object.ID{root}}, nil
}

// NewUnion stacks upper above the layers of lower. The result reads
// through upper first, then each of lower's layers; writes go to upper
// with copy-up.
func NewUnion(st *store.Store, upper object.ID, lower *Namespace) (*Namespace, error) {
	if err := checkDir(st, upper); err != nil {
		return nil, err
	}
	if lower.st != st {
		return nil, fault.Fatal("namespace: union across stores")
	}
	layers := append([]object.ID{upper}, lower.layers...)
	return &Namespace{st: st, layers: layers}, nil
}

// Freeze returns a read-only view of the namespace.
func (ns *Namespace) Freeze() *Namespace {
	dup := *ns
	dup.readOnly = true
	return &dup
}

// ReadOnly reports whether the namespace rejects writes.
func (ns *Namespace) ReadOnly() bool { return ns.readOnly }

// Root returns the top layer's root directory ID.
func (ns *Namespace) Root() object.ID { return ns.layers[0] }

// Layers returns the stack depth.
func (ns *Namespace) Layers() int { return len(ns.layers) }

func checkDir(st *store.Store, id object.ID) error {
	o, err := st.Get(id)
	if err != nil {
		return err
	}
	if o.Kind() != object.Directory {
		return fmt.Errorf("%w: %v is %v", ErrNotDir, id, o.Kind())
	}
	return nil
}

// splitPath validates and splits a slash-separated relative path.
// The empty path ("" or ".") refers to the root itself.
func splitPath(path string) ([]string, error) {
	path = strings.Trim(path, "/")
	if path == "" || path == "." {
		return nil, nil
	}
	parts := strings.Split(path, "/")
	if len(parts) > MaxDepth {
		return nil, ErrDepthLimit
	}
	for _, p := range parts {
		if p == "" || p == "." || p == ".." {
			return nil, fmt.Errorf("%w: component %q", ErrBadPath, p)
		}
	}
	return parts, nil
}

// lookupIn resolves name across the layer stack starting at the per-layer
// directory IDs in dirs (one per layer, NilID where a layer lacks the
// directory). It honours whiteouts: a whiteout in layer i hides name in
// all layers below i.
func (ns *Namespace) lookupIn(dirs []object.ID, name string) (object.ID, error) {
	for _, d := range dirs {
		if d == object.NilID {
			continue
		}
		dir, err := ns.st.Get(d)
		if err != nil {
			return object.NilID, err
		}
		if id, err := dir.Lookup(name); err == nil {
			return id, nil
		}
		if dir.IsWhiteout(name) {
			return object.NilID, fmt.Errorf("%w: %q (whiteout)", ErrNotFound, name)
		}
	}
	return object.NilID, fmt.Errorf("%w: %q", ErrNotFound, name)
}

// resolveDirs walks parts, maintaining the per-layer directory ID at each
// step. Returns the layer-wise directory IDs of the final directory.
func (ns *Namespace) resolveDirs(parts []string) ([]object.ID, error) {
	dirs := append([]object.ID(nil), ns.layers...)
	for _, name := range parts {
		next := make([]object.ID, len(dirs))
		found := false
		hidden := false
		for i, d := range dirs {
			next[i] = object.NilID
			if d == object.NilID || hidden {
				continue
			}
			dir, err := ns.st.Get(d)
			if err != nil {
				return nil, err
			}
			if id, err := dir.Lookup(name); err == nil {
				child, err := ns.st.Get(id)
				if err != nil {
					return nil, err
				}
				if child.Kind() == object.Directory {
					next[i] = id
					found = true
				} else if !found {
					return nil, fmt.Errorf("%w: %q", ErrNotDir, name)
				}
			} else if dir.IsWhiteout(name) {
				hidden = true // hides all lower layers
			}
		}
		if !found {
			return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
		}
		dirs = next
	}
	return dirs, nil
}

// Resolve walks path and returns the target object's ID.
func (ns *Namespace) Resolve(path string) (object.ID, error) {
	parts, err := splitPath(path)
	if err != nil {
		return object.NilID, err
	}
	if len(parts) == 0 {
		return ns.Root(), nil
	}
	dirs, err := ns.resolveDirs(parts[:len(parts)-1])
	if err != nil {
		return object.NilID, err
	}
	return ns.lookupIn(dirs, parts[len(parts)-1])
}

// Stat resolves path and returns the object.
func (ns *Namespace) Stat(path string) (*object.Object, error) {
	id, err := ns.Resolve(path)
	if err != nil {
		return nil, err
	}
	return ns.st.Get(id)
}

// ensureUpperDir guarantees the top layer contains the directory chain for
// parts, creating directories as needed (the directory half of copy-up),
// and returns the upper-layer directory ID of the final component.
func (ns *Namespace) ensureUpperDir(parts []string) (object.ID, error) {
	cur := ns.layers[0]
	for _, name := range parts {
		dir, err := ns.st.Get(cur)
		if err != nil {
			return object.NilID, err
		}
		if id, err := dir.Lookup(name); err == nil {
			child, err := ns.st.Get(id)
			if err != nil {
				return object.NilID, err
			}
			if child.Kind() != object.Directory {
				return object.NilID, fmt.Errorf("%w: %q", ErrNotDir, name)
			}
			cur = id
		} else if dir.IsWhiteout(name) {
			return object.NilID, fmt.Errorf("%w: %q (whiteout)", ErrNotFound, name)
		} else {
			// Absent in the top layer: create it there (mkdir -p). If the
			// name exists in a lower layer its entries keep showing through
			// the fresh upper directory, which is exactly union semantics.
			nd := ns.st.Create(object.Directory)
			if err := dir.Link(name, nd.ID()); err != nil {
				return object.NilID, err
			}
			cur = nd.ID()
		}
	}
	return cur, nil
}

// Bind links an existing object at path (the final component must not
// exist in the top layer). Writes always target the top layer.
func (ns *Namespace) Bind(path string, id object.ID) error {
	if ns.readOnly {
		return ErrReadOnly
	}
	parts, err := splitPath(path)
	if err != nil {
		return err
	}
	if len(parts) == 0 {
		return fmt.Errorf("%w: cannot bind root", ErrBadPath)
	}
	dirID, err := ns.ensureUpperDir(parts[:len(parts)-1])
	if err != nil {
		return err
	}
	dir, err := ns.st.Get(dirID)
	if err != nil {
		return err
	}
	return dir.Link(parts[len(parts)-1], id)
}

// Create makes a new object of the given kind at path and returns it.
func (ns *Namespace) Create(path string, kind object.Kind) (*object.Object, error) {
	if ns.readOnly {
		return nil, ErrReadOnly
	}
	parts, err := splitPath(path)
	if err != nil {
		return nil, err
	}
	if len(parts) == 0 {
		return nil, fmt.Errorf("%w: cannot create root", ErrBadPath)
	}
	// Refuse if the name is visible anywhere in the stack.
	if _, err := ns.Resolve(path); err == nil {
		return nil, object.ErrExists
	}
	dirID, err := ns.ensureUpperDir(parts[:len(parts)-1])
	if err != nil {
		return nil, err
	}
	dir, err := ns.st.Get(dirID)
	if err != nil {
		return nil, err
	}
	o := ns.st.Create(kind)
	if err := dir.Link(parts[len(parts)-1], o.ID()); err != nil {
		return nil, err
	}
	return o, nil
}

// Remove unlinks path. In a union namespace, removing a name that exists
// only in lower layers records a whiteout in the top layer.
func (ns *Namespace) Remove(path string) error {
	if ns.readOnly {
		return ErrReadOnly
	}
	parts, err := splitPath(path)
	if err != nil {
		return err
	}
	if len(parts) == 0 {
		return fmt.Errorf("%w: cannot remove root", ErrBadPath)
	}
	if _, err := ns.Resolve(path); err != nil {
		return err
	}
	name := parts[len(parts)-1]
	dirID, err := ns.ensureUpperDir(parts[:len(parts)-1])
	if err != nil {
		return err
	}
	dir, err := ns.st.Get(dirID)
	if err != nil {
		return err
	}
	if len(ns.layers) > 1 {
		// Whiteout covers both the upper entry (removed) and lower ones.
		return dir.Whiteout(name)
	}
	return dir.Unlink(name)
}

// OpenForWrite resolves path for mutation: if the object lives in a lower
// layer it is copied up into the top layer first (file copy-up), and the
// upper copy's ID is returned.
func (ns *Namespace) OpenForWrite(path string) (*object.Object, error) {
	if ns.readOnly {
		return nil, ErrReadOnly
	}
	parts, err := splitPath(path)
	if err != nil {
		return nil, err
	}
	if len(parts) == 0 {
		return nil, fmt.Errorf("%w: root is not writable data", ErrBadPath)
	}
	id, err := ns.Resolve(path)
	if err != nil {
		return nil, err
	}
	name := parts[len(parts)-1]
	// Is it already in the top layer?
	if len(ns.layers) > 1 {
		topDirs, err := ns.resolveDirsTopOnly(parts[:len(parts)-1])
		if err == nil && topDirs != object.NilID {
			if dir, err := ns.st.Get(topDirs); err == nil {
				if got, err := dir.Lookup(name); err == nil && got == id {
					return ns.st.Get(id)
				}
			}
		}
		// Copy-up. The private upper copy is a new object and starts
		// writable even when the lower original is frozen — freezing is a
		// property of the object, not of its content.
		src, err := ns.st.Get(id)
		if err != nil {
			return nil, err
		}
		up := src.Clone(ns.st.AllocID())
		if up.Kind() == object.Regular {
			up.ApplyState(src.Read(), src.Version(), object.Mutable)
		}
		if err := ns.st.Insert(up); err != nil {
			return nil, err
		}
		dirID, err := ns.ensureUpperDir(parts[:len(parts)-1])
		if err != nil {
			return nil, err
		}
		dir, err := ns.st.Get(dirID)
		if err != nil {
			return nil, err
		}
		if err := dir.Link(name, up.ID()); err != nil && !errors.Is(err, object.ErrExists) {
			return nil, err
		}
		return up, nil
	}
	return ns.st.Get(id)
}

// resolveDirsTopOnly walks parts through the top layer only, returning the
// final directory's ID or NilID if any component is absent there.
func (ns *Namespace) resolveDirsTopOnly(parts []string) (object.ID, error) {
	cur := ns.layers[0]
	for _, name := range parts {
		dir, err := ns.st.Get(cur)
		if err != nil {
			return object.NilID, err
		}
		id, err := dir.Lookup(name)
		if err != nil {
			return object.NilID, nil //nolint:nilerr // absence is not an error here
		}
		child, err := ns.st.Get(id)
		if err != nil || child.Kind() != object.Directory {
			return object.NilID, nil
		}
		cur = id
	}
	return cur, nil
}

// List returns the merged, whiteout-respecting entry names of the
// directory at path, sorted.
func (ns *Namespace) List(path string) ([]string, error) {
	parts, err := splitPath(path)
	if err != nil {
		return nil, err
	}
	dirs, err := ns.resolveDirs(parts)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	hidden := make(map[string]bool)
	var names []string
	for _, d := range dirs {
		if d == object.NilID {
			continue
		}
		dir, err := ns.st.Get(d)
		if err != nil {
			return nil, err
		}
		for _, n := range dir.Entries() {
			if !seen[n] && !hidden[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
		for _, w := range dir.Whiteouts() {
			hidden[w] = true
		}
	}
	sort.Strings(names)
	return names, nil
}

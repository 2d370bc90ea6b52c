package namespace

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/media"
	"repro/internal/object"
	"repro/internal/store"
)

// Model-based property test: a union namespace must behave exactly like a
// flat map with copy-on-write semantics. The model tracks, per path,
// which layer's content is visible; the implementation is driven with
// random create/write/read/remove sequences and every read is compared
// against the model.

type unionModel struct {
	// visible maps path -> content; absent = not visible.
	visible map[string]string
}

func TestUnionMatchesModelProperty(t *testing.T) {
	type op struct {
		Kind byte   // 0 create, 1 write, 2 remove, 3 read/list
		Path byte   // selects one of a fixed set of paths
		Data uint16 // content seed
	}
	paths := []string{"a", "b", "dir/x", "dir/y", "deep/er/z"}

	f := func(baseFiles []byte, ops []op) bool {
		st := store.New(media.DRAM)
		rootObj := st.Create(object.Directory)
		lower, err := New(st, rootObj.ID())
		if err != nil {
			return false
		}
		model := &unionModel{visible: make(map[string]string)}
		// Seed the lower layer.
		for i, pb := range baseFiles {
			path := paths[int(pb)%len(paths)]
			if _, ok := model.visible[path]; ok {
				continue
			}
			content := fmt.Sprintf("base-%d", i)
			o, err := lower.Create(path, object.Regular)
			if err != nil {
				continue
			}
			if err := st.SetData(o.ID(), []byte(content)); err != nil {
				return false
			}
			model.visible[path] = content
		}
		lowerSnapshot := make(map[string]string)
		for k, v := range model.visible {
			lowerSnapshot[k] = v
		}

		upperObj := st.Create(object.Directory)
		u, err := NewUnion(st, upperObj.ID(), lower)
		if err != nil {
			return false
		}

		for i, o := range ops {
			path := paths[int(o.Path)%len(paths)]
			switch o.Kind % 4 {
			case 0: // create
				_, visible := model.visible[path]
				obj, err := u.Create(path, object.Regular)
				if visible {
					if !errors.Is(err, object.ErrExists) {
						return false
					}
					continue
				}
				// Creation can legitimately fail if a path component is a
				// file; the model only tracks leaf visibility, so mirror
				// the implementation's verdict when it errors that way.
				if err != nil {
					if errors.Is(err, ErrNotDir) {
						continue
					}
					return false
				}
				content := fmt.Sprintf("new-%d-%d", i, o.Data)
				if err := st.SetData(obj.ID(), []byte(content)); err != nil {
					return false
				}
				model.visible[path] = content
			case 1: // write (copy-up)
				if _, ok := model.visible[path]; !ok {
					if _, err := u.OpenForWrite(path); !errors.Is(err, ErrNotFound) && !errors.Is(err, ErrNotDir) {
						return false
					}
					continue
				}
				obj, err := u.OpenForWrite(path)
				if err != nil {
					return false
				}
				content := fmt.Sprintf("upd-%d-%d", i, o.Data)
				if err := st.SetData(obj.ID(), []byte(content)); err != nil {
					return false
				}
				model.visible[path] = content
			case 2: // remove
				if _, ok := model.visible[path]; !ok {
					if err := u.Remove(path); !errors.Is(err, ErrNotFound) && !errors.Is(err, ErrNotDir) {
						return false
					}
					continue
				}
				if err := u.Remove(path); err != nil {
					return false
				}
				delete(model.visible, path)
			case 3: // read
				want, ok := model.visible[path]
				obj, err := u.Stat(path)
				if !ok {
					if err == nil {
						return false
					}
					continue
				}
				if err != nil || string(obj.Read()) != want {
					return false
				}
			}
		}
		// Invariant: the lower layer never changed.
		for path, want := range lowerSnapshot {
			o, err := lower.Stat(path)
			if err != nil || string(o.Read()) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

package namespace

import "repro/internal/object"

// Stat resolves path and returns the object.
func (ns *Namespace) Stat(path string) (*object.Object, error) {
	id, err := ns.Resolve(path)
	if err != nil {
		return nil, err
	}
	return ns.st.Get(id)
}

package consistency

import "repro/internal/object"

// StampAt returns the version stamp a replica holds for id.
func (g *Group) StampAt(replica int, id object.ID) (Stamp, bool) {
	m, ok := g.replicas[replica].meta[id]
	if !ok {
		return Stamp{}, false
	}
	return m.stamp, true
}

package taskgraph

import "repro/internal/fault"

// Pipeline builds a linear chain of tasks, each colocated with its
// predecessor — the Figure 2 shape.
func Pipeline(names []string, fns []string) (*Graph, error) {
	if len(names) != len(fns) || len(names) == 0 {
		return nil, fault.Fatal("taskgraph: names and fns must align")
	}
	g := NewGraph()
	for i := range names {
		t := &Task{Name: names[i], Fn: fns[i], Colocate: true}
		if i > 0 {
			t.After = []string{names[i-1]}
		}
		if err := g.Add(t); err != nil {
			return nil, err
		}
	}
	return g, nil
}

package experiments

import (
	"repro/internal/metrics"
	"repro/internal/object"
)

// E3 regenerates Figure 1: the allowable object-mutability transitions.
// It exhaustively enumerates the transition matrix, verifies it equals
// the figure's edge set, and validates the operational consequences of
// each level (what can be written, what is safely cacheable).

func init() {
	register(Experiment{ID: "E3", Title: "Figure 1: object mutability transition lattice", fn: runE3})
}

func runE3(rn run) *Report {
	r := &Report{}

	// Transition matrix.
	t := metrics.NewTable("Figure 1 — Allowable mutability transitions (row → column)",
		"From \\ To", "MUTABLE", "APPEND_ONLY", "FIXED_SIZE", "IMMUTABLE")
	mark := func(ok bool) string {
		if ok {
			return "yes"
		}
		return "-"
	}
	for _, from := range object.Levels() {
		t.Row(from.String(),
			mark(from.CanTransition(object.Mutable)),
			mark(from.CanTransition(object.AppendOnly)),
			mark(from.CanTransition(object.FixedSize)),
			mark(from.CanTransition(object.Immutable)))
	}
	r.Tables = append(r.Tables, t)

	// The figure's exact edge set (self-loops implicit).
	figure := map[[2]object.Mutability]bool{
		{object.Mutable, object.AppendOnly}:   true,
		{object.Mutable, object.FixedSize}:    true,
		{object.Mutable, object.Immutable}:    true,
		{object.AppendOnly, object.Immutable}: true,
		{object.FixedSize, object.Immutable}:  true,
	}
	matches := true
	for _, from := range object.Levels() {
		for _, to := range object.Levels() {
			want := from == to || figure[[2]object.Mutability{from, to}]
			if from.CanTransition(to) != want {
				matches = false
			}
		}
	}
	r.Check("matrix-matches-figure", matches, "transition matrix equals Figure 1's edge set exactly")

	// Operational consequences per level.
	ops := metrics.NewTable("Operation legality per mutability level",
		"Level", "overwrite", "append", "truncate", "cache-stable")
	for _, lvl := range object.Levels() {
		wErr, aErr, tErr, err := probeOps(lvl)
		if err != nil {
			r.Check("setup-"+lvl.String(), false, "cannot reach level: %v", err)
			continue
		}
		ops.Row(lvl.String(), mark(wErr == nil), mark(aErr == nil), mark(tErr == nil), mark(lvl.CacheStable()))
	}
	r.Tables = append(r.Tables, ops)

	// Shape checks the paper states directly.
	r.Check("immutable-terminal", !object.Immutable.CanTransition(object.Mutable) &&
		!object.Immutable.CanTransition(object.AppendOnly) && !object.Immutable.CanTransition(object.FixedSize),
		"IMMUTABLE has no outgoing edges")
	r.Check("append-only-cacheable", object.AppendOnly.CacheStable(),
		"§3.3: once written, APPEND_ONLY content may be safely cached anywhere")
	r.Check("restriction-only", !object.AppendOnly.CanTransition(object.Mutable) &&
		!object.FixedSize.CanTransition(object.Mutable),
		"no transition ever regains mutability")
	r.Check("branches-incomparable", !object.AppendOnly.CanTransition(object.FixedSize) &&
		!object.FixedSize.CanTransition(object.AppendOnly),
		"APPEND_ONLY and FIXED_SIZE are incomparable branches of the lattice")
	return r
}

// probeOps exercises each mutation primitive against a throwaway object at
// the given mutability level and reports which ones the level permits.
//
// E3 regenerates Figure 1, the object-layer lattice itself, so it probes the
// raw object API deliberately — there is no capability layer under test.
//
//pcsi:allow rawmutation E3 property-tests the mutability lattice primitives.
func probeOps(lvl object.Mutability) (wErr, aErr, tErr, setupErr error) {
	o := object.New(1, object.Regular)
	_ = o.SetData([]byte("seed-data"))
	if err := o.SetMutability(lvl); err != nil {
		return nil, nil, nil, err
	}
	_, wErr = o.WriteAt([]byte("x"), 0)
	aErr = o.Append([]byte("y"))
	tErr = o.Truncate(1)
	return wErr, aErr, tErr, nil
}

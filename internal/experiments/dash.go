package experiments

import (
	"repro/internal/fault"
	"repro/internal/obs"
)

// RunDash runs one experiment under a fresh obs session — every cloud the
// experiment builds gets a telemetry plane — and returns the report plus
// the exportable timeline for the dashboard renderers. The experiment's
// own objectives (E13 installs per-arm SLOs) ride along unchanged; runs
// are byte-identical by (experiment, seed).
func RunDash(e Experiment, seed int64) (*Report, *obs.Timeline, error) {
	if obs.ActiveSession() != nil {
		return nil, nil, fault.Fatal("experiments: an obs session is already active")
	}
	s := obs.Activate(obs.Config{})
	defer s.Deactivate()
	rep := e.Run(seed)
	return rep, s.Timeline(e.ID, seed), nil
}

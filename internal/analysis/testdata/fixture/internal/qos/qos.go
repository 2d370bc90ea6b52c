// Package qos violates its own layering rule: the admission controller
// may import only internal/sim, internal/cluster, internal/fault,
// internal/trace, internal/metrics, and the stdlib — it registers its own
// metrics, and the layers it gates forward sheds to the telemetry plane.
package qos

import (
	"fixture/internal/metrics"
	"fixture/internal/obs" // want: layering
	"fixture/internal/sim"
)

// Controller is a placeholder admission controller.
type Controller struct {
	Env   *sim.Env
	shed  metrics.Counter
	plane *obs.Plane
}

// Admit keeps the imports used.
func (q *Controller) Admit() {
	q.shed.Inc()
	q.plane.Sample()
}

package consistency

import (
	"runtime"
	"testing"

	"repro/internal/object"
	"repro/internal/sim"
)

// TestReplicatedAppendCopiesOnlyTheTail pins what the shared-prefix rule
// saves: a linearizable Append to a 3-replica log allocates as many bytes
// whatever the log's length, because the replicas install the primary's
// array (Snapshot → ApplyState) instead of a copy, and the primary appends
// in place past the prefix they share. Copying the log per replica would
// make the bytes grow with the log.
func TestReplicatedAppendCopiesOnlyTheTail(t *testing.T) {
	const appends, rec = 200, 64
	perAppend := func(logLen int) float64 {
		env, _, g, client := testbed(1)
		var total uint64
		env.Go("c", func(p *sim.Proc) {
			id, err := g.Create(p, client, object.Regular)
			if err != nil {
				t.Error(err)
				return
			}
			// Room for every append, so the primary's array never moves:
			// growing by Truncate allocates it, and cutting back keeps it.
			room := func(o *object.Object) error {
				if err := o.Truncate(int64(logLen + appends*rec)); err != nil {
					return err
				}
				return o.Truncate(int64(logLen))
			}
			if err := g.Apply(p, client, id, Linearizable, logLen, room); err != nil {
				t.Error(err)
				return
			}
			r := make([]byte, rec)
			appendRec := func(o *object.Object) error { return o.Append(r) }
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < appends; i++ {
				if err := g.Apply(p, client, id, Linearizable, rec, appendRec); err != nil {
					t.Error(err)
					return
				}
			}
			runtime.ReadMemStats(&after)
			total = after.TotalAlloc - before.TotalAlloc
		})
		env.Run()
		return float64(total) / appends
	}
	short, long := perAppend(4<<10), perAppend(256<<10)
	t.Logf("bytes allocated per append: %.0f at 4 KiB, %.0f at 256 KiB", short, long)
	if long > short+512 {
		t.Errorf("a replicated append allocates %.0f bytes at 256 KiB but %.0f at 4 KiB: it copies the log", long, short)
	}
}

package experiments

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/faasfs"
	"repro/internal/sim"
)

// TestE15StoreContract runs one small script against every arm's store:
// whatever the storage path, a unit that writes, reads back, appends
// twice and publishes leaves the same files for a read-only unit to see.
func TestE15StoreContract(t *testing.T) {
	tree := []e15File{
		{path: "a/x", data: []byte("seed")},
		{path: "a/log"},
		{path: "out/y", output: true},
	}
	final := map[e15Mode]string{}
	for _, mode := range e15Modes {
		cloud := core.New(core.DefaultOptions())
		client := cloud.NewClient(0)
		var stats faasfs.Stats
		st := e15OpenStore(mode, cloud, &stats)
		var err error
		cloud.Env().Go("script", func(p *sim.Proc) {
			if err = st.setup(p, client, tree); err != nil {
				return
			}
			err = st.unit(p, client, true, func(io e15IO) error {
				if err := io.write("a/x", []byte("hello")); err != nil {
					return err
				}
				if got, err := io.read("a/x"); err != nil || string(got) != "hello" {
					return fmt.Errorf("read back %q, %v", got, err)
				}
				for _, line := range []string{"l1\n", "l2\n"} {
					if err := io.append("a/log", []byte(line)); err != nil {
						return err
					}
				}
				return io.publish("out/y", []byte("built"))
			})
			if err != nil {
				return
			}
			err = st.unit(p, client, false, func(io e15IO) error {
				for _, f := range tree {
					got, err := io.read(f.path)
					if err != nil {
						return err
					}
					final[mode] += fmt.Sprintf("%s=%q ", f.path, got)
				}
				return nil
			})
		})
		cloud.Env().Run()
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if mode == e15FaaSFS && (stats.Commits != 2 || stats.Aborts != 0) {
			t.Errorf("faasfs telemetry read after the read-only unit's own abort: %+v", stats)
		}
	}
	want := `a/x="hello" a/log="l1\nl2\n" out/y="built" `
	for _, mode := range e15Modes {
		if final[mode] != want {
			t.Errorf("%v: final tree %s, want %s", mode, final[mode], want)
		}
	}
}

package restbase

import (
	"errors"
	"testing"
	"time"

	"repro/internal/consistency"
	"repro/internal/media"
	"repro/internal/object"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/wire"
)

func testGateway(seed int64, cfg Config) (*sim.Env, *Gateway, simnet.NodeID) {
	env := sim.NewEnv(seed)
	net := simnet.New(env, simnet.DC2021)
	var nodes []simnet.NodeID
	for i := 0; i < 3; i++ {
		nodes = append(nodes, net.AddNode(i))
	}
	grp := consistency.NewGroup(env, net, nodes, media.DRAM)
	gw := NewGateway(net, grp, cfg)
	client := net.AddNode(2)
	return env, gw, client
}

func TestGetPutRoundTrip(t *testing.T) {
	env, gw, client := testGateway(1, DefaultConfig())
	env.Go("c", func(p *sim.Proc) {
		id, err := gw.Create(p, client, "tok", object.Regular)
		if err != nil {
			t.Error(err)
			return
		}
		if err := gw.Put(p, client, "tok", id, []byte("value"), consistency.Linearizable); err != nil {
			t.Error(err)
			return
		}
		got, err := gw.Get(p, client, "tok", id, consistency.Linearizable)
		if err != nil || string(got) != "value" {
			t.Errorf("Get = %q, %v", got, err)
		}
	})
	env.Run()
	if gw.Requests.Value() != 3 {
		t.Errorf("Requests = %d, want 3", gw.Requests.Value())
	}
}

// TestGetViewOutlivesWrites: Get returns a view, not a copy, so a view
// taken before a gateway Put or an in-place rewrite must still read the old
// bytes, at either level, while the object reads the new ones.
func TestGetViewOutlivesWrites(t *testing.T) {
	for _, lvl := range []consistency.Level{consistency.Linearizable, consistency.Eventual} {
		env, gw, client := testGateway(1, DefaultConfig())
		env.Go("c", func(p *sim.Proc) {
			oid, err := gw.Create(p, client, "tok", object.Regular)
			if err != nil {
				t.Error(err)
				return
			}
			put := func(v string) {
				if err := gw.Put(p, client, "tok", oid, []byte(v), consistency.Linearizable); err != nil {
					t.Error(err)
				}
			}
			get := func() []byte {
				b, err := gw.Get(p, client, "tok", oid, lvl)
				if err != nil {
					t.Error(err)
				}
				return b
			}
			put("aaaa")
			before := get()
			put("bbbb")
			afterPut := get()
			if err := gw.grp.Apply(p, client, oid, consistency.Linearizable, 2, func(o *object.Object) error {
				_, err := o.WriteAt([]byte("cc"), 0)
				return err
			}); err != nil {
				t.Error(err)
			}
			afterWrite := get()
			if string(before) != "aaaa" || string(afterPut) != "bbbb" || string(afterWrite) != "ccbb" {
				t.Errorf("%v: views read %q, %q, %q; want \"aaaa\", \"bbbb\", \"ccbb\"",
					lvl, before, afterPut, afterWrite)
			}
		})
		env.Run()
	}
}

func TestAuthRequiredEveryRequest(t *testing.T) {
	env, gw, client := testGateway(2, DefaultConfig())
	env.Go("c", func(p *sim.Proc) {
		if _, err := gw.Create(p, client, "", object.Regular); !errors.Is(err, ErrAuth) {
			t.Errorf("unauthenticated create err = %v", err)
		}
		id, err := gw.Create(p, client, "tok", object.Regular)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 5; i++ {
			if _, err := gw.Get(p, client, "tok", id, consistency.Eventual); err != nil {
				t.Error(err)
			}
		}
	})
	env.Run()
	// Statelessness: one auth check per request (1 failed + 1 create + 5
	// gets).
	if gw.AuthChecks != 7 {
		t.Errorf("AuthChecks = %d, want 7 (one per request)", gw.AuthChecks)
	}
}

func TestProtocolOverheadDominatesOnFastNet(t *testing.T) {
	// §2.1's argument: on an emerging fast network (1µs RTT), the REST
	// protocol overhead alone is orders of magnitude above the RTT.
	gw := &Gateway{cfg: DefaultConfig()}
	overhead := ProtocolOverhead(gw.cfg, 1024)
	if overhead < 100*simnet.FastNet.BaseRTT {
		t.Errorf("protocol overhead %v not ≫ FastNet RTT %v", overhead, simnet.FastNet.BaseRTT)
	}
}

func TestKeepAliveAblation(t *testing.T) {
	slow := DefaultConfig()
	fast := DefaultConfig()
	fast.ReuseConnections = true
	envA, gwA, clientA := testGateway(3, slow)
	envB, gwB, clientB := testGateway(3, fast)
	var latA, latB time.Duration
	runOne := func(env *sim.Env, gw *Gateway, client simnet.NodeID, out *time.Duration) {
		env.Go("c", func(p *sim.Proc) {
			id, err := gw.Create(p, client, "tok", object.Regular)
			if err != nil {
				t.Error(err)
				return
			}
			start := p.Now()
			if _, err := gw.Get(p, client, "tok", id, consistency.Eventual); err != nil {
				t.Error(err)
			}
			*out = p.Now().Sub(start)
		})
		env.Run()
	}
	runOne(envA, gwA, clientA, &latA)
	runOne(envB, gwB, clientB, &latB)
	if latB >= latA {
		t.Errorf("keep-alive (%v) not faster than per-request connections (%v)", latB, latA)
	}
}

func TestBinaryCodecAblation(t *testing.T) {
	jsonCfg := DefaultConfig()
	binCfg := DefaultConfig()
	binCfg.Codec = wire.BinaryCodec{}
	big := make([]byte, 64*1024)
	var latJSON, latBin time.Duration
	for i, cfg := range []Config{jsonCfg, binCfg} {
		env, gw, client := testGateway(4, cfg)
		out := []*time.Duration{&latJSON, &latBin}[i]
		env.Go("c", func(p *sim.Proc) {
			id, err := gw.Create(p, client, "tok", object.Regular)
			if err != nil {
				t.Error(err)
				return
			}
			if err := gw.Put(p, client, "tok", id, big, consistency.Eventual); err != nil {
				t.Error(err)
				return
			}
			start := p.Now()
			if _, err := gw.Get(p, client, "tok", id, consistency.Eventual); err != nil {
				t.Error(err)
			}
			*out = p.Now().Sub(start)
		})
		env.Run()
	}
	if latBin >= latJSON {
		t.Errorf("binary codec (%v) not faster than JSON (%v) at 64KB", latBin, latJSON)
	}
}

func TestGetMissingObject(t *testing.T) {
	env, gw, client := testGateway(5, DefaultConfig())
	env.Go("c", func(p *sim.Proc) {
		if _, err := gw.Get(p, client, "tok", object.ID(999), consistency.Eventual); err == nil {
			t.Error("get of missing object succeeded")
		}
	})
	env.Run()
}

func TestLoopbackHTTPRealRoundTrip(t *testing.T) {
	srv, err := NewLoopbackHTTP(make([]byte, 1024))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	n, err := srv.Get()
	if err != nil || n != 1024 {
		t.Fatalf("Get = %d, %v", n, err)
	}
}

func TestLoopbackTCPRealRoundTrip(t *testing.T) {
	srv, err := NewLoopbackTCP()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	payload := []byte("ping-payload-64-bytes-xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx")
	buf := make([]byte, len(payload))
	if err := srv.RoundTrip(payload, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != string(payload) {
		t.Error("echo mismatch")
	}
}

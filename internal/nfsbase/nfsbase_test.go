package nfsbase

import (
	"errors"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/simnet"
)

func testServer(seed int64) (*sim.Env, *Server, simnet.NodeID) {
	env := sim.NewEnv(seed)
	net := simnet.New(env, simnet.DC2021)
	srv := NewServer(net)
	client := net.AddNode(1) // cross-rack, like a real mount
	return env, srv, client
}

func TestMountLookupRead(t *testing.T) {
	env, srv, client := testServer(1)
	if err := srv.Export("data.bin", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	env.Go("c", func(p *sim.Proc) {
		m, err := srv.Mount(p, client)
		if err != nil {
			t.Error(err)
			return
		}
		h, err := m.Lookup(p, "data.bin")
		if err != nil {
			t.Error(err)
			return
		}
		got, err := m.Read(p, h, 2, 4)
		if err != nil || string(got) != "2345" {
			t.Errorf("Read = %q, %v", got, err)
		}
	})
	env.Run()
}

func TestPaper21LatencyCalibration(t *testing.T) {
	// §2.1: "fetching a 1KB object via the NFS protocol takes 1.5 ms".
	env, srv, client := testServer(2)
	if err := srv.Export("obj", make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	var total time.Duration
	const reads = 50
	env.Go("c", func(p *sim.Proc) {
		m, err := srv.Mount(p, client)
		if err != nil {
			t.Error(err)
			return
		}
		h, err := m.Lookup(p, "obj")
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < reads; i++ {
			start := p.Now()
			if _, err := m.Read(p, h, 0, 1024); err != nil {
				t.Error(err)
				return
			}
			total += p.Now().Sub(start)
		}
	})
	env.Run()
	mean := total / reads
	if mean < 1200*time.Microsecond || mean > 1800*time.Microsecond {
		t.Errorf("1KB NFS fetch = %v, paper says ~1.5ms", mean)
	}
}

func TestStatefulSessionNoPerOpAuth(t *testing.T) {
	// After mount, per-op cost must be far below the first-op cost of the
	// REST baseline's auth+connection path: here just RTT + media.
	env, srv, client := testServer(3)
	if err := srv.Export("f", make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	var op time.Duration
	env.Go("c", func(p *sim.Proc) {
		m, err := srv.Mount(p, client)
		if err != nil {
			t.Error(err)
			return
		}
		h, err := m.Lookup(p, "f")
		if err != nil {
			t.Error(err)
			return
		}
		start := p.Now()
		if _, err := m.Read(p, h, 0, 64); err != nil {
			t.Error(err)
		}
		op = p.Now().Sub(start)
	})
	env.Run()
	// One cross-rack RTT (~200µs) + disk (~1.2ms) + framing; no 50µs HTTP,
	// no marshal, no auth hop.
	if op > 2*time.Millisecond {
		t.Errorf("per-op cost %v too high for a stateful protocol", op)
	}
}

func TestWriteAndReadBack(t *testing.T) {
	env, srv, client := testServer(4)
	if err := srv.Export("f", make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	env.Go("c", func(p *sim.Proc) {
		m, err := srv.Mount(p, client)
		if err != nil {
			t.Error(err)
			return
		}
		h, err := m.Lookup(p, "f")
		if err != nil {
			t.Error(err)
			return
		}
		if err := m.Write(p, h, 0, []byte("abcd")); err != nil {
			t.Error(err)
			return
		}
		got, err := m.Read(p, h, 0, 4)
		if err != nil || string(got) != "abcd" {
			t.Errorf("read-back = %q, %v", got, err)
		}
	})
	env.Run()
}

func TestStaleHandle(t *testing.T) {
	env, srv, client := testServer(6)
	if err := srv.Export("f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	env.Go("c", func(p *sim.Proc) {
		m, err := srv.Mount(p, client)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := m.Read(p, nil, 0, 1); !errors.Is(err, ErrStaleHandle) {
			t.Errorf("nil handle err = %v", err)
		}
		m2, err := srv.Mount(p, client)
		if err != nil {
			t.Error(err)
			return
		}
		h2, err := m2.Lookup(p, "f")
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := m.Read(p, h2, 0, 1); !errors.Is(err, ErrStaleHandle) {
			t.Errorf("cross-mount handle err = %v", err)
		}
	})
	env.Run()
}

func TestLookupMissing(t *testing.T) {
	env, srv, client := testServer(7)
	env.Go("c", func(p *sim.Proc) {
		m, err := srv.Mount(p, client)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := m.Lookup(p, "ghost"); err == nil {
			t.Error("lookup of missing file succeeded")
		}
	})
	env.Run()
}

func TestCostPerMillion(t *testing.T) {
	env, srv, client := testServer(8)
	if err := srv.Export("obj", make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	var meterPerM float64
	env.Go("c", func(p *sim.Proc) {
		m, err := srv.Mount(p, client)
		if err != nil {
			t.Error(err)
			return
		}
		h, err := m.Lookup(p, "obj")
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 10; i++ {
			if _, err := m.Read(p, h, 0, 1024); err != nil {
				t.Error(err)
			}
		}
		meterPerM = float64(m.Meter.PerMillionOps())
	})
	env.Run()
	if meterPerM < 0.002 || meterPerM > 0.004 {
		t.Errorf("NFS read cost = $%.4f/M, paper says $0.003/M", meterPerM)
	}
}

package dynamo

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/simnet"
)

func testTable(seed int64) (*sim.Env, *Table, simnet.NodeID) {
	env := sim.NewEnv(seed)
	net := simnet.New(env, simnet.DC2021)
	tbl := New(net)
	client := net.AddNode(2)
	return env, tbl, client
}

func TestPutGetItem(t *testing.T) {
	env, tbl, client := testTable(1)
	env.Go("c", func(p *sim.Proc) {
		if err := tbl.PutItem(p, client, "tok", "k", []byte("v")); err != nil {
			t.Error(err)
			return
		}
		got, err := tbl.GetItem(p, client, "tok", "k", true)
		if err != nil || string(got) != "v" {
			t.Errorf("GetItem = %q, %v", got, err)
		}
	})
	env.Run()
}

func TestGetMissingKey(t *testing.T) {
	env, tbl, client := testTable(2)
	env.Go("c", func(p *sim.Proc) {
		if _, err := tbl.GetItem(p, client, "tok", "ghost", true); err == nil {
			t.Error("missing key succeeded")
		}
	})
	env.Run()
}

func TestPaper21LatencyCalibration(t *testing.T) {
	// §2.1: "fetching the same data from DynamoDB takes 4.3 ms".
	env, tbl, client := testTable(3)
	var total time.Duration
	const reads = 50
	env.Go("c", func(p *sim.Proc) {
		if err := tbl.PutItem(p, client, "tok", "obj", make([]byte, 1024)); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < reads; i++ {
			start := p.Now()
			if _, err := tbl.GetItem(p, client, "tok", "obj", true); err != nil {
				t.Error(err)
				return
			}
			total += p.Now().Sub(start)
		}
	})
	env.Run()
	mean := total / reads
	if mean < 3500*time.Microsecond || mean > 5200*time.Microsecond {
		t.Errorf("1KB DynamoDB fetch = %v, paper says ~4.3ms", mean)
	}
}

func TestEventualCheaperAndFasterThanStrong(t *testing.T) {
	env, tbl, client := testTable(4)
	var strong, eventual time.Duration
	env.Go("c", func(p *sim.Proc) {
		if err := tbl.PutItem(p, client, "tok", "k", make([]byte, 1024)); err != nil {
			t.Error(err)
			return
		}
		start := p.Now()
		if _, err := tbl.GetItem(p, client, "tok", "k", true); err != nil {
			t.Error(err)
		}
		strong = p.Now().Sub(start)
		start = p.Now()
		if _, err := tbl.GetItem(p, client, "tok", "k", false); err != nil {
			t.Error(err)
		}
		eventual = p.Now().Sub(start)
	})
	env.Run()
	if eventual > strong {
		t.Errorf("eventual read %v slower than strong %v", eventual, strong)
	}
	if ReadCostPerMillion(1024, false) >= ReadCostPerMillion(1024, true) {
		t.Error("eventual read not cheaper than strong")
	}
}

func TestPaperCostBracket(t *testing.T) {
	s := float64(ReadCostPerMillion(1024, true))
	e := float64(ReadCostPerMillion(1024, false))
	if !(e < 0.18 && 0.18 < s) {
		t.Errorf("paper's $0.18/M outside [e=%.3f, s=%.3f]", e, s)
	}
}

func TestAuthCheckedPerRequest(t *testing.T) {
	env, tbl, client := testTable(5)
	env.Go("c", func(p *sim.Proc) {
		if err := tbl.PutItem(p, client, "tok", "k", []byte("v")); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 3; i++ {
			if _, err := tbl.GetItem(p, client, "tok", "k", false); err != nil {
				t.Error(err)
			}
		}
	})
	env.Run()
	// 1 create + 1 put + 3 gets = 5 auth checks.
	if got := tbl.gw.AuthChecks; got != 5 {
		t.Errorf("AuthChecks = %d, want 5", got)
	}
}

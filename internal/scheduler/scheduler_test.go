package scheduler

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/faas"
	"repro/internal/sim"
	"repro/internal/simnet"
)

func testCluster(seed int64) *cluster.Cluster {
	env := sim.NewEnv(seed)
	net := simnet.New(env, simnet.DC2021)
	return cluster.New(env, net, cluster.Config{
		Racks: 2, NodesPerRack: 4,
		NodeCap:         cluster.Resources{MilliCPU: 8000, MemMB: 16384},
		GPUNodesPerRack: 1,
	})
}

var small = cluster.Resources{MilliCPU: 1000, MemMB: 1024}

func TestNaivePlacesSomewhereFeasible(t *testing.T) {
	c := testCluster(1)
	n, scav := (Naive{c}).Place(small, faas.PlacementHints{})
	if n == nil || scav {
		t.Fatalf("Place = %v, %v", n, scav)
	}
	if !small.Fits(n.Free()) {
		t.Error("placed on infeasible node")
	}
}

func TestPackedPrefersTightFit(t *testing.T) {
	c := testCluster(2)
	busy := c.Nodes()[2]
	if _, err := c.Allocate(busy, cluster.Resources{MilliCPU: 6500}); err != nil {
		t.Fatal(err)
	}
	n, _ := (Packed{c}).Place(small, faas.PlacementHints{})
	if n != busy {
		t.Errorf("Packed chose node %d, want tight node %d", n.ID, busy.ID)
	}
}

func TestColocateHonoursHint(t *testing.T) {
	c := testCluster(3)
	target := c.Nodes()[5]
	n, _ := (Colocate{c}).Place(small, faas.PlacementHints{NearNode: target.ID, HasNear: true})
	if n != target {
		t.Errorf("Colocate ignored feasible hint: %v vs %v", n.ID, target.ID)
	}
}

func TestColocateFallsBackToRack(t *testing.T) {
	c := testCluster(4)
	target := c.Nodes()[5]
	if _, err := c.Allocate(target, target.Cap); err != nil {
		t.Fatal(err)
	}
	n, _ := (Colocate{c}).Place(small, faas.PlacementHints{NearNode: target.ID, HasNear: true})
	if n == nil {
		t.Fatal("no placement")
	}
	if n.Rack != target.Rack {
		t.Errorf("fallback left the rack: rack %d vs %d", n.Rack, target.Rack)
	}
}

func TestColocateWithoutHintStillPlaces(t *testing.T) {
	c := testCluster(5)
	n, _ := (Colocate{c}).Place(small, faas.PlacementHints{})
	if n == nil {
		t.Fatal("no placement without hint")
	}
}

func TestScavengeMarksAndPrefersIdle(t *testing.T) {
	c := testCluster(6)
	// Make node 0 busy; the scavenger must avoid it.
	if _, err := c.Allocate(c.Nodes()[0], cluster.Resources{MilliCPU: 7000}); err != nil {
		t.Fatal(err)
	}
	n, scav := (Scavenge{C: c}).Place(small, faas.PlacementHints{})
	if n == nil || !scav {
		t.Fatalf("Place = %v, %v; want scavenged placement", n, scav)
	}
	if n == c.Nodes()[0] {
		t.Error("scavenged onto the busiest node")
	}
}

func TestScavengeFallback(t *testing.T) {
	c := testCluster(7)
	// Drive every node above the 50% scavenge threshold.
	for _, n := range c.Nodes() {
		if _, err := c.Allocate(n, cluster.Resources{MilliCPU: 5000}); err != nil {
			t.Fatal(err)
		}
	}
	n, scav := (Scavenge{C: c, Fallback: Packed{c}}).Place(small, faas.PlacementHints{})
	if n == nil {
		t.Fatal("fallback failed")
	}
	if scav {
		t.Error("fallback placement still marked scavenged")
	}
}

func TestGPUAwareRoutesGPUWork(t *testing.T) {
	c := testCluster(8)
	gpuReq := cluster.Resources{MilliCPU: 1000, MemMB: 1024, GPUs: 1}
	// Hint at a non-GPU node: GPUAware must pick a GPU node in its rack.
	nonGPU := c.Nodes()[3]
	if nonGPU.HasGPU() {
		t.Fatal("test setup: node 3 has a GPU")
	}
	n, _ := (GPUAware{C: c, Inner: Colocate{c}}).Place(gpuReq, faas.PlacementHints{NearNode: nonGPU.ID, HasNear: true})
	if n == nil || !n.HasGPU() {
		t.Fatalf("GPU request placed on %v", n)
	}
	if n.Rack != nonGPU.Rack {
		t.Errorf("GPU placement left the hint rack: %d vs %d", n.Rack, nonGPU.Rack)
	}
}

func TestFullClusterReturnsNil(t *testing.T) {
	c := testCluster(9)
	for _, n := range c.Nodes() {
		if _, err := c.Allocate(n, n.Cap); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := (Naive{c}).Place(small, faas.PlacementHints{}); n != nil {
		t.Error("Naive placed on full cluster")
	}
	if n, _ := (Scavenge{C: c}).Place(small, faas.PlacementHints{}); n != nil {
		t.Error("Scavenge placed on full cluster")
	}
}

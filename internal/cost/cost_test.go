package cost

import (
	"strings"
	"testing"
	"time"
)

func approx(t *testing.T, name string, got, want USD, tol float64) {
	t.Helper()
	g, w := float64(got), float64(want)
	if g < w*(1-tol) || g > w*(1+tol) {
		t.Errorf("%s = %v, want ~%v", name, got, want)
	}
}

func TestPaper21Calibration(t *testing.T) {
	// §2.1: NFS 1KB fetch costs 0.003 USD/M; DynamoDB 0.18 USD/M.
	nfs := NFSBook.ReadCost(1024, false).PerMillion()
	approx(t, "NFS 1KB/M", nfs, 0.003, 0.05)

	strong := DynamoBook.ReadCost(1024, true).PerMillion()
	ev := DynamoBook.ReadCost(1024, false).PerMillion()
	approx(t, "Dynamo strong 1KB/M", strong, 0.25, 0.05)
	approx(t, "Dynamo eventual 1KB/M", ev, 0.125, 0.05)
	// The paper's 0.18 must fall between the two pure levels.
	if !(ev < 0.18 && 0.18 < strong) {
		t.Errorf("paper's $0.18/M outside [%v, %v]", ev, strong)
	}
	// Shape: DynamoDB is ~60x costlier than NFS at this granularity.
	if strong/nfs < 30 {
		t.Errorf("Dynamo/NFS cost ratio = %.1f, want large (paper: 60x)", strong/nfs)
	}
}

func TestReadUnitsRoundUp(t *testing.T) {
	// 5 KB strong read = 2 RU.
	c5 := DynamoBook.ReadCost(5*1024, true)
	c1 := DynamoBook.ReadCost(1024, true)
	if c5 != 2*c1 {
		t.Errorf("5KB read = %v, want 2x 1KB (%v)", c5, c1)
	}
	// Zero-size read still costs one unit.
	if DynamoBook.ReadCost(0, true) != c1 {
		t.Error("zero-size read not charged minimum unit")
	}
}

func TestWriteCost(t *testing.T) {
	w1 := DynamoBook.WriteCost(1024)
	approx(t, "Dynamo 1KB write/M", w1.PerMillion(), 1.25, 0.05)
	w3 := DynamoBook.WriteCost(3 * 1024)
	if w3 != 3*w1 {
		t.Errorf("3KB write = %v, want 3x %v", w3, w1)
	}
}

func TestComputeCostAndScavengeDiscount(t *testing.T) {
	full := ComputeBook.ComputeCost(1000, 1024, 0, time.Hour, false)
	approx(t, "1 core-hour + 1GB-hour", full, USD(0.048+0.0053), 0.01)
	gpu := ComputeBook.ComputeCost(0, 0, 1, time.Hour, false)
	approx(t, "1 GPU-hour", gpu, USD(0.75), 0.01)
	spot := ComputeBook.ComputeCost(1000, 1024, 0, time.Hour, true)
	approx(t, "scavenged", spot, full*USD(0.30), 0.01)
	if spot >= full {
		t.Error("scavenged capacity not cheaper")
	}
}

func TestStorageCost(t *testing.T) {
	month := 30 * 24 * time.Hour
	c := NFSBook.StorageCost(1e9, month)
	approx(t, "1GB-month NFS", c, 0.30, 0.01)
	if NFSBook.StorageCost(1e9, month/2) >= c {
		t.Error("storage cost not time-proportional")
	}
}

func TestMeter(t *testing.T) {
	m := NewMeter("svc")
	m.Charge(0.001)
	m.Charge(0.001)
	m.Charge(0.01)
	if m.ops != 3 {
		t.Errorf("Ops = %d", m.ops)
	}
	approx(t, "total", m.Total(), 0.012, 0.001)
	approx(t, "per-M", m.PerMillionOps(), 0.012/3*1e6, 0.001)
	empty := NewMeter("e")
	if empty.PerMillionOps() != 0 {
		t.Error("empty meter per-M not 0")
	}
}

func TestUSDString(t *testing.T) {
	if USD(0).String() != "$0" {
		t.Errorf("zero = %q", USD(0).String())
	}
	if !strings.HasPrefix(USD(0.000001).String(), "$0.000001") {
		t.Errorf("small = %q", USD(0.000001).String())
	}
	if USD(1.5).String() != "$1.5000" {
		t.Errorf("large = %q", USD(1.5).String())
	}
}

package platform

import (
	"testing"
	"time"

	"repro/internal/cluster"
)

func TestTable1Calibration(t *testing.T) {
	// The platform invoke overheads must match Table 1 of the paper.
	if got := Specs(Process).InvokeOverhead; got != 500*time.Nanosecond {
		t.Errorf("Process (syscall) overhead = %v, want 500ns", got)
	}
	if got := Specs(MicroVM).InvokeOverhead; got != 700*time.Nanosecond {
		t.Errorf("MicroVM (hypercall) overhead = %v, want 700ns", got)
	}
	if got := Specs(Wasm).InvokeOverhead; got != 17*time.Nanosecond {
		t.Errorf("Wasm call overhead = %v, want 17ns", got)
	}
}

func TestAllKindsHaveSpecs(t *testing.T) {
	for _, k := range []Kind{Process, Container, MicroVM, Unikernel, Wasm, GPU} {
		s := Specs(k)
		if s.Kind != k {
			t.Errorf("Specs(%v).Kind = %v", k, s.Kind)
		}
		if s.ColdStart <= 0 || s.InvokeOverhead <= 0 {
			t.Errorf("%v has non-positive timings: %+v", k, s)
		}
		if s.Footprint == (cluster.Resources{}) {
			t.Errorf("%v has zero footprint", k)
		}
		if k.String() == "" {
			t.Errorf("%v has empty name", k)
		}
	}
}

func TestWasmColdStartBelowMicroVM(t *testing.T) {
	// The paper's point about lightweight isolation: Wasm instances must be
	// orders of magnitude cheaper to start and invoke than microVMs.
	w, m := Specs(Wasm), Specs(MicroVM)
	if w.ColdStart*100 > m.ColdStart {
		t.Errorf("Wasm cold start %v not ≪ MicroVM %v", w.ColdStart, m.ColdStart)
	}
	if w.InvokeOverhead*10 > m.InvokeOverhead {
		t.Errorf("Wasm invoke %v not ≪ MicroVM %v", w.InvokeOverhead, m.InvokeOverhead)
	}
}

func TestCopyCostScalesWithSize(t *testing.T) {
	small := CopyCost(1 << 10)
	big := CopyCost(1 << 30) // 1 GiB at 16 GB/s ≈ 67ms
	if big <= small {
		t.Error("copy cost does not grow with size")
	}
	if big < 50*time.Millisecond || big > 100*time.Millisecond {
		t.Errorf("1GiB copy = %v, want ~67ms at PCIe bandwidth", big)
	}
}

func TestDeviceResidency(t *testing.T) {
	d := NewDevice(1024)
	c1 := d.Ensure("weights", 100<<20)
	if c1 == 0 {
		t.Error("first Ensure should cost a copy")
	}
	if d.Copies != 1 {
		t.Errorf("Copies = %d, want 1", d.Copies)
	}
	c2 := d.Ensure("weights", 100<<20)
	if c2 != 0 {
		t.Errorf("resident Ensure cost %v, want 0 — this is §4.1's point", c2)
	}
	if d.Copies != 1 {
		t.Errorf("Copies = %d after resident hit, want 1", d.Copies)
	}
	if !d.Resident("weights") {
		t.Error("weights not resident")
	}
}

func TestDeviceEviction(t *testing.T) {
	d := NewDevice(300)
	d.Ensure("a", 100<<20)
	d.Ensure("b", 100<<20)
	d.Ensure("c", 100<<20)
	if d.usedMB != 300 {
		t.Fatalf("UsedMB = %d, want 300", d.usedMB)
	}
	d.Ensure("d", 100<<20) // must evict something
	if d.usedMB > 300 {
		t.Errorf("UsedMB = %d exceeds capacity", d.usedMB)
	}
	if !d.Resident("d") {
		t.Error("newly ensured object not resident")
	}
}

func TestDeviceInvalidate(t *testing.T) {
	d := NewDevice(1024)
	d.Ensure("x", 10<<20)
	d.Invalidate("x")
	if d.Resident("x") {
		t.Error("invalidated object still resident")
	}
	if d.usedMB != 0 {
		t.Errorf("UsedMB = %d after invalidate, want 0", d.usedMB)
	}
	d.Invalidate("never-there") // must not panic
}

func TestDeviceOversizedObjectPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("oversized Ensure did not panic")
		}
	}()
	NewDevice(10).Ensure("huge", 100<<20)
}

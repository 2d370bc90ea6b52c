package store

import (
	"errors"
	"testing"

	"repro/internal/media"
	"repro/internal/object"
)

func TestCreateAllocatesDistinctIDs(t *testing.T) {
	s := New(media.DRAM)
	a := s.Create(object.Regular)
	b := s.Create(object.Directory)
	if a.ID() == b.ID() {
		t.Fatal("duplicate IDs")
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
	got, err := s.Get(a.ID())
	if err != nil || got != a {
		t.Errorf("Get = %v, %v", got, err)
	}
}

func TestGetMissing(t *testing.T) {
	s := New(media.DRAM)
	if _, err := s.Get(999); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
}

func TestDeleteReclaims(t *testing.T) {
	s := New(media.DRAM)
	o := s.Create(object.Regular)
	if err := s.SetData(o.ID(), make([]byte, 42)); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(o.ID()); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 || s.Contains(o.ID()) {
		t.Errorf("Len=%d after delete", s.Len())
	}
	if err := s.Delete(o.ID()); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete err = %v", err)
	}
}

func TestInsertRejectsDuplicates(t *testing.T) {
	s := New(media.DRAM)
	o := s.Create(object.Regular)
	dup := object.New(o.ID(), object.Regular)
	if err := s.Insert(dup); err == nil {
		t.Fatal("duplicate insert succeeded")
	}
	fresh := object.New(100, object.Regular)
	if err := s.Insert(fresh); err != nil {
		t.Fatal(err)
	}
	// Future Create must not collide with the adopted ID.
	n := s.Create(object.Regular)
	if n.ID() <= 100 {
		t.Errorf("Create after Insert returned id %v, want > 100", n.ID())
	}
}

func TestIDsSorted(t *testing.T) {
	s := New(media.DRAM)
	for i := 0; i < 10; i++ {
		s.Create(object.Regular)
	}
	ids := s.IDs()
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatal("IDs not sorted")
		}
	}
}

func TestMediaCosts(t *testing.T) {
	// Disk must be far slower than DRAM, and cost must grow with size.
	if media.Disk.ReadCost(1024) <= media.DRAM.ReadCost(1024) {
		t.Error("disk read not slower than DRAM")
	}
	if media.NVMe.ReadCost(1<<20) <= media.NVMe.ReadCost(1024) {
		t.Error("read cost does not grow with size")
	}
	// §2.1 calibration: a 1KB read from disk should be ~1.2ms, the bulk of
	// the paper's 1.5ms NFS fetch.
	c := media.Disk.ReadCost(1024)
	if c < 1_000_000 || c > 1_500_000 {
		t.Errorf("Disk 1KB read = %v, want ~1.2ms", c)
	}
}

func TestReadWriteCounters(t *testing.T) {
	s := New(media.DRAM)
	o := s.Create(object.Regular)
	if err := s.SetData(o.ID(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(o.ID()); err != nil {
		t.Fatal(err)
	}
	if s.Writes != 1 {
		t.Errorf("Writes = %d, want 1", s.Writes)
	}
	if s.Reads < 1 {
		t.Errorf("Reads = %d, want >= 1", s.Reads)
	}
}

func TestContains(t *testing.T) {
	s := New(media.DRAM)
	o := s.Create(object.Regular)
	if !s.Contains(o.ID()) {
		t.Error("Contains = false for stored object")
	}
	if s.Contains(12345) {
		t.Error("Contains = true for missing object")
	}
}

// Package platform models the heterogeneous execution platforms PCSI
// functions can run on (§3.1: "accelerators, containers, unikernels,
// WebAssembly, etc."), each with its own isolation-boundary crossing cost,
// cold-start latency, and resource footprint.
//
// Invoke overheads are calibrated to the paper's Table 1: a Linux system
// call (process isolation) costs 500 ns, a KVM hypervisor call (microVM)
// 700 ns, and a WebAssembly call in V8 17 ns.
package platform

import (
	"fmt"
	"time"

	"repro/internal/cluster"
)

// Kind enumerates execution platforms.
type Kind uint8

// The supported platform kinds.
const (
	Process   Kind = iota // plain OS process: syscall-level isolation cost
	Container             // namespaced container
	MicroVM               // KVM-style lightweight VM
	Unikernel             // single-purpose library OS on a hypervisor
	Wasm                  // WebAssembly instance inside a shared runtime
	GPU                   // accelerator-resident kernel
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Process:
		return "process"
	case Container:
		return "container"
	case MicroVM:
		return "microvm"
	case Unikernel:
		return "unikernel"
	case Wasm:
		return "wasm"
	case GPU:
		return "gpu"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Spec describes a platform's cost model.
type Spec struct {
	Kind Kind
	// ColdStart is the time to boot a fresh instance (image pull excluded;
	// code fetch is modelled separately by the FaaS layer).
	ColdStart time.Duration
	// InvokeOverhead is the isolation-boundary crossing cost per call
	// (Table 1 calibrated).
	InvokeOverhead time.Duration
	// Teardown is the instance destruction time.
	Teardown time.Duration
	// Footprint is the idle resource cost of a warm instance.
	Footprint cluster.Resources
}

// Specs returns the default calibrated spec for each platform kind.
//
// Table 1 anchors: syscall 500ns (Process), hypervisor call 700ns
// (MicroVM/Unikernel), Wasm call 17ns. Cold starts reflect published
// serverless measurements: Wasm instances start in tens of microseconds,
// microVMs (Firecracker-class) in ~125ms, containers in ~400ms.
func Specs(k Kind) Spec {
	switch k {
	case Process:
		return Spec{Kind: k, ColdStart: 5 * time.Millisecond, InvokeOverhead: 500 * time.Nanosecond,
			Teardown: time.Millisecond, Footprint: cluster.Resources{MilliCPU: 100, MemMB: 64}}
	case Container:
		return Spec{Kind: k, ColdStart: 400 * time.Millisecond, InvokeOverhead: 700 * time.Nanosecond,
			Teardown: 50 * time.Millisecond, Footprint: cluster.Resources{MilliCPU: 100, MemMB: 128}}
	case MicroVM:
		return Spec{Kind: k, ColdStart: 125 * time.Millisecond, InvokeOverhead: 700 * time.Nanosecond,
			Teardown: 10 * time.Millisecond, Footprint: cluster.Resources{MilliCPU: 100, MemMB: 160}}
	case Unikernel:
		return Spec{Kind: k, ColdStart: 10 * time.Millisecond, InvokeOverhead: 700 * time.Nanosecond,
			Teardown: time.Millisecond, Footprint: cluster.Resources{MilliCPU: 50, MemMB: 32}}
	case Wasm:
		return Spec{Kind: k, ColdStart: 50 * time.Microsecond, InvokeOverhead: 17 * time.Nanosecond,
			Teardown: 10 * time.Microsecond, Footprint: cluster.Resources{MilliCPU: 10, MemMB: 8}}
	case GPU:
		return Spec{Kind: k, ColdStart: 2 * time.Second, InvokeOverhead: 10 * time.Microsecond,
			Teardown: 100 * time.Millisecond, Footprint: cluster.Resources{MilliCPU: 1000, MemMB: 4096, GPUs: 1}}
	default:
		panic("platform: unknown kind")
	}
}

// PCIe-class host↔device interconnect bandwidth used by the device memory
// model (bytes/second). NVLink-class fabrics would be ~10x this.
const HostDeviceBandwidth = 16e9

// CopyCost returns the host↔device transfer time for size bytes — the
// "single cudaMemcpy" of the paper's §4.1 — including a fixed launch
// latency.
func CopyCost(size int64) time.Duration {
	const launch = 10 * time.Microsecond
	return launch + time.Duration(float64(size)/HostDeviceBandwidth*float64(time.Second))
}

// Device models accelerator-attached memory with residency tracking: data
// already resident on the device needs no transfer, which is how a
// task-graph-aware scheduler avoids redundant copies.
type Device struct {
	CapMB    int64
	usedMB   int64
	resident map[string]int64 // key -> size bytes
	// Copies counts host↔device transfers performed.
	Copies      int64
	BytesCopied int64
}

// NewDevice returns a device with the given memory capacity.
func NewDevice(capMB int64) *Device {
	return &Device{CapMB: capMB, resident: make(map[string]int64)}
}

// Resident reports whether key's data is on the device.
func (d *Device) Resident(key string) bool {
	_, ok := d.resident[key]
	return ok
}

// Ensure makes key's data (size bytes) resident, returning the transfer
// time required: zero if already resident, one copy otherwise. When memory
// is tight, least-recently-added entries are evicted (free of charge — the
// host copy is authoritative).
func (d *Device) Ensure(key string, size int64) time.Duration {
	if d.Resident(key) {
		return 0
	}
	needMB := (size + 1<<20 - 1) >> 20
	if needMB > d.CapMB {
		panic(fmt.Sprintf("platform: object %s (%d MB) exceeds device capacity %d MB", key, needMB, d.CapMB))
	}
	for d.usedMB+needMB > d.CapMB {
		d.evictOne()
	}
	d.resident[key] = size
	d.usedMB += needMB
	d.Copies++
	d.BytesCopied += size
	return CopyCost(size)
}

// Invalidate drops key from the device (e.g., after the host copy mutated).
func (d *Device) Invalidate(key string) {
	if sz, ok := d.resident[key]; ok {
		delete(d.resident, key)
		d.usedMB -= (sz + 1<<20 - 1) >> 20
	}
}

func (d *Device) evictOne() {
	if len(d.resident) == 0 {
		panic("platform: evict on empty device")
	}
	// Evict the smallest key, not an arbitrary map element: which working
	// set survives memory pressure must not vary with map-iteration order.
	victim, first := "", true
	for k := range d.resident {
		if first || k < victim {
			victim, first = k, false
		}
	}
	d.Invalidate(victim)
}

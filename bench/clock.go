package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// clockBase anchors now() so host times are small monotonic offsets.
var clockBase time.Time

// now returns host nanoseconds since the first call. It is the only
// wall-clock read in the benchmark: every host-clock metric and every span
// boundary goes through it. main calls it once before any goroutine starts,
// so the lazy initialisation never races.
//
//pcsi:allow wallclock the benchmark measures host time by design
func now() int64 {
	if clockBase.IsZero() {
		clockBase = time.Now()
	}
	return int64(time.Since(clockBase))
}

// canarySink keeps the canary loop's result alive.
var canarySink uint64

// canaryNS times a fixed pure-CPU loop (no memory traffic, no allocation).
// It runs before and after every workload: when a noisy neighbour on the
// shared box slows the machine, the canary slows with it, so the result
// file shows the disturbance instead of letting it read as a regression.
func canaryNS() int64 {
	best := int64(0)
	for rep := 0; rep < 3; rep++ {
		x := uint64(0x9E3779B97F4A7C15)
		t0 := now()
		for i := 0; i < 4_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		dt := now() - t0
		canarySink += x
		if best == 0 || dt < best {
			best = dt
		}
	}
	return best
}

// envHeader records where and on what a result was measured.
type envHeader struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func newEnvHeader(seed int64, root string) envHeader {
	return envHeader{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     readCommit(root),
		Seed:       seed,
	}
}

// readCommit resolves HEAD by reading .git directly (no subprocess); the
// driver's checkout is not a git repository, so "unknown" is a normal answer.
func readCommit(root string) string {
	head, err := os.ReadFile(root + "/.git/HEAD")
	if err != nil {
		return "unknown"
	}
	s := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(s, "ref: "); ok {
		b, err := os.ReadFile(root + "/.git/" + ref)
		if err != nil {
			return "unknown"
		}
		s = strings.TrimSpace(string(b))
	}
	if len(s) > 12 {
		s = s[:12]
	}
	return s
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) >= 1 {
				kb, err := strconv.ParseFloat(fields[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}

// mallocs returns the process's cumulative heap-object allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

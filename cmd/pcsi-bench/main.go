// Command pcsi-bench regenerates every quantitative artifact of "The
// RESTless Cloud" (HotOS '21): Table 1, the §2.1 NFS/DynamoDB comparison,
// Figure 1, Figure 2's model-serving pipeline, and the measurable claims
// of §3–4. Each experiment prints its tables and a list of shape checks
// (who wins, by roughly what factor).
//
// Usage:
//
//	pcsi-bench               # run everything
//	pcsi-bench -run E2,E4    # run selected experiments
//	pcsi-bench -list         # list experiments
//	pcsi-bench -seed 7       # change the simulation seed
//	pcsi-bench -trace t.json # also export a Chrome/Perfetto trace
//	pcsi-bench -faultrate .05 # run with stochastic fault injection + retries
//	pcsi-bench -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
//	                         # write pprof profiles of the run
//
// Host-time performance is measured by bench/ (bash bench/run.sh), not here.
//
// With -trace, every selected experiment runs with the span tracer on; the
// merged trace_event JSON lands in the given file and each simulated run's
// critical-path report prints after its tables. With -faultrate, a fault
// session with the default retry policy is active for the whole run; shape
// checks may legitimately fail under heavy fault rates.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/trace"
)

func main() {
	var (
		runList   = flag.String("run", "", "comma-separated experiment IDs (default: all)")
		seed      = flag.Int64("seed", 1, "simulation seed (same seed ⇒ identical tables)")
		list      = flag.Bool("list", false, "list experiments and exit")
		traceFile = flag.String("trace", "", "export a merged Chrome trace_event JSON to this file")
		faultrate = flag.Float64("faultrate", 0, "inject faults at this rate (0 = off, identical to the paper runs)")
		cpuProf   = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf   = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pcsi-bench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "pcsi-bench: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close() //nolint:errcheck
		}()
	}
	if *memProf != "" {
		// The heap profile is written on every exit path, including the
		// os.Exit calls below, so profiled runs that fail still produce it.
		defer writeHeapProfile(*memProf)
		origExit := exit
		exit = func(code int) {
			pprof.StopCPUProfile()
			writeHeapProfile(*memProf)
			origExit(code)
		}
	} else if *cpuProf != "" {
		origExit := exit
		exit = func(code int) {
			pprof.StopCPUProfile()
			origExit(code)
		}
	}

	if *faultrate > 0 {
		s := fault.Activate(fault.Spec{
			Rates: fault.Uniform(*faultrate),
			Retry: fault.DefaultPolicy(),
		})
		defer s.Deactivate()
	}

	all := experiments.All()
	if *list {
		for _, e := range all {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	selected := all
	if *runList != "" {
		want := make(map[string]bool)
		for _, id := range strings.Split(*runList, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
		selected = selected[:0]
		for _, e := range all {
			if want[e.ID] {
				selected = append(selected, e)
				delete(want, e.ID)
			}
		}
		if len(want) > 0 {
			unknown := make([]string, 0, len(want))
			for id := range want {
				unknown = append(unknown, id)
			}
			sort.Strings(unknown)
			for _, id := range unknown {
				fmt.Fprintf(os.Stderr, "pcsi-bench: unknown experiment %q (try -list)\n", id)
			}
			exit(2)
		}
	}

	failures := 0
	var traces []*trace.Data
	for _, e := range selected {
		var rep *experiments.Report
		if *traceFile != "" {
			var data *trace.Data
			var err error
			rep, data, err = experiments.RunTraced(e.ID, *seed)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pcsi-bench: %v\n", err)
				exit(1)
			}
			traces = append(traces, data)
			rep.Render(os.Stdout)
			for _, run := range data.Runs {
				if pr := trace.CriticalPath(run); len(pr.Chain) > 0 {
					pr.Render(os.Stdout)
				}
			}
		} else {
			rep = e.Run(*seed)
			rep.Render(os.Stdout)
		}
		if !rep.Passed() {
			failures++
		}
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pcsi-bench: %v\n", err)
			exit(1)
		}
		err = trace.Export(f, trace.Merge(traces...))
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "pcsi-bench: %v\n", err)
			exit(1)
		}
		fmt.Printf("trace written to %s (load in Perfetto or chrome://tracing)\n", *traceFile)
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "pcsi-bench: %d experiment(s) had failing shape checks\n", failures)
		exit(1)
	}
	fmt.Printf("all %d experiments reproduced their paper shapes\n", len(selected))
}

// exit routes every early termination through the profile writers: os.Exit
// skips deferred functions, so profiled runs rebind it to flush first.
var exit = os.Exit

// writeHeapProfile snapshots the live heap into path in pprof format.
func writeHeapProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pcsi-bench: %v\n", err)
		return
	}
	runtime.GC() // settle the final live set before sampling
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintf(os.Stderr, "pcsi-bench: %v\n", err)
	}
	f.Close() //nolint:errcheck
}

// Command bench is the repository's benchmark: six named workloads on two
// clocks. Host-clock metrics (what running the reproduction costs) are
// medians over timed passes and carry a bound; virtual-clock metrics and
// counts (what the paper's claims are about) are deterministic by seed and
// compare exactly. Every layer is measured from outside, by timing calls
// into its public functions. See README.md.
//
//	bash bench/run.sh                         all six, untraced
//	bash bench/run.sh -trace 1                untraced, then traced + ladder
//	bash bench/run.sh -workload data-read -seed 2 -seconds 15 -trace 0
//	bash bench/run.sh -compare a.json b.json  apply BENCHMARK.json's bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

func main() {
	if os.Getenv(probeEnv) != "" {
		return // repro-suite's start probe: see startProbe
	}
	now() // anchor the clock before any goroutine exists
	var (
		workloadFlag = flag.String("workload", "", "run one workload in this process (default: all six, each in a child process)")
		seed         = flag.Int64("seed", 1, "seeds the input generators and Options.Seed")
		seconds      = flag.Float64("seconds", defaultSeconds, "how long one run measures")
		traceFlag    = flag.Int("trace", 0, "1 = traced run: per-layer metrics, ladder, bench/out/trace-<workload>.json")
		out          = flag.String("out", "", "result file for -compare (default bench/out/result.json)")
		compare      = flag.Bool("compare", false, "compare two result files given as arguments; exit 1 on a regression")
		printSpec    = flag.Bool("print-spec", false, "print BENCHMARK.json as the metric lists in this binary define it")
		updateGolden = flag.Bool("update-golden", false, "rewrite bench/golden/<workload>.seed1 from this run (seed 1 only)")
	)
	flag.Parse()
	root := findRoot()

	switch {
	case *printSpec:
		os.Stdout.Write(specJSON()) //nolint:errcheck
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two result files")
			os.Exit(2)
		}
		os.Exit(compareMain(root, flag.Arg(0), flag.Arg(1), os.Stdout))
	case *workloadFlag != "":
		if *traceFlag != 0 && *traceFlag != 1 {
			fmt.Fprintln(os.Stderr, "bench: -trace is 0 or 1")
			os.Exit(2)
		}
		res := runWorkload(runOpts{
			workload: *workloadFlag, seed: *seed, seconds: *seconds, trace: *traceFlag == 1,
			scale: 1, root: root, updateGolden: *updateGolden,
		})
		printResult(os.Stdout, res)
		if root != "" {
			if err := writeJSON(detailPath(root, res.Workload, res.Trace), res); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			}
		}
		fmt.Println(resultLine(res))
		if !res.Correct {
			os.Exit(1)
		}
	default:
		os.Exit(runAll(root, *seed, *seconds, *traceFlag == 1, *out, *updateGolden))
	}
}

// defaultSeconds matches run_seconds in BENCHMARK.json.
const defaultSeconds = 15

// findRoot locates the checkout root (the directory holding BENCHMARK.json):
// the working directory when started through run.sh, its parent under
// `go test`.
func findRoot() string {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			abs, err := filepath.Abs(dir)
			if err == nil {
				return abs
			}
		}
	}
	return ""
}

func detailPath(root, workload string, trace bool) string {
	t := 0
	if trace {
		t = 1
	}
	return filepath.Join(outDir(root), fmt.Sprintf("%s.trace%d.json", workload, t))
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// resultFile is what a full run writes and -compare reads.
type resultFile struct {
	Env  envHeader   `json:"env"`
	Runs []runResult `json:"runs"`
}

// runAll runs every workload in its own child process (so peak_rss_mib is
// per workload), untraced and then, with -trace 1, traced.
func runAll(root string, seed int64, seconds float64, trace bool, out string, updateGolden bool) int {
	if root == "" {
		fmt.Fprintln(os.Stderr, "bench: BENCHMARK.json not found; start from the repository root (bash bench/run.sh)")
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	file := resultFile{Env: newEnvHeader(seed, root)}
	code := 0
	modes := []int{0}
	if trace {
		modes = append(modes, 1)
	}
	for _, w := range workloads {
		for _, mode := range modes {
			args := []string{
				"-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(mode),
			}
			if updateGolden {
				args = append(args, "-update-golden")
			}
			cmd := exec.Command(self, args...)
			cmd.Dir = root
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s (trace %d): %v\n", w.Name, mode, err)
				code = 1
			}
			var res runResult
			b, err := os.ReadFile(detailPath(root, w.Name, mode == 1))
			if err == nil {
				err = json.Unmarshal(b, &res)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s (trace %d): no result: %v\n", w.Name, mode, err)
				code = 1
				continue
			}
			file.Runs = append(file.Runs, res)
		}
	}
	if out == "" {
		out = filepath.Join(outDir(root), "result.json")
	}
	if err := writeJSON(out, file); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Printf("results written to %s\n", out)
	return code
}

// printResult prints every metric the run measured, by name, with its unit.
func printResult(w io.Writer, res runResult) {
	mode := "untraced"
	if res.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s) seed=%d seconds=%g passes=%d | nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		res.Workload, mode, res.Env.Seed, res.Seconds, res.Passes,
		res.Env.NProc, res.Env.GOMAXPROCS, res.Env.GoVersion, res.Env.Commit)
	fmt.Fprintf(w, "   attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	if res.Digest != "" {
		fmt.Fprintf(w, "   sim_digest: %s\n", res.Digest)
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			v, ok := res.Metrics[d.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "   %-34s %16s %-12s", d.Name, formatValue(v.Value), v.Unit)
			if v.N > 1 {
				fmt.Fprintf(w, " n=%d iqr=%.1f%%", v.N, 100*v.spread())
			} else if v.N == 1 {
				fmt.Fprintf(w, " n=1")
			}
			if d.Exact {
				fmt.Fprint(w, " exact")
			}
			if v.Note != "" {
				fmt.Fprintf(w, " (%s)", v.Note)
			}
			fmt.Fprintln(w)
		}
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	for _, e := range res.Errors {
		fmt.Fprintf(w, "   FAIL: %s\n", e)
	}
}

func formatValue(v float64) string {
	if v != 0 && v > -0.01 && v < 0.01 {
		return strconv.FormatFloat(v, 'g', 4, 64)
	}
	s := strconv.FormatFloat(v, 'f', 4, 64)
	if strings.Contains(s, ".") {
		s = strings.TrimRight(strings.TrimRight(s, "0"), ".")
	}
	return s
}

// resultLine is the driver-facing last line of standard output: exactly the
// keys correct, attempted, failed and metrics, with every end-to-end metric
// (untraced) or every per-layer metric (traced). A per-layer metric this
// workload does not measure reads 0 here; the table above omits it.
func resultLine(res runResult) string {
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]mv{}}
	for _, d := range defs {
		line.Metrics[d.Name] = mv{Value: res.Metrics[d.Name].Value, Unit: d.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain numbers and strings: cannot fail
	}
	return string(b)
}

// specJSON renders BENCHMARK.json from the metric lists in this binary.
func specJSON() []byte {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []e2e         `json:"end_to_end"`
		PerLayer   []layer       `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
		Workloads:  workloads,
	}
	for _, d := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		spec.PerLayer = append(spec.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// benchSpec is the part of BENCHMARK.json -compare needs: the end-to-end
// metrics with their direction and bound.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readResultFile(path string) (resultFile, error) {
	var f resultFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// compareMain compares result file b (the change) against a (the baseline):
// one row per end-to-end metric and workload under BENCHMARK.json's bounds,
// exact metrics and digests by equality. It returns the exit code: 1 on a
// regression or an exact mismatch, 2 when the inputs cannot be read.
func compareMain(root, pathA, pathB string, w io.Writer) int {
	var spec benchSpec
	sb, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err == nil {
		err = json.Unmarshal(sb, &spec)
	}
	if err != nil || len(spec.EndToEnd) == 0 {
		fmt.Fprintf(w, "bench: cannot read the bounds from BENCHMARK.json: %v\n", err)
		return 2
	}
	fa, err := readResultFile(pathA)
	if err != nil {
		fmt.Fprintf(w, "bench: %v\n", err)
		return 2
	}
	fb, err := readResultFile(pathB)
	if err != nil {
		fmt.Fprintf(w, "bench: %v\n", err)
		return 2
	}
	fmt.Fprintf(w, "baseline %s: commit %s seed %d | change %s: commit %s seed %d\n",
		pathA, fa.Env.Commit, fa.Env.Seed, pathB, fb.Env.Commit, fb.Env.Seed)
	index := func(f resultFile) map[string]runResult {
		m := map[string]runResult{}
		for _, r := range f.Runs {
			m[fmt.Sprintf("%s/%v", r.Workload, r.Trace)] = r
		}
		return m
	}
	ia, ib := index(fa), index(fb)
	sameSeed := fa.Env.Seed == fb.Env.Seed

	bad := 0
	fmt.Fprintf(w, "%-15s %-30s %14s %14s %8s %7s  %s\n", "workload", "metric", "baseline", "change", "delta", "bound", "verdict")
	row := func(workload, metric string, a, b float64, delta, bound, verdict string) {
		fmt.Fprintf(w, "%-15s %-30s %14s %14s %8s %7s  %s\n", workload, metric, formatValue(a), formatValue(b), delta, bound, verdict)
	}
	for _, wl := range workloads {
		ra, okA := ia[wl.Name+"/false"]
		rb, okB := ib[wl.Name+"/false"]
		if !okA || !okB {
			row(wl.Name, "-", 0, 0, "", "", "MISSING untraced run")
			bad++
			continue
		}
		if !ra.Correct || !rb.Correct {
			row(wl.Name, "correct", 0, 0, "", "", "FAILED oracle or shape check")
			bad++
		}
		for _, m := range spec.EndToEnd {
			va, vb := ra.Metrics[m.Name], rb.Metrics[m.Name]
			if va.Value == 0 {
				row(wl.Name, m.Name, va.Value, vb.Value, "", "", "MISSING")
				bad++
				continue
			}
			// worse is positive when the change is worse than the baseline.
			worse := (vb.Value - va.Value) / va.Value
			if m.Better == "higher" {
				worse = -worse
			}
			spread := va.spread()
			if s := vb.spread(); s > spread {
				spread = s
			}
			verdict := "ok"
			switch {
			case spread > m.Bound:
				// The passes of one run disagree by more than the bound, so
				// a difference of that size cannot be told from noise.
				verdict = fmt.Sprintf("unresolved (pass-to-pass spread %.1f%%)", 100*spread)
			case worse > m.Bound:
				verdict = "REGRESSION"
				bad++
			}
			row(wl.Name, m.Name, va.Value, vb.Value, fmt.Sprintf("%+.1f%%", 100*(vb.Value-va.Value)/va.Value),
				fmt.Sprintf("%.0f%%", 100*m.Bound), verdict)
		}
		for _, trace := range []bool{false, true} {
			xa, okA := ia[fmt.Sprintf("%s/%v", wl.Name, trace)]
			xb, okB := ib[fmt.Sprintf("%s/%v", wl.Name, trace)]
			if !okA || !okB {
				continue
			}
			if sameSeed && !trace && xa.Digest != xb.Digest {
				row(wl.Name, "sim_digest", 0, 0, "", "exact", "MISMATCH")
				fmt.Fprintf(w, "    baseline: %s\n    change:   %s\n", xa.Digest, xb.Digest)
				bad++
			}
			for _, d := range perLayer {
				va, okA := xa.Metrics[d.Name]
				vb, okB := xb.Metrics[d.Name]
				if !okA || !okB {
					continue
				}
				_, shown := ra.Metrics[d.Name] // printed with the untraced run
				switch {
				case d.Exact && sameSeed && va.Value != vb.Value:
					row(wl.Name, d.Name, va.Value, vb.Value, "", "exact", "MISMATCH")
					bad++
				case d.Exact && (!trace || !shown):
					row(wl.Name, d.Name, va.Value, vb.Value, "", "exact", "equal")
				case !d.Exact && trace && va.Value != 0:
					row(wl.Name, d.Name, va.Value, vb.Value, fmt.Sprintf("%+.1f%%", 100*(vb.Value-va.Value)/va.Value), "-", "per-layer")
				}
			}
		}
	}
	if !sameSeed {
		fmt.Fprintln(w, "seeds differ: exact metrics and digests were not compared")
	}
	if bad > 0 {
		fmt.Fprintf(w, "%d regression(s) or mismatch(es)\n", bad)
		return 1
	}
	fmt.Fprintln(w, "no end-to-end metric is worse than its bound; every exact metric is equal")
	return 0
}

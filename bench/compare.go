package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readFile(path string) (*File, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(blob, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func (f *File) result(workload string, trace bool) *Result {
	for i := range f.Results {
		if r := &f.Results[i]; r.Workload == workload && r.Trace == trace {
			return r
		}
	}
	return nil
}

// worseBy returns by what share of a the value b is worse than a
// (negative when b is better).
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == higher {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// the relative difference and the bound, and reports whether B stays
// within every bound of A and fails no larger share of its operations.
// Per-layer counts that differ are listed too: between two runs of the
// same code and seed they must repeat bit for bit.
func compareFiles(w io.Writer, pathA, pathB string) (ok bool, err error) {
	a, err := readFile(pathA)
	if err != nil {
		return false, err
	}
	b, err := readFile(pathB)
	if err != nil {
		return false, err
	}
	if a.Host.CPUModel != b.Host.CPUModel || a.Host.NumCPU != b.Host.NumCPU || a.Host.GoVersion != b.Host.GoVersion {
		fmt.Fprintf(w, "WARNING: unlike hosts: A is %d x %q (%s), B is %d x %q (%s)\n",
			a.Host.NumCPU, a.Host.CPUModel, a.Host.GoVersion, b.Host.NumCPU, b.Host.CPUModel, b.Host.GoVersion)
	}
	ok = true
	fmt.Fprintf(w, "%-20s %-12s %14s %14s %8s %6s\n", "workload", "metric", "A", "B", "worse", "bound")
	for _, wl := range workloadDefs {
		ra, rb := a.result(wl.Name, false), b.result(wl.Name, false)
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "%-20s missing from a file\n", wl.Name)
			ok = false
			continue
		}
		for _, def := range endToEndDefs {
			va, vb := ra.Metrics[def.Name].Value, rb.Metrics[def.Name].Value
			worse := worseBy(va, vb, def.Better)
			mark := ""
			if worse > def.Bound {
				mark = "  OUT OF BOUND"
				ok = false
			}
			fmt.Fprintf(w, "%-20s %-12s %14.6g %14.6g %+7.1f%% %5.0f%%%s\n", wl.Name, def.Name, va, vb, worse*100, def.Bound*100, mark)
		}
		if rb.Failed*ra.Attempted > ra.Failed*rb.Attempted {
			fmt.Fprintf(w, "%-20s ops_failed rose: %d/%d -> %d/%d  OUT OF BOUND\n", wl.Name, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
			ok = false
		}
		ta, tb := a.result(wl.Name, true), b.result(wl.Name, true)
		if ta == nil || tb == nil {
			continue
		}
		for _, def := range perLayerDefs {
			if va, vb := ta.Metrics[def.Name].Value, tb.Metrics[def.Name].Value; def.Unit == "count" && va != vb {
				fmt.Fprintf(w, "%-20s count %s differs: %v -> %v\n", wl.Name, def.Name, va, vb)
			}
		}
	}
	return ok, nil
}

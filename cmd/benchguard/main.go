// Command benchguard is the CI benchmark-regression gate. It parses the
// text output of `go test -bench` (multiple -count repetitions expected),
// writes the per-benchmark medians as JSON, and fails when a guarded
// benchmark's median ns/op regresses beyond the tolerance against a
// committed baseline:
//
//	go test -run '^$' -bench . -benchtime 3x -count 3 . | tee bench.txt
//	benchguard -in bench.txt -out BENCH_ci.json \
//	    -baseline BENCH_baseline.json -guard BenchmarkPacketPath -tolerance 0.20 \
//	    -allocguard BenchmarkFabricCellPath
//
// -guard gates median ns/op (within -tolerance) plus allocs/op; the
// comma-separated -allocguard benchmarks are gated on allocs/op only —
// the hardware-independent half — so hot paths whose wall time is too
// noisy for a CI gate still cannot silently start allocating.
//
// Benchmarks that report the custom events/sec/core metric (the sharded
// engine's per-core kernel throughput) are additionally gated on it when
// guarded: the median must not drop more than -tolerance below the
// baseline (lower is worse, the mirror image of the ns/op gate).
//
// Refresh the baseline after an intentional performance change with:
//
//	benchguard -in bench.txt -out BENCH_baseline.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Entry is one benchmark's aggregated result.
type Entry struct {
	// Samples are the individual ns/op values in input order.
	Samples []float64 `json:"samples_ns_op"`
	// MedianNsOp is the wall-time regression statistic: robust against
	// one noisy repetition, but still tied to the runner's hardware.
	MedianNsOp float64 `json:"median_ns_op"`
	// AllocSamples are the allocs/op values (only for benchmarks that
	// call ReportAllocs).
	AllocSamples []float64 `json:"samples_allocs_op,omitempty"`
	// MedianAllocs is the hardware-independent regression statistic: an
	// allocation creeping into a free-list hot path shows up here no
	// matter what machine runs the benchmark.
	MedianAllocs float64 `json:"median_allocs_op,omitempty"`
	// EventSamples are the events/sec/core values (only for benchmarks
	// that call ReportMetric with the sharded kernel-throughput metric).
	EventSamples []float64 `json:"samples_events_sec_core,omitempty"`
	// MedianEvents is the per-core kernel-throughput statistic — the
	// inverse-direction twin of MedianNsOp: guarded benchmarks fail when
	// it drops below baseline*(1-tolerance).
	MedianEvents float64 `json:"median_events_sec_core,omitempty"`
}

// benchName matches the first column of a result line, e.g.
// "BenchmarkPacketPath-4", capturing the name without the GOMAXPROCS
// suffix.
var benchName = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?$`)

// parse reads result lines such as
// "BenchmarkPacketPath-4   200000   521.5 ns/op   0 B/op   0 allocs/op":
// a name, an iteration count, then (value, unit) pairs. `go test` prints
// custom ReportMetric units between ns/op and B/op in alphabetical order
// ("1.30 dispatched/op  1.5e+06 events/sec/core"); units this tool does not
// gate are skipped.
func parse(path string) (map[string]*Entry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]*Entry)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		m := benchName.FindStringSubmatch(fields[0])
		if m == nil {
			continue
		}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue
		}
		vals := make(map[string]float64)
		for i := 2; i < len(fields); i += 2 {
			if v, err := strconv.ParseFloat(fields[i], 64); err == nil {
				vals[fields[i+1]] = v
			}
		}
		ns, ok := vals["ns/op"]
		if !ok {
			continue
		}
		e := out[m[1]]
		if e == nil {
			e = &Entry{}
			out[m[1]] = e
		}
		e.Samples = append(e.Samples, ns)
		if ev, ok := vals["events/sec/core"]; ok {
			e.EventSamples = append(e.EventSamples, ev)
		}
		if allocs, ok := vals["allocs/op"]; ok {
			e.AllocSamples = append(e.AllocSamples, allocs)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, e := range out {
		e.MedianNsOp = median(e.Samples)
		if len(e.AllocSamples) > 0 {
			e.MedianAllocs = median(e.AllocSamples)
		}
		if len(e.EventSamples) > 0 {
			e.MedianEvents = median(e.EventSamples)
		}
	}
	return out, nil
}

func median(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[len(s)/2]
}

func main() {
	in := flag.String("in", "", "go test -bench output to parse")
	out := flag.String("out", "", "write aggregated results as JSON (e.g. BENCH_ci.json)")
	baseline := flag.String("baseline", "", "committed baseline JSON to compare against")
	guard := flag.String("guard", "BenchmarkPacketPath", "comma-separated benchmarks gated on median ns/op (within -tolerance) plus allocs/op")
	tolerance := flag.Float64("tolerance", 0.20, "allowed fractional ns/op regression")
	allocGuard := flag.String("allocguard", "", "comma-separated benchmarks gated on allocs/op only (no tolerance)")
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "benchguard: -in is required")
		os.Exit(2)
	}

	results, err := parse(*in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(2)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "benchguard: no benchmark lines found in", *in)
		os.Exit(2)
	}
	if *out != "" {
		blob, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchguard:", err)
			os.Exit(2)
		}
		if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchguard:", err)
			os.Exit(2)
		}
	}
	if *baseline == "" {
		return
	}

	blob, err := os.ReadFile(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(2)
	}
	base := make(map[string]*Entry)
	if err := json.Unmarshal(blob, &base); err != nil {
		fmt.Fprintln(os.Stderr, "benchguard: bad baseline:", err)
		os.Exit(2)
	}
	lookup := func(name string) (want, got *Entry) {
		want, ok := base[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchguard: %s missing from baseline %s\n", name, *baseline)
			os.Exit(2)
		}
		got, ok = results[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchguard: %s missing from %s\n", name, *in)
			os.Exit(2)
		}
		return want, got
	}
	// fail prints the regression verdict plus the full evidence: both
	// sides' raw sample lists and the baseline-refresh command, so the CI
	// log alone is enough to judge noise vs real regression.
	fail := func(want, got *Entry, format string, args ...any) {
		fmt.Fprintf(os.Stderr, "benchguard: REGRESSION: "+format+"\n", args...)
		fmt.Fprintf(os.Stderr, "  baseline ns/op samples: %v (median %.1f)\n", want.Samples, want.MedianNsOp)
		fmt.Fprintf(os.Stderr, "  measured ns/op samples: %v (median %.1f)\n", got.Samples, got.MedianNsOp)
		if len(want.AllocSamples) > 0 || len(got.AllocSamples) > 0 {
			fmt.Fprintf(os.Stderr, "  baseline allocs/op samples: %v (median %.0f)\n", want.AllocSamples, want.MedianAllocs)
			fmt.Fprintf(os.Stderr, "  measured allocs/op samples: %v (median %.0f)\n", got.AllocSamples, got.MedianAllocs)
		}
		if len(want.EventSamples) > 0 || len(got.EventSamples) > 0 {
			fmt.Fprintf(os.Stderr, "  baseline events/sec/core samples: %v (median %.0f)\n", want.EventSamples, want.MedianEvents)
			fmt.Fprintf(os.Stderr, "  measured events/sec/core samples: %v (median %.0f)\n", got.EventSamples, got.MedianEvents)
		}
		fmt.Fprintf(os.Stderr, "  if this change is intentional, refresh the baseline:\n")
		fmt.Fprintf(os.Stderr, "    go run ./cmd/benchguard -in %s -out %s\n", *in, *baseline)
		os.Exit(1)
	}
	// allocs/op is hardware-independent, so it gets no tolerance: any
	// allocation creeping into a guarded free-list hot path fails the
	// gate even on a runner much faster than the baseline machine.
	gateAllocs := func(name string, want, got *Entry) {
		if len(want.AllocSamples) == 0 || len(got.AllocSamples) == 0 {
			return
		}
		fmt.Printf("benchguard: %s median %.0f allocs/op (baseline %.0f)\n",
			name, got.MedianAllocs, want.MedianAllocs)
		if got.MedianAllocs > want.MedianAllocs {
			fail(want, got, "%s %.0f allocs/op exceeds baseline %.0f",
				name, got.MedianAllocs, want.MedianAllocs)
		}
	}

	for _, name := range strings.Split(*guard, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		want, got := lookup(name)
		limit := want.MedianNsOp * (1 + *tolerance)
		fmt.Printf("benchguard: %s median %.1f ns/op (baseline %.1f, limit %.1f)\n",
			name, got.MedianNsOp, want.MedianNsOp, limit)
		if got.MedianNsOp > limit {
			fail(want, got, "%s %.1f ns/op exceeds %.1f (baseline %.1f +%.0f%%)",
				name, got.MedianNsOp, limit, want.MedianNsOp, 100**tolerance)
		}
		// Throughput gate: only for benchmarks whose baseline carries the
		// events/sec/core metric; lower is worse, so the floor mirrors the
		// ns/op ceiling.
		if len(want.EventSamples) > 0 {
			if len(got.EventSamples) == 0 {
				fmt.Fprintf(os.Stderr, "benchguard: %s has no events/sec/core in %s (ReportMetric missing?)\n", name, *in)
				os.Exit(2)
			}
			floor := want.MedianEvents * (1 - *tolerance)
			fmt.Printf("benchguard: %s median %.0f events/sec/core (baseline %.0f, floor %.0f)\n",
				name, got.MedianEvents, want.MedianEvents, floor)
			if got.MedianEvents < floor {
				fail(want, got, "%s %.0f events/sec/core below %.0f (baseline %.0f -%.0f%%)",
					name, got.MedianEvents, floor, want.MedianEvents, 100**tolerance)
			}
		}
		gateAllocs(name, want, got)
	}
	if *allocGuard != "" {
		for _, name := range strings.Split(*allocGuard, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			want, got := lookup(name)
			// Both sides must carry allocs/op: a missing column (dropped
			// ReportAllocs, changed output format) must fail loudly, not
			// turn the no-tolerance gate green with zero comparisons.
			if len(want.AllocSamples) == 0 {
				fmt.Fprintf(os.Stderr, "benchguard: %s has no allocs/op in the baseline (ReportAllocs missing?)\n", name)
				os.Exit(2)
			}
			if len(got.AllocSamples) == 0 {
				fmt.Fprintf(os.Stderr, "benchguard: %s has no allocs/op in %s (ReportAllocs missing?)\n", name, *in)
				os.Exit(2)
			}
			gateAllocs(name, want, got)
		}
	}
}

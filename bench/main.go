// Command bench is the repository benchmark (see README.md in this
// directory and BENCHMARK.json at the repository root).
//
//	go run ./bench                        every workload, untraced pass
//	go run ./bench -trace 1 -out f.json   ... plus the traced per-layer pass; write a result file
//	go run ./bench -workload clos_solo -seed 3 -seconds 10 -trace 0
//	go run ./bench -compare A.json B.json
//	go run ./bench -spec                  print BENCHMARK.json
//
// With -workload the last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"}: the end-to-end metrics
// with -trace 0, the per-layer metrics with -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"time"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload and print the driver's result line (default: every workload)")
		seed         = flag.Int64("seed", 1, "workload seed: feeds Spec.Seed, HtsimConfig.Seed and the submitted run seeds")
		seconds      = flag.Float64("seconds", runSeconds, "how long each pass measures")
		trace        = flag.Int("trace", 0, "1 = traced pass: spans around every call into a layer, the probe ladder, per-layer metrics")
		out          = flag.String("out", "", "write the result file here (runs of every workload)")
		spans        = flag.String("spans", "", "with -workload and -trace 1: write the recorded spans here")
		compare      = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
		spec         = flag.Bool("spec", false, "print BENCHMARK.json as generated from the definitions in spec.go")
		child        = flag.String("child", "", "internal: run one pass in this process; the value is the parent's start time")
		setupOnly    = flag.Bool("setup-only", false, "internal: with -child, stop after set-up")
	)
	flag.Parse()

	switch {
	case *spec:
		blob, err := benchmarkJSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(blob)
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *child != "":
		ns, err := strconv.ParseInt(*child, 10, 64)
		if err != nil {
			fatal(fmt.Errorf("-child: %w", err))
		}
		res := runPass(passConfig{
			workload: *workloadName, seconds: *seconds, trace: *trace != 0,
			setupOnly: *setupOnly, started: time.Unix(0, ns), spansPath: *spans, reps: minReps, probeRuns: probeRuns,
			build: func() (workload, error) { return newWorkload(*workloadName, fullSizes, *seed) },
		})
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fatal(err)
		}
	case *workloadName != "":
		if !knownWorkload(*workloadName) {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		warnSmallHost()
		res, err := runWorkload(*workloadName, *seed, *seconds, *trace != 0, *spans)
		if err != nil {
			fatal(err)
		}
		printResult(res)
		printDriverLine(res)
	default:
		warnSmallHost()
		if !runSuite(*seed, *seconds, *trace != 0, *out) {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func knownWorkload(name string) bool {
	for _, w := range workloadDefs {
		if w.Name == name {
			return true
		}
	}
	return false
}

func warnSmallHost() {
	if runtime.NumCPU() < benchProcs {
		fmt.Fprintf(os.Stderr, "bench: warning: this host has %d CPU, the benchmark is sized for %d; numbers are not comparable with the reference host's\n",
			runtime.NumCPU(), benchProcs)
	}
}

// runChild re-executes this binary for one pass of one workload: every
// pass starts from a fresh process, so set-up is a cold start and peak
// RSS belongs to the workload alone.
func runChild(workload string, seed int64, seconds float64, trace, setupOnly bool, spans string) (Result, error) {
	exe, err := os.Executable()
	if err != nil {
		return Result{}, err
	}
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	cmd := exec.Command(exe,
		"-child", strconv.FormatInt(time.Now().UnixNano(), 10),
		"-workload", workload,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", traceArg,
		"-spans", spans,
		"-setup-only="+strconv.FormatBool(setupOnly))
	cmd.Stderr = os.Stderr
	blob, err := cmd.Output() // waits for the child to end
	if err != nil {
		return Result{}, fmt.Errorf("%s child: %w", workload, err)
	}
	var res Result
	if err := json.Unmarshal(blob, &res); err != nil {
		return Result{}, fmt.Errorf("%s child printed no result: %w", workload, err)
	}
	return res, nil
}

// runWorkload measures one pass of one workload. The untraced pass is
// setupSamples-1 children that only set up, then the child that also
// measures; setup_s is the median over all of them. The traced pass
// reports no end-to-end metric, so it is one child.
func runWorkload(workload string, seed int64, seconds float64, trace bool, spans string) (Result, error) {
	var setups []float64
	for i := 1; i < setupSamples && !trace; i++ {
		res, err := runChild(workload, seed, seconds, trace, true, "")
		if err != nil {
			return Result{}, err
		}
		if !res.Correct {
			return res, nil
		}
		setups = append(setups, res.Metrics["setup_s"].Value)
	}
	res, err := runChild(workload, seed, seconds, trace, false, spans)
	if err != nil {
		return Result{}, err
	}
	if s, ok := res.Metrics["setup_s"]; ok {
		res.Metrics["setup_s"] = summarize(append(setups, s.Value), "s")
	}
	return res, nil
}

func printResult(res Result) {
	pass := "untraced"
	if res.Trace {
		pass = "traced"
	}
	fmt.Printf("== %s (%s pass): %d repetitions, ops_attempted %d, ops_failed %d, digest %s\n",
		res.Workload, pass, res.Reps, res.Attempted, res.Failed, res.Digest)
	for _, e := range res.Errors {
		fmt.Printf("   FAILED CHECK: %s\n", e)
	}
	if !res.Trace {
		fmt.Printf("   host probe ran at %.3g x its reference time; times below are divided by that\n", res.HostSlowdown)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		if res.Trace && m.Value == 0 {
			continue // a layer this workload does not reach
		}
		line := fmt.Sprintf("   %-38s %14.6g %-6s", name, m.Value, m.Unit)
		if m.N > 1 && m.Max != 0 {
			line += fmt.Sprintf(" (median of %d, min %.6g, max %.6g)", m.N, m.Min, m.Max)
		}
		fmt.Println(line)
	}
}

// printDriverLine prints the one JSON object the benchmark driver reads:
// exactly the metrics BENCHMARK.json lists for this kind of pass.
func printDriverLine(res Result) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEndDefs
	if res.Trace {
		defs = perLayerDefs
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		metrics[d.Name] = value{res.Metrics[d.Name].Value, d.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, max(res.Attempted, 1), res.Failed, metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// File is a result file: one run of every workload on one host.
type File struct {
	Host       Host           `json:"host"`
	Seed       int64          `json:"seed"`
	RunSeconds float64        `json:"run_seconds"`
	Sizing     map[string]int `json:"sizing"`
	Results    []Result       `json:"results"`
}

// runSuite runs every workload (and, with trace, the traced pass after
// the untraced one), prints every metric and reports whether every
// check passed.
func runSuite(seed int64, seconds float64, trace bool, out string) bool {
	file := File{
		Host: hostInfo(), Seed: seed, RunSeconds: seconds,
		Sizing: map[string]int{"gomaxprocs": benchProcs, "shards": benchShards, "peers": benchPeers, "clients": benchClients, "ring_nodes": ringNodes},
	}
	passes := []bool{false}
	if trace {
		passes = append(passes, true)
	}
	ok := true
	for _, w := range workloadDefs {
		for _, traced := range passes {
			res, err := runWorkload(w.Name, seed, seconds, traced, "")
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				ok = false
				continue
			}
			printResult(res)
			ok = ok && res.Correct
			file.Results = append(file.Results, res)
		}
	}
	if out != "" {
		blob, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(out, append(blob, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: writing result file:", err)
			return false
		}
		fmt.Println("result file:", out)
	}
	return ok
}

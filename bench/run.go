package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// minReps is the fewest timed repetitions a run reports a median over,
// however short -seconds is.
const minReps = 5

// Result is one pass (untraced or traced) of one workload: what a child
// process hands back, and one entry of a result file.
type Result struct {
	Workload  string   `json:"workload"`
	Trace     bool     `json:"trace"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"ops_attempted"`
	Failed    int      `json:"ops_failed"`
	Errors    []string `json:"errors,omitempty"`
	Reps      int      `json:"repetitions"`
	Digest    string   `json:"digest,omitempty"` // for the record; never pinned
	// HostSlowdown is the host probe's median time over its reference: the
	// factor the untraced pass's time-based metrics were divided by.
	HostSlowdown float64            `json:"host_slowdown,omitempty"`
	Metrics      map[string]Summary `json:"metrics"`
}

// passConfig is what one child process is asked to do.
type passConfig struct {
	workload  string
	seconds   float64
	trace     bool
	setupOnly bool      // stop after set-up: an extra setup_s sample
	started   time.Time // when the parent started this process
	spansPath string    // where to write the spans of a traced pass ("" = nowhere)
	reps      int       // floor on the timed repetitions
	probeRuns int       // host-probe runs per sample point
	build     func() (workload, error)
}

// runPass sets the workload up, runs the untimed warm-up repetition,
// then the timed repetitions, then the checks that need a reference run.
func runPass(cfg passConfig) Result {
	runtime.GOMAXPROCS(benchProcs)
	res := Result{Workload: cfg.workload, Trace: cfg.trace, Metrics: map[string]Summary{}}
	broken := func(err error) Result {
		res.Attempted, res.Failed = max(res.Attempted, 1), max(res.Failed, 1)
		res.Errors = append(res.Errors, err.Error())
		return res
	}

	w, err := cfg.build()
	if err != nil {
		return broken(err)
	}
	defer w.Close()
	if warm := w.Rep(nil, 0); warm.Err != nil {
		return broken(fmt.Errorf("warm-up repetition: %w", warm.Err))
	}
	setup := time.Since(cfg.started).Seconds()

	// Every time below is reported per unit of host-probe time measured
	// alongside it (see hostprobe.go).
	probe, err := newHostProbe()
	if err != nil {
		return broken(err)
	}
	defer probe.Close()
	speed, err := probe.sample(nil, 2*cfg.probeRuns)
	if err != nil {
		return broken(err)
	}
	if !cfg.trace { // end-to-end metrics come from the untraced pass only
		res.Metrics["setup_s"] = summarize([]float64{setup * probeReference / median(speed)}, "s")
	}
	if cfg.setupOnly {
		res.Correct = true
		res.Attempted = 1
		return res
	}

	var tr *Recorder
	budget := cfg.seconds
	if cfg.trace {
		tr = newRecorder(cfg.workload)
		budget /= 2 // the other half goes to reference runs and probes
	}
	var plain, traced []rep
	var digest uint64
	t0 := time.Now()
	for i := 1; i <= cfg.reps || time.Since(t0).Seconds() < budget; i++ { // repetition 0 was the warm-up
		// A traced pass alternates traced and untraced repetitions, so
		// the tracing overhead is measured within one process.
		var r rep
		if cfg.trace && i%2 == 0 {
			r = w.Rep(tr, i)
			traced = append(traced, r)
		} else {
			r = w.Rep(nil, i)
			plain = append(plain, r)
		}
		if speed, err = probe.sample(speed, cfg.probeRuns); err != nil {
			return broken(err)
		}
		res.Reps++
		res.Attempted += r.Ops
		res.Failed += r.Failed
		if r.Err != nil {
			res.Errors = append(res.Errors, fmt.Sprintf("repetition %d: %v", i, r.Err))
			continue
		}
		if i == 1 {
			digest = r.Digest
		} else if r.Digest != digest {
			res.Failed += r.Ops
			res.Errors = append(res.Errors, fmt.Sprintf("repetition %d: digest %016x differs from repetition 1's %016x", i, r.Digest, digest))
		}
	}
	rss := peakRSSMiB() - probeRSSMiB // before the reference runs below add their own
	slowdown := median(speed) / probeReference
	res.Digest = fmt.Sprintf("%016x", digest)

	if res.Failed == 0 {
		last := plain[len(plain)-1]
		if cfg.trace {
			last = traced[len(traced)-1]
		}
		res.Attempted++
		if err := w.Verify(last); err != nil {
			res.Failed++
			res.Errors = append(res.Errors, "verify: "+err.Error())
		}
	}
	if res.Failed == 0 && cfg.trace {
		if err := layerMetrics(w, tr, plain, traced, slowdown, &res); err != nil {
			res.Failed++
			res.Errors = append(res.Errors, "per-layer pass: "+err.Error())
		}
		if cfg.spansPath != "" {
			if err := writeSpans(cfg.spansPath, tr.Spans()); err != nil {
				res.Errors = append(res.Errors, err.Error())
			}
		}
	}
	if !cfg.trace {
		var wall, rate []float64
		for _, r := range plain {
			if r.Err == nil {
				wall, rate = append(wall, r.Wall/slowdown), append(rate, r.Units/r.Wall*slowdown)
			}
		}
		res.HostSlowdown = slowdown
		res.Metrics["wall_s"] = summarize(wall, "s")
		res.Metrics["work_per_s"] = summarize(rate, "1/s")
		res.Metrics["peak_rss_mb"] = summarize([]float64{rss}, "MiB")
	}
	res.Correct = res.Failed == 0
	return res
}

// layerMetrics fills in every per-layer metric of a traced pass, 0 for
// the layers the workload does not reach, and applies the cross-checks
// that show the workloads separate the layers.
func layerMetrics(w workload, tr *Recorder, plain, traced []rep, slowdown float64, res *Result) error {
	for i, r := range traced {
		if r.Err != nil || len(r.Layer) == 0 {
			return fmt.Errorf("traced repetition %d has no layer counts", i)
		}
	}
	l, err := w.Layers(tr, traced)
	if err != nil {
		return err
	}
	l["bench.trace_overhead_pct"] = (median(repWalls(traced))/median(repWalls(plain)) - 1) * 100
	l["bench.host_slowdown"] = slowdown

	for _, def := range perLayerDefs {
		res.Metrics[def.Name] = Summary{Value: l[def.Name], Unit: def.Unit, N: len(traced)}
		delete(l, def.Name)
	}
	if len(l) != 0 {
		var stray []string
		for name := range l {
			stray = append(stray, name)
		}
		sort.Strings(stray)
		return fmt.Errorf("workload emitted metrics BENCHMARK.json does not name: %v", stray)
	}
	if res.Workload != "graph_record_replay" && res.Metrics["telemetry.windows"].Value != 0 {
		return fmt.Errorf("telemetry.windows = %v on a workload that records nothing", res.Metrics["telemetry.windows"].Value)
	}
	if res.Workload == "clos_solo" || res.Workload == "graph_record_replay" {
		if res.Metrics["fabric.ns_per_cell_hop"].Value <= 0 {
			return fmt.Errorf("fabric.ns_per_cell_hop missing: the Clos and the graph fabric must both report the normalised rung")
		}
	}
	if (res.Metrics["parsim.overhead_share"].Value != 0) != (res.Workload == "clos_sharded") {
		return fmt.Errorf("parsim.overhead_share must be reported by clos_sharded and by no other workload")
	}
	return nil
}

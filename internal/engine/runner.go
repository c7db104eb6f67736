package engine

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"time"
)

// Job requests one scenario run. Params are merged over the scenario's
// defaults and parsed into its declared kinds; a scenario that sweeps
// lists (Param.Each) then expands the job into one instance per element
// of their cross product (e.g. one per protocol and fan-in).
type Job struct {
	Scenario string
	Params   Params
	Seed     int64 // 0 = use Options.Seed
}

// Options configures a Run.
type Options struct {
	// Workers sets the worker-pool width; <= 0 means GOMAXPROCS.
	Workers int
	// Shards is the per-instance event-loop parallelism handed to
	// scenarios through Context.Shards; <= 0 means 1. It composes with
	// Workers: the pool parallelizes across instances, shards within one.
	Shards int
	// Topo is the fabric topology handed to topology-aware scenarios
	// through Context.Topo (the -topo flag); empty means the Clos.
	Topo string
	// Seed is the base seed for jobs that don't carry their own.
	Seed int64
	// Format selects the emission format: "text", "json" or "csv". Only
	// text ("" too) renders the instances' reports (Result.Text).
	Format string
	// Out receives the emitted results (deterministic byte stream).
	Out io.Writer
	// Timing, when non-nil, receives a wall-clock summary. It is kept
	// separate from Out so the result stream stays byte-identical across
	// runs and worker counts.
	Timing io.Writer
	// Progress, when non-nil, receives every instance result the moment
	// that instance finishes — out of request order, from the worker
	// goroutine that ran it (so it may be invoked concurrently). The
	// ordered, deterministic emission to Out is unaffected; this hook
	// exists so a serving layer can stream live run progress.
	Progress func(RunResult)
	// DistPeers > 0 asks dist-capable scenarios to run as a distributed
	// coordinator serving that many peer processes on DistListen instead
	// of executing shards in-process. The worker pool collapses to one:
	// concurrent instances would fight over the peers.
	DistPeers  int
	DistListen string
}

// RunResult is the outcome of one scenario instance.
type RunResult struct {
	Name   string
	Params Params
	Seed   int64
	Result Result
	// Text is the report Result.Text rendered; empty unless the run's
	// format is text.
	Text    string
	Err     error
	Elapsed time.Duration
}

// instance is one unit of parallel work after sweep expansion.
type instance struct {
	vals Values
	seed int64
}

// expand resolves jobs against the registry — an unknown scenario, an
// undeclared parameter or a value that does not parse fails the whole
// request — and expands each job's sweep, preserving request order.
func expand(opts Options, jobs []Job) ([]instance, error) {
	var insts []instance
	for _, j := range jobs {
		ivs, err := resolve(j.Scenario, j.Params, opts)
		if err != nil {
			return nil, err
		}
		seed := j.Seed
		if seed == 0 {
			seed = opts.Seed
		}
		if seed == 0 {
			seed = 1
		}
		for _, iv := range ivs {
			insts = append(insts, instance{vals: iv, seed: seed})
		}
	}
	return insts, nil
}

// Run expands jobs into instances, executes them on a worker pool, emits
// the results to opts.Out in request order, and returns them. Instances
// are independent simulations (each builds its own sim.Simulator), so the
// same jobs with the same seed produce a byte-identical Out stream at any
// worker count. The returned error is the first instance error, if any;
// all instances run regardless.
func Run(opts Options, jobs []Job) ([]RunResult, error) {
	insts, err := expand(opts, jobs)
	if err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if opts.DistPeers > 0 {
		workers = 1
	}
	if workers > len(insts) {
		workers = len(insts)
	}
	if workers < 1 {
		workers = 1
	}

	results := make([]RunResult, len(insts))
	start := time.Now()
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				in := insts[i]
				t0 := time.Now()
				res, text, err := runInstance(in, opts)
				results[i] = RunResult{
					Name:    in.vals.sc.Name,
					Params:  in.vals.raw,
					Seed:    in.seed,
					Result:  res,
					Text:    text,
					Err:     err,
					Elapsed: time.Since(t0),
				}
				if opts.Progress != nil {
					opts.Progress(results[i])
				}
			}
		}()
	}
	for i := range insts {
		work <- i
	}
	close(work)
	wg.Wait()
	wall := time.Since(start)

	if opts.Out != nil {
		if err := Emit(opts.Out, opts.Format, results); err != nil {
			return results, err
		}
	}
	if opts.Timing != nil {
		var busy time.Duration
		for _, r := range results {
			busy += r.Elapsed
		}
		fmt.Fprintf(opts.Timing, "engine: %d instance(s) on %d worker(s): %v wall, %v cpu-busy\n",
			len(results), workers, wall.Round(time.Millisecond), busy.Round(time.Millisecond))
	}
	for _, r := range results {
		if r.Err != nil {
			return results, fmt.Errorf("engine: %s (%s): %w", r.Name, r.Params, r.Err)
		}
	}
	return results, nil
}

// runInstance executes one instance and, when opts emits text, renders its
// report, converting a panic in scenario code into an error so one bad
// instance cannot take down a sweep. A render error is the instance's error.
func runInstance(in instance, opts Options) (res Result, text string, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("scenario panicked: %v", r)
		}
	}()
	res, err = in.vals.sc.Run(opts.context(in.vals, in.seed))
	if err != nil || res.Text == nil || !opts.text() {
		return res, "", err
	}
	var b strings.Builder
	if err := res.Text(&b); err != nil {
		return res, "", err
	}
	return res, b.String(), nil
}

// text reports whether o emits text, the one format that renders reports.
func (o Options) text() bool { return o.Format == "" || o.Format == "text" }

// context is what a scenario sees of a run under o: one instance's
// parameters and seed, the flags as they apply to it.
func (o Options) context(p Values, seed int64) Context {
	return Context{
		Params:     p,
		Seed:       seed,
		Shards:     max(o.Shards, 1),
		Topo:       o.Topo,
		DistPeers:  o.DistPeers,
		DistListen: o.DistListen,
	}
}

package engine

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"
)

// Job requests one scenario run. Params are merged over the scenario's
// defaults; the scenario's Variants hook may then expand the job into
// several instances (e.g. one per protocol).
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
	// Format selects the emission format: "text", "json" or "csv".
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
	Name    string
	Params  Params
	Seed    int64
	Result  Result
	Err     error
	Elapsed time.Duration
}

// instance is one unit of parallel work after variant expansion.
type instance struct {
	sc     *Scenario
	params Params
	seed   int64
}

// expand resolves jobs against the registry — an unknown scenario, an
// undeclared parameter or a Variants hook that panics fails the whole
// request — and applies variant expansion, preserving request order.
func expand(opts Options, jobs []Job) ([]instance, error) {
	var insts []instance
	for _, j := range jobs {
		sc, err := resolve(j.Scenario, j.Params, opts)
		if err != nil {
			return nil, err
		}
		base := Params{}
		if sc.Defaults != nil {
			base = sc.Defaults.Clone()
		}
		if j.Params != nil {
			base = base.Merge(j.Params)
		}
		seed := j.Seed
		if seed == 0 {
			seed = opts.Seed
		}
		if seed == 0 {
			seed = 1
		}
		variants := []Params{base}
		if sc.Variants != nil {
			v, err := expandVariants(sc, base)
			if err != nil {
				return nil, err
			}
			if len(v) > 0 {
				variants = v
			}
		}
		for _, p := range variants {
			insts = append(insts, instance{sc: sc, params: p, seed: seed})
		}
	}
	return insts, nil
}

// expandVariants calls sc.Variants under the recover runInstance gives
// sc.Run: the hook sees whatever values the request carried, and it runs on
// the caller's goroutine — in stardustd, a RunQueue worker.
func expandVariants(sc *Scenario, base Params) (v []Params, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("engine: %s (%s): scenario panicked expanding variants: %v", sc.Name, base, r)
		}
	}()
	return sc.Variants(base), nil
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
				res, err := runInstance(in, opts)
				results[i] = RunResult{
					Name:    in.sc.Name,
					Params:  in.params,
					Seed:    in.seed,
					Result:  res,
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

// runInstance executes one instance, converting a panic in scenario code
// into an error so one bad instance cannot take down a sweep.
func runInstance(in instance, opts Options) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("scenario panicked: %v", r)
		}
	}()
	return in.sc.Run(opts.context(in.params, in.seed))
}

// context is what a scenario sees of a run under o: one instance's
// parameters and seed, the flags as they apply to it.
func (o Options) context(p Params, seed int64) Context {
	return Context{
		Params:     p,
		Seed:       seed,
		Shards:     max(o.Shards, 1),
		Topo:       o.Topo,
		DistPeers:  o.DistPeers,
		DistListen: o.DistListen,
	}
}

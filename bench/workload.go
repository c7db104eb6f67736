package main

import (
	"fmt"
	"time"

	"stardust/internal/sim"
)

// rep is the outcome of one repetition of a workload.
type rep struct {
	Wall   float64 // seconds a caller waits: model build + run
	Units  float64 // work units completed: delivered cells, or HTTP requests
	Ops    int     // operations attempted: 1, or the HTTP requests sent
	Failed int     // operations that failed a correctness check
	Digest uint64  // must repeat on every repetition (0 = workload has none)
	Err    error   // the first failed check, for the report
	// Layer holds counts and span-derived values read at the layer
	// boundaries. Only traced repetitions fill it.
	Layer map[string]float64
}

// fail records a failed correctness check on a single-operation rep.
func (r *rep) fail(format string, args ...any) {
	r.Failed = r.Ops
	if r.Err == nil {
		r.Err = fmt.Errorf(format, args...)
	}
}

// workload is one set of inputs the benchmark runs. Everything outside
// Rep is outside the timed region.
type workload interface {
	// Rep runs one repetition; tr is nil in the untraced pass.
	Rep(tr *Recorder, i int) rep
	// Verify runs the checks that need a reference run, given the last
	// timed repetition.
	Verify(last rep) error
	// Layers returns this workload's per-layer metrics that need extra
	// runs or isolated probes (traced pass only). reps are the traced
	// repetitions.
	Layers(tr *Recorder, reps []rep) (map[string]float64, error)
	Close()
}

// sizes fixes every workload's scale. The full sizes are the benchmark;
// the tiny ones let the tests run every workload in well under a second.
type sizes struct {
	closK      int
	closDur    sim.Time
	permDur    sim.Time
	permWarm   sim.Time
	graphK     int
	graphDur   sim.Time
	graphTelem sim.Time
	distK      int
	distDur    sim.Time
	submitN    int           // distinct runs submitted per repetition
	hitSlice   time.Duration // one serve_ring_hit repetition
	hitWarm    int           // cache hits of serve_ring_hit's warm-up
	probeScale int           // divides every probe's iteration count
}

var fullSizes = sizes{
	closK: 8, closDur: 6250 * sim.Microsecond,
	permDur: 20 * sim.Millisecond, permWarm: 2 * sim.Millisecond,
	graphK: 8, graphDur: 8 * sim.Millisecond, graphTelem: 10 * sim.Microsecond,
	distK: 4, distDur: 10 * sim.Millisecond,
	submitN:    1200,
	hitSlice:   500 * time.Millisecond,
	hitWarm:    3000,
	probeScale: 1,
}

var tinySizes = sizes{
	closK: 4, closDur: 100 * sim.Microsecond,
	permDur: 3 * sim.Millisecond, permWarm: 3 * sim.Millisecond,
	graphK: 4, graphDur: 100 * sim.Microsecond, graphTelem: 10 * sim.Microsecond,
	distK: 4, distDur: 100 * sim.Microsecond,
	submitN:    12,
	hitSlice:   30 * time.Millisecond,
	hitWarm:    30,
	probeScale: 200,
}

// hitSliceRequests is the fixed amount of work a serve_ring_hit
// repetition is normalised to: its wall_s is the time the two clients
// take to complete this many cache hits.
const hitSliceRequests = 20000

func newWorkload(name string, sz sizes, seed int64) (workload, error) {
	switch name {
	case "clos_solo":
		return newModelWorkload(sz, seed, 1), nil
	case "clos_sharded":
		return newModelWorkload(sz, seed, benchShards), nil
	case "perm_transport":
		return newPermWorkload(sz, seed), nil
	case "graph_record_replay":
		return newGraphWorkload(sz, seed), nil
	case "dist_2peer":
		return newDistWorkload(sz, seed), nil
	case "serve_ring_submit":
		return newSubmitWorkload(sz, seed)
	case "serve_ring_hit":
		return newHitWorkload(sz, seed)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

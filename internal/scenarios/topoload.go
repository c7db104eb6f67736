package scenarios

// Topology-pluggable scenarios: the workloads of the evaluation run on
// any topo.Graph — the paper's Clos, the Space Shuffle ring-space graph,
// or the star-replaced server-centric graph — through the same fabric. fabric/graphload records the spray-vs-ECMP per-uplink
// spread comparison on the non-Clos graphs; fabric/collective drives
// phase-synchronized ring/tree all-reduce collectives; fabric/openloop
// offers diurnal bursty storage traffic. Each is a deterministic
// function of (seed, parameters): one solo event heap per instance, so
// the output is byte-identical at any -workers/-shards count.

import (
	"fmt"
	"math/rand"
	"strings"

	"stardust/internal/engine"
	"stardust/internal/experiments"
	"stardust/internal/fabric"
	"stardust/internal/netsim"
	"stardust/internal/sim"
	"stardust/internal/topo"
	"stardust/internal/workload"
)

// buildGraphFabric assembles the solo fabric for one topology-pluggable
// scenario instance: resolved topology, simulator, default 10G config.
func buildGraphFabric(c engine.Context, k int) (topo.Graph, *sim.Simulator, *fabric.Net, error) {
	g, err := topo.ByName(effectiveTopo(c), k)
	if err != nil {
		return nil, nil, nil, err
	}
	s := sim.New()
	fcfg := fabric.DefaultConfig(netsim.Bps(10e9), sim.Microsecond, c.Seed)
	fab, err := fabric.New(s, fcfg, g)
	if err != nil {
		return nil, nil, nil, err
	}
	return g, s, fab, nil
}

// runUntilAccounted advances the solo simulator in fixed quanta until
// every injected cell has a recorded fate (delivered or dropped) and at
// least want cells went in, or the deadline passes. The quantized stop
// instant is deterministic because the counters are.
func runUntilAccounted(s *sim.Simulator, fab *fabric.Net, want uint64, deadline sim.Time) {
	const quantum = sim.Microsecond
	for s.Now() < deadline {
		if fab.Injected() >= want && fab.Delivered()+fab.Drops() >= fab.Injected() {
			return
		}
		s.RunUntil(s.Now() + quantum)
	}
}

func init() {
	engine.Register(engine.Scenario{
		Name: "fabric/graphload",
		Desc: "spray vs ECMP per-uplink byte spread on pluggable topologies (Space Shuffle, star-replaced) — §5.3 carried beyond the Clos",
		Defaults: engine.Params{
			"topo": "sshuffle,star", "mode": "spray,ecmp", "k": "8",
			"load": "0.6", "warm_us": "100", "dur_us": "400",
		},
		Docs: map[string]string{
			"topo":    "topology families sized by k (comma list sweeps); clos is spray-only (use fabric/linkload for the fat-tree ECMP contender)",
			"mode":    "routing mode: spray (per-cell round robin) or ecmp (per-flow hash-pinned path); comma list sweeps",
			"k":       "sizing parameter handed to topo.ByName (edge devices = k*k/2)",
			"load":    "offered load per edge device as a fraction of its uplink capacity",
			"warm_us": "warmup before measurement, in µs",
			"dur_us":  "measurement window in µs",
		},
		Variants: func(p engine.Params) []engine.Params {
			var out []engine.Params
			for _, t := range splitTopos(p.Str("topo", "sshuffle,star")) {
				for _, m := range splitList(p.Str("mode", "spray,ecmp")) {
					out = append(out, p.With("topo", t).With("mode", m))
				}
			}
			return out
		},
		Run: func(c engine.Context) (engine.Result, error) {
			r, err := experiments.GraphLinkLoad(
				c.Params.Str("topo", "sshuffle"),
				c.Params.Int("k", 8),
				c.Params.Str("mode", "spray"),
				c.Params.Float("load", 0.6),
				usTime(c.Params.Int("warm_us", 100)),
				usTime(c.Params.Int("dur_us", 400)),
				c.Seed)
			if err != nil {
				return engine.Result{}, err
			}
			if r.Delivered == 0 {
				return engine.Result{}, fmt.Errorf("graphload: %s %s delivered no cells", r.Topo, r.Mode)
			}
			var res engine.Result
			res.Add("links", float64(r.Links), "")
			res.Add("mean_bytes", r.MeanBytes, "B")
			res.Add("cov_pct", r.CoVPct, "%")
			res.Add("spread_pct", r.SpreadPct, "%")
			res.Add("dev_spread_pct", r.DevSpreadPct, "%")
			res.Add("injected_cells", float64(r.Injected), "")
			res.Add("delivered_cells", float64(r.Delivered), "")
			res.Add("dropped_cells", float64(r.Drops), "")
			var b strings.Builder
			experiments.WriteGraphLoad(&b, r)
			res.Text = b.String()
			return res, nil
		},
	})

	engine.Register(engine.Scenario{
		Name: "fabric/collective",
		Desc: "ML-collective all-reduce (ring or binomial tree) over any topology: phase-synchronized cell traffic, completion time and conservation",
		Defaults: engine.Params{
			"topo": "", "k": "4", "collective": "ring", "kb": "64",
			"cell": "512", "load": "1",
		},
		Docs: map[string]string{
			"topo":       "topology family sized by k: clos, sshuffle, star, or a full spec string; empty = the -topo flag",
			"k":          "sizing parameter handed to topo.ByName",
			"collective": "schedule: ring (bandwidth-optimal reduce-scatter + all-gather) or tree (binomial reduce + broadcast)",
			"kb":         "all-reduce payload per rank in KB",
			"cell":       "cell size in bytes",
			"load":       "per-flow pacing as a fraction of the source's uplink capacity",
		},
		Run: func(c engine.Context) (engine.Result, error) {
			k := c.Params.Int("k", 4)
			cell := c.Params.Int("cell", 512)
			load := c.Params.Float("load", 1)
			bytes := int64(c.Params.Int("kb", 64)) * 1024
			g, s, fab, err := buildGraphFabric(c, k)
			if err != nil {
				return engine.Result{}, err
			}
			numFA := g.NumEdge()
			var phases [][]workload.CollectiveFlow
			switch coll := c.Params.Str("collective", "ring"); coll {
			case "ring":
				phases = workload.RingAllReduce(numFA, bytes)
			case "tree":
				phases = workload.TreeAllReduce(numFA, bytes)
			default:
				return engine.Result{}, fmt.Errorf("collective: unknown schedule %q (want ring or tree)", coll)
			}
			var want uint64
			var worstPhase sim.Time
			for _, flows := range phases {
				start := s.Now()
				for fi, f := range flows {
					if f.Src == f.Dst {
						continue
					}
					n := int((f.Bytes + int64(cell) - 1) / int64(cell))
					gap := fab.CellGap(f.Src, cell, load)
					j := fab.NewInjector(f.Src, gap, cell, 0, n)
					j.FixDst(f.Dst)
					j.Start(start + sim.Time(fi)*gap/sim.Time(len(flows)+1))
					want += uint64(n)
				}
				runUntilAccounted(s, fab, want, start+100*sim.Millisecond)
				if d := s.Now() - start; d > worstPhase {
					worstPhase = d
				}
			}
			if leak := fab.Injected() - fab.Delivered() - fab.Drops(); leak != 0 {
				return engine.Result{}, fmt.Errorf("collective: %d cells unaccounted for", leak)
			}
			if fab.Injected() < want {
				return engine.Result{}, fmt.Errorf("collective: injected %d of %d scheduled cells before the deadline", fab.Injected(), want)
			}
			total := s.Now()
			// Algorithmic bus bandwidth of the all-reduce: 2(n-1)/n of the
			// payload crosses the fabric per rank.
			algBW := 2 * float64(numFA-1) / float64(numFA) * float64(bytes) * 8 / (float64(total) / float64(sim.Second))
			var res engine.Result
			res.Add("ranks", float64(numFA), "")
			res.Add("phases", float64(len(phases)), "")
			res.Add("injected_cells", float64(fab.Injected()), "")
			res.Add("delivered_cells", float64(fab.Delivered()), "")
			res.Add("dropped_cells", float64(fab.Drops()), "")
			res.Add("completion_us", float64(total)/float64(sim.Microsecond), "us")
			res.Add("worst_phase_us", float64(worstPhase)/float64(sim.Microsecond), "us")
			res.Add("algo_gbps", algBW/1e9, "Gb/s")
			res.Text = fmt.Sprintf("collective %s on %s: %d ranks, %d phases, %d cells (%d dropped), done in %.0fµs (worst phase %.0fµs, %.2f Gb/s algorithmic)\n",
				c.Params.Str("collective", "ring"), g.Spec(), numFA, len(phases),
				fab.Injected(), fab.Drops(),
				float64(total)/float64(sim.Microsecond), float64(worstPhase)/float64(sim.Microsecond), algBW/1e9)
			return res, nil
		},
	})

	engine.Register(engine.Scenario{
		Name: "fabric/openloop",
		Desc: "diurnal bursty open-loop arrivals with storage-style mixed flow sizes over any topology: conservation under a daily load cycle",
		Defaults: engine.Params{
			"topo": "", "k": "4", "rate_kfps": "200", "trough": "0.2",
			"period_us": "2000", "dur_us": "2000", "cap_kb": "64",
			"sizes": "storage", "cell": "512", "load": "1",
		},
		Docs: map[string]string{
			"topo":      "topology family sized by k: clos, sshuffle, star, or a full spec string; empty = the -topo flag",
			"k":         "sizing parameter handed to topo.ByName",
			"rate_kfps": "peak flow arrival rate in thousands of flows per second",
			"trough":    "trough-to-peak rate ratio of the diurnal cycle (0..1)",
			"period_us": "diurnal period in µs (scaled-down day)",
			"dur_us":    "arrival horizon in µs",
			"cap_kb":    "clamp individual flow sizes at this many KB (keeps the chunk tail simulable)",
			"sizes":     "flow-size distribution: storage (bimodal metadata+chunks) or web (Fig 10b)",
			"cell":      "cell size in bytes",
			"load":      "per-flow pacing as a fraction of the source's uplink capacity",
		},
		Run: func(c engine.Context) (engine.Result, error) {
			k := c.Params.Int("k", 4)
			cell := c.Params.Int("cell", 512)
			load := c.Params.Float("load", 1)
			capB := int64(c.Params.Int("cap_kb", 64)) * 1024
			dur := usTime(c.Params.Int("dur_us", 2000))
			g, s, fab, err := buildGraphFabric(c, k)
			if err != nil {
				return engine.Result{}, err
			}
			numFA := g.NumEdge()
			var sizes interface{ Sample(*rand.Rand) float64 }
			switch sz := c.Params.Str("sizes", "storage"); sz {
			case "storage":
				sizes = workload.StorageFlowSizes()
			case "web":
				sizes = workload.WebFlowSizes()
			default:
				return engine.Result{}, fmt.Errorf("openloop: unknown size distribution %q (want storage or web)", sz)
			}
			rng := rand.New(rand.NewSource(c.Seed ^ 0x5ee0_10ad))
			arrivals := workload.DiurnalArrivals(rng,
				c.Params.Float("rate_kfps", 200)*1e3,
				c.Params.Float("trough", 0.2),
				float64(usTime(c.Params.Int("period_us", 2000)))/float64(sim.Second),
				float64(dur)/float64(sim.Second))
			var want uint64
			var flowBytes int64
			for _, at := range arrivals {
				src := rng.Intn(numFA)
				dst := rng.Intn(numFA - 1)
				if dst >= src {
					dst++
				}
				fb := int64(sizes.Sample(rng))
				if fb > capB {
					fb = capB
				}
				if fb < 1 {
					fb = 1
				}
				flowBytes += fb
				n := int((fb + int64(cell) - 1) / int64(cell))
				j := fab.NewInjector(src, fab.CellGap(src, cell, load), cell, 0, n)
				j.FixDst(dst)
				j.Start(sim.Time(at * float64(sim.Second)))
				want += uint64(n)
			}
			runUntilAccounted(s, fab, want, dur+100*sim.Millisecond)
			if leak := fab.Injected() - fab.Delivered() - fab.Drops(); leak != 0 {
				return engine.Result{}, fmt.Errorf("openloop: %d cells unaccounted for", leak)
			}
			if fab.Injected() < want {
				return engine.Result{}, fmt.Errorf("openloop: injected %d of %d scheduled cells before the deadline", fab.Injected(), want)
			}
			var res engine.Result
			res.Add("flows", float64(len(arrivals)), "")
			res.Add("flow_bytes", float64(flowBytes), "B")
			res.Add("injected_cells", float64(fab.Injected()), "")
			res.Add("delivered_cells", float64(fab.Delivered()), "")
			res.Add("dropped_cells", float64(fab.Drops()), "")
			res.Add("drain_us", float64(s.Now())/float64(sim.Microsecond), "us")
			res.Text = fmt.Sprintf("openloop %s on %s: %d flows (%d KB), %d cells injected, %d delivered, %d dropped, drained by %.0fµs\n",
				c.Params.Str("sizes", "storage"), g.Spec(), len(arrivals), flowBytes/1024,
				fab.Injected(), fab.Delivered(), fab.Drops(), float64(s.Now())/float64(sim.Microsecond))
			return res, nil
		},
	})
}

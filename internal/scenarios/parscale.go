package scenarios

import (
	"encoding/binary"
	"fmt"
	"hash"
	"os"
	"strings"
	"time"

	"stardust/internal/distsim"
	"stardust/internal/engine"
	"stardust/internal/fabric"
	"stardust/internal/parsim"
	"stardust/internal/sim"
	"stardust/internal/topo"
)

// digest64 folds v into h little-endian — the one serialization both the
// parscale and parperm digests use, so their encodings can never drift.
func digest64(h hash.Hash, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	h.Write(buf[:])
}

// Scenarios over the sharded (parallel) fabric engine: parscale sweeps
// shards×K and reports the deterministic traffic outcome — plus, in
// timings mode, events/sec and the speedup over one shard; parheal drives
// a scripted fail/heal schedule through the sharded engine and checks the
// conservation and self-healing invariants. Both emit a canonical digest
// of every per-link counter, so the CI determinism matrix can compare the
// full fabric state, not just aggregate counts, across {workers}×{shards}.

// parRun is the outcome of one sharded fabric run. Everything except wall
// and exec is a deterministic function of (seed, parameters) — independent of the
// shard count, which is the whole point.
type parRun struct {
	injected    uint64
	delivered   uint64
	drops       uint64
	events      uint64
	unreachable int
	digest      uint64
	wall        time.Duration
	shardEvents []uint64
	exec        parsim.Stats // how the engine executed the windows; in-process runs only
	// dist is where each peer's wall time went; distributed runs with
	// timings only.
	dist *distsim.CoordStatsSnapshot
}

// paramSpec assembles a distsim Spec from the parameters every scenario
// that builds one shares — k, topo, shards, load, pattern, cell and
// hotspot — given the scenario's injection duration and default load; the
// caller sets the rest. A key the scenario does not declare reads as its
// fallback (no pattern, hotspot 1). The model construction itself lives
// in distsim.NewModel so the in-process, coordinator, and remote-peer
// replicas are one code path, and checkSpec refuses what it would.
func paramSpec(c engine.Context, dur sim.Time, load float64) distsim.Spec {
	return distsim.Spec{
		K: c.Params.Int("k", 4), Topo: effectiveTopo(c), Seed: c.Seed, Shards: effectiveShards(c),
		Dur: dur, Load: c.Params.Float("load", load), Pattern: c.Params.Str("pattern", ""),
		CellBytes: c.Params.Int("cell", 512), Hotspot: c.Params.Float("hotspot", 1),
	}
}

func parscaleSpec(c engine.Context) distsim.Spec {
	return paramSpec(c, msTime(c.Params.Int("dur_ms", 5)), 0.5)
}

func parhealSpec(c engine.Context) distsim.Spec {
	spec := paramSpec(c, msTime(c.Params.Int("dur_ms", 6)), 0.4)
	spec.FailN = c.Params.Int("fail", 3)
	spec.FailAt, spec.HealAt = msTime(c.Params.Int("fail_ms", 2)), msTime(c.Params.Int("heal_ms", 4))
	return spec
}

func fromOutcome(out distsim.Outcome, wall time.Duration) parRun {
	return parRun{
		injected:    out.Injected,
		delivered:   out.Delivered,
		drops:       out.Drops,
		events:      out.Events,
		unreachable: out.Unreachable,
		digest:      out.Digest,
		wall:        wall,
		shardEvents: out.ShardEvents,
	}
}

// runShardedFabric executes spec with in-process goroutine shards.
func runShardedFabric(spec distsim.Spec) (parRun, error) {
	m, err := distsim.NewModel(spec)
	if err != nil {
		return parRun{}, err
	}
	t0 := time.Now()
	out, err := m.RunLocal()
	if err != nil {
		return parRun{}, err
	}
	r := fromOutcome(out, time.Since(t0))
	r.exec = m.Eng.Stats()
	return r, nil
}

// runDistFabric executes spec as a distributed coordinator: it listens on
// c.DistListen, waits for c.DistPeers peer processes (started with -join
// or devnet), and drives the run over the wire. The outcome is
// byte-identical to runShardedFabric on the same spec — that equivalence
// is what the distributed CI job diffs.
func runDistFabric(spec distsim.Spec, c engine.Context, timings bool) (parRun, error) {
	l, err := distsim.Listen(c.DistListen)
	if err != nil {
		return parRun{}, err
	}
	// The resolved address goes to stderr: with -listen :0 the peers need
	// it, and stdout must stay byte-identical to the in-process run.
	fmt.Fprintf(os.Stderr, "distsim: coordinator listening on %s for %d peer(s)\n", l.Addr(), c.DistPeers)
	// A run of its own accumulator can print its own clock; otherwise the
	// process-wide one that /metrics renders takes it.
	var stats *distsim.CoordStats
	if timings {
		stats = distsim.NewCoordStats()
	}
	t0 := time.Now()
	out, err := distsim.Serve(l, distsim.CoordConfig{
		Spec:   spec,
		Peers:  c.DistPeers,
		Rejoin: true,
		Stats:  stats,
	})
	if err != nil {
		return parRun{}, err
	}
	r := fromOutcome(out, time.Since(t0))
	if timings {
		snap := stats.Snapshot()
		r.dist = &snap
	}
	return r, nil
}

// distTimings renders where a distributed run's wall time went: per peer
// the time stepping shards and in the codec (busy) and blocked on the
// neighbours' XCHG frames (wait), how those waits were spent — mesh reads
// that parked in the netpoller against all of them, the non-blocking
// attempts made instead, the links still polling — and the peer the others
// waited on most.
func distTimings(b *strings.Builder, r parRun) {
	links := len(r.dist.Peers) - 1
	fmt.Fprintf(b, "  wall %v over %d peers, %d windows:", r.wall.Round(time.Millisecond), len(r.dist.Peers), r.dist.Windows)
	for _, p := range r.dist.Peers {
		fmt.Fprintf(b, " peer %d busy %.0fms wait %.0fms (%d of %d reads parked, %d polls, %d/%d links polling),",
			p.Peer, p.Busy*1e3, p.Wait*1e3, p.Parks, p.Parks+p.PollReady, p.PollTries, p.PollingLinks, links)
	}
	fmt.Fprintf(b, " straggler %d\n", r.dist.Straggler)
}

// addShardSplit emits the per-shard event counts and the imbalance ratio
// (max shard's share over the even split, 1.0 = perfectly balanced) —
// deterministic, but a function of the shard count, so they follow the
// same rule as the shards echo in addParMetrics: emitted only when the
// shard count was an explicit scenario parameter, never when it came from
// the -shards flag the CI determinism matrix sweeps.
func addShardSplit(res *engine.Result, b *strings.Builder, r parRun) {
	var sum, max uint64
	for _, ev := range r.shardEvents {
		sum += ev
		if ev > max {
			max = ev
		}
	}
	if sum == 0 {
		return
	}
	imb := float64(max) * float64(len(r.shardEvents)) / float64(sum)
	for i, ev := range r.shardEvents {
		res.Add(fmt.Sprintf("shard%d_events", i), float64(ev), "")
	}
	res.Add("imbalance", imb, "x")
	fmt.Fprintf(b, "  shard events %d, imbalance %.3fx\n", r.shardEvents, imb)
}

// addParMetrics emits the deterministic half of a parRun. shardsParam is
// the *requested* shard count (0 = the -shards flag): echoing the
// resolved count would make otherwise byte-identical runs differ by their
// label alone, defeating the CI determinism diff across -shards values.
func addParMetrics(res *engine.Result, k, shardsParam int, r parRun) {
	res.Add("k", float64(k), "")
	if shardsParam != 0 {
		res.Add("shards", float64(shardsParam), "")
	}
	res.Add("injected_cells", float64(r.injected), "")
	res.Add("delivered_cells", float64(r.delivered), "")
	res.Add("dropped_cells", float64(r.drops), "")
	res.Add("unreachable_pairs", float64(r.unreachable), "")
	res.Add("events", float64(r.events), "")
	res.Add("digest_lo", float64(uint32(r.digest)), "")
	res.Add("digest_hi", float64(r.digest>>32), "")
}

// parVariants expands comma-separated k, shards and topo lists into one
// instance per combination. An empty topo list means "the -topo flag",
// one unexpanded instance.
func parVariants(p engine.Params) []engine.Params {
	topos := splitTopos(p.Str("topo", ""))
	if len(topos) == 0 {
		topos = []string{""}
	}
	var out []engine.Params
	for _, t := range topos {
		for _, k := range splitList(p.Str("k", "4")) {
			for _, s := range splitList(p.Str("shards", "0")) {
				out = append(out, p.With("topo", t).With("k", k).With("shards", s))
			}
		}
	}
	return out
}

// shardLabel renders the requested shard count for the text report —
// empty when it comes from the -shards flag, so runs differing only in
// that flag stay byte-identical (the CI determinism matrix diffs them).
func shardLabel(c engine.Context) string {
	if s := c.Params.Int("shards", 0); s != 0 {
		return fmt.Sprintf(" shards=%d", s)
	}
	return ""
}

// effectiveShards resolves the shards parameter: 0 means "use the -shards
// flag". Whether the fabric can be cut that many ways is for whoever
// builds it to say (fabric.ShardCount), and for checkShards before that.
func effectiveShards(c engine.Context) int {
	if s := c.Params.Int("shards", 0); s != 0 {
		return s
	}
	return c.Shards
}

// checkShards is the Check of every scenario that cuts a fabric into a
// requested number of shards: it refuses a count the fabric cannot have
// with fabric.ShardCount's error, for every combination the k, shards and
// topo lists sweep, before a run exists that could allocate for it. family
// resolves the topology for one combination; a k or topology that does not
// build is the run's error to report, not this check's.
func checkShards(family func(engine.Context) string) func(engine.Context) error {
	return func(c engine.Context) error {
		for _, p := range parVariants(c.Params) {
			shards := p.Int("shards", 0)
			if shards == 0 {
				continue // the -shards flag, which engine.Options floors at 1
			}
			c.Params = p
			g, err := topo.ByName(family(c), p.Int("k", 4))
			if err != nil {
				continue
			}
			if _, err := fabric.ShardCount(shards, g); err != nil {
				return err
			}
		}
		return nil
	}
}

// checkSpec is the Check of every scenario that builds a distsim Spec:
// checkShards, then whatever distsim.Spec.Check refuses of the Spec spec
// assembles.
func checkSpec(spec func(engine.Context) distsim.Spec) func(engine.Context) error {
	shards := checkShards(effectiveTopo)
	return func(c engine.Context) error {
		if err := shards(c); err != nil {
			return err
		}
		return spec(c).Check()
	}
}

// closOnly is the family of the scenarios that always build the Clos.
func closOnly(engine.Context) string { return "clos" }

// effectiveTopo resolves the topo parameter: empty means "use the -topo
// flag" (which itself defaults to the Clos).
func effectiveTopo(c engine.Context) string {
	if t := c.Params.Str("topo", ""); t != "" {
		return t
	}
	return c.Topo
}

// topoLabel renders the requested topology for the text report — empty
// when it comes from the -topo flag, following the same rule as
// shardLabel: runs differing only in a swept flag stay byte-identical,
// and the CI determinism matrix sweeps -topo alongside -shards.
func topoLabel(c engine.Context) string {
	if t := c.Params.Str("topo", ""); t != "" {
		return fmt.Sprintf(" topo=%s", t)
	}
	return ""
}

func init() {
	engine.Register(engine.Scenario{
		Name: "fabric/parscale",
		Desc: "sharded-engine scaling sweep: shards×K, deterministic traffic digest (+ events/sec and speedup with timings=true)",
		Defaults: engine.Params{
			"k": "4", "shards": "0", "topo": "", "pattern": "", "dur_ms": "5", "load": "0.5", "cell": "512",
			"hotspot": "1", "timings": "false",
		},
		Docs: map[string]string{
			"k":       "fat-tree K sizing the Clos (comma list sweeps)",
			"shards":  "event-loop shards; 0 = the -shards flag (comma list sweeps). Explicit values also report the per-shard event split",
			"topo":    "topology family sized by k: clos, sshuffle, star, or a full spec string; empty = the -topo flag (comma list sweeps)",
			"pattern": "traffic matrix: rotate (all-to-all over time, the default), permutation, incast",
			"dur_ms":  "injection duration in ms",
			"load":    "offered load per FA as a fraction of its uplink capacity",
			"cell":    "cell size in bytes",
			"hotspot": "boost factor for the first quarter of the FAs (>1 = skewed matrix, changes the offered traffic)",
			"timings": "true adds wall-clock events/sec (total and per core), speedup vs one shard and the engine's execution stats (windows, fanned, probes, switches, parked hand-offs, which shard finished last how often, mail) — with -peers, each peer's busy and mesh-wait time, how its mesh reads waited (parked or polled) and the straggler instead — nondeterministic output, keep off when diffing runs",
		},
		Variants: parVariants,
		Check:    checkSpec(parscaleSpec),
		Run: func(c engine.Context) (engine.Result, error) {
			spec := parscaleSpec(c)
			k, shards := spec.K, spec.Shards
			var r parRun
			var err error
			if c.DistPeers > 0 {
				r, err = runDistFabric(spec, c, c.Params.Bool("timings", false))
			} else {
				r, err = runShardedFabric(spec)
			}
			if err != nil {
				return engine.Result{}, err
			}
			var res engine.Result
			addParMetrics(&res, k, c.Params.Int("shards", 0), r)
			var b strings.Builder
			fmt.Fprintf(&b, "parscale K=%d%s%s: %d cells injected, %d delivered, %d dropped, %d events, digest %016x\n",
				k, topoLabel(c), shardLabel(c), r.injected, r.delivered, r.drops, r.events, r.digest)
			if c.Params.Int("shards", 0) != 0 {
				addShardSplit(&res, &b, r)
			}
			if r.dist != nil {
				distTimings(&b, r)
			} else if c.Params.Bool("timings", false) {
				ref := r
				if shards != 1 {
					ref1 := spec
					ref1.Shards = 1
					if ref, err = runShardedFabric(ref1); err != nil {
						return engine.Result{}, err
					}
					if ref.digest != r.digest {
						return engine.Result{}, fmt.Errorf("parscale: shards=%d digest %016x diverged from shards=1 %016x",
							shards, r.digest, ref.digest)
					}
				}
				evps := float64(r.events) / r.wall.Seconds()
				speedup := ref.wall.Seconds() / r.wall.Seconds()
				res.Add("events_per_sec", evps, "1/s")
				res.Add("events_per_sec_per_core", evps/float64(shards), "1/s")
				res.Add("speedup_vs_1", speedup, "x")
				st := r.exec
				fmt.Fprintf(&b, "  wall %v, %.0f events/sec (%.0f per core), %.2fx vs one shard (byte-identical digest); "+
					"%d windows, %d fanned, %d probes, %d switches, %d parked, last to finish %v, %.1f mail/window, %d mail-less\n",
					r.wall.Round(time.Millisecond), evps, evps/float64(shards), speedup,
					st.Windows, st.Fanned, st.Probes, st.Switches, st.Parked, st.Stragglers,
					float64(st.Mail)/float64(st.Windows), st.MailLess)
			}
			res.Text = engine.Textf("%s", b.String())
			return res, nil
		},
	})

	engine.Register(engine.Scenario{
		Name: "fabric/parheal",
		Desc: "sharded fail/heal schedule: conservation and §5.9 self-healing under the parallel engine, deterministic digest",
		Defaults: engine.Params{
			"k": "4", "shards": "0", "topo": "", "pattern": "", "dur_ms": "6", "load": "0.4", "cell": "512",
			"fail": "3", "fail_ms": "2", "heal_ms": "4",
		},
		Docs: map[string]string{
			"k":       "fat-tree K sizing the Clos",
			"shards":  "event-loop shards; 0 = the -shards flag",
			"topo":    "topology family sized by k: clos, sshuffle, star, or a full spec string; empty = the -topo flag",
			"pattern": "traffic matrix: rotate (all-to-all over time, the default), permutation, incast",
			"dur_ms":  "injection duration in ms",
			"load":    "offered load per FA as a fraction of its uplink capacity",
			"cell":    "cell size in bytes",
			"fail":    "seed-chosen links to fail",
			"fail_ms": "failure instant in ms",
			"heal_ms": "heal instant in ms",
		},
		Check: checkSpec(parhealSpec),
		Run: func(c engine.Context) (engine.Result, error) {
			spec := parhealSpec(c)
			k := spec.K
			var r parRun
			var err error
			if c.DistPeers > 0 {
				r, err = runDistFabric(spec, c, false)
			} else {
				r, err = runShardedFabric(spec)
			}
			if err != nil {
				return engine.Result{}, err
			}
			if leak := r.injected - r.delivered - r.drops; leak != 0 {
				return engine.Result{}, fmt.Errorf("parheal: %d cells unaccounted for", leak)
			}
			if r.unreachable != 0 {
				return engine.Result{}, fmt.Errorf("parheal: %d unreachable pairs after heal", r.unreachable)
			}
			var res engine.Result
			addParMetrics(&res, k, c.Params.Int("shards", 0), r)
			res.Text = engine.Textf("parheal K=%d%s%s: %d injected, %d delivered, %d dropped (conserved), 0 unreachable after heal, digest %016x\n",
				k, topoLabel(c), shardLabel(c), r.injected, r.delivered, r.drops, r.digest)
			return res, nil
		},
	})
}

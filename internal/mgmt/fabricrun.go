package mgmt

import (
	"fmt"
	"io"
	"math/rand/v2"
	"sync"

	"stardust/internal/fabric"
	"stardust/internal/netsim"
	"stardust/internal/parsim"
	"stardust/internal/sim"
	"stardust/internal/stats"
	"stardust/internal/telemetry"
	"stardust/internal/topo"
)

// FabricRunConfig sizes the daemon's live fabric: the topology, a
// synthetic background load, and an optional failure/recovery chaos
// schedule that keeps the event bus and the self-healing path exercised.
type FabricRunConfig struct {
	// Topo selects the topology family ("clos", "sshuffle", "star", or a
	// full spec string accepted by topo.ParseSpec). Empty means "clos", so
	// older configurations keep their meaning.
	Topo string
	// K sizes the topology via topo.ByName (for "clos" this is the K-ary
	// fat-tree edge of fabric.ClosFor).
	K int // default 4
	// Load is the offered load per FA as a fraction of its uplink
	// capacity.
	Load float64 // default 0.3
	// CellBytes is the synthetic cell size.
	CellBytes int // default 512
	// FailEvery, when > 0, fails one random healthy link every period.
	FailEvery sim.Time
	// HealAfter is how long a chaos-failed link stays down.
	HealAfter sim.Time // default 5ms
	// Seed feeds the traffic and chaos RNGs.
	Seed int64 // default 1
	// Shards is how many event loops the fabric's parsim engine is cut
	// into: 0 and 1 both mean one, and more than the graph's devices is an
	// error (fabric.ShardCount). Telemetry scrapes and chaos run in barrier
	// context (quantized to window boundaries), so the run is identical
	// for every shard count at the same seed.
	Shards int
	// TransportHostsPer, when > 0, lays the sharded Stardust transport
	// over the fabric with that many hosts per FA, driven by a permutation
	// of long-running TCP flows instead of raw cell injectors, and scrapes
	// its counters with the fabric's (TransportMonitor).
	TransportHostsPer int
	// ScrapeEvery is the one telemetry period: every link's counters are
	// captured once per period (rounded up to whole lookahead windows),
	// in barrier context, and feed the analyzers, the controller and the
	// transport monitor.
	ScrapeEvery sim.Time // default 1ms
	// Telem records the captured windows as a durable STREC1 telemetry
	// stream, buffered in memory for download.
	Telem bool
	// TelemCap caps the in-memory stream buffer (0 means 64 MiB). When
	// the cap is hit the stream stops growing and the recorder latches
	// ErrStreamFull; the run and its analysis are unaffected.
	TelemCap int
}

func (c FabricRunConfig) withDefaults() FabricRunConfig {
	if c.K == 0 {
		c.K = 4
	}
	if c.Load <= 0 {
		c.Load = 0.3
	}
	if c.CellBytes <= 0 {
		c.CellBytes = 512
	}
	if c.HealAfter <= 0 {
		c.HealAfter = 5 * sim.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.ScrapeEvery <= 0 {
		c.ScrapeEvery = sim.Millisecond
	}
	return c
}

// FabricRun is a continuously running fabric under management: the
// engine, the fabric, its controller, a background traffic generator and
// the chaos schedule. The daemon advances it in steps from a single
// goroutine; Advance serializes callers.
type FabricRun struct {
	Cfg   FabricRunConfig
	Fab   *fabric.Net
	Ctl   *Controller
	Eng   *parsim.Engine      // the fabric's engine, one shard or more
	Net   *netsim.StardustNet // non-nil when the transport overlay is on
	Trans *TransportMonitor   // non-nil when the transport overlay is on

	// The telemetry pipeline: the recorder whose captures feed everything
	// above, the analyzers' findings, and the capped in-memory STREC1
	// stream (nil unless Cfg.Telem).
	Rec      *telemetry.Recorder
	Findings *telemetry.FindingLog
	TelemBuf *telemetry.Buffer

	mu  sync.Mutex
	rng *rand.Rand
}

// NewFabricRun builds the fabric, attaches the controller, and schedules
// traffic and chaos. Nothing runs until Advance is called.
func NewFabricRun(cfg FabricRunConfig) (*FabricRun, error) {
	cfg = cfg.withDefaults()
	g, err := topo.ByName(cfg.Topo, cfg.K)
	if err != nil {
		return nil, err
	}
	if _, isClos := g.(*topo.Clos); !isClos && cfg.TransportHostsPer > 0 {
		return nil, fmt.Errorf("mgmt: the transport overlay runs on the clos fabric only (topology %s)", g.Spec())
	}
	fcfg := fabric.DefaultConfig(netsim.Bps(10e9), sim.Microsecond, cfg.Seed)
	if cfg.TransportHostsPer > 0 {
		// The transport's credit schedulers run 3% over the host rate, so
		// the fabric needs rate headroom over the edge (§6.2 uses 1.05) or
		// credit bursts slowly flood the trunks — same margin the htsim
		// testbed and benchmarks give their fabrics.
		fcfg.LinkRate = netsim.Bps(float64(fcfg.LinkRate) * 1.05)
	}

	// The engine's barrier is what makes the scrape race-free and the
	// chaos shard-count independent, so even one shard runs on it.
	shards, err := fabric.ShardCount(cfg.Shards, g)
	if err != nil {
		return nil, err
	}
	eng := parsim.New(parsim.Config{Shards: shards, Lookahead: fcfg.LinkDelay})
	fab, err := fabric.NewSharded(eng, fcfg, g, nil)
	if err != nil {
		return nil, err
	}
	r := &FabricRun{
		Cfg: cfg,
		Fab: fab,
		Ctl: newController(fab),
		Eng: eng,
		rng: rand.New(stats.Stream(cfg.Seed, "chaos")),
	}
	if cfg.TransportHostsPer > 0 {
		// The transport overlay is the load source: TCP flows over the
		// sharded Stardust substrate instead of raw cell injectors.
		if err := r.buildTransport(cfg.TransportHostsPer); err != nil {
			return nil, err
		}
	} else {
		// Per-FA pacing: each edge device offers Load×(its uplink
		// capacity), spread over rotating destinations, as a
		// self-rescheduling injection.
		numFA := g.NumEdge()
		for fa := 0; fa < numFA; fa++ {
			gap := fab.CellGap(fa, cfg.CellBytes, cfg.Load)
			// Stagger starts so FAs do not inject in lockstep. The injector
			// lives on its FA's shard.
			fab.NewInjector(fa, gap, cfg.CellBytes, 0, -1).Start(sim.Time(fa) * gap / sim.Time(numFA))
		}
	}
	if cfg.FailEvery > 0 {
		// Chaos runs in barrier context (link state spans shards); window
		// quantization keeps it identical at every shard count.
		next := cfg.FailEvery
		eng.OnBarrier(func(now sim.Time) {
			for now >= next {
				r.chaosStep()
				next += cfg.FailEvery
			}
		})
	}
	if err := r.buildTelemetry(g); err != nil {
		return nil, err
	}
	return r, nil
}

// buildTelemetry wires the one scrape of the live fabric: a recorder
// whose windows feed the default online analyzers (their findings log is
// what the NDJSON tail endpoint reads), the controller and the transport
// monitor, captured by one barrier callback registered after the chaos
// schedule's. With Cfg.Telem the windows are also encoded into a capped
// in-memory STREC1 stream the download endpoint serves.
func (r *FabricRun) buildTelemetry(g topo.Graph) error {
	// Scrape instants must land exactly on window barriers so the captured
	// state is quiescent and shard-count independent.
	look := r.Eng.Lookahead()
	every := (r.Cfg.ScrapeEvery + look - 1) / look * look
	cl, isClos := g.(*topo.Clos)
	hdr := telemetry.StreamHeader{
		Format:   telemetry.Format,
		Dirs:     2 * r.Fab.NumLinks(),
		Topo:     g.Spec(),
		Seed:     r.Cfg.Seed,
		ScrapePs: every,
	}
	if isClos {
		hdr.K = r.Cfg.K // legacy shorthand, kept for older stream readers
	}
	var sinks telemetry.SinkFunc
	if r.Net == nil {
		// Raw-cell load: the stream carries the per-FA delivery series the
		// heatmap renders, from the fabric's own delivery counts.
		hdr.FAs = g.NumEdge()
		sinks = r.Fab.DeliveredTo
	} else {
		// The transport overlay owns the egress endpoints, so the stream
		// carries link series only. Zero the topology identifiers too: they
		// promise the full shape including the FA series (MetaFromHeader
		// checks the dimensions).
		hdr.K, hdr.Topo = 0, ""
	}
	var out io.Writer // nil: the writer only gives the windows' shape
	if r.Cfg.Telem {
		r.TelemBuf = telemetry.NewBuffer(r.Cfg.TelemCap)
		out = r.TelemBuf
	}
	w, err := telemetry.NewWriter(out, hdr)
	if err != nil {
		return err
	}
	r.Rec = telemetry.NewRecorder(w, r.Fab, sinks, every)
	meta := telemetry.MetaForGraph(g)
	if isClos {
		meta = telemetry.MetaFor(cl) // legacy "FA3->FE11" direction labels
	}
	r.Findings = r.Rec.Observe(meta, telemetry.DefaultAnalyzers()...)
	next := every
	r.Eng.OnBarrier(func(now sim.Time) {
		for now >= next {
			r.Ctl.observe(r.Rec.Capture(next))
			if r.Trans != nil {
				r.Trans.scrape(next)
			}
			next += every
		}
	})
	return nil
}

// chaosStep fails one random currently-up link and schedules its
// recovery. Overlapping failures may isolate an FA outright when the
// chaos period is short relative to HealAfter — deliberately so: that is
// exactly the condition the reachability-hole anomaly exists to surface.
func (r *FabricRun) chaosStep() {
	n := r.Fab.NumLinks()
	pick := -1
	for try := 0; try < 8; try++ {
		i := r.rng.IntN(n)
		if r.Fab.LinkUp(i) {
			pick = i
			break
		}
	}
	if pick < 0 {
		return
	}
	r.Fab.FailLink(pick)
	// Heal in barrier context too: RestoreLink touches both endpoint
	// shards.
	r.Eng.At(r.Eng.Now()+r.Cfg.HealAfter, func() { r.Fab.RestoreLink(pick) })
}

// Advance runs the simulation d further. It serializes concurrent
// callers, so the daemon's pacing goroutine and tests can share one run.
func (r *FabricRun) Advance(d sim.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Eng.Run(r.Eng.Now() + d)
}

// String describes the run for logs.
func (r *FabricRun) String() string {
	g := r.Fab.Topo
	if t, ok := g.(*topo.Clos); ok {
		return fmt.Sprintf("fabric K=%d: %d FAs, %d FE1s, %d FE2s, %d links, %.0f%% load",
			r.Cfg.K, t.NumFA, t.NumFE1, t.NumFE2, len(t.Links), 100*r.Cfg.Load)
	}
	return fmt.Sprintf("fabric %s: %d devices (%d edge), %d links, %.0f%% load",
		g.Spec(), g.NumNodes(), g.NumEdge(), r.Fab.NumLinks(), 100*r.Cfg.Load)
}

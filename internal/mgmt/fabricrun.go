package mgmt

import (
	"fmt"
	"math/rand"
	"sync"

	"stardust/internal/fabric"
	"stardust/internal/netsim"
	"stardust/internal/parsim"
	"stardust/internal/sim"
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
	// Shards, when > 1, runs the fabric on a parsim engine partitioned
	// across that many event loops: telemetry scrapes and chaos run in
	// barrier context (quantized to window boundaries), so the run is
	// deterministic for any shard count > 1 at the same seed.
	Shards int
	// TransportHostsPer, when > 0, lays the sharded Stardust transport
	// over the fabric with that many hosts per FA, driven by a permutation
	// of long-running TCP flows instead of raw cell injectors, and scrapes
	// its counters at the window barrier (TransportMonitor). Forces the
	// sharded engine (Shards floors at 1).
	TransportHostsPer int
	// Telem, when > 0, records the run as a durable STREC1 telemetry
	// stream: one window per Telem of simulated time (rounded up to whole
	// lookahead windows on the sharded engine), scraped in barrier
	// context, buffered in memory for download, and fed to the online
	// analyzer pipeline.
	Telem sim.Time
	// TelemCap caps the in-memory stream buffer (0 means 64 MiB). When
	// the cap is hit the stream stops growing and the recorder latches
	// ErrStreamFull; the run itself is unaffected.
	TelemCap int
	// Controller configures the attached management plane.
	Controller Config
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
	return c
}

// FabricRun is a continuously running fabric under management: the
// simulator, the fabric, its controller, a background traffic generator
// and the chaos schedule. The daemon advances it in steps from a single
// goroutine; Advance serializes callers.
type FabricRun struct {
	Cfg   FabricRunConfig
	Sim   *sim.Simulator
	Fab   *fabric.Net
	Ctl   *Controller
	Eng   *parsim.Engine      // non-nil when the run is sharded
	Net   *netsim.StardustNet // non-nil when the transport overlay is on
	Trans *TransportMonitor   // barrier-scraped transport telemetry

	// Telemetry pipeline (all nil/zero unless Cfg.Telem > 0): the STREC1
	// recorder, the capped in-memory stream it writes, and the live
	// analyzer findings.
	Rec      *telemetry.Recorder
	TelemBuf *telemetry.Buffer
	Findings *telemetry.FindingLog

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

	var (
		s   *sim.Simulator
		fab *fabric.Net
		eng *parsim.Engine
	)
	if cfg.Shards > 1 || cfg.TransportHostsPer > 0 {
		// The transport overlay always runs on the engine (its barrier is
		// what makes the scrape race-free), even at one shard.
		shards := cfg.Shards
		if shards < 1 {
			shards = 1
		}
		eng = parsim.New(parsim.Config{Shards: shards, Lookahead: fcfg.LinkDelay})
		if fab, err = fabric.NewSharded(eng, fcfg, g, nil); err != nil {
			return nil, err
		}
		s = fab.Sim
	} else {
		s = sim.New()
		if fab, err = fabric.New(s, fcfg, g); err != nil {
			return nil, err
		}
	}
	r := &FabricRun{
		Cfg: cfg,
		Sim: s,
		Fab: fab,
		Eng: eng,
		rng: rand.New(rand.NewSource(cfg.Seed ^ 0x51d)),
	}
	if eng != nil {
		r.Ctl = AttachSharded(fab, cfg.Controller)
	} else {
		r.Ctl = Attach(fab, cfg.Controller)
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
			// lives on its FA's shard (sharded mode) or the solo loop.
			fab.NewInjector(fa, gap, cfg.CellBytes, 0, -1).Start(sim.Time(fa) * gap / sim.Time(numFA))
		}
	}
	if cfg.FailEvery > 0 {
		if eng != nil {
			// Chaos runs in barrier context (link state spans shards);
			// window quantization keeps it deterministic per shard count.
			next := cfg.FailEvery
			eng.OnBarrier(func(now sim.Time) {
				for now >= next {
					r.chaosStep()
					next += cfg.FailEvery
				}
			})
		} else {
			var chaos func()
			chaos = func() {
				r.chaosStep()
				s.After(cfg.FailEvery, chaos)
			}
			s.After(cfg.FailEvery, chaos)
		}
	}
	if cfg.Telem > 0 {
		if err := r.buildTelemetry(g); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// buildTelemetry wires the STREC1 recorder over the live fabric: a
// capped in-memory stream buffer (the download endpoint serves it), the
// scrape attached in barrier context (sharded) or as a periodic event
// (solo), and the default online analyzer pipeline feeding the findings
// log the NDJSON tail endpoint reads.
func (r *FabricRun) buildTelemetry(g topo.Graph) error {
	every := r.Cfg.Telem
	if r.Eng != nil {
		// Scrape instants must land exactly on window barriers so the
		// captured state is quiescent and shard-count independent.
		look := r.Eng.Lookahead()
		every = (every + look - 1) / look * look
	}
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
		// Raw-cell load: install per-FA delivery sinks so the stream
		// carries the per-FA delivery series the heatmap renders.
		fas := make([]fabric.CellSink, g.NumEdge())
		for fa := range fas {
			r.Fab.SetEgress(fa, &fas[fa])
		}
		hdr.FAs = g.NumEdge()
		sinks = func(fa int) (uint64, uint64) { return fas[fa].Cells, fas[fa].Bytes }
	} else {
		// The transport overlay owns the egress endpoints, so the stream
		// carries link series only. Zero the topology identifiers too: they
		// promise the full shape including the FA series (MetaFromHeader
		// checks the dimensions).
		hdr.K, hdr.Topo = 0, ""
	}
	r.TelemBuf = telemetry.NewBuffer(r.Cfg.TelemCap)
	w, err := telemetry.NewWriter(r.TelemBuf, hdr)
	if err != nil {
		return err
	}
	r.Rec = telemetry.NewRecorder(w, r.Fab, sinks, every)
	meta := telemetry.MetaForGraph(g)
	if isClos {
		meta = telemetry.MetaFor(cl) // legacy "FA3->FE11" direction labels
	}
	r.Findings = r.Rec.Observe(meta, telemetry.DefaultAnalyzers()...)
	if r.Eng != nil {
		r.Rec.AttachEngine(r.Eng)
	} else {
		r.Rec.AttachSim(r.Sim)
	}
	return nil
}

// chaosStep fails one random currently-up link and schedules its
// recovery. Overlapping failures may isolate an FA outright when the
// chaos period is short relative to HealAfter — deliberately so: that is
// exactly the condition the detector's reachability-hole anomaly exists
// to surface.
func (r *FabricRun) chaosStep() {
	n := r.Fab.NumLinks()
	pick := -1
	for try := 0; try < 8; try++ {
		i := r.rng.Intn(n)
		if r.Fab.LinkUp(i) {
			pick = i
			break
		}
	}
	if pick < 0 {
		return
	}
	r.Fab.FailLink(pick)
	i := pick
	if r.Eng != nil {
		// Heal in barrier context too: RestoreLink touches both endpoint
		// shards.
		r.Eng.At(r.Eng.Now()+r.Cfg.HealAfter, func() { r.Fab.RestoreLink(i) })
	} else {
		r.Sim.After(r.Cfg.HealAfter, func() { r.Fab.RestoreLink(i) })
	}
}

// Advance runs the simulation d further. It serializes concurrent
// callers, so the daemon's pacing goroutine and tests can share one run.
func (r *FabricRun) Advance(d sim.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.Eng != nil {
		r.Eng.Run(r.Eng.Now() + d)
		return
	}
	r.Sim.RunUntil(r.Sim.Now() + d)
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

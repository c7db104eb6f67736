package experiments

import (
	"fmt"
	"io"
	"math/rand/v2"
	"sort"

	"stardust/internal/fabric"
	"stardust/internal/netsim"
	"stardust/internal/parsim"
	"stardust/internal/sim"
	"stardust/internal/stats"
	"stardust/internal/tcp"
	"stardust/internal/workload"
)

// Protocol selects a transport for the §6.3 comparison.
type Protocol string

// The §6.3 contenders.
const (
	ProtoDCTCP    Protocol = "DCTCP"
	ProtoDCQCN    Protocol = "DCQCN"
	ProtoMPTCP    Protocol = "MPTCP"
	ProtoStardust Protocol = "Stardust"
)

// Protocols lists the Fig 10 contenders in the paper's legend order.
var Protocols = []Protocol{ProtoMPTCP, ProtoDCTCP, ProtoDCQCN, ProtoStardust}

// HtsimConfig sizes a §6.3 experiment. The paper uses K=12 (432 hosts);
// tests and quick benchmarks use smaller trees.
type HtsimConfig struct {
	K            int
	Duration     sim.Time // measurement window (after warmup)
	Warmup       sim.Time
	MSS          int // 9000 for the TCP variants (§6.3)
	Subflows     int // MPTCP subflows (8, following [72])
	ECNThreshPkt int
	// StardustCredit overrides the credit quantum of the Stardust
	// substrate (0 = the paper's 4KB) — the §4.1 ablation knob.
	StardustCredit int64
	// StardustSpeedup overrides the credit speed-up ratio (0 = the
	// paper's 1.03) — the §6.2 ablation knob.
	StardustSpeedup float64
	// FullFabric replaces the fluid trunk model of the Stardust substrate
	// with the topology-faithful per-link fabric (internal/fabric): every
	// FE device and serial link simulated, cells sprayed per link.
	FullFabric bool
	// Shards is the number of parsim event loops a FullFabric run
	// partitions the fabric devices, VOQs, credit schedulers and TCP
	// endpoints across; 0 means 1, a count below 0 or above the Clos's
	// device count is an error (fabric.ShardCount), and the results are
	// byte-identical at any count for the same seed. It chooses an
	// executor, never a model. Ignored by the fluid trunk and the fat-tree
	// contenders, which run on one event loop.
	Shards int
	Seed   int64
}

// DefaultHtsim returns the paper-scale configuration.
func DefaultHtsim() HtsimConfig {
	return HtsimConfig{
		K:            12,
		Duration:     50 * sim.Millisecond,
		Warmup:       10 * sim.Millisecond,
		MSS:          9000,
		Subflows:     8,
		ECNThreshPkt: 20,
		Seed:         1,
	}
}

// QuickHtsim returns a small configuration for tests and benchmarks.
func QuickHtsim() HtsimConfig {
	c := DefaultHtsim()
	c.K = 4
	c.Duration = 20 * sim.Millisecond
	c.Warmup = 5 * sim.Millisecond
	return c
}

// testbed wires either the fat-tree (for the TCP variants) or the Stardust
// substrate — on one event loop over the fluid trunk, or on a parsim engine
// over the per-link fabric — and hands out per-flow route builders.
type testbed struct {
	cfg   HtsimConfig
	s     *sim.Simulator // the one event loop; nil iff eng is not
	ft    *netsim.FatTreeNet
	sd    *netsim.StardustNet
	eng   *parsim.Engine // non-nil iff cfg.FullFabric selected the per-link fabric
	fab   *fabric.Net    // the per-link fabric, non-nil iff eng is
	hosts int
	rng   *rand.Rand
}

func newTestbed(cfg HtsimConfig, proto Protocol) (*testbed, error) {
	tb := &testbed{cfg: cfg, rng: rand.New(stats.Stream(cfg.Seed, "flows"))}
	switch proto {
	case ProtoStardust:
		hostsPer := cfg.K / 2 // hosts per edge device in a k-ary fat-tree
		ftc := netsim.DefaultFatTree()
		ftc.K = cfg.K
		sdc := netsim.DefaultStardust(ftc.LinkRate, hostsPer, ftc.LinkDelay)
		if cfg.StardustCredit > 0 {
			sdc.CreditBytes = cfg.StardustCredit
		}
		if cfg.StardustSpeedup > 0 {
			sdc.SpeedUp = cfg.StardustSpeedup
		}
		tb.hosts = cfg.K * cfg.K * cfg.K / 4
		if !cfg.FullFabric {
			tb.s = sim.New()
			sd, err := netsim.NewStardustNet(tb.s, sdc, tb.hosts, hostsPer)
			if err != nil {
				return nil, err
			}
			tb.sd = sd
			return tb, nil
		}
		// The engine's lookahead is the link delay (the fabric's
		// synchronization horizon) and the whole transport is partitioned
		// by edge FA.
		cl, err := fabric.ClosFor(cfg.K)
		if err != nil {
			return nil, err
		}
		shards, err := fabric.ShardCount(cfg.Shards, cl)
		if err != nil {
			return nil, err
		}
		tb.eng = parsim.New(parsim.Config{Shards: shards, Lookahead: ftc.LinkDelay})
		fcfg := fabric.DefaultConfig(netsim.Bps(float64(ftc.LinkRate)*1.05), ftc.LinkDelay, cfg.Seed)
		if tb.fab, err = fabric.NewSharded(tb.eng, fcfg, cl, nil); err != nil {
			return nil, err
		}
		if tb.sd, err = netsim.NewShardedStardustNet(tb.fab, sdc, tb.hosts, hostsPer); err != nil {
			return nil, err
		}
	case ProtoDCTCP, ProtoDCQCN, ProtoMPTCP:
		ftc := netsim.DefaultFatTree()
		ftc.K = cfg.K
		ftc.MTU = cfg.MSS
		if proto == ProtoDCTCP || proto == ProtoDCQCN {
			ftc.ECNThreshPkt = cfg.ECNThreshPkt
		}
		tb.s = sim.New()
		ft, err := netsim.NewFatTreeNet(tb.s, ftc)
		if err != nil {
			return nil, err
		}
		tb.ft = ft
		tb.hosts = ft.Topo.Hosts
	default:
		return nil, fmt.Errorf("experiments: unknown protocol %q (want one of %v)", proto, Protocols)
	}
	return tb, nil
}

// linkRate returns the edge link rate of the testbed.
func (tb *testbed) linkRate() float64 {
	if tb.ft != nil {
		return float64(tb.ft.Cfg.LinkRate)
	}
	return float64(tb.sd.Cfg.HostRate)
}

// sim returns the event heap host h's endpoints must run on: the shard
// the host is pinned to in a sharded run, the single loop otherwise.
func (tb *testbed) sim(h int) *sim.Simulator {
	if tb.sd != nil {
		return tb.sd.HostSim(h)
	}
	return tb.s
}

// now returns the synchronized simulation time.
func (tb *testbed) now() sim.Time {
	if tb.eng != nil {
		return tb.eng.Now()
	}
	return tb.s.Now()
}

// runUntil advances the simulation to t. A sharded run returns at the
// window boundary at or after t with every shard quiescent, so counters
// and endpoint state are safe to read afterward.
func (tb *testbed) runUntil(t sim.Time) {
	if tb.eng != nil {
		tb.eng.Run(t)
		return
	}
	tb.s.RunUntil(t)
}

// routes returns a forward route (without the endpoint) for one path
// choice of the flow.
func (tb *testbed) route(src, dst, choice int) []netsim.Handler {
	if tb.sd != nil {
		return tb.sd.Route(src, dst)
	}
	return tb.ft.Route(src, dst, choice%tb.ft.Paths(src, dst))
}

// flowRunner abstracts the per-protocol flow construction.
type flowRunner struct {
	deliveredAt func() int64 // bytes acked so far
	fct         func() (sim.Time, bool)
}

// launchFlow starts one flow of flowBytes (0 = long-running) between src
// and dst and returns accessors for measurement. onDone is optional. proto
// is the testbed's, which newTestbed has checked.
func (tb *testbed) launchFlow(proto Protocol, src, dst int, flowBytes int64, at sim.Time, onDone func(sim.Time)) flowRunner {
	cfg := tcp.DefaultConfig()
	cfg.MSS = tb.cfg.MSS
	switch proto {
	case ProtoDCTCP, ProtoStardust:
		// Stardust runs unmodified NewReno on top (§6.3); the substrate
		// chops packets into 512B cells itself. In a sharded run the
		// source lives on its host's shard and the sink on the
		// destination's — the routes already cross between them.
		cfg.DCTCP = proto == ProtoDCTCP
		choice := tb.rng.Int()
		f := tcp.NewSource(tb.sim(src), cfg, fmt.Sprintf("%s-%d-%d", proto, src, dst), flowBytes, nil)
		sink := tcp.NewSink(tb.sim(dst), cfg, f, append(tb.route(dst, src, choice), tcp.Ack))
		f.SetRoute(append(tb.route(src, dst, choice), sink))
		if onDone != nil {
			f.OnComplete = func(s *tcp.Source) { onDone(s.FCT()) }
		}
		f.StartAt(at)
		return flowRunner{
			deliveredAt: func() int64 { return f.DeliveredB },
			fct:         func() (sim.Time, bool) { return f.FCT(), f.Done },
		}
	case ProtoDCQCN:
		choice := tb.rng.Int()
		rate := netsim.Bps(10e9)
		if tb.ft != nil {
			rate = tb.ft.Cfg.LinkRate
		}
		d := tcp.NewDCQCN(tb.s, fmt.Sprintf("dcqcn-%d-%d", src, dst), cfg.MSS, rate, flowBytes, nil)
		sink := tcp.NewDCQCNSink(tb.s, d, append(tb.route(dst, src, choice), tcp.DCQCNAck))
		d.SetRoute(append(tb.route(src, dst, choice), sink))
		if onDone != nil {
			d.OnComplete = func(x *tcp.DCQCN) { onDone(x.FCT()) }
		}
		d.StartAt(at)
		return flowRunner{
			deliveredAt: func() int64 { return d.DeliveredB },
			fct:         func() (sim.Time, bool) { return d.FCT(), d.Done },
		}
	default: // ProtoMPTCP
		n := tb.cfg.Subflows
		m := tcp.NewMPTCP(tb.s, cfg, fmt.Sprintf("mptcp-%d-%d", src, dst), flowBytes, make([][]netsim.Handler, n))
		for i := 0; i < n; i++ {
			choice := tb.rng.Int()
			sub := m.Subflows[i]
			sink := tcp.NewSink(tb.s, cfg, sub, append(tb.route(dst, src, choice), tcp.Ack))
			sub.SetRoute(append(tb.route(src, dst, choice), sink))
		}
		if onDone != nil {
			m.OnComplete = func(x *tcp.MPTCP) { onDone(x.FCT()) }
		}
		m.StartAt(at)
		return flowRunner{
			deliveredAt: func() int64 { return m.DeliveredB() },
			fct:         func() (sim.Time, bool) { return m.FCT(), m.Done },
		}
	}
}

// PermutationResult is one Fig 10(a) series: per-flow goodput sorted
// ascending, plus the mean utilization and — for the Stardust substrate —
// the transport counters the sharded determinism digest is built from.
type PermutationResult struct {
	Proto       Protocol
	Gbps        []float64 // sorted per-flow goodput
	Delivered   []int64   // per-source-host acked-byte deltas over the window
	MeanUtilPct float64
	FabricDrops uint64
	Dispatched  uint64 // events the loops executed; elided link completions are not among them

	// Stardust-substrate transport counters at the end of the run.
	CellsSent     uint64
	CreditsSent   uint64
	VOQDrops      uint64
	ReasmTimeouts uint64
}

// Permutation runs the Fig 10(a) experiment for one protocol: every host
// sends to one other host and receives from exactly one, continuously,
// fully loading the data center.
func Permutation(cfg HtsimConfig, proto Protocol) (*PermutationResult, error) {
	tb, err := newTestbed(cfg, proto)
	if err != nil {
		return nil, err
	}
	perm := workload.Permutation(tb.rng, tb.hosts)
	runners := make([]flowRunner, tb.hosts)
	for src := 0; src < tb.hosts; src++ {
		runners[src] = tb.launchFlow(proto, src, perm[src], 0, 0, nil)
	}
	tb.runUntil(cfg.Warmup)
	base := make([]int64, tb.hosts)
	for i, r := range runners {
		base[i] = r.deliveredAt()
	}
	tb.runUntil(cfg.Warmup + cfg.Duration)

	linkRate := tb.linkRate()
	res := &PermutationResult{Proto: proto}
	var sum float64
	for i, r := range runners {
		delta := r.deliveredAt() - base[i]
		res.Delivered = append(res.Delivered, delta)
		gbps := float64(delta) * 8 / cfg.Duration.Seconds() / 1e9
		res.Gbps = append(res.Gbps, gbps)
		sum += gbps
	}
	sort.Float64s(res.Gbps)
	res.MeanUtilPct = 100 * sum / (float64(tb.hosts) * linkRate / 1e9)
	if tb.eng != nil {
		res.Dispatched = tb.eng.Dispatched()
	} else {
		res.Dispatched = tb.s.Dispatched()
	}
	if tb.ft != nil {
		res.FabricDrops = tb.ft.TotalDrops()
		return res, nil
	}
	var tc netsim.TransportCounters
	tb.sd.ReadCounters(&tc)
	res.FabricDrops = tc.FabricDrops
	res.CellsSent = tc.CellsSent
	res.CreditsSent = tc.CreditsSent
	res.VOQDrops = tc.VOQDrops
	res.ReasmTimeouts = tc.ReasmTimeouts
	return res, nil
}

// FCTResult is one Fig 10(b) series: the distribution of flow completion
// times for Web-workload flows under background load.
type FCTResult struct {
	Proto Protocol
	Ms    *stats.Sample // FCTs in milliseconds
}

// FCT runs the Fig 10(b) experiment: all nodes source background
// long-running flows to random destinations; a measured pair exchanges
// Web-workload flows back to back and we record their completion times.
func FCT(cfg HtsimConfig, proto Protocol, measuredFlows int) (*FCTResult, error) {
	tb, err := newTestbed(cfg, proto)
	if err != nil {
		return nil, err
	}
	// Measured pair: hosts 0 and hosts-1 (different pods for any K).
	src, dst := 0, tb.hosts-1
	// Background: "all other nodes source four long-running connections to
	// a random destination" (§6.3) — the measured pair stays clean so the
	// experiment isolates queueing *within the network*.
	for bg := 0; bg < tb.hosts; bg++ {
		if bg == src || bg == dst {
			continue
		}
		for j := 0; j < 4; j++ {
			d := tb.rng.IntN(tb.hosts)
			if d == bg || d == src || d == dst {
				d = (d + 1) % tb.hosts
				if d == bg || d == src || d == dst {
					d = (d + 1) % tb.hosts
					if d == bg || d == src || d == dst {
						d = (d + 1) % tb.hosts
					}
				}
			}
			tb.launchFlow(proto, bg, d, 0, 0, nil)
		}
	}
	sizes := workload.WebFlowSizes()
	res := &FCTResult{Proto: proto, Ms: &stats.Sample{}}
	deadline := cfg.Warmup + 40*cfg.Duration
	remaining := measuredFlows

	if tb.eng != nil {
		// Sharded run: flow creation mutates multi-shard state (routes,
		// VOQs), so each measured flow is launched in barrier context and
		// its completion is detected by polling at the window barrier —
		// barrier instants are lookahead-quantized, hence identical at
		// every shard count.
		var active *flowRunner
		var launch func()
		launch = func() {
			if remaining == 0 {
				return
			}
			remaining--
			size := int64(sizes.Sample(tb.rng))
			if size < int64(cfg.MSS) {
				size = int64(cfg.MSS)
			}
			r := tb.launchFlow(proto, src, dst, size, tb.now(), nil)
			active = &r
		}
		tb.eng.At(cfg.Warmup, launch)
		tb.eng.OnBarrier(func(now sim.Time) {
			if active == nil {
				return
			}
			if fct, done := active.fct(); done {
				res.Ms.Add(fct.Seconds() * 1e3)
				active = nil
				if remaining > 0 {
					tb.eng.At(now+10*sim.Microsecond, launch)
				}
			}
		})
		for tb.now() < deadline && res.Ms.N() < measuredFlows {
			tb.runUntil(tb.now() + cfg.Duration)
		}
		return res, nil
	}

	var launch func()
	launch = func() {
		if remaining == 0 {
			return
		}
		remaining--
		size := int64(sizes.Sample(tb.rng))
		if size < int64(cfg.MSS) {
			size = int64(cfg.MSS)
		}
		tb.launchFlow(proto, src, dst, size, tb.s.Now(), func(fct sim.Time) {
			res.Ms.Add(fct.Seconds() * 1e3)
			tb.s.After(10*sim.Microsecond, launch)
		})
	}
	tb.s.At(cfg.Warmup, launch)
	// Run until the measured flows finish or the budget is spent.
	for tb.s.Now() < deadline && res.Ms.N() < measuredFlows {
		tb.s.RunUntil(tb.s.Now() + cfg.Duration)
	}
	return res, nil
}

// IncastResult is one Fig 10(c) point.
type IncastResult struct {
	Proto    Protocol
	Backends int
	FirstMs  float64
	LastMs   float64
}

// Incast runs one Fig 10(c) point: backends servers each send
// responseBytes to a frontend simultaneously; first and last completion
// measure performance and fairness.
func Incast(cfg HtsimConfig, proto Protocol, backends int, responseBytes int64) (*IncastResult, error) {
	tb, err := newTestbed(cfg, proto)
	if err != nil {
		return nil, err
	}
	if backends >= tb.hosts {
		backends = tb.hosts - 1
	}
	inc := workload.NewIncast(tb.rng, tb.hosts, backends, responseBytes)
	// Completion is read off each runner at quiescent points rather than
	// through callbacks, so the same loop drives solo and sharded runs
	// (a sharded completion callback would fire on a shard goroutine).
	runners := make([]flowRunner, len(inc.Backends))
	for i, b := range inc.Backends {
		runners[i] = tb.launchFlow(proto, b, inc.Frontend, responseBytes, 0, nil)
	}
	collect := func() []sim.Time {
		var out []sim.Time
		for _, r := range runners {
			if fct, done := r.fct(); done {
				out = append(out, fct)
			}
		}
		return out
	}
	// Budget generously: N*450KB over 10G plus slow start.
	budget := sim.Time(float64(backends)*float64(responseBytes)*8/10e9*float64(sim.Second))*4 + 100*sim.Millisecond
	deadline := budget
	var fcts []sim.Time
	for tb.now() < deadline && len(fcts) < backends {
		tb.runUntil(tb.now() + 10*sim.Millisecond)
		fcts = collect()
	}
	if len(fcts) == 0 {
		return nil, fmt.Errorf("experiments: no incast flow completed (proto %s, N=%d)", proto, backends)
	}
	res := &IncastResult{Proto: proto, Backends: len(fcts)}
	first, last := fcts[0], fcts[0]
	for _, f := range fcts {
		if f < first {
			first = f
		}
		if f > last {
			last = f
		}
	}
	res.FirstMs = first.Seconds() * 1e3
	res.LastMs = last.Seconds() * 1e3
	if len(fcts) < backends {
		return res, fmt.Errorf("experiments: only %d of %d incast flows completed", len(fcts), backends)
	}
	return res, nil
}

// WritePermutation prints a Fig 10(a) summary row.
func WritePermutation(w io.Writer, r *PermutationResult) {
	n := len(r.Gbps)
	p5, p50 := 0.0, 0.0
	if n > 0 {
		p5, p50 = r.Gbps[n/20], r.Gbps[n/2]
	}
	fmt.Fprintf(w, "%-9s mean-util=%5.1f%%  p5=%5.2fG median=%5.2fG min=%5.2fG max=%5.2fG drops=%d\n",
		r.Proto, r.MeanUtilPct, p5, p50, r.Gbps[0], r.Gbps[n-1], r.FabricDrops)
}

// WriteFCT prints Fig 10(b) percentiles.
func WriteFCT(w io.Writer, r *FCTResult) {
	fmt.Fprintf(w, "%-9s flows=%4d  p50=%7.3fms p90=%7.3fms p99=%7.3fms max=%7.3fms\n",
		r.Proto, r.Ms.N(), r.Ms.Quantile(0.5), r.Ms.Quantile(0.9), r.Ms.Quantile(0.99), r.Ms.Max())
}

// WriteIncast prints one Fig 10(c) row.
func WriteIncast(w io.Writer, r *IncastResult) {
	fmt.Fprintf(w, "%-9s N=%3d  first=%8.2fms last=%8.2fms spread=%.2fx\n",
		r.Proto, r.Backends, r.FirstMs, r.LastMs, r.LastMs/maxf(r.FirstMs, 1e-9))
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

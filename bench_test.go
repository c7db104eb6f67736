// Benchmarks regenerating every table and figure of the paper's
// evaluation, one benchmark per artifact. Each benchmark runs a reduced
// configuration sized for continuous integration; cmd/stardust runs the
// paper-scale versions. CI runs the sweep once per benchmark as a smoke
// test; the hot paths' 0 allocs/op is asserted by tests (alloc_test.go),
// and like-for-like timing comparison is `go run ./bench -compare`.
package stardust_test

import (
	"fmt"
	"io"
	"testing"

	"stardust/internal/analytic"
	"stardust/internal/device"
	"stardust/internal/experiments"
	"stardust/internal/fabric"
	"stardust/internal/fabricsim"
	"stardust/internal/netsim"
	"stardust/internal/parsim"
	"stardust/internal/queueing"
	"stardust/internal/sim"
	"stardust/internal/telemetry"
	"stardust/internal/topo"
	"stardust/internal/workload"
)

// packetPath is the netsim hot path: a saturated serialization queue
// draining into a propagation pipe, a second queue, and a terminal
// counter.
type packetPath struct {
	s     *sim.Simulator
	route []netsim.Handler
	sink  netsim.Counter
	size  int      // packet bytes
	gap   sim.Time // one packet's serialization time
	sent  int
}

func newPacketPath() *packetPath {
	pp := &packetPath{s: sim.New(), size: 1500}
	q1 := netsim.NewQueue(pp.s, "q1", 100e9, 1<<20, 0)
	q2 := netsim.NewQueue(pp.s, "q2", 100e9, 1<<20, 0)
	pipe := netsim.NewPipe(pp.s, sim.Microsecond)
	pp.route = []netsim.Handler{q1, pipe, q2, &pp.sink}
	pp.gap = sim.Time(float64(pp.size*8) / 100e9 * float64(sim.Second))
	return pp
}

// send offers n more back-to-back packets, running the simulator along so
// at most ~512 events are pending, and drains.
func (pp *packetPath) send(n int) {
	for end := pp.sent + n; pp.sent < end; pp.sent++ {
		p := netsim.NewPacket()
		p.Size = pp.size
		p.SetRoute(pp.route)
		at := sim.Time(pp.sent) * pp.gap
		pp.s.AtAction(at, p, 0)
		if pp.s.Pending() > 512 {
			pp.s.RunUntil(at)
		}
	}
	pp.s.Run()
}

// BenchmarkPacketPath measures the per-packet cost (time and allocations)
// of the netsim hot path. With the packet free-list and the ring-buffer
// queue this path is allocation-free in steady state
// (TestPacketPathAllocFree).
func BenchmarkPacketPath(b *testing.B) {
	pp := newPacketPath()
	b.ReportAllocs()
	b.ResetTimer()
	pp.send(b.N)
	b.StopTimer()
	if pp.sink.Packets != uint64(b.N) {
		b.Fatalf("delivered %d of %d packets", pp.sink.Packets, b.N)
	}
}

// BenchmarkFabricCellPath measures the per-cell cost of the
// topology-faithful fabric: source-FA spray, FE1 up/down decision, spine
// spray, egress delivery — four per-link queue+pipe hops per cell. It
// doubles as the cell-accounting leak check: every injected cell must
// leave through a counted path (delivered or dropped), or the packet pool
// is leaking.
func BenchmarkFabricCellPath(b *testing.B) {
	s := sim.New()
	cl, err := fabric.ClosFor(4)
	if err != nil {
		b.Fatal(err)
	}
	n, err := fabric.New(s, fabric.DefaultConfig(100e9, sim.Microsecond, 1), cl)
	if err != nil {
		b.Fatal(err)
	}
	cellSz := 512
	// Pace injection at half of one FA's aggregate uplink rate, spread
	// over all 8 FAs, so no queue ever overflows.
	gap := sim.Time(float64(cellSz*8) / 100e9 * float64(sim.Second))
	inj := &fabricInjector{n: n}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arg := uint64(i%8)<<32 | uint64((i+3)%8)
		s.AtAction(sim.Time(i/8)*gap, inj, arg)
		if s.Pending() > 512 {
			s.RunUntil(sim.Time(i/8) * gap)
		}
	}
	s.Run()
	b.StopTimer()
	if n.Injected() != uint64(b.N) {
		b.Fatalf("injected %d of %d", n.Injected(), b.N)
	}
	if n.Delivered()+n.Drops() != n.Injected() {
		b.Fatalf("cell leak: %d delivered + %d dropped != %d injected",
			n.Delivered(), n.Drops(), n.Injected())
	}
	if n.Drops() != 0 {
		b.Fatalf("healthy fabric dropped %d cells", n.Drops())
	}
}

// reportEventRate attaches the kernel-throughput metric: simulator events
// per wall-clock second divided by the shard count, so the number
// measures per-core event-kernel speed rather than how many loops ran.
func reportEventRate(b *testing.B, events uint64, shards int) {
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(events)/sec/float64(shards), "events/sec/core")
	}
}

// reportDispatched attaches the dispatched-events-per-op metric: the
// figure the lazy link completions move while events/op stays what it
// was.
func reportDispatched(b *testing.B, events uint64) {
	b.ReportMetric(float64(events)/float64(b.N), "dispatched/op")
}

// reportFanned attaches the windows per op whose shards the engine handed
// to workers (parsim.Stats.Fanned): the governor's verdict on this host.
// Close to 0 at -cpu 1, where only its probe epochs fan out.
func reportFanned(b *testing.B, fanned uint64) {
	b.ReportMetric(float64(fanned)/float64(b.N), "fanned/op")
}

// fabricInjector injects one 512B cell per scheduled event (src and dst
// packed into the action arg), keeping the benchmark loop allocation-free.
type fabricInjector struct{ n *fabric.Net }

// Act implements sim.Action.
func (f *fabricInjector) Act(arg uint64) {
	c := netsim.NewPacket()
	c.Size = 512
	f.n.Inject(c, int(arg>>32), int(uint32(arg)))
}

// BenchmarkFabricCellPathSharded measures the same per-cell fabric path
// through the parsim conservative-lookahead engine at two shards: lane-
// ordered link crossings, window barriers and cross-shard mailboxes
// included. The steady-state path must stay allocation-free just like the
// solo engine's (the window machinery amortizes to zero;
// fabric.TestFabricAllocFree asserts it).
func BenchmarkFabricCellPathSharded(b *testing.B) {
	eng := parsim.New(parsim.Config{Shards: 2, Lookahead: sim.Microsecond})
	cl, err := fabric.ClosFor(4)
	if err != nil {
		b.Fatal(err)
	}
	n, err := fabric.NewSharded(eng, fabric.DefaultConfig(100e9, sim.Microsecond, 1), cl, nil)
	if err != nil {
		b.Fatal(err)
	}
	// Same pacing as the solo benchmark: every FA injects one 512B cell
	// per cell-serialization time, half of its two-uplink capacity.
	const numFA = 8
	gap := sim.Time(float64(512*8) / 100e9 * float64(sim.Second))
	for fa := 0; fa < numFA; fa++ {
		quota := b.N / numFA
		if fa < b.N%numFA {
			quota++
		}
		n.NewInjector(fa, gap, 512, 0, quota).Start(0)
	}
	deadline := sim.Time(b.N/numFA+2)*gap + sim.Millisecond
	b.ReportAllocs()
	ev0, d0, f0 := eng.Processed(), eng.Dispatched(), eng.Stats().Fanned
	b.ResetTimer()
	eng.RunUntilQuiet(deadline)
	b.StopTimer()
	reportEventRate(b, eng.Processed()-ev0, 2)
	reportDispatched(b, eng.Dispatched()-d0)
	reportFanned(b, eng.Stats().Fanned-f0)
	if n.Injected() != uint64(b.N) {
		b.Fatalf("injected %d of %d", n.Injected(), b.N)
	}
	if n.Delivered()+n.Drops() != n.Injected() {
		b.Fatalf("cell leak: %d delivered + %d dropped != %d injected",
			n.Delivered(), n.Drops(), n.Injected())
	}
	if n.Drops() != 0 {
		b.Fatalf("healthy sharded fabric dropped %d cells", n.Drops())
	}
}

// BenchmarkFabricCellPathSShuffle measures the per-cell cost of the
// graph fabric's hot path on a Space Shuffle topology: greedy ring-space
// next-hop selection, per-cell spraying over the candidate set, and
// possible edge-device relay hops — the pluggable-topology counterpart
// of BenchmarkFabricCellPath. The steady-state path must stay
// allocation-free like the Clos one (fabric.TestFabricAllocFree).
func BenchmarkFabricCellPathSShuffle(b *testing.B) {
	s := sim.New()
	g, err := topo.ByName("sshuffle", 4)
	if err != nil {
		b.Fatal(err)
	}
	n, err := fabric.New(s, fabric.DefaultConfig(100e9, sim.Microsecond, 1), g)
	if err != nil {
		b.Fatal(err)
	}
	// Rotate destinations at a conservative pace — one cell-serialization
	// time per cell per edge device keeps every relay queue shallow.
	numFA := g.NumEdge()
	gap := sim.Time(float64(512*8)/100e9*float64(sim.Second)) * 4
	for fa := 0; fa < numFA; fa++ {
		quota := b.N / numFA
		if fa < b.N%numFA {
			quota++
		}
		n.NewInjector(fa, gap, 512, 0, quota).Start(sim.Time(fa) * gap / sim.Time(numFA))
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
	b.StopTimer()
	if n.Injected() != uint64(b.N) {
		b.Fatalf("injected %d of %d", n.Injected(), b.N)
	}
	if n.Delivered()+n.Drops() != n.Injected() {
		b.Fatalf("cell leak: %d delivered + %d dropped != %d injected",
			n.Delivered(), n.Drops(), n.Injected())
	}
	if n.Drops() != 0 {
		b.Fatalf("lightly loaded graph fabric dropped %d cells", n.Drops())
	}
}

// transportPath is the full sharded transport pipeline at two shards
// over a K=4 Clos, two hosts per FA, every host sending 4 KB packets at
// half its rate to the host three places on.
type transportPath struct {
	eng   *parsim.Engine
	net   *netsim.StardustNet
	injs  []*transportInjector
	sinks []*netsim.Counter
	gap   sim.Time
}

func newTransportPath(tb testing.TB) *transportPath {
	eng := parsim.New(parsim.Config{Shards: 2, Lookahead: sim.Microsecond})
	cl, err := fabric.ClosFor(4)
	if err != nil {
		tb.Fatal(err)
	}
	fab, err := fabric.NewSharded(eng, fabric.DefaultConfig(netsim.Bps(10e9*1.05), sim.Microsecond, 1), cl, nil)
	if err != nil {
		tb.Fatal(err)
	}
	const hostsPer = 2
	hosts := cl.NumFA * hostsPer
	sdc := netsim.DefaultStardust(10e9, cl.FAUplinks, sim.Microsecond)
	net, err := netsim.NewShardedStardustNet(fab, sdc, hosts, hostsPer)
	if err != nil {
		tb.Fatal(err)
	}
	const pktSize = 4096
	// Half the host rate: 4KB every two serialization times.
	tp := &transportPath{eng: eng, net: net, gap: 2 * sim.Time(float64(pktSize*8)/10e9*float64(sim.Second))}
	for h := 0; h < hosts; h++ {
		sink := &netsim.Counter{}
		tp.sinks = append(tp.sinks, sink)
		tp.injs = append(tp.injs, &transportInjector{
			sm:    net.HostSim(h),
			route: append(net.Route(h, (h+3)%hosts), sink),
			gap:   tp.gap,
			size:  pktSize,
		})
	}
	return tp
}

// arm spreads n more packets over the hosts' injectors, staggered from
// now, and returns the largest per-host share.
func (tp *transportPath) arm(n int) int {
	hosts := len(tp.injs)
	quota, extra := n/hosts, n%hosts
	for h, j := range tp.injs {
		q := quota
		if h < extra {
			q++
		}
		j.quota = q
		if q > 0 {
			j.sm.AtAction(tp.eng.Now()+sim.Time(h)*tp.gap/sim.Time(hosts), j, 0)
		}
	}
	return quota
}

func (tp *transportPath) delivered() uint64 {
	var d uint64
	for _, s := range tp.sinks {
		d += s.Packets
	}
	return d
}

// warm sends 32 packets per host, so that the one-time growth of pools,
// rings, mailboxes and scheduler state does not count against the hot
// path, and returns how many arrived.
func (tp *transportPath) warm(tb testing.TB) uint64 {
	tp.arm(32 * len(tp.injs))
	tp.eng.Run(tp.eng.Now() + sim.Time(40)*tp.gap + sim.Millisecond)
	warm := tp.delivered()
	if warm == 0 {
		tb.Fatal("warmup delivered nothing")
	}
	return warm
}

// send arms n more packets and runs until `want` have arrived in total.
func (tp *transportPath) send(n int, want uint64) {
	quota := tp.arm(n)
	tp.eng.Run(tp.eng.Now() + sim.Time(quota+2)*tp.gap + sim.Millisecond)
	for tries := 0; tp.delivered() < want && tries < 50; tries++ {
		tp.eng.Run(tp.eng.Now() + sim.Millisecond)
	}
}

// BenchmarkTransportPathSharded measures the per-packet cost of the full
// sharded transport pipeline at two shards: NIC queue, VOQ capture,
// cross-shard request/grant on the pair lanes, cell fragmentation, the
// per-link fabric crossing, in-order reassembly and egress. The
// steady-state VOQ/credit hot path must stay allocation-free — packets,
// cells and reassembly states are pooled and every control message reuses
// a pre-bound action (TestTransportPathAllocFree).
func BenchmarkTransportPathSharded(b *testing.B) {
	tp := newTransportPath(b)
	eng, net := tp.eng, tp.net
	warm := tp.warm(b)
	b.ReportAllocs()
	ev0, d0, f0 := eng.Processed(), eng.Dispatched(), eng.Stats().Fanned
	b.ResetTimer()
	tp.send(b.N, warm+uint64(b.N))
	b.StopTimer()
	reportEventRate(b, eng.Processed()-ev0, 2)
	reportDispatched(b, eng.Dispatched()-d0)
	reportFanned(b, eng.Stats().Fanned-f0)
	if got := tp.delivered() - warm; got != uint64(b.N) {
		b.Fatalf("delivered %d of %d packets (voq drops %d, fabric drops %d, timeouts %d)",
			got, b.N, net.VOQDrops(), net.FabricDrops(), net.ReasmTimeouts())
	}
	if net.TotalDrops() != 0 {
		b.Fatalf("healthy sharded transport dropped %d", net.TotalDrops())
	}
}

// transportInjector feeds one host's flow with pooled packets, itself the
// scheduled action so the benchmark loop allocates nothing.
type transportInjector struct {
	sm    *sim.Simulator
	route []netsim.Handler
	gap   sim.Time
	size  int
	quota int
}

// Act implements sim.Action.
func (j *transportInjector) Act(uint64) {
	if j.quota <= 0 {
		return
	}
	j.quota--
	p := netsim.NewPacket()
	p.Size = j.size
	p.SetRoute(j.route)
	p.SendOn()
	if j.quota > 0 {
		j.sm.AfterAction(j.gap, j, 0)
	}
}

// BenchmarkTelemetryExport measures the per-scrape cost of the telemetry
// hot path: one Capture reads every link direction of a loaded K=4
// fabric into the recorder's reused snapshot, delta-encodes the window
// into the STREC1 stream, and runs the event emitter. The recorder and
// writer reuse all scratch buffers, so steady-state export must stay
// allocation-free — a scrape that allocates would perturb the very
// simulation it observes (telemetry.TestWriteWindowDoesNotAllocate).
func BenchmarkTelemetryExport(b *testing.B) {
	s := sim.New()
	cl, err := fabric.ClosFor(4)
	if err != nil {
		b.Fatal(err)
	}
	n, err := fabric.New(s, fabric.DefaultConfig(10e9, sim.Microsecond, 1), cl)
	if err != nil {
		b.Fatal(err)
	}
	// Put real traffic on the fabric so every window encodes nonzero
	// per-direction deltas (the worst case for the varint encoder).
	for i := 0; i < 4096; i++ {
		i := i
		s.At(sim.Time(i/8)*2*sim.Microsecond, func() {
			c := netsim.NewPacket()
			c.Size = 512
			n.Inject(c, i%8, (i+3)%8)
		})
	}
	s.Run()
	w, err := telemetry.NewWriter(io.Discard, telemetry.StreamHeader{
		Dirs: 2 * n.NumLinks(), K: 4, ScrapePs: sim.Microsecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	rec := telemetry.NewRecorder(w, n, nil, sim.Microsecond)
	// Warm the snapshot and encode buffers: first captures grow them once.
	for i := 0; i < 3; i++ {
		rec.Capture(sim.Time(i+1) * sim.Microsecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Capture(sim.Time(i+4) * sim.Microsecond)
	}
	b.StopTimer()
	if rec.Err() != nil {
		b.Fatal(rec.Err())
	}
	if st := rec.Stats(); st.Windows != uint64(b.N)+3 {
		b.Fatalf("captured %d windows, want %d", st.Windows, b.N+3)
	}
}

// BenchmarkFabricFailurePath exercises the failure machinery under load
// and asserts the same no-leak invariant when links die mid-traffic (the
// Release() audit for dropped and failed-link cells).
func BenchmarkFabricFailurePath(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sim.New()
		cl, err := fabric.ClosFor(4)
		if err != nil {
			b.Fatal(err)
		}
		n, err := fabric.New(s, fabric.DefaultConfig(10e9, sim.Microsecond, 1), cl)
		if err != nil {
			b.Fatal(err)
		}
		const cells = 2000
		for j := 0; j < cells; j++ {
			j := j
			s.At(sim.Time(j/8)*2*sim.Microsecond, func() {
				c := netsim.NewPacket()
				c.Size = 512
				n.Inject(c, j%8, (j+3)%8)
			})
		}
		s.At(100*sim.Microsecond, func() { n.FailLink(0); n.FailLink(17) })
		s.Run()
		if n.Delivered()+n.Drops() != n.Injected() {
			b.Fatalf("cell leak under failure: %d delivered + %d dropped != %d injected",
				n.Delivered(), n.Drops(), n.Injected())
		}
	}
}

// BenchmarkFullFabricPermutation runs the Fig 10(a) permutation for the
// Stardust substrate over the per-link fabric (reduced fat-tree) — the
// topology-faithful counterpart of BenchmarkFig10aPermutation.
func BenchmarkFullFabricPermutation(b *testing.B) {
	cfg := experiments.QuickHtsim()
	cfg.Duration = 5 * sim.Millisecond
	cfg.Warmup = 2 * sim.Millisecond
	cfg.FullFabric = true
	for i := 0; i < b.N; i++ {
		r, err := experiments.Permutation(cfg, experiments.ProtoStardust)
		if err != nil {
			b.Fatal(err)
		}
		if r.MeanUtilPct < 50 {
			b.Fatalf("utilization collapsed: %v", r.MeanUtilPct)
		}
		if r.FabricDrops != 0 {
			b.Fatalf("fabric dropped %d cells", r.FabricDrops)
		}
	}
}

// BenchmarkFig2Scaling evaluates the Fig 2 scalability series: end hosts
// vs tiers, and device/link counts for networks up to one million hosts.
func BenchmarkFig2Scaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, dev := range topo.Fig2Devices {
			for n := 1; n <= 4; n++ {
				_ = topo.MaxHosts(dev, n)
			}
			for _, h := range []int{1e4, 1e5, 1e6} {
				p := topo.Plan(dev, h)
				if p.Devices <= 0 || p.SerialLinks <= 0 {
					b.Fatal("degenerate plan")
				}
			}
		}
	}
}

// BenchmarkTable2Elements evaluates the Table 2 element-count rows.
func BenchmarkTable2Elements(b *testing.B) {
	p := topo.Params{K: 32, T: 22, L: 8}
	for i := 0; i < b.N; i++ {
		for n := 1; n <= 4; n++ {
			ec := topo.Table2(p, n)
			if ec.MaxToRs <= 0 {
				b.Fatal("bad row")
			}
		}
	}
}

// BenchmarkFig3Parallelism sweeps the required-parallelism curves.
func BenchmarkFig3Parallelism(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := analytic.Fig3(analytic.DefaultSwitch, nil)
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkFig7PushPull runs the push-vs-pull fabric comparison.
func BenchmarkFig7PushPull(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.PushPull(false)
		if r.StardustB < 0.9 {
			b.Fatalf("pull fabric broke: %v", r.StardustB)
		}
	}
}

// BenchmarkFig8aPacking evaluates the four NetFPGA designs across the
// packet-size sweep.
func BenchmarkFig8aPacking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := device.Fig8a(150e6, nil)
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkFig8bTraces evaluates the production-trace mixes.
func BenchmarkFig8bTraces(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, tr := range workload.Traces {
			sizes, weights := workload.PacketMix(tr)
			th := device.NetFPGA(device.Packed, 150e6).MixThroughput(sizes, weights)
			if th <= 0 {
				b.Fatal("no throughput")
			}
		}
	}
}

// BenchmarkAristaSystem runs a short §6.1.2 single-tier line-rate and
// latency measurement.
func BenchmarkAristaSystem(b *testing.B) {
	cfg := experiments.ScaledArista()
	cfg.Duration = 50 * sim.Microsecond
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Arista(cfg, []int{384})
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].LineRatePct < 90 {
			b.Fatalf("384B below line rate: %v", rows[0].LineRatePct)
		}
	}
}

// BenchmarkFig9Fabric runs the two-tier cell fabric at 80% load
// (reduced scale).
func BenchmarkFig9Fabric(b *testing.B) {
	cfg := fabricsim.Scaled(0.8, 8)
	cfg.Slots = 1000
	cfg.WarmupSlots = 200
	for i := 0; i < b.N; i++ {
		res, err := fabricsim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.CellsDropped != 0 {
			b.Fatal("fabric dropped")
		}
	}
}

// BenchmarkMD1Model computes the §4.2.1 M/D/1 queue distributions.
func BenchmarkMD1Model(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, rho := range []float64{0.66, 0.8, 0.92, 0.95} {
			m, err := queueing.NewMD1(rho)
			if err != nil {
				b.Fatal(err)
			}
			ccdf := m.QueueCCDF(80)
			if ccdf[0] < 0.99 {
				b.Fatal("bad CCDF")
			}
		}
	}
}

// BenchmarkFig10aPermutation runs the permutation-throughput experiment
// for the Stardust substrate (reduced fat-tree).
func BenchmarkFig10aPermutation(b *testing.B) {
	cfg := experiments.QuickHtsim()
	cfg.Duration = 5 * sim.Millisecond
	cfg.Warmup = 2 * sim.Millisecond
	for i := 0; i < b.N; i++ {
		r, err := experiments.Permutation(cfg, experiments.ProtoStardust)
		if err != nil {
			b.Fatal(err)
		}
		if r.MeanUtilPct < 50 {
			b.Fatalf("utilization collapsed: %v", r.MeanUtilPct)
		}
	}
}

// BenchmarkFig10bFCT runs the Web-workload FCT experiment under
// background load.
func BenchmarkFig10bFCT(b *testing.B) {
	cfg := experiments.QuickHtsim()
	cfg.Duration = 5 * sim.Millisecond
	cfg.Warmup = 2 * sim.Millisecond
	for i := 0; i < b.N; i++ {
		r, err := experiments.FCT(cfg, experiments.ProtoStardust, 10)
		if err != nil {
			b.Fatal(err)
		}
		if r.Ms.N() == 0 {
			b.Fatal("no measured flows")
		}
	}
}

// BenchmarkFig10cIncast runs one incast point for the Stardust substrate.
func BenchmarkFig10cIncast(b *testing.B) {
	cfg := experiments.QuickHtsim()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Incast(cfg, experiments.ProtoStardust, 8, 450_000)
		if err != nil {
			b.Fatal(err)
		}
		if r.LastMs <= 0 {
			b.Fatal("no completion")
		}
	}
}

// BenchmarkFig10dArea evaluates the silicon area model.
func BenchmarkFig10dArea(b *testing.B) {
	for i := 0; i < b.N; i++ {
		got := analytic.DefaultAreaBreakdown.RelativeAreaPerTbps(analytic.PaperAreaRatios)
		if got <= 0 {
			b.Fatal("bad area")
		}
	}
}

// BenchmarkFig11Cost evaluates the relative-cost curves.
func BenchmarkFig11Cost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := analytic.Fig11a(nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkFig11Power evaluates the relative-power curves.
func BenchmarkFig11Power(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := analytic.Fig11b(nil)
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkAppEResilience evaluates the recovery-time model and formula.
func BenchmarkAppEResilience(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := analytic.DefaultResilience
		if p.RecoveryTime() <= 0 || p.BandwidthOverhead() <= 0 {
			b.Fatal("bad model")
		}
	}
}

// --- Ablation benches for the design choices DESIGN.md calls out ---

// BenchmarkAblationPacking compares cell counts with packing on and off
// for small-packet traffic (§3.4).
func BenchmarkAblationPacking(b *testing.B) {
	for _, packing := range []bool{true, false} {
		name := "off"
		if packing {
			name = "on"
		}
		b.Run("packing="+name, func(b *testing.B) {
			sw := device.NetFPGA(device.Packed, 150e6)
			if !packing {
				sw = device.NetFPGA(device.Cells, 150e6)
			}
			var sum float64
			for i := 0; i < b.N; i++ {
				for s := 64; s <= 1518; s += 16 {
					sum += sw.Throughput(s)
				}
			}
			_ = sum
		})
	}
}

// BenchmarkAblationCreditSize sweeps the credit quantum (§4.1's
// memory-vs-fairness trade-off) on the incast experiment: smaller credits
// improve fairness (first-vs-last spread) at a higher scheduling rate.
func BenchmarkAblationCreditSize(b *testing.B) {
	for _, credit := range []int64{1024, 4096, 16384} {
		b.Run(fmt.Sprintf("credit=%dB", credit), func(b *testing.B) {
			cfg := experiments.QuickHtsim()
			cfg.StardustCredit = credit
			for i := 0; i < b.N; i++ {
				r, err := experiments.Incast(cfg, experiments.ProtoStardust, 8, 200_000)
				if err != nil {
					b.Fatal(err)
				}
				if r.LastMs <= 0 {
					b.Fatal("incast incomplete")
				}
			}
		})
	}
}

// BenchmarkAblationFCI compares the over-subscribed fabric with and
// without FCI (Fig 9's 1.2 curve vs an unprotected fabric).
func BenchmarkAblationFCI(b *testing.B) {
	for _, fci := range []bool{true, false} {
		name := "off"
		if fci {
			name = "on"
		}
		b.Run("fci="+name, func(b *testing.B) {
			cfg := fabricsim.Scaled(1.2, 8)
			cfg.FCI = fci
			cfg.Slots = 1500
			cfg.WarmupSlots = 300
			for i := 0; i < b.N; i++ {
				res, err := fabricsim.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if fci && float64(res.CellsDropped) > 0.05*float64(res.CellsOffered) {
					b.Fatal("FCI failed to protect the fabric")
				}
			}
		})
	}
}

// BenchmarkAblationLinkBundling compares device counts for identical
// aggregate bandwidth at bundle widths 1 and 8 (§2.2).
func BenchmarkAblationLinkBundling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bundled := topo.Plan(topo.FT400Gx32, 100000)
		discrete := topo.Plan(topo.Stardust50G, 100000)
		if discrete.Devices >= bundled.Devices {
			b.Fatal("bundling ablation inverted")
		}
	}
}

// BenchmarkAblationCreditSpeedup sweeps the credit speed-up ratio (§4.1
// sets it "slightly above the egress port bandwidth", §6.2 uses ~1.05):
// too little starves the egress buffer, too much leans on the FCI loop.
func BenchmarkAblationCreditSpeedup(b *testing.B) {
	for _, su := range []float64{1.0, 1.03, 1.08} {
		b.Run(fmt.Sprintf("speedup=%.2f", su), func(b *testing.B) {
			cfg := experiments.QuickHtsim()
			cfg.Duration = 5 * sim.Millisecond
			cfg.Warmup = 2 * sim.Millisecond
			cfg.StardustSpeedup = su
			for i := 0; i < b.N; i++ {
				r, err := experiments.Permutation(cfg, experiments.ProtoStardust)
				if err != nil {
					b.Fatal(err)
				}
				if r.MeanUtilPct < 40 {
					b.Fatalf("speedup %.2f collapsed: %.1f%%", su, r.MeanUtilPct)
				}
			}
		})
	}
}

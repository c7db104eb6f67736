package fabric

import (
	"encoding/binary"
	"hash/fnv"
	"sync/atomic"
	"testing"
	"unsafe"

	"stardust/internal/netsim"
	"stardust/internal/parsim"
	"stardust/internal/sim"
	"stardust/internal/topo"
)

// A shard's counters fill whole cache lines, so two shards' never share
// one (see sim.CacheLine).
func TestShardStateLayout(t *testing.T) {
	if got := unsafe.Sizeof(shardState{}); got%sim.CacheLine != 0 {
		t.Errorf("shardState is %d bytes: not whole %d-byte cache lines", got, sim.CacheLine)
	}
}

// Everything else a shard writes inside a window fills whole cache lines
// too: nodes, egresses, injectors and links are made one after the other
// for all shards, and a Go allocation of whole lines starts on a line
// boundary. A field added later goes into the padding, not past it.
func TestFabricLayout(t *testing.T) {
	for name, size := range map[string]uintptr{
		"node":     unsafe.Sizeof(node{}),
		"egress":   unsafe.Sizeof(egress{}),
		"Injector": unsafe.Sizeof(Injector{}),
		"link":     unsafe.Sizeof(link{}),
	} {
		if size%sim.CacheLine != 0 {
			t.Errorf("%s is %d bytes: not whole %d-byte cache lines", name, size, sim.CacheLine)
		}
	}
}

// A cut link is written at both ends inside a window: its queue by the
// sending shard, its held cells by the receiving one. The receiver's half
// starts a line past the last one the queue's counters are on, and what
// both ends read comes before the queue.
func TestLinkLayout(t *testing.T) {
	var l link
	qEnd := unsafe.Offsetof(l.q) + unsafe.Sizeof(l.q)
	for name, off := range map[string]uintptr{
		"held":      unsafe.Offsetof(l.held),
		"heldCells": unsafe.Offsetof(l.heldCells),
	} {
		if off/sim.CacheLine <= (qEnd-1)/sim.CacheLine {
			t.Errorf("link.%s at offset %d shares a line with the queue, which ends at %d", name, off, qEnd)
		}
	}
	if off := unsafe.Offsetof(l.held); off%sim.CacheLine != 0 {
		t.Errorf("link.held at offset %d: the receiver's half does not start a line", off)
	}
	for name, off := range map[string]uintptr{
		"up": unsafe.Offsetof(l.up), "home": unsafe.Offsetof(l.home), "counter": unsafe.Offsetof(l.counter),
		"route": unsafe.Offsetof(l.route), "wire": unsafe.Offsetof(l.wire),
	} {
		if off >= unsafe.Offsetof(l.q) {
			t.Errorf("link.%s at offset %d: read by both ends, it sits behind the queue", name, off)
		}
	}
}

func TestClosForShapes(t *testing.T) {
	for _, k := range []int{4, 6, 8, 12} {
		c, err := ClosFor(k)
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		if c.NumFA != k*k/2 || c.FAUplinks != k/2 {
			t.Fatalf("K=%d: %d FAs x %d uplinks", k, c.NumFA, c.FAUplinks)
		}
		if c.FE1Up < c.FE1Down {
			t.Fatalf("K=%d: oversubscribed FE1 tier (%d up < %d down)", k, c.FE1Up, c.FE1Down)
		}
	}
	if _, err := ClosFor(5); err == nil {
		t.Fatal("odd K must error")
	}
}

// newTestNet builds a K=4 fabric (8 FAs, 4 FE1s, 4 FE2s).
func newTestNet(t *testing.T, seed int64) (*sim.Simulator, *Net) {
	t.Helper()
	c, err := ClosFor(4)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New()
	n, err := New(s, DefaultConfig(10e9, sim.Microsecond, seed), c)
	if err != nil {
		t.Fatal(err)
	}
	return s, n
}

// closOf returns the Clos a test fabric was built over.
func closOf(n *Net) *topo.Clos { return n.Topo.(*topo.Clos) }

// inject paces cells from every FA to a permutation destination; rate is
// well under the per-FA uplink capacity so queues never overflow.
func injectAll(s *sim.Simulator, n *Net, cells int) {
	numFA := n.NumFA()
	gap := 2 * sim.Microsecond // 512B at 10G is ~410ns; x5 headroom over 2 uplinks
	for i := 0; i < cells; i++ {
		i := i
		src := i % numFA
		dst := (src + 1 + (i/numFA)%(numFA-1)) % numFA
		s.At(sim.Time(i/numFA)*gap, func() {
			c := netsim.NewPacket()
			c.Size = 512
			n.Inject(c, src, dst)
		})
	}
}

func TestFabricDeliversEverything(t *testing.T) {
	s, n := newTestNet(t, 1)
	const cells = 4000
	injectAll(s, n, cells)
	s.Run()
	if n.Injected() != cells {
		t.Fatalf("injected %d, want %d", n.Injected(), cells)
	}
	if n.Delivered() != cells {
		t.Fatalf("delivered %d of %d (drops: dead=%d noroute=%d queue=%d)",
			n.Delivered(), cells, n.DeadDrops(), n.NoRouteDrops(), n.QueueDrops())
	}
	if n.Drops() != 0 {
		t.Fatalf("healthy fabric dropped %d cells", n.Drops())
	}
}

func TestFabricHairpin(t *testing.T) {
	s, n := newTestNet(t, 1)
	got := 0
	n.OnDeliver = func(c *netsim.Packet) { got++ }
	c := netsim.NewPacket()
	c.Size = 512
	n.Inject(c, 3, 3)
	s.Run()
	if got != 1 || n.Delivered() != 1 {
		t.Fatalf("hairpin delivered %d", got)
	}
}

// §5.3: under sustained traffic the source FA's uplinks must carry byte
// counts within a few percent of each other.
func TestFabricSprayBalance(t *testing.T) {
	s, n := newTestNet(t, 7)
	const cells = 6000
	injectAll(s, n, cells)
	s.Run()
	perFA := closOf(n).FAUplinks
	bytes := n.FAUplinkBytes()
	for fa := 0; fa < n.NumFA(); fa++ {
		var min, max uint64
		for p := 0; p < perFA; p++ {
			b := bytes[fa*perFA+p]
			if p == 0 || b < min {
				min = b
			}
			if b > max {
				max = b
			}
		}
		if min == 0 {
			t.Fatalf("FA%d: an uplink carried nothing", fa)
		}
		if spread := float64(max-min) / float64(max); spread > 0.05 {
			t.Fatalf("FA%d: uplink spread %.1f%% exceeds 5%% (min=%d max=%d)", fa, 100*spread, min, max)
		}
	}
}

func TestFabricDeterminism(t *testing.T) {
	run := func() (uint64, []uint64) {
		s, n := newTestNet(t, 42)
		injectAll(s, n, 3000)
		s.Run()
		return n.Delivered(), n.FAUplinkBytes()
	}
	d1, b1 := run()
	d2, b2 := run()
	if d1 != d2 {
		t.Fatalf("delivered %d vs %d", d1, d2)
	}
	for i := range b1 {
		if b1[i] != b2[i] {
			t.Fatalf("link %d: %d vs %d bytes", i, b1[i], b2[i])
		}
	}
}

// Failing links mid-run must lose only in-flight cells, keep the
// reachability invariant, and leak nothing: every injected cell is
// either delivered or released through a counted drop path.
func TestFabricFailureBalanceAndRecovery(t *testing.T) {
	s, n := newTestNet(t, 3)
	const cells = 8000
	injectAll(s, n, cells)
	// Kill two links mid-traffic: one FA-FE1 link and one FE1-FE2 link.
	var faLink, feLink = -1, -1
	for i, lk := range closOf(n).Links {
		if lk.A.Kind == topo.KindFA && faLink < 0 {
			faLink = i
		}
		if lk.A.Kind == topo.KindFE1 && feLink < 0 {
			feLink = i
		}
	}
	s.At(200*sim.Microsecond, func() {
		n.FailLink(faLink)
		n.FailLink(feLink)
	})
	s.Run()
	if n.Injected() != cells {
		t.Fatalf("injected %d", n.Injected())
	}
	if got := n.Delivered() + n.Drops(); got != cells {
		t.Fatalf("cell leak: delivered %d + dropped %d != injected %d",
			n.Delivered(), n.Drops(), cells)
	}
	if n.Drops() == 0 {
		t.Fatal("expected some loss from the failed links")
	}
	// With only two failures every FA keeps live uplinks and every spine
	// keeps a path to every FA: the fabric self-heals (§5.9).
	if u := n.UnreachablePairs(); u != 0 {
		t.Fatalf("unreachable pairs after healing: %d", u)
	}
	// Traffic injected after convergence must get through untouched.
	pre := n.Delivered()
	preDrops := n.Drops()
	injectAll(s, n, 2000)
	s.Run()
	if gotDrops := n.Drops() - preDrops; gotDrops != 0 {
		t.Fatalf("post-recovery traffic dropped %d cells", gotDrops)
	}
	if n.Delivered()-pre != 2000 {
		t.Fatalf("post-recovery delivered %d of 2000", n.Delivered()-pre)
	}
}

func TestFabricRestoreLink(t *testing.T) {
	s, n := newTestNet(t, 5)
	n.FailLink(0)
	n.FailLink(1)
	s.Run()
	n.RestoreLink(0)
	n.RestoreLink(1)
	s.Run()
	if u := n.UnreachablePairs(); u != 0 {
		t.Fatalf("unreachable after restore: %d", u)
	}
	injectAll(s, n, 2000)
	s.Run()
	if n.Drops() != 0 {
		t.Fatalf("restored fabric dropped %d", n.Drops())
	}
}

// Isolating an FA (all uplinks down) must surface in the reachability
// cross-check and drop its traffic through counted paths, not hang.
func TestFabricIsolatedFA(t *testing.T) {
	s, n := newTestNet(t, 9)
	for i, lk := range closOf(n).Links {
		if lk.A.Kind == topo.KindFA && lk.A.Index == 0 {
			n.FailLink(i)
		}
	}
	s.Run() // let withdrawals propagate
	if u := n.UnreachablePairs(); u == 0 {
		t.Fatal("isolated FA not visible in reachability cross-check")
	}
	c := netsim.NewPacket()
	c.Size = 512
	n.Inject(c, 0, 5) // no live uplink
	c2 := netsim.NewPacket()
	c2.Size = 512
	n.Inject(c2, 5, 0) // reachable nowhere after convergence
	s.Run()
	if n.Delivered() != 0 {
		t.Fatalf("delivered %d to/from an isolated FA", n.Delivered())
	}
	if n.Injected() != n.Drops() {
		t.Fatalf("leak: injected %d, dropped %d", n.Injected(), n.Drops())
	}
}

// The per-cell path must stay allocation-free in steady state (cells from
// the shards' free lists, prebuilt routes, in-place reshuffles, reused mailboxes) on every
// placement: the Clos and a graph topology on one event loop, and the
// Clos split over a two-shard engine. A batch is 32 cells from every
// edge device through the fabric's own Injector, so a path that
// allocated per cell would show hundreds per batch. What a multi-shard
// engine allocates per Run call is not the cell path's: always its
// call-scoped worker pool, and in a call where the governor probes
// fan-out the workers themselves, which AllocsPerRun's truncated mean
// absorbs.
func TestFabricAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are meaningless")
	}
	for _, tc := range []struct {
		name, topo string
		shards     int     // 0 = one bare simulator
		perCall    float64 // the engine's own allocations per Run call
	}{
		{"clos", "clos", 0, 0},
		{"sshuffle", "sshuffle", 0, 0},
		{"clos sharded", "clos", 2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := topo.ByName(tc.topo, 4)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig(10e9, sim.Microsecond, 11)
			var (
				n   *Net
				now func() sim.Time
				run func()
			)
			if tc.shards > 0 {
				eng := parsim.New(parsim.Config{Shards: tc.shards, Lookahead: sim.Microsecond})
				if n, err = NewSharded(eng, cfg, g, nil); err != nil {
					t.Fatal(err)
				}
				now, run = eng.Now, func() { eng.RunUntilQuiet(eng.Now() + sim.Millisecond) }
			} else {
				s := sim.New()
				if n, err = New(s, cfg, g); err != nil {
					t.Fatal(err)
				}
				now, run = s.Now, s.Run
			}
			const perFA = 32
			gap := 2 * sim.Microsecond // 512B at 10G is ~410ns: no queue builds
			injs := make([]*Injector, n.NumFA())
			for fa := range injs {
				injs[fa] = n.NewInjector(fa, gap, 512, 0, 0)
			}
			batch := func() {
				for fa, j := range injs {
					j.quota = perFA
					j.Start(now() + sim.Time(fa)*gap/sim.Time(len(injs)))
				}
				run()
			}
			for i := 0; i < 8; i++ { // warm the pools, rings and mailboxes
				batch()
			}
			if avg := testing.AllocsPerRun(100, batch); avg > tc.perCall {
				t.Errorf("fabric hot path allocates: %.0f allocs per %d cells", avg, perFA*len(injs))
			}
			if want := uint64(109 * perFA * len(injs)); n.Injected() != want || n.Delivered() != want {
				t.Fatalf("injected %d, delivered %d, want %d of each", n.Injected(), n.Delivered(), want)
			}
		})
	}
}

// netDigest folds what every edge device received and every directed
// link forwarded into one value.
func netDigest(n *Net) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for fa := range n.NumFA() {
		cells, bytes := n.DeliveredTo(fa)
		w(cells)
		w(bytes)
	}
	for d := range 2 * n.NumLinks() {
		b, c, dr := n.DirCounters(d)
		w(b)
		w(c)
		w(dr)
	}
	return h.Sum64()
}

// An edge device fed by something besides its one Injector injects a cell
// an event: two injectors interleave their cells on the device's
// spreader, and an endpoint may inject too. A two-shard K=4 Clos where
// edge 0 has two injectors, edge 1 an endpoint that injects and the rest
// one injector each runs as it does with every train capped at one cell,
// and the trains of the rest still take events in.
func TestSharedEdgeInjectsACellAnEvent(t *testing.T) {
	run := func(oneCell bool) (digest, dispatched, events uint64) {
		var n atomic.Uint64
		defer TapInjectors(oneCell, &n)()
		g, err := ClosFor(4)
		if err != nil {
			t.Fatal(err)
		}
		eng := parsim.New(parsim.Config{Shards: 2, Lookahead: sim.Microsecond})
		fab, err := NewSharded(eng, DefaultConfig(10e9, sim.Microsecond, 3), g, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Edge 1 sends every cell it receives on to edge 2.
		fab.SetEgress(1, netsim.HandlerFunc(func(c *netsim.Packet) { fab.Inject(c, 1, 2) }))
		for fa := range fab.NumFA() {
			gap := fab.CellGap(fa, 512, 0.3)
			fab.NewInjector(fa, gap, 512, 200*sim.Microsecond, -1).Start(sim.Time(fa) * gap / 8)
			if fa == 0 {
				fab.NewInjector(fa, gap+gap/3, 512, 200*sim.Microsecond, -1).Start(gap / 2)
			}
		}
		eng.RunUntilQuiet(sim.Millisecond)
		return netDigest(fab), eng.Dispatched(), n.Load()
	}
	digest, dispatched, events := run(false)
	wantDigest, wantDispatched, wantEvents := run(true)
	if digest != wantDigest || dispatched+wantEvents-events != wantDispatched || events == wantEvents {
		t.Errorf("digest %016x, dispatched %d, injector events %d; a cell an event %016x, %d, %d",
			digest, dispatched, events, wantDigest, wantDispatched, wantEvents)
	}
}

// A cell never changes lists: one that crosses the cut goes back to its
// sender's list and the receiver takes one of its own, so a shard's list
// holds what it has freed beyond what it takes — its cells in flight, once
// they drain. An incast onto the edges of shard 1 at load 0.6 piles the
// cells up in shard 1's queues (some overflow), and as they drain its
// list runs over the bound while shard 0's is under it: the barriers give
// the excess across and drop the rest. The lists must stay bounded, lose
// no cell the fabric counts, and leave the run the one-shard run.
func TestShardFreeListsStayBounded(t *testing.T) {
	gave := 0 // barriers at which one list was over the bound and another under it
	run := func(shards int) *Net {
		g, err := ClosFor(8)
		if err != nil {
			t.Fatal(err)
		}
		eng := parsim.New(parsim.Config{Shards: shards, Lookahead: sim.Microsecond})
		var n *Net
		// Registered first, so it sees the lists before the fabric's hook
		// evens them.
		eng.OnBarrier(func(sim.Time) {
			over, under := false, false
			for _, sh := range n.shards {
				over = over || sh.cells.Len() > netsim.FreeListCap
				under = under || sh.cells.Len() < netsim.FreeListCap
			}
			if over && under {
				gave++
			}
		})
		n, err = NewSharded(eng, DefaultConfig(10e9, sim.Microsecond, 5), g, nil)
		if err != nil {
			t.Fatal(err)
		}
		sinks := []int{} // the edges of shard 1 of two, whatever the run's count
		cut := Partition(g, 2)
		for fa, d := range n.edges {
			if cut[d.id] == 1 {
				sinks = append(sinks, fa)
			}
		}
		numFA := n.NumFA()
		for fa := range numFA {
			gap := n.CellGap(fa, 512, 0.6)
			j := n.NewInjector(fa, gap, 512, 500*sim.Microsecond, -1)
			if dst := sinks[fa%len(sinks)]; dst != fa {
				j.FixDst(dst)
			} else {
				j.FixDst(sinks[(fa+1)%len(sinks)])
			}
			j.Start(sim.Time(fa) * gap / sim.Time(numFA))
		}
		eng.RunUntilQuiet(sim.Millisecond)
		if !eng.Quiet() {
			t.Fatalf("%d shards: the fabric did not drain", shards)
		}
		return n
	}
	solo, n := run(1), run(2)
	if gave == 0 {
		t.Error("no barrier found one list over the bound and another under it: the evening went untested")
	}
	full := 0
	for s, sh := range n.shards {
		if l := sh.cells.Len(); l > netsim.FreeListCap {
			t.Errorf("shard %d holds %d free cells, over the bound %d", s, l, netsim.FreeListCap)
		} else if l == netsim.FreeListCap {
			full++
		}
	}
	if full == 0 {
		t.Errorf("no shard's list reached the bound %d: the spill path went untested", netsim.FreeListCap)
	}
	if inj, del, drp := n.Injected(), n.Delivered(), n.Drops(); inj == 0 || inj != del+drp {
		t.Errorf("injected %d != delivered %d + dropped %d", inj, del, drp)
	}
	if got, want := netDigest(n), netDigest(solo); got != want {
		t.Errorf("two shards: digest %016x, one shard %016x", got, want)
	}

	// The Stardust transport over two shards: every host sends 4 KB
	// packets to the host three on, so each shard takes cells and
	// reassembly states for what it ships and frees them for what it
	// receives, and the barriers even the lists out.
	// Read the lists as the last barrier left them: reading a counter
	// settles the counted cells held on the links, and frees them.
	runTransport := func(shards int) (*Net, []uint64, []int) {
		g, err := ClosFor(4)
		if err != nil {
			t.Fatal(err)
		}
		eng := parsim.New(parsim.Config{Shards: shards, Lookahead: sim.Microsecond})
		n, err := NewSharded(eng, DefaultConfig(netsim.Bps(10e9*1.05), sim.Microsecond, 5), g, nil)
		if err != nil {
			t.Fatal(err)
		}
		const hostsPer, pkts = 2, 200
		hosts := g.NumFA * hostsPer
		sd, err := netsim.NewShardedStardustNet(n, netsim.DefaultStardust(10e9, g.FAUplinks, sim.Microsecond), hosts, hostsPer)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]uint64, hosts)
		for h := range hosts {
			dst := (h + 3) % hosts
			route := append(sd.Route(h, dst), netsim.HandlerFunc(func(p *netsim.Packet) {
				got[h]++
				netsim.FreeListOf(sd.HostSim(dst)).Put(p)
			}))
			sm := sd.HostSim(h)
			for i := range pkts {
				sm.AtLaneFunc(sim.Time(i)*4*sim.Microsecond, 0, func() {
					p := netsim.FreeListOf(sm).Get()
					p.Size = 4096
					p.SetRoute(route)
					p.SendOn()
				})
			}
		}
		eng.Run(2 * sim.Millisecond)
		lens := make([]int, shards)
		for s, sh := range n.shards {
			lens[s] = sh.cells.Len()
		}
		if sd.InFlight() != 0 || sd.TotalDrops() != 0 {
			t.Fatalf("%d shards: %d packets in flight, %d drops", shards, sd.InFlight(), sd.TotalDrops())
		}
		return n, got, lens
	}
	soloT, want, _ := runTransport(1)
	nT, got, lens := runTransport(2)
	full = 0
	for s, l := range lens {
		if l > netsim.FreeListCap {
			t.Errorf("transport: shard %d holds %d free packets, over the bound %d", s, l, netsim.FreeListCap)
		} else if l == netsim.FreeListCap {
			full++
		}
	}
	if full == 0 {
		t.Errorf("transport: no shard's list reached the bound %d: the evening went untested", netsim.FreeListCap)
	}
	for h := range got {
		if got[h] != want[h] {
			t.Errorf("transport: host %d received %d packets on two shards, %d on one", h, got[h], want[h])
		}
	}
	if got, want := netDigest(nT), netDigest(soloT); got != want {
		t.Errorf("transport: two shards: digest %016x, one shard %016x", got, want)
	}
}

// Overlapping failures and recoveries inside one ReachDelay window must
// coalesce: every delayed withdrawal recomputes the FE1's reachable set
// at delivery time, so a stale message can never overwrite newer truth
// at the spine (the §5.8 propagation protocol under interleaving).
func TestWithdrawalInterleavingCoalesces(t *testing.T) {
	s, n := newTestNet(t, 13)
	// Two FA links landing on the same FE1.
	var lks []int
	for i, lk := range closOf(n).Links {
		if lk.A.Kind == topo.KindFA && lk.B.Kind == topo.KindFE1 && lk.B.Index == 0 {
			lks = append(lks, i)
		}
	}
	if len(lks) < 2 {
		t.Fatalf("FE1-0 serves %d FA links", len(lks))
	}
	lk1, lk2 := lks[0], lks[1]
	full := closOf(n).FE1Down // FAs one FE1 advertises when healthy

	type upd struct {
		at        sim.Time
		node      int
		reachable int
	}
	var got []upd
	n.OnReachUpdate = func(node, reachable int) {
		got = append(got, upd{s.Now(), node, reachable})
	}
	d := n.Cfg.ReachDelay
	s.At(0, func() { n.FailLink(lk1) })
	s.At(d/5, func() { n.FailLink(lk2) })
	s.At(2*d/5, func() { n.RestoreLink(lk1) }) // before any withdrawal lands
	s.Run()

	// Three state changes -> three delayed deliveries, every one carrying
	// the truth at its own delivery time: lk1 healed, lk2 still down.
	if len(got) != 3 {
		t.Fatalf("got %d reach updates, want 3: %v", len(got), got)
	}
	for i, u := range got {
		if want := closOf(n).NumFA; u.node != want { // FE1 0, as a node index
			t.Fatalf("update %d from node %d, want %d", i, u.node, want)
		}
		if u.reachable != full-1 {
			t.Fatalf("update %d advertises %d FAs, want %d (stale withdrawal delivered): %v",
				i, u.reachable, full-1, got)
		}
	}
	for i := 1; i < len(got); i++ {
		if got[i].at < got[i-1].at {
			t.Fatalf("updates out of order: %v", got)
		}
	}
	// lk2's FA stays reachable through its other FE1: no hole.
	if u := n.UnreachablePairs(); u != 0 {
		t.Fatalf("unreachable pairs %d during single-link outage", u)
	}

	// Heal lk2: the final readvertisement restores the full set.
	n.RestoreLink(lk2)
	s.Run()
	last := got[len(got)-1]
	if last.reachable != full {
		t.Fatalf("final advertisement %d FAs, want %d", last.reachable, full)
	}
	if u := n.UnreachablePairs(); u != 0 {
		t.Fatalf("unreachable pairs %d after healing", u)
	}
}

// Failing the same link twice must not double-fire hooks or withdrawals,
// and restore of a never-failed link is a no-op.
func TestLinkStateIdempotent(t *testing.T) {
	s, n := newTestNet(t, 17)
	var transitions int
	n.OnLinkState = func(int, bool) { transitions++ }
	n.FailLink(0)
	n.FailLink(0)
	n.RestoreLink(0)
	n.RestoreLink(0)
	n.RestoreLink(1)
	s.Run()
	if transitions != 2 {
		t.Fatalf("%d transitions for one fail+restore, want 2", transitions)
	}
}

// Every link, solo or on an engine, sits on its own lane: the queue's
// wire is the link's LanePipe and a cell's route is the link alone, so an
// idle-link hop costs one event, the arrival.
func TestLinksAreWiredByBuild(t *testing.T) {
	for _, topoName := range []string{"clos", "sshuffle", "star"} {
		g, err := topo.ByName(topoName, 4)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(10e9, sim.Microsecond, 1)
		sharded, err := NewSharded(parsim.New(parsim.Config{Shards: 1, Lookahead: sim.Microsecond}), cfg, g, nil)
		if err != nil {
			t.Fatal(err)
		}
		solo, err := New(sim.New(), cfg, g)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []*Net{sharded, solo} {
			for d, l := range n.links {
				if l.q.Wire != &l.wire || l.wire.Lane != int32(d) || l.wire.Sched == nil || l.route[0] != netsim.Handler(l) {
					t.Fatalf("%s (engine %v): link %d not wired on its own lane (wire %+v, route %v)", topoName, n.Engine() != nil, d, l.q.Wire, l.route)
				}
			}
		}
	}
}

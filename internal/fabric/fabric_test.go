package fabric

import (
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
	n.OnDeliver = func(c *netsim.Packet) { got++; c.Release() }
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

// The per-cell path must stay allocation-free in steady state (pooled
// cells, prebuilt routes, in-place reshuffles, reused mailboxes) on every
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

// An engine-built fabric drives every link through its queue's wire (one
// event per idle-link hop); a solo fabric shares a default-lane pipe and
// must not — there the completion has to stay a real event.
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
		for d, l := range sharded.links {
			if l.q.Wire == nil || l.q.Wire.Lane != int32(d) || len(l.route) != 1 {
				t.Fatalf("%s: sharded link %d not wired on its own lane (wire %+v, route of %d)", topoName, d, l.q.Wire, len(l.route))
			}
		}
		for d, l := range solo.links {
			if l.q.Wire != nil || len(l.route) != 2 {
				t.Fatalf("%s: solo link %d is wired (route of %d)", topoName, d, len(l.route))
			}
		}
	}
}

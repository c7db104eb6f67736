package fabric

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"stardust/internal/netsim"
	"stardust/internal/parsim"
	"stardust/internal/sim"
	"stardust/internal/topo"
)

// Property/invariant harness for the sharded fabric: randomized
// topologies, traffic and fail/heal schedules, with every injected cell
// carrying a unique id so its fate (delivered, dropped on a dead link, no
// route, queue tail-drop) is accounted exactly. The same program runs at
// shards=1 and shards=4 and the canonical outputs must be byte-identical —
// the engine's determinism claim is verified, not assumed. The hotspot
// programs skew the load so that the static contiguous cut piles the busy
// devices onto the low shards: what a shard executes may be uneven, what
// the run produces may not depend on it.

// idSink records the ids of cells delivered to one FA, in arrival order.
// It is installed with SetEgress, so it runs pinned to the FA's shard and
// needs no locking.
type idSink struct {
	ids []uint64
}

// Receive implements netsim.Handler.
func (s *idSink) Receive(c *netsim.Packet) {
	s.ids = append(s.ids, uint64(c.Seq))
}

// dropLog collects the ids of dropped cells. Drops fire on whichever
// shard owns the dropping device, so it locks; order is canonicalized by
// sorting before use.
type dropLog struct {
	mu  sync.Mutex
	ids []uint64
}

func (d *dropLog) record(c *netsim.Packet) {
	d.mu.Lock()
	d.ids = append(d.ids, uint64(c.Seq))
	d.mu.Unlock()
}

// propInjector paces cells out of one FA. Everything it does is a
// function of (fa, seed) alone — its own rng, its own id counter — so the
// offered traffic is identical at every shard count.
type propInjector struct {
	net   *Net
	sm    *sim.Simulator
	fa    int
	numFA int
	rng   *rand.Rand
	gap   sim.Time
	stop  sim.Time
	cell  int
	next  uint64 // id counter; cell id = fa<<32 | next
	sent  uint64
}

// Act implements sim.Action: inject one cell and reschedule.
func (j *propInjector) Act(uint64) {
	if j.sm.Now() >= j.stop {
		return
	}
	c := netsim.NewPacket()
	c.Size = j.cell
	j.next++
	c.Seq = int64(uint64(j.fa)<<32 | j.next)
	dst := j.rng.Intn(j.numFA) // self allowed: exercises the hairpin path
	j.net.Inject(c, j.fa, dst)
	j.sent++
	// Jittered pacing, well under uplink capacity.
	j.sm.AfterAction(j.gap+sim.Time(j.rng.Intn(1000))*sim.Nanosecond, j, 0)
}

// propResult is the canonical outcome of one harness run: every field is
// a deterministic function of (seed, program), independent of shard count.
type propResult struct {
	injected  uint64
	delivered uint64
	dropped   uint64
	events    uint64
	digest    uint64
}

func (r propResult) String() string {
	return fmt.Sprintf("injected=%d delivered=%d dropped=%d events=%d digest=%016x",
		r.injected, r.delivered, r.dropped, r.events, r.digest)
}

// propProgram is one randomized fabric program: the traffic is a function
// of (seed, edge device) alone, the fail/heal schedule of (seed, fails).
type propProgram struct {
	g     topo.Graph
	seed  int64
	gap   sim.Time // pacing of one edge device, before jitter
	hot   int      // the first hot edge devices inject six times faster
	fails int
}

// closProgram is the uniform program: a K ∈ {4, 6} Clos with one to four
// links failing and healing.
func closProgram(t *testing.T, seed int64) propProgram {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cl, err := ClosFor(4 + 2*rng.Intn(2))
	if err != nil {
		t.Fatal(err)
	}
	return propProgram{g: cl, seed: seed, gap: 2 * sim.Microsecond, fails: 1 + rng.Intn(4)}
}

// hotspotProgram skews the load on a K=4 graph of the named family (on
// Space Shuffle every node is an edge device that also relays transit
// cells): the first quarter of the edge devices are hot.
func hotspotProgram(t *testing.T, topoName string, seed int64, fails int) propProgram {
	t.Helper()
	g, err := topo.ByName(topoName, 4)
	if err != nil {
		t.Fatal(err)
	}
	return propProgram{g: g, seed: seed, gap: 12 * sim.Microsecond, hot: g.NumEdge() / 4, fails: fails}
}

// runProperty executes prog on `shards` shards and checks the per-run
// invariants; the caller compares the returned canonical result across
// shard counts.
func runProperty(t *testing.T, prog propProgram, shards int) propResult {
	t.Helper()
	seed, numFA := prog.seed, prog.g.NumEdge()
	look := sim.Microsecond
	eng := parsim.New(parsim.Config{Shards: shards, Lookahead: look})
	cfg := DefaultConfig(10e9, look, seed)
	n, err := NewSharded(eng, cfg, prog.g, nil)
	if err != nil {
		t.Fatal(err)
	}

	sinks := make([]*idSink, numFA)
	for fa := range sinks {
		sinks[fa] = &idSink{}
		n.SetEgress(fa, sinks[fa])
	}
	drops := &dropLog{}
	n.OnCellDrop = drops.record
	n.VisitQueues(func(q *netsim.Queue) { q.OnDrop = drops.record })

	const dur = 2 * sim.Millisecond
	injectors := make([]*propInjector, numFA)
	for fa := 0; fa < numFA; fa++ {
		gap := prog.gap
		if fa < prog.hot {
			gap /= 6
		}
		j := &propInjector{
			net: n, fa: fa, numFA: numFA,
			sm:   n.EdgeSim(fa),
			rng:  rand.New(rand.NewSource(seed ^ int64(fa)*7919)),
			gap:  gap,
			stop: dur,
			cell: 512,
		}
		injectors[fa] = j
		j.sm.AtAction(sim.Time(fa)*sim.Microsecond/4, j, 0)
	}

	// Random fail/heal schedule: a handful of links die in the first half
	// of the run and every one is healed before the end, so the §5.9
	// self-healing invariant (zero unreachable pairs) must hold at drain.
	rng := rand.New(rand.NewSource(seed ^ 0x4eba))
	for i := 0; i < prog.fails; i++ {
		lk := rng.Intn(n.NumLinks())
		failAt := dur/4 + sim.Time(rng.Int63n(int64(dur/4)))
		healAt := failAt + sim.Time(rng.Int63n(int64(dur/4))) + 10*look
		eng.At(failAt, func() { n.FailLink(lk) })
		eng.At(healAt, func() { n.RestoreLink(lk) })
	}

	// Mid-run conservation: at every barrier, in-flight = injected −
	// delivered − dropped must never go negative (a negative value means a
	// cell was double-counted somewhere).
	// And every node's spreaders agree with the route policy (checkSpray).
	eng.OnBarrier(func(now sim.Time) {
		inj, del, drp := n.Injected(), n.Delivered(), n.Drops()
		if del+drp > inj {
			t.Errorf("t=%d: delivered %d + dropped %d exceeds injected %d", now, del, drp, inj)
		}
		if err := checkSpray(n); err != nil {
			t.Errorf("t=%d: %v", now, err)
		}
	})

	eng.RunUntilQuiet(dur + 20*cfg.ReachDelay)
	if !eng.Quiet() {
		t.Fatalf("shards=%d: fabric did not drain", shards)
	}

	// Conservation at drain: in-flight is zero, so injected must equal
	// delivered + dropped exactly.
	var wantInjected uint64
	for _, j := range injectors {
		wantInjected += j.sent
	}
	inj, del, drp := n.Injected(), n.Delivered(), n.Drops()
	if inj != wantInjected {
		t.Fatalf("shards=%d: fabric counted %d injected, injectors sent %d", shards, inj, wantInjected)
	}
	if del+drp != inj {
		t.Fatalf("shards=%d: conservation violated: %d delivered + %d dropped != %d injected",
			shards, del, drp, inj)
	}

	// Exact fate accounting: the union of delivered and dropped ids must
	// be precisely the injected id set — no duplication, no loss.
	seen := make(map[uint64]int, inj)
	for _, s := range sinks {
		for _, id := range s.ids {
			seen[id]++
		}
	}
	for _, id := range drops.ids {
		seen[id]++
	}
	if uint64(len(seen)) != inj {
		t.Fatalf("shards=%d: %d distinct cell ids for %d injected", shards, len(seen), inj)
	}
	for id, cnt := range seen {
		if cnt != 1 {
			t.Fatalf("shards=%d: cell %x seen %d times (duplication)", shards, id, cnt)
		}
	}

	// Self-healing: every link healed, so no (spine, FA) hole may remain,
	// and the installed candidate sets are the intact graph's routes.
	if u := n.UnreachablePairs(); u != 0 {
		t.Fatalf("shards=%d: %d unreachable pairs after full heal", shards, u)
	}
	wantDescend, wantClimb := prog.g.Routes(n.adminUp)
	gotDescend, gotClimb := installedRoutes(n)
	if fmt.Sprint(gotDescend) != fmt.Sprint(wantDescend) || fmt.Sprint(gotClimb) != fmt.Sprint(wantClimb) {
		t.Fatalf("shards=%d: candidate sets after full heal are not the graph's routes", shards)
	}

	// Canonical digest: per-FA delivery order, sorted drop set, and every
	// directed link's counters.
	h := fnv.New64a()
	var buf [8]byte
	w := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, s := range sinks {
		w(uint64(len(s.ids)))
		for _, id := range s.ids {
			w(id)
		}
	}
	dropped := append([]uint64(nil), drops.ids...)
	sort.Slice(dropped, func(i, j int) bool { return dropped[i] < dropped[j] })
	for _, id := range dropped {
		w(id)
	}
	var lc [2]LinkCounters
	for i := 0; i < n.NumLinks(); i++ {
		n.ReadLinkCounters(i, &lc)
		for d := 0; d < 2; d++ {
			w(lc[d].FwdBytes)
			w(lc[d].FwdCells)
			w(lc[d].Drops)
		}
	}
	return propResult{
		injected:  inj,
		delivered: del,
		dropped:   drp,
		events:    eng.Processed(),
		digest:    h.Sum64(),
	}
}

// checkSpray holds every node's spreaders to the route policy, a check
// that catches a path which changes a candidate set and forgets the
// spreader: every position set must be the image of its link set under
// the spreader's permutation (reach.Spreader.Check), and the link sets
// must be the policy's own state. Under the reach protocol an FE's
// descend sets are its table's rows and a climb set is exactly the live
// uplinks; on a recomputed graph no candidate is a dead port. Barrier
// context only when sharded.
func checkSpray(n *Net) error {
	for i, d := range n.nodes {
		name := n.Topo.Node(i).Name
		if err := d.sprDown.Check(); err != nil {
			return fmt.Errorf("%s descend: %v", name, err)
		}
		if err := d.sprUp.Check(); err != nil {
			return fmt.Errorf("%s climb: %v", name, err)
		}
		live := func(l *link) bool { return l != nil && l.up }
		switch r := n.routes.(type) {
		case *reachProtocol:
			if tbl := r.tbl[i]; tbl != nil {
				for fa := range tbl.NumFA() {
					for slot := range d.down {
						if got, want := d.sprDown.Links(fa).Get(slot), tbl.Links(fa).Get(slot); got != want {
							return fmt.Errorf("%s: descend set of FA%d has slot %d %v, its table %v", name, fa, slot, got, want)
						}
					}
				}
			}
			for slot, l := range d.up {
				if got := d.sprUp.Links(0).Get(slot); got != live(l) {
					return fmt.Errorf("%s: climb slot %d is %v, its link up %v", name, slot, got, live(l))
				}
			}
		case *recompute:
			for slot, l := range d.down {
				for e := range d.sprDown.Sets() {
					if d.sprDown.Links(e).Get(slot) && !live(l) {
						return fmt.Errorf("%s: descends to edge %d over dead slot %d", name, e, slot)
					}
				}
			}
			for slot, l := range d.up {
				if d.sprUp.Links(0).Get(slot) && !live(l) {
					return fmt.Errorf("%s: climbs over dead slot %d", name, slot)
				}
			}
		}
	}
	return nil
}

// TestFabricPropertyInvariants is the property suite: randomized
// topology/traffic/failure programs, each run at shards=1 and shards=4
// (and once at 2), asserting conservation, exact cell-fate accounting,
// post-heal reachability — and that the canonical outputs are identical
// across shard counts.
func TestFabricPropertyInvariants(t *testing.T) {
	seeds := []int64{1, 7, 42}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			prog := closProgram(t, seed)
			ref := runProperty(t, prog, 1)
			got4 := runProperty(t, prog, 4)
			if got4 != ref {
				t.Fatalf("shards=4 diverged from shards=1:\n  1: %v\n  4: %v", ref, got4)
			}
			if seed == seeds[0] {
				got2 := runProperty(t, prog, 2)
				if got2 != ref {
					t.Fatalf("shards=2 diverged from shards=1:\n  1: %v\n  2: %v", ref, got2)
				}
			}
		})
	}
}

// hotspotTopos are the graphs the skewed programs run on: the Clos (hot
// FAs, shared FEs) and Space Shuffle (whole hot switches).
var hotspotTopos = []string{"clos", "sshuffle"}

// sameAcrossShards runs prog at shards {1, 2, 4} and fails unless the
// three canonical outcomes are one.
func sameAcrossShards(t *testing.T, prog propProgram) {
	t.Helper()
	ref := runProperty(t, prog, 1)
	for _, shards := range []int{2, 4} {
		if got := runProperty(t, prog, shards); got != ref {
			t.Fatalf("shards=%d diverged from shards=1:\n  1: %v\n  %d: %v", shards, ref, shards, got)
		}
	}
}

// A hotspot piles the busy edge devices onto the low shards of the static
// contiguous cut; the canonical outcome must still be the one-shard
// outcome. (This test and the next keep the names the CI history knows
// them by; nothing rebalances, see ROADMAP "Parked".)
func TestRebalanceDigestDeterminism(t *testing.T) {
	seeds := []int64{5, 19}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, topoName := range hotspotTopos {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed=%d", topoName, seed), func(t *testing.T) {
				sameAcrossShards(t, hotspotProgram(t, topoName, seed, 0))
			})
		}
	}
}

// The same with three links failing and healing under the hotspot.
func TestRebalanceMigrationUnderFailHeal(t *testing.T) {
	for _, topoName := range hotspotTopos {
		t.Run(topoName, func(t *testing.T) {
			sameAcrossShards(t, hotspotProgram(t, topoName, 23, 3))
		})
	}
}

// TestShardedMatchesSoloLossFree holds a solo fabric (New) to a one-shard
// NewSharded: the two are wired the same way, so with no failures one
// program must run the same events on both — equal per-edge and per-link
// counters, injections, drops and dispatched events, and on the numbered
// program the same cells in the same order at every edge. The injector
// programs' last hops are counted, the numbered program's are events.
func TestShardedMatchesSoloLossFree(t *testing.T) {
	const seed = 3
	programs := []struct {
		topo     string
		k        int
		numbered bool
	}{
		{"clos", 4, false}, {"clos", 8, false},
		{"sshuffle", 4, false}, {"sshuffle", 8, false},
		{"star", 4, false}, {"clos", 4, true},
	}
	type outcome struct {
		digest, injected, drops, dispatched uint64
		ids                                 [][]uint64
	}
	// load schedules the program on n, on each edge device's own loop.
	load := func(n *Net, numbered bool) []*idSink {
		numFA := n.NumFA()
		if !numbered {
			for fa := range numFA {
				gap := n.CellGap(fa, 512, 0.4)
				n.NewInjector(fa, gap, 512, 100*sim.Microsecond, -1).Start(sim.Time(fa) * gap / sim.Time(numFA))
			}
			return nil
		}
		sinks := make([]*idSink, numFA)
		for fa := range sinks {
			sinks[fa] = &idSink{}
			n.SetEgress(fa, sinks[fa])
		}
		rng := rand.New(rand.NewSource(seed))
		for i := range 2000 {
			c := netsim.NewPacket()
			c.Size = 512
			c.Seq = int64(i + 1)
			src, dst := i%numFA, rng.Intn(numFA)
			n.EdgeSim(src).At(sim.Time(i/numFA)*2*sim.Microsecond, func() { n.Inject(c, src, dst) })
		}
		return sinks
	}
	result := func(n *Net, sinks []*idSink, dispatched uint64) outcome {
		o := outcome{digest: netDigest(n), injected: n.Injected(), drops: n.Drops(), dispatched: dispatched}
		for _, sk := range sinks {
			o.ids = append(o.ids, sk.ids)
		}
		return o
	}
	for _, p := range programs {
		name := fmt.Sprintf("%s/k=%d", p.topo, p.k)
		if p.numbered {
			name += "/numbered"
		}
		t.Run(name, func(t *testing.T) {
			g, err := topo.ByName(p.topo, p.k)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig(10e9, sim.Microsecond, seed)

			// The engine's Clos edge devices inject in trains, the solo
			// fabric's a cell an event: the solo run dispatches the injector
			// events the trains took in on top.
			var soloEvents, oneEvents atomic.Uint64
			off := TapInjectors(false, &soloEvents)
			s := sim.New()
			solo, err := New(s, cfg, g)
			if err != nil {
				t.Fatal(err)
			}
			sinks := load(solo, p.numbered)
			s.Run()
			want := result(solo, sinks, s.Dispatched())
			off()

			defer TapInjectors(false, &oneEvents)()
			eng := parsim.New(parsim.Config{Shards: 1, Lookahead: sim.Microsecond})
			one, err := NewSharded(eng, cfg, g, nil)
			if err != nil {
				t.Fatal(err)
			}
			sinks = load(one, p.numbered)
			eng.RunUntilQuiet(sim.Second)
			if !eng.Quiet() {
				t.Fatal("the one-shard fabric did not drain")
			}
			got := result(one, sinks, eng.Dispatched()+soloEvents.Load()-oneEvents.Load())

			if want.injected == 0 || want.drops != 0 || solo.Delivered() != want.injected {
				t.Fatalf("solo run not loss-free: injected %d, delivered %d, drops %d", want.injected, solo.Delivered(), want.drops)
			}
			if got.digest != want.digest || got.injected != want.injected || got.drops != want.drops || got.dispatched != want.dispatched {
				t.Fatalf("one shard diverged from solo:\n  solo:      digest %016x injected %d drops %d dispatched %d\n  one shard: digest %016x injected %d drops %d dispatched %d",
					want.digest, want.injected, want.drops, want.dispatched, got.digest, got.injected, got.drops, got.dispatched)
			}
			for fa := range want.ids {
				if fmt.Sprint(got.ids[fa]) != fmt.Sprint(want.ids[fa]) {
					t.Fatalf("edge %d: one shard delivered %v, solo %v", fa, got.ids[fa], want.ids[fa])
				}
			}
		})
	}
}

// TestStardustTransportInOrderUnderFailures covers the per-VOQ in-order
// invariant at the transport layer: packets released by a Stardust VOQ
// must reach the destination endpoint in ship order even when fabric
// links die mid-run and the reassembly timer discards head-of-line
// packets (gaps allowed, reordering not).
func TestStardustTransportInOrderUnderFailures(t *testing.T) {
	const k = 4
	s := sim.New()
	cl, err := ClosFor(k)
	if err != nil {
		t.Fatal(err)
	}
	hostsPer := k / 2
	hosts := cl.NumFA * hostsPer
	sdc := netsim.DefaultStardust(10e9, hostsPer, sim.Microsecond)
	sd, err := netsim.NewStardustNet(s, sdc, hosts, hostsPer)
	if err != nil {
		t.Fatal(err)
	}
	fab, err := New(s, DefaultConfig(netsim.Bps(10e9*1.05), sim.Microsecond, 1), cl)
	if err != nil {
		t.Fatal(err)
	}
	fab.OnDeliver = sd.DeliverCell
	sd.UseFabric(fab)

	type flowRec struct {
		last      int64
		delivered int
	}
	recs := make([]flowRec, hosts)
	for src := 0; src < hosts; src++ {
		src := src
		dst := (src + 5) % hosts
		route := append(sd.Route(src, dst), netsim.HandlerFunc(func(p *netsim.Packet) {
			r := &recs[src]
			if p.Seq <= r.last {
				t.Errorf("flow %d: packet seq %d after %d (reordered)", src, p.Seq, r.last)
			}
			r.last = p.Seq
			r.delivered++
		}))
		for i := 0; i < 200; i++ {
			i := i
			s.At(sim.Time(i)*4*sim.Microsecond, func() {
				p := netsim.NewPacket()
				p.Size = 1500
				p.Seq = int64(i + 1)
				p.SetRoute(route)
				p.SendOn()
			})
		}
	}
	// Kill two fabric links mid-run, heal later: some packets lose cells
	// and must be discarded by the reassembly timer without ever letting a
	// later packet overtake an earlier one.
	s.At(150*sim.Microsecond, func() { fab.FailLink(0); fab.FailLink(9) })
	s.At(500*sim.Microsecond, func() { fab.RestoreLink(0); fab.RestoreLink(9) })
	// The credit-generation timers re-arm forever, so run to a deadline
	// comfortably past the last injection plus reassembly timeouts.
	s.RunUntil(3 * sim.Millisecond)

	total := 0
	for src := range recs {
		total += recs[src].delivered
	}
	if total == 0 {
		t.Fatal("nothing delivered")
	}
	if sd.ReasmTimeouts() == 0 && fab.Drops() > 0 {
		t.Logf("note: %d fabric drops, %d reassembly timeouts", fab.Drops(), sd.ReasmTimeouts())
	}
}

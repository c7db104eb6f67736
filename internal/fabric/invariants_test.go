package fabric

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"sync"
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
	c.Release()
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
	eng.OnBarrier(func(now sim.Time) {
		inj, del, drp := n.Injected(), n.Delivered(), n.Drops()
		if del+drp > inj {
			t.Errorf("t=%d: delivered %d + dropped %d exceeds injected %d", now, del, drp, inj)
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

	// Self-healing: every link healed, so no (spine, FA) hole may remain.
	if u := n.UnreachablePairs(); u != 0 {
		t.Fatalf("shards=%d: %d unreachable pairs after full heal", shards, u)
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

// TestShardedMatchesSoloLossFree cross-checks the sharded engine against
// the classic single-event-loop fabric: with no failures and load far
// under capacity both must deliver every injected cell, and the delivered
// id sets must be identical (delivery order may differ — the two engines
// break same-instant ties differently, by design).
func TestShardedMatchesSoloLossFree(t *testing.T) {
	const seed = 3
	const cells = 2000
	program := func(inject func(c *netsim.Packet, src, dst int), numFA int) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < cells; i++ {
			c := netsim.NewPacket()
			c.Size = 512
			c.Seq = int64(i + 1)
			src := i % numFA
			inject(c, src, rng.Intn(numFA))
		}
	}

	cl, err := ClosFor(4)
	if err != nil {
		t.Fatal(err)
	}

	// Solo reference.
	s := sim.New()
	solo, err := New(s, DefaultConfig(10e9, sim.Microsecond, seed), cl)
	if err != nil {
		t.Fatal(err)
	}
	soloIDs := make(map[uint64]bool, cells)
	solo.OnDeliver = func(c *netsim.Packet) { soloIDs[uint64(c.Seq)] = true; c.Release() }
	idx := 0
	program(func(c *netsim.Packet, src, dst int) {
		at := sim.Time(idx/cl.NumFA) * 2 * sim.Microsecond
		idx++
		s.At(at, func() { solo.Inject(c, src, dst) })
	}, cl.NumFA)
	s.Run()
	if got := solo.Delivered(); got != cells {
		t.Fatalf("solo delivered %d of %d", got, cells)
	}

	// Sharded run of the same program.
	eng := parsim.New(parsim.Config{Shards: 4, Lookahead: sim.Microsecond})
	shn, err := NewSharded(eng, DefaultConfig(10e9, sim.Microsecond, seed), cl, nil)
	if err != nil {
		t.Fatal(err)
	}
	sinks := make([]*idSink, cl.NumFA)
	for fa := range sinks {
		sinks[fa] = &idSink{}
		shn.SetEgress(fa, sinks[fa])
	}
	idx = 0
	program(func(c *netsim.Packet, src, dst int) {
		at := sim.Time(idx/cl.NumFA) * 2 * sim.Microsecond
		idx++
		eng.Shard(shn.ShardOfFA(src)).Sim().At(at, func() { shn.Inject(c, src, dst) })
	}, cl.NumFA)
	eng.RunUntilQuiet(sim.Second)
	if got := shn.Delivered(); got != cells {
		t.Fatalf("sharded delivered %d of %d (drops %d)", got, cells, shn.Drops())
	}
	for _, sk := range sinks {
		for _, id := range sk.ids {
			if !soloIDs[id] {
				t.Fatalf("sharded delivered id %d the solo engine did not", id)
			}
			delete(soloIDs, id)
		}
	}
	if len(soloIDs) != 0 {
		t.Fatalf("%d ids delivered by solo but not sharded", len(soloIDs))
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
			p.Release()
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

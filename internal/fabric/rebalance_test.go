package fabric

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"stardust/internal/netsim"
	"stardust/internal/parsim"
	"stardust/internal/sim"
	"stardust/internal/topo"
)

// rebalanceTopos are the graphs the migration invariants run on: the
// Clos (FAs move, FEs stay) and Space Shuffle (every node is an edge
// device that also relays transit cells, so whole switches move).
var rebalanceTopos = []string{"clos", "sshuffle"}

// Rebalancing invariants: hotspot-skewed workloads run with the adaptive
// planner enabled must produce byte-identical digests at every shard
// count (migrations may differ per shard count — the *outcome* may not),
// keep exact cell-fate accounting across migration barriers even while
// links fail and heal, and actually shrink the max-shard event share
// versus static contiguous assignment.

// hotInjector paces cells out of one FA with a skewed rate: hot FAs send
// `boost` times faster. Unlike propInjector it resolves its FA's shard on
// every event and tags its chain with the FA's migration group, so it
// follows the FA through rebalancing migrations.
type hotInjector struct {
	net   *Net
	fa    int
	numFA int
	rng   *rand.Rand
	gap   sim.Time
	stop  sim.Time
	next  uint64
	sent  uint64
}

func (j *hotInjector) start(at sim.Time) {
	sm := j.net.EdgeSim(j.fa)
	prev := sm.Group()
	sm.SetGroup(j.net.GroupOfFA(j.fa))
	sm.AtAction(at, j, 0)
	sm.SetGroup(prev)
}

// Act implements sim.Action: inject one uniquely-tagged cell, reschedule.
func (j *hotInjector) Act(uint64) {
	sm := j.net.EdgeSim(j.fa)
	if sm.Now() >= j.stop {
		return
	}
	c := netsim.NewPacket()
	c.Size = 512
	j.next++
	c.Seq = int64(uint64(j.fa)<<32 | j.next)
	j.net.Inject(c, j.fa, j.rng.Intn(j.numFA))
	j.sent++
	sm.AfterAction(j.gap+sim.Time(j.rng.Intn(500))*sim.Nanosecond, j, 0)
}

// rebalResult is the canonical outcome of one hotspot run plus the
// per-run telemetry the imbalance assertions need.
type rebalResult struct {
	outcome    propResult
	migrations uint64
	maxShare   float64 // max shard's fraction of all executed events
}

// runHotspot executes a hotspot-skewed randomized program: the first
// quarter of the edge devices inject 6x faster than the rest, so
// contiguous assignment piles them onto the low shards. failN links fail
// and heal mid-run. With rebalance, the adaptive planner is enabled.
func runHotspot(t *testing.T, topoName string, seed int64, shards int, rebalance bool, failN int) rebalResult {
	t.Helper()
	g, err := topo.ByName(topoName, 4)
	if err != nil {
		t.Fatal(err)
	}
	numFA := g.NumEdge()
	look := sim.Microsecond
	eng := parsim.New(parsim.Config{Shards: shards, Lookahead: look})
	cfg := DefaultConfig(10e9, look, seed)
	n, err := NewSharded(eng, cfg, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rebalance {
		if err := n.EnableRebalancing(DefaultRebalance()); err != nil {
			t.Fatal(err)
		}
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
	hot := numFA / 4
	injectors := make([]*hotInjector, numFA)
	for fa := 0; fa < numFA; fa++ {
		gap := 12 * sim.Microsecond
		if fa < hot {
			gap = 2 * sim.Microsecond
		}
		j := &hotInjector{
			net: n, fa: fa, numFA: numFA,
			rng:  rand.New(rand.NewSource(seed ^ int64(fa)*7919)),
			gap:  gap,
			stop: dur,
		}
		injectors[fa] = j
		j.start(sim.Time(fa) * sim.Microsecond / 4)
	}

	rng := rand.New(rand.NewSource(seed ^ 0x4eba))
	for i := 0; i < failN; i++ {
		lk := rng.Intn(n.NumLinks())
		failAt := dur/4 + sim.Time(rng.Int63n(int64(dur/4)))
		healAt := failAt + sim.Time(rng.Int63n(int64(dur/4))) + 10*look
		eng.At(failAt, func() { n.FailLink(lk) })
		eng.At(healAt, func() { n.RestoreLink(lk) })
	}

	eng.OnBarrier(func(now sim.Time) {
		inj, del, drp := n.Injected(), n.Delivered(), n.Drops()
		if del+drp > inj {
			t.Errorf("t=%d: delivered %d + dropped %d exceeds injected %d", now, del, drp, inj)
		}
	})

	eng.RunUntilQuiet(dur + 20*cfg.ReachDelay)
	if !eng.Quiet() {
		t.Fatalf("shards=%d rebalance=%v: fabric did not drain", shards, rebalance)
	}

	// Exact cell-fate accounting across every migration barrier: the union
	// of delivered and dropped ids is precisely the injected id set.
	var wantInjected uint64
	for _, j := range injectors {
		wantInjected += j.sent
	}
	inj, del, drp := n.Injected(), n.Delivered(), n.Drops()
	if inj != wantInjected {
		t.Fatalf("shards=%d: fabric counted %d injected, injectors sent %d", shards, inj, wantInjected)
	}
	if del+drp != inj {
		t.Fatalf("shards=%d rebalance=%v: conservation violated: %d delivered + %d dropped != %d injected",
			shards, rebalance, del, drp, inj)
	}
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
		t.Fatalf("shards=%d rebalance=%v: %d distinct cell ids for %d injected",
			shards, rebalance, len(seen), inj)
	}
	for id, cnt := range seen {
		if cnt != 1 {
			t.Fatalf("shards=%d rebalance=%v: cell %x seen %d times", shards, rebalance, id, cnt)
		}
	}
	if failN > 0 {
		if u := n.UnreachablePairs(); u != 0 {
			t.Fatalf("shards=%d: %d unreachable pairs after full heal", shards, u)
		}
	}

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

	var maxEv, totEv uint64
	for _, ev := range n.ShardEvents() {
		totEv += ev
		if ev > maxEv {
			maxEv = ev
		}
	}
	return rebalResult{
		outcome: propResult{
			injected:  inj,
			delivered: del,
			dropped:   drp,
			events:    eng.Processed(),
			digest:    h.Sum64(),
		},
		migrations: n.Migrations(),
		maxShare:   float64(maxEv) / float64(totEv),
	}
}

// TestRebalanceDigestDeterminism: on every topology the same hotspot
// seed must yield byte-identical canonical outcomes with the adaptive
// planner on or off, at shards {1, 2, 4} — and the multi-shard runs must
// actually migrate, or the test would be vacuous.
func TestRebalanceDigestDeterminism(t *testing.T) {
	seeds := []int64{5, 19}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, topoName := range rebalanceTopos {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed=%d", topoName, seed), func(t *testing.T) {
				ref := runHotspot(t, topoName, seed, 1, false, 0)
				for _, shards := range []int{1, 2, 4} {
					got := runHotspot(t, topoName, seed, shards, true, 0)
					if got.outcome != ref.outcome {
						t.Fatalf("shards=%d rebalanced diverged from shards=1 static:\n  1: %v\n  %d: %v",
							shards, ref.outcome, shards, got.outcome)
					}
					if shards == 1 && got.migrations != 0 {
						t.Fatalf("single-shard run migrated %d times", got.migrations)
					}
					if shards > 1 && got.migrations == 0 {
						t.Fatalf("shards=%d: hotspot run never migrated — rebalancing untested", shards)
					}
				}
			})
		}
	}
}

// TestRebalanceMigrationUnderFailHeal: exact cell-fate accounting must
// survive migrations interleaved with link failures and heals — including
// a forced migration of a hot FA in the middle of the failure window.
func TestRebalanceMigrationUnderFailHeal(t *testing.T) {
	const seed = 23
	for _, topoName := range rebalanceTopos {
		t.Run(topoName, func(t *testing.T) {
			ref := runHotspot(t, topoName, seed, 1, true, 3)
			got := runHotspot(t, topoName, seed, 4, true, 3)
			if got.outcome != ref.outcome {
				t.Fatalf("shards=4 diverged from shards=1 under fail/heal:\n  1: %v\n  4: %v",
					ref.outcome, got.outcome)
			}
			if got.migrations == 0 {
				t.Fatal("fail/heal hotspot run never migrated — rebalancing untested")
			}
		})
	}
}

// TestForcedMigrationKeepsAccounting drives an explicit MigrateFA of the
// hottest adapter back and forth across a barrier while a link it uses is
// down — the sharpest version of the migration path, with runHotspot's
// exact fate accounting as the oracle.
func TestForcedMigrationKeepsAccounting(t *testing.T) {
	for _, topoName := range rebalanceTopos {
		t.Run(topoName, func(t *testing.T) { forcedMigration(t, topoName) })
	}
}

func forcedMigration(t *testing.T, topoName string) {
	const seed = 31
	g, err := topo.ByName(topoName, 4)
	if err != nil {
		t.Fatal(err)
	}
	numFA := g.NumEdge()
	look := sim.Microsecond
	eng := parsim.New(parsim.Config{Shards: 2, Lookahead: look})
	cfg := DefaultConfig(10e9, look, seed)
	n, err := NewSharded(eng, cfg, g, nil)
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

	const dur = sim.Millisecond
	injectors := make([]*hotInjector, numFA)
	for fa := 0; fa < numFA; fa++ {
		j := &hotInjector{
			net: n, fa: fa, numFA: numFA,
			rng:  rand.New(rand.NewSource(seed ^ int64(fa)*7919)),
			gap:  3 * sim.Microsecond,
			stop: dur,
		}
		injectors[fa] = j
		j.start(0)
	}
	// Fail edge 0's first link, migrate edge 0 while the link is down,
	// migrate it back, then heal.
	uplink := topo.EdgeUplinkDirs(g)[0][0] / 2
	eng.At(dur/4, func() { n.FailLink(uplink) })
	eng.At(dur/4+20*look, func() {
		if err := n.MigrateFA(0, 1); err != nil {
			t.Error(err)
		}
	})
	eng.At(dur/2, func() {
		if err := n.MigrateFA(0, 0); err != nil {
			t.Error(err)
		}
	})
	eng.At(3*dur/4, func() { n.RestoreLink(uplink) })

	eng.RunUntilQuiet(dur + 20*cfg.ReachDelay)
	if !eng.Quiet() {
		t.Fatal("fabric did not drain")
	}
	if got := n.Migrations(); got != 2 {
		t.Fatalf("expected 2 migrations, counted %d", got)
	}
	var wantInjected uint64
	for _, j := range injectors {
		wantInjected += j.sent
	}
	inj, del, drp := n.Injected(), n.Delivered(), n.Drops()
	if inj != wantInjected {
		t.Fatalf("fabric counted %d injected, injectors sent %d", inj, wantInjected)
	}
	if del+drp != inj {
		t.Fatalf("conservation violated across forced migration: %d + %d != %d", del, drp, inj)
	}
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
		t.Fatalf("%d distinct cell ids for %d injected", len(seen), inj)
	}
	for id, cnt := range seen {
		if cnt != 1 {
			t.Fatalf("cell %x seen %d times", id, cnt)
		}
	}
	if u := n.UnreachablePairs(); u != 0 {
		t.Fatalf("%d unreachable pairs after heal", u)
	}
}

// TestRebalanceReducesImbalance: at the same shard count, the adaptive
// planner must execute a smaller max-shard share of events than static
// contiguous assignment on the hotspot workload — the scheduler is doing
// its one job.
func TestRebalanceReducesImbalance(t *testing.T) {
	const seed = 5
	static := runHotspot(t, "clos", seed, 2, false, 0)
	adaptive := runHotspot(t, "clos", seed, 2, true, 0)
	if adaptive.outcome != static.outcome {
		t.Fatalf("rebalancing changed the outcome:\n  off: %v\n  on:  %v",
			static.outcome, adaptive.outcome)
	}
	if adaptive.migrations == 0 {
		t.Fatal("adaptive run never migrated")
	}
	if adaptive.maxShare >= static.maxShare {
		t.Fatalf("rebalancing did not reduce imbalance: max share %.3f (adaptive) vs %.3f (static)",
			adaptive.maxShare, static.maxShare)
	}
	t.Logf("max-shard event share: static %.3f, adaptive %.3f (%d migrations)",
		static.maxShare, adaptive.maxShare, adaptive.migrations)
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
			if l.q.Wire == nil || l.q.Wire.Lane != int32(d) || len(l.route) != 2 {
				t.Fatalf("%s: sharded link %d not wired on its own lane (wire %+v, route of %d)", topoName, d, l.q.Wire, len(l.route))
			}
		}
		for d, l := range solo.links {
			if l.q.Wire != nil || len(l.route) != 3 {
				t.Fatalf("%s: solo link %d is wired (route of %d)", topoName, d, len(l.route))
			}
		}
	}
}

// An adapter that migrates with deep uplink queues takes three kinds of
// state along and converts none of it: cells already handed to the wire
// (their completions are times the queue holds, their arrivals events of
// the far node), the hand-over event of each queue (an ordinary event of
// the adapter's group) and the cells still waiting beyond the horizon. The
// run must end exactly like one that never migrated.
func TestMigrateFACarriesLazyCompletion(t *testing.T) {
	type arrival struct {
		at sim.Time
		id int64
	}
	type result struct {
		arrivals  []arrival
		events    uint64
		perShard  []uint64
		forwarded uint64
	}
	run := func(migrate bool) (res result) {
		g, err := topo.ByName("clos", 4)
		if err != nil {
			t.Fatal(err)
		}
		eng := parsim.New(parsim.Config{Shards: 2, Lookahead: sim.Microsecond})
		// 1 Gb/s links: a 512-byte cell serializes for 4.096us, so the third
		// cell on an uplink starts 8.2us ahead — inside the horizon — and the
		// fourth has to wait for the hand-over event.
		n, err := NewSharded(eng, DefaultConfig(1e9, sim.Microsecond, 1), g, nil)
		if err != nil {
			t.Fatal(err)
		}
		const fa, cells = 0, 16
		far := n.NumFA() - 1
		uplinks := len(n.edges[fa].up)
		n.SetEgress(far, netsim.HandlerFunc(func(c *netsim.Packet) {
			res.arrivals = append(res.arrivals, arrival{n.EdgeSim(far).Now(), c.Seq})
			c.Release()
		}))
		from := n.ShardOfFA(fa)
		old, dst := eng.Shard(from).Sim(), eng.Shard(1-from).Sim()
		old.SetGroup(n.GroupOfFA(fa))
		old.AtAction(500*sim.Nanosecond, sim.ActionFunc(func(uint64) {
			for i := range cells {
				c := netsim.NewPacket()
				c.Size = 512
				c.Seq = int64(i)
				n.Inject(c, fa, far)
			}
		}), 0)
		old.SetGroup(0)
		eng.At(2*sim.Microsecond, func() {
			// Three cells handed over per uplink; the third's completion is
			// the pending hand-over event.
			if got, want := old.Processed-old.Dispatched(), uint64(2*uplinks); got != want {
				t.Fatalf("mid-burst: %d completions elided on the old shard, want 2 on each of %d uplinks", got, uplinks)
			}
			if !migrate {
				return
			}
			before, held := old.Processed, dst.Pending()
			if err := n.MigrateFA(fa, 1-from); err != nil {
				t.Fatal(err)
			}
			if old.Processed != before {
				t.Fatalf("old shard's count moved with the adapter: %d -> %d", before, old.Processed)
			}
			if got := dst.Pending(); got != held+uplinks {
				t.Fatalf("new shard holds %d events after the move, %d before; want one hand-over per uplink added", got, held)
			}
		})
		eng.RunUntilQuiet(sim.Millisecond)
		if n.Injected() != cells || n.Delivered() != cells {
			t.Fatalf("injected %d, delivered %d, dropped %d", n.Injected(), n.Delivered(), n.Drops())
		}
		n.VisitQueues(func(q *netsim.Queue) {
			if q.Bytes() != 0 {
				t.Fatalf("%v after the run", q)
			}
			res.forwarded += q.Forwarded()
		})
		res.events, res.perShard = eng.Processed(), n.ShardEvents()
		return res
	}
	stay, moved := run(false), run(true)
	if !reflect.DeepEqual(stay.arrivals, moved.arrivals) {
		t.Fatalf("arrivals differ:\n  stayed %v\n  moved  %v", stay.arrivals, moved.arrivals)
	}
	if stay.events != moved.events || stay.forwarded != moved.forwarded {
		t.Fatalf("events / cells forwarded: %d / %d without migration, %d / %d with",
			stay.events, stay.forwarded, moved.events, moved.forwarded)
	}
	// The hand-overs, and the cells they handed over, ran where the adapter
	// now lives.
	if moved.perShard[0] == stay.perShard[0] {
		t.Fatalf("per-shard events unchanged by the migration: %v vs %v", moved.perShard, stay.perShard)
	}
}

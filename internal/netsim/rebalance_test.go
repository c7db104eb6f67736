package netsim_test

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"stardust/internal/fabric"
	"stardust/internal/netsim"
	"stardust/internal/parsim"
	"stardust/internal/sim"
)

// Transport-level rebalancing invariants: the full VOQ → credit → cell →
// reassembly pipeline must keep byte-identical digests across shard
// counts while the adaptive planner migrates whole edge groups — hosts,
// split-VOQ halves, credit loops, reassembly timers — between event
// loops, including across link fail/heal windows.

// rebalFlow is a self-rescheduling packet source that survives
// migrations: its chain starts group-tagged (ScheduleHost) and re-resolves
// the host's shard per event instead of caching a Simulator.
type rebalFlow struct {
	net   *netsim.StardustNet
	fi    int
	src   int
	route []netsim.Handler
	rec   *flowRec
	rng   *rand.Rand
	gap   sim.Time
	size  int
	count int
	n     int
}

// Act implements sim.Action: inject one packet and reschedule.
func (f *rebalFlow) Act(uint64) {
	if f.n >= f.count {
		return
	}
	f.n++
	id := uint64(f.fi)<<32 | uint64(f.n)
	f.rec.sent = append(f.rec.sent, id)
	p := netsim.NewPacket()
	p.Size = f.size
	p.Seq = int64(id)
	p.SetRoute(f.route)
	p.SendOn()
	f.net.HostSim(f.src).AfterAction(f.gap+sim.Time(f.rng.Intn(2000))*sim.Nanosecond, f, 0)
}

// runTransportRebalance executes a hotspot transport program — sources on
// the first quarter of the FAs send 6x faster — on `shards` event loops
// with adaptive rebalancing enabled, checks the transport invariants, and
// returns (canonical outcome, migration count).
func runTransportRebalance(t *testing.T, seed int64, shards, failN int) (transportOutcome, uint64) {
	t.Helper()
	cl, err := fabric.ClosFor(4)
	if err != nil {
		t.Fatal(err)
	}
	const hostsPer = 2
	hosts := cl.NumFA * hostsPer
	look := sim.Microsecond
	eng := parsim.New(parsim.Config{Shards: shards, Lookahead: look})
	fab, err := fabric.NewSharded(eng, fabric.DefaultConfig(netsim.Bps(10e9*1.05), look, seed), cl, nil)
	if err != nil {
		t.Fatal(err)
	}
	net, err := netsim.NewShardedStardustNet(fab, netsim.DefaultStardust(10e9, cl.FAUplinks, look), hosts, hostsPer)
	if err != nil {
		t.Fatal(err)
	}
	if err := fab.EnableRebalancing(fabric.DefaultRebalance()); err != nil {
		t.Fatal(err)
	}

	drops := &lockedIDs{}
	discards := &lockedIDs{}
	net.OnVOQDrop = drops.record
	net.OnReasmDiscard = discards.record
	net.VisitQueues(func(q *netsim.Queue) { q.OnDrop = drops.record })

	hotHosts := hosts / 4
	recs := make([]*flowRec, hosts)
	for src := 0; src < hosts; src++ {
		src := src
		dst := (src + 3) % hosts
		rec := &flowRec{src: src, dst: dst}
		recs[src] = rec
		f := &rebalFlow{
			net: net, fi: src, src: src, rec: rec,
			rng:   rand.New(rand.NewSource(seed ^ int64(src)*104729)),
			gap:   24 * sim.Microsecond,
			size:  2000,
			count: 60,
		}
		if src < hotHosts {
			f.gap = 4 * sim.Microsecond
		}
		f.route = append(net.Route(src, dst), netsim.HandlerFunc(func(p *netsim.Packet) {
			rec.got = append(rec.got, uint64(p.Seq))
			p.Release()
		}))
		net.ScheduleHost(src, sim.Time(src)*sim.Microsecond/2, f, 0)
	}

	rng := rand.New(rand.NewSource(seed ^ 0x4eba))
	const dur = 1500 * sim.Microsecond
	for i := 0; i < failN; i++ {
		lk := rng.Intn(fab.NumLinks())
		failAt := dur/4 + sim.Time(rng.Int63n(int64(dur/4)))
		healAt := failAt + sim.Time(rng.Int63n(int64(dur/4))) + 20*look
		eng.At(failAt, func() { fab.FailLink(lk) })
		eng.At(healAt, func() { fab.RestoreLink(lk) })
	}

	eng.OnBarrier(func(now sim.Time) {
		if err := net.CheckInvariants(); err != nil {
			t.Errorf("t=%d shards=%d: %v", now, shards, err)
		}
	})

	eng.Run(dur + 60*24*sim.Microsecond + 4*sim.Millisecond)

	if got := net.InFlight(); got != 0 {
		t.Fatalf("shards=%d: %d packets still in flight at drain", shards, got)
	}
	if err := net.CheckInvariants(); err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}

	var injected, delivered uint64
	seen := make(map[uint64]int)
	for _, rec := range recs {
		injected += uint64(len(rec.sent))
		delivered += uint64(len(rec.got))
		for _, id := range rec.got {
			seen[id]++
		}
		for i := 1; i < len(rec.got); i++ {
			if rec.got[i] <= rec.got[i-1] {
				t.Fatalf("shards=%d: flow %d->%d delivered %x after %x (reordered across migration)",
					shards, rec.src, rec.dst, rec.got[i], rec.got[i-1])
			}
		}
	}
	for _, id := range drops.ids {
		seen[id]++
	}
	for _, id := range discards.ids {
		seen[id]++
	}
	if uint64(len(seen)) != injected {
		t.Fatalf("shards=%d: %d distinct packet fates for %d injected", shards, len(seen), injected)
	}
	for id, cnt := range seen {
		if cnt != 1 {
			t.Fatalf("shards=%d: packet %x accounted %d times", shards, id, cnt)
		}
	}
	var tc netsim.TransportCounters
	net.ReadCounters(&tc)
	if tc.CellsDelivered+tc.FabricDrops != tc.CellsSent {
		t.Fatalf("shards=%d: cell leak: %d delivered + %d lost != %d sent",
			shards, tc.CellsDelivered, tc.FabricDrops, tc.CellsSent)
	}

	h := fnv.New64a()
	var buf [8]byte
	w := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, rec := range recs {
		w(uint64(len(rec.got)))
		for _, id := range rec.got {
			w(id)
		}
	}
	for _, id := range drops.sorted() {
		w(id)
	}
	for _, id := range discards.sorted() {
		w(id)
	}
	w(tc.CellsSent)
	w(tc.CellsDelivered)
	w(tc.CreditsSent)
	w(tc.CreditBytes)
	w(tc.VOQDrops)
	w(tc.ReasmTimeouts)
	w(tc.ShippedBytes)
	w(tc.DeliveredBytes)
	net.VisitQueues(func(q *netsim.Queue) {
		w(q.FwdBytes())
		w(q.Forwarded())
		w(q.Drops)
	})
	var lc [2]fabric.LinkCounters
	for i := 0; i < fab.NumLinks(); i++ {
		fab.ReadLinkCounters(i, &lc)
		for d := 0; d < 2; d++ {
			w(lc[d].FwdBytes)
			w(lc[d].FwdCells)
			w(lc[d].Drops)
		}
	}
	return transportOutcome{
		injected:  injected,
		delivered: delivered,
		dropped:   uint64(len(drops.ids)),
		discarded: uint64(len(discards.ids)),
		digest:    h.Sum64(),
	}, fab.Migrations()
}

// TestTransportRebalanceDeterminism: the hotspot transport program with
// adaptive rebalancing must produce byte-identical digests at shards
// {1, 2, 4}, and the multi-shard runs must actually migrate edge groups.
func TestTransportRebalanceDeterminism(t *testing.T) {
	seeds := []int64{9, 27}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ref, m1 := runTransportRebalance(t, seed, 1, 0)
			if m1 != 0 {
				t.Fatalf("single-shard run migrated %d times", m1)
			}
			for _, shards := range []int{2, 4} {
				got, m := runTransportRebalance(t, seed, shards, 0)
				if got != ref {
					t.Fatalf("shards=%d diverged from shards=1:\n  1: %v\n  %d: %v",
						shards, ref, shards, got)
				}
				if m == 0 {
					t.Fatalf("shards=%d: hotspot transport run never migrated", shards)
				}
			}
		})
	}
}

// TestTransportRebalanceUnderFailHeal: transport fate accounting (VOQ
// drops, reassembly discards, in-order delivery) must survive migrations
// interleaved with fabric link failures.
func TestTransportRebalanceUnderFailHeal(t *testing.T) {
	const seed = 33
	ref, _ := runTransportRebalance(t, seed, 1, 3)
	got, m := runTransportRebalance(t, seed, 4, 3)
	if got != ref {
		t.Fatalf("shards=4 diverged from shards=1 under fail/heal:\n  1: %v\n  4: %v", ref, got)
	}
	if m == 0 {
		t.Fatal("fail/heal transport run never migrated")
	}
}

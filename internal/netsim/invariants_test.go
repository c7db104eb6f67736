package netsim_test

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"stardust/internal/fabric"
	"stardust/internal/netsim"
	"stardust/internal/parsim"
	"stardust/internal/sim"
)

// Property/invariant harness for the Stardust transport:
// randomized host counts, traffic matrices and fail/heal programs drive
// raw packets through the full VOQ → credit → cell → reassembly pipeline,
// with every packet carrying a unique id so its fate (delivered in order,
// VOQ tail-drop, reassembly-timeout discard, queue drop) is accounted
// exactly. The same program runs at shards ∈ {1, 2, 4} and the canonical
// digests must be byte-identical — the transport extension of the fabric
// determinism contract, verified rather than assumed — and the loss-free
// variant is cross-checked against the single-simulator placement. The
// hotspot programs skew the load onto the low shards of the static cut:
// hosts, split-VOQ halves, credit loops and reassembly timers of the busy
// FAs share an event loop, and the digest must not show it.

// flowRec records one flow's deliveries. The terminal route hop runs
// pinned to the destination host's shard, so no locking is needed; the
// harness reads it only after the engine drains.
type flowRec struct {
	src, dst int
	sent     []uint64 // injected packet ids, in injection order
	got      []uint64 // delivered packet ids, in delivery order
}

// lockedIDs collects packet ids from hooks that fire on arbitrary shards
// (drops, discards); order is canonicalized by sorting before use.
type lockedIDs struct {
	mu  sync.Mutex
	ids []uint64
}

func (l *lockedIDs) record(p *netsim.Packet) {
	l.mu.Lock()
	l.ids = append(l.ids, uint64(p.Seq))
	l.mu.Unlock()
}

func (l *lockedIDs) sorted() []uint64 {
	out := append([]uint64(nil), l.ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// transportProgram is one randomized run: derived entirely from the seed,
// so every shard count executes the identical offered load and fail/heal
// schedule.
type transportProgram struct {
	seed     int64
	k        int
	hostsPer int
	flows    [][2]int // (src, dst) pairs
	packets  int      // per flow
	size     int      // packet bytes
	gap      sim.Time
	hot      int // the first hot flows send six times faster
	failN    int
	dur      sim.Time
}

func newProgram(seed int64) transportProgram {
	rng := rand.New(rand.NewSource(seed))
	k := 4
	hostsPer := 1 + rng.Intn(2) // 1 or 2 hosts per FA
	hosts := (k * k / 2) * hostsPer
	var flows [][2]int
	for src := 0; src < hosts; src++ {
		nDst := 1 + rng.Intn(2)
		for i := 0; i < nDst; i++ {
			flows = append(flows, [2]int{src, rng.Intn(hosts)}) // self allowed: hairpin path
		}
	}
	return transportProgram{
		seed:     seed,
		k:        k,
		hostsPer: hostsPer,
		flows:    flows,
		packets:  40 + rng.Intn(60),
		size:     512 + rng.Intn(9000),
		gap:      8 * sim.Microsecond,
		failN:    rng.Intn(4),
		dur:      sim.Time(1500) * sim.Microsecond,
	}
}

// hotspotProgram is the skewed program: one flow per host, to the host
// three further on, the sources on the first quarter of the FAs hot.
func hotspotProgram(seed int64, failN int) transportProgram {
	const k, hostsPer = 4, 2
	hosts := (k * k / 2) * hostsPer
	flows := make([][2]int, hosts)
	for src := range flows {
		flows[src] = [2]int{src, (src + 3) % hosts}
	}
	return transportProgram{
		seed:     seed,
		k:        k,
		hostsPer: hostsPer,
		flows:    flows,
		packets:  60,
		size:     2000,
		gap:      24 * sim.Microsecond,
		hot:      hosts / 4,
		failN:    failN,
		dur:      sim.Time(1500) * sim.Microsecond,
	}
}

// transportOutcome is the canonical result of one run: a deterministic
// function of (program, seed) alone, independent of the shard count.
type transportOutcome struct {
	injected  uint64
	delivered uint64
	dropped   uint64
	discarded uint64
	digest    uint64
}

func (o transportOutcome) String() string {
	return fmt.Sprintf("injected=%d delivered=%d dropped=%d discarded=%d digest=%016x",
		o.injected, o.delivered, o.dropped, o.discarded, o.digest)
}

// runTransportProperty executes the program on `shards` event loops,
// checks the per-run invariants, and returns the canonical outcome.
func runTransportProperty(t *testing.T, prog transportProgram, shards int) transportOutcome {
	t.Helper()
	cl, err := fabric.ClosFor(prog.k)
	if err != nil {
		t.Fatal(err)
	}
	look := sim.Microsecond
	eng := parsim.New(parsim.Config{Shards: shards, Lookahead: look})
	fcfg := fabric.DefaultConfig(netsim.Bps(10e9*1.05), look, prog.seed)
	fab, err := fabric.NewSharded(eng, fcfg, cl, nil)
	if err != nil {
		t.Fatal(err)
	}
	hosts := cl.NumFA * prog.hostsPer
	sdc := netsim.DefaultStardust(10e9, cl.FAUplinks, look)
	net, err := netsim.NewShardedStardustNet(fab, sdc, hosts, prog.hostsPer)
	if err != nil {
		t.Fatal(err)
	}

	drops := &lockedIDs{}    // VOQ tail-drops + NIC/port queue drops
	discards := &lockedIDs{} // §4.1 reassembly-timer discards
	net.OnVOQDrop = drops.record
	net.OnReasmDiscard = discards.record
	net.VisitQueues(func(q *netsim.Queue) { q.OnDrop = drops.record })

	recs := make([]*flowRec, len(prog.flows))
	for fi, f := range prog.flows {
		fi, f := fi, f
		rec := &flowRec{src: f[0], dst: f[1]}
		recs[fi] = rec
		route := append(net.Route(f[0], f[1]), netsim.HandlerFunc(func(p *netsim.Packet) {
			rec.got = append(rec.got, uint64(p.Seq))
			p.Release()
		}))
		sm := net.HostSim(f[0])
		rng := rand.New(rand.NewSource(prog.seed ^ int64(fi)*104729))
		gap := prog.gap
		if fi < prog.hot {
			gap /= 6
		}
		for i := 0; i < prog.packets; i++ {
			id := uint64(fi)<<32 | uint64(i+1)
			rec.sent = append(rec.sent, id)
			at := sim.Time(i)*gap + sim.Time(rng.Intn(4000))*sim.Nanosecond
			sm.AtLaneFunc(at, 0, func() {
				p := netsim.NewPacket()
				p.Size = prog.size
				p.Seq = int64(id)
				p.SetRoute(route)
				p.SendOn()
			})
		}
	}

	// Random fail/heal schedule in barrier context; every link heals well
	// before the drain horizon.
	rng := rand.New(rand.NewSource(prog.seed ^ 0x5d))
	for i := 0; i < prog.failN; i++ {
		lk := rng.Intn(fab.NumLinks())
		failAt := prog.dur/4 + sim.Time(rng.Int63n(int64(prog.dur/4)))
		healAt := failAt + sim.Time(rng.Int63n(int64(prog.dur/4))) + 20*look
		eng.At(failAt, func() { fab.FailLink(lk) })
		eng.At(healAt, func() { fab.RestoreLink(lk) })
	}

	// Credit conservation and byte-accounting identities at every barrier.
	eng.OnBarrier(func(now sim.Time) {
		if err := net.CheckInvariants(); err != nil {
			t.Errorf("t=%d shards=%d: %v", now, shards, err)
		}
	})

	// The credit loops re-arm forever, so the engine never goes quiet; run
	// to a horizon comfortably past the last injection plus reassembly
	// timeouts and control-plane latency.
	horizon := prog.dur + sim.Time(prog.packets)*prog.gap + 4*sim.Millisecond
	eng.Run(horizon)

	if got := net.InFlight(); got != 0 {
		t.Fatalf("shards=%d: %d packets still in flight at drain", shards, got)
	}
	if err := net.CheckInvariants(); err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}

	// Exact packet-fate accounting: the union of delivered, dropped and
	// discarded ids must be precisely the injected id set, each seen once.
	var injected, delivered uint64
	seen := make(map[uint64]int)
	for _, rec := range recs {
		injected += uint64(len(rec.sent))
		delivered += uint64(len(rec.got))
		for _, id := range rec.got {
			seen[id]++
		}
		// Per-VOQ in-order delivery: ids of one flow are injected in
		// ascending order and must arrive in ascending order (gaps from
		// discards allowed, reordering not).
		for i := 1; i < len(rec.got); i++ {
			if rec.got[i] <= rec.got[i-1] {
				t.Fatalf("shards=%d: flow %d->%d delivered %x after %x (reordered)",
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

	// Cell conservation: every cell handed to the fabric either reached
	// the destination adapter or is counted as a fabric loss.
	var tc netsim.TransportCounters
	net.ReadCounters(&tc)
	if tc.CellsDelivered+tc.FabricDrops != tc.CellsSent {
		t.Fatalf("shards=%d: cell leak: %d delivered + %d lost != %d sent",
			shards, tc.CellsDelivered, tc.FabricDrops, tc.CellsSent)
	}
	if uint64(len(discards.ids)) != tc.ReasmTimeouts {
		t.Fatalf("shards=%d: %d discard hooks vs %d counted timeouts", shards, len(discards.ids), tc.ReasmTimeouts)
	}

	// Canonical full-state digest: per-flow delivery sequences, sorted
	// drop/discard sets, transport counters, and every host queue's and
	// directed fabric link's counters.
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
	}
}

// TestTransportPropertyInvariants is the transport property suite:
// randomized programs, each run at shards {1, 4} (and once at 2),
// asserting credit conservation, per-VOQ in-order delivery, exact
// packet-fate accounting — and byte-identical digests across shard
// counts.
func TestTransportPropertyInvariants(t *testing.T) {
	seeds := []int64{1, 7, 42}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			prog := newProgram(seed)
			ref := runTransportProperty(t, prog, 1)
			got4 := runTransportProperty(t, prog, 4)
			if got4 != ref {
				t.Fatalf("shards=4 diverged from shards=1:\n  1: %v\n  4: %v", ref, got4)
			}
			if seed == seeds[0] {
				got2 := runTransportProperty(t, prog, 2)
				if got2 != ref {
					t.Fatalf("shards=2 diverged from shards=1:\n  1: %v\n  2: %v", ref, got2)
				}
			}
		})
	}
}

// The hotspot program must produce byte-identical digests at shards
// {1, 2, 4}. (This test and the next keep the names the CI history knows
// them by; nothing rebalances, see ROADMAP "Parked".)
func TestTransportRebalanceDeterminism(t *testing.T) {
	seeds := []int64{9, 27}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			sameAcrossShards(t, hotspotProgram(seed, 0))
		})
	}
}

// The same with three fabric links failing and healing under the hotspot:
// VOQ drops, reassembly discards and in-order delivery are accounted alike
// on every split.
func TestTransportRebalanceUnderFailHeal(t *testing.T) {
	sameAcrossShards(t, hotspotProgram(33, 3))
}

func sameAcrossShards(t *testing.T, prog transportProgram) {
	t.Helper()
	ref := runTransportProperty(t, prog, 1)
	for _, shards := range []int{2, 4} {
		if got := runTransportProperty(t, prog, shards); got != ref {
			t.Fatalf("shards=%d diverged from shards=1:\n  1: %v\n  %d: %v", shards, ref, shards, got)
		}
	}
}

// TestShardedTransportMatchesSolo cross-checks the two placements of the
// transport: every host on one bare Simulator over the solo per-link
// fabric (fabric.New: default-lane pipes, eager link completions) against
// four shards over the engine-built one. With no failures both must
// deliver every injected packet exactly once, per flow, in order, with no
// reassembly discard (the two fabrics break same-instant ties differently,
// so only the sets and per-flow order are comparable, not event
// interleavings).
func TestShardedTransportMatchesSolo(t *testing.T) {
	const seed = 11
	const k = 4
	const hostsPer = 2
	cl, err := fabric.ClosFor(k)
	if err != nil {
		t.Fatal(err)
	}
	hosts := cl.NumFA * hostsPer
	const packets = 60
	const size = 4000

	// run drives the same program through net — per-flow delivery logs
	// indexed by source host, each written only by its own flow's terminal
	// handler (pinned to one shard), so the slice-of-slices needs no locking.
	run := func(name string, net *netsim.StardustNet, advance func(sim.Time)) {
		got := make([][]uint64, hosts)
		for src := 0; src < hosts; src++ {
			src := src
			r := append(net.Route(src, (src+3)%hosts), netsim.HandlerFunc(func(p *netsim.Packet) {
				got[src] = append(got[src], uint64(p.Seq))
				p.Release()
			}))
			for i := 0; i < packets; i++ {
				id := uint64(src)<<32 | uint64(i+1)
				net.HostSim(src).AtLaneFunc(sim.Time(i)*10*sim.Microsecond, 0, func() {
					p := netsim.NewPacket()
					p.Size = size
					p.Seq = int64(id)
					p.SetRoute(r)
					p.SendOn()
				})
			}
		}
		advance(20 * sim.Millisecond)
		for src := range got {
			if len(got[src]) != packets {
				t.Fatalf("%s flow %d delivered %d of %d (drops %d, timeouts %d)",
					name, src, len(got[src]), packets, net.TotalDrops(), net.ReasmTimeouts())
			}
			for i, id := range got[src] {
				if want := uint64(src)<<32 | uint64(i+1); id != want {
					t.Fatalf("%s flow %d delivery %d: id %x, want %x", name, src, i, id, want)
				}
			}
		}
		if net.ReasmTimeouts() != 0 || net.TotalDrops() != 0 || net.InFlight() != 0 {
			t.Fatalf("%s loss-free run: %d timeouts, %d drops, %d in flight",
				name, net.ReasmTimeouts(), net.TotalDrops(), net.InFlight())
		}
		if err := net.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}

	fcfg := fabric.DefaultConfig(netsim.Bps(10e9*1.05), sim.Microsecond, seed)
	sdc := netsim.DefaultStardust(10e9, cl.FAUplinks, sim.Microsecond)

	s := sim.New()
	soloFab, err := fabric.New(s, fcfg, cl)
	if err != nil {
		t.Fatal(err)
	}
	solo, err := netsim.NewStardustNet(s, sdc, hosts, hostsPer)
	if err != nil {
		t.Fatal(err)
	}
	soloFab.OnDeliver = solo.DeliverCell
	solo.UseFabric(soloFab)
	run("single-simulator", solo, s.RunUntil)

	eng := parsim.New(parsim.Config{Shards: 4, Lookahead: sim.Microsecond})
	shFab, err := fabric.NewSharded(eng, fcfg, cl, nil)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := netsim.NewShardedStardustNet(shFab, sdc, hosts, hostsPer)
	if err != nil {
		t.Fatal(err)
	}
	run("4-shard", sh, eng.Run)
}

// TestSingleSimulatorFluidTrunkFates exercises what only the engine
// placement used to have — credit conservation (CheckInvariants) and the
// OnVOQDrop / OnReasmDiscard packet-fate hooks — on the single-simulator
// entry over its default fluid trunk: shallow VOQs tail-drop part of an
// incast, and a trunk too small for a cell loses every cell of what does
// ship, so the reassembly timer settles those. Every injected id must be
// accounted exactly once.
func TestSingleSimulatorFluidTrunkFates(t *testing.T) {
	cases := []struct {
		name       string
		trunkBytes int
		wantFate   string
	}{
		{"healthy", 1 << 20, "delivered"},
		{"trunk-loses-all", 256, "discarded"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			s := sim.New()
			cfg := netsim.DefaultStardust(10e9, 2, sim.Microsecond)
			cfg.VOQBytes = 4 * 9000
			cfg.TrunkBytes = tc.trunkBytes
			net, err := netsim.NewStardustNet(s, cfg, 4, 2)
			if err != nil {
				t.Fatal(err)
			}
			fate := map[int64]string{}
			settle := func(what string) func(*netsim.Packet) {
				return func(p *netsim.Packet) {
					if prev, dup := fate[p.Seq]; dup {
						t.Errorf("packet %d %s after being %s", p.Seq, what, prev)
					}
					fate[p.Seq] = what
				}
			}
			net.OnVOQDrop = settle("voq-dropped")
			net.OnReasmDiscard = settle("discarded")
			deliver := settle("delivered")
			// Three line-rate bursts converge on host 3's port (one from its
			// own FA): credits arrive at a third of the rate each 36000B
			// VOQ fills at.
			const burst, srcs = 12, 3
			for src := 0; src < srcs; src++ {
				route := append(net.Route(src, 3), netsim.HandlerFunc(func(p *netsim.Packet) {
					deliver(p)
					p.Release()
				}))
				for i := 1; i <= burst; i++ {
					p := netsim.NewPacket()
					p.Size = 9000
					p.Seq = int64(src*100 + i)
					p.SetRoute(route)
					p.SendOn()
				}
			}
			for step := 0; step < 20; step++ {
				s.RunUntil(s.Now() + 100*sim.Microsecond)
				if err := net.CheckInvariants(); err != nil {
					t.Fatalf("t=%d: %v", s.Now(), err)
				}
			}
			s.RunUntil(5 * sim.Millisecond)
			if err := net.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if got := net.InFlight(); got != 0 {
				t.Fatalf("%d packets still in flight at drain", got)
			}
			count := map[string]uint64{}
			for _, f := range fate {
				count[f]++
			}
			if len(fate) != burst*srcs {
				t.Fatalf("%d fates for %d packets: %v", len(fate), burst*srcs, count)
			}
			var c netsim.TransportCounters
			net.ReadCounters(&c)
			if count["voq-dropped"] == 0 || count["voq-dropped"] != c.VOQDrops {
				t.Fatalf("hook saw %d VOQ drops, counter %d (want > 0)", count["voq-dropped"], c.VOQDrops)
			}
			if count["discarded"] != c.ReasmTimeouts {
				t.Fatalf("hook saw %d discards, counter %d", count["discarded"], c.ReasmTimeouts)
			}
			if count[tc.wantFate] != burst*srcs-c.VOQDrops {
				t.Fatalf("want every admitted packet %s: %v", tc.wantFate, count)
			}
			if c.CellsDelivered+c.FabricDrops != c.CellsSent {
				t.Fatalf("cell leak: %d delivered + %d lost != %d sent", c.CellsDelivered, c.FabricDrops, c.CellsSent)
			}
		})
	}
}

// The Stardust transport: host packets enter a per-flow VOQ at their
// source Fabric Adapter, wait for credits from the destination port's
// scheduler, cross the fabric as cells and are reassembled in order at the
// destination adapter (§3.3, §4.1, Appendix G). Reassembled packets
// continue on their original route, so TCP endpoints plug in unchanged.
//
// There is one implementation and two placements of it. Over a
// parsim.Engine (NewShardedStardustNet) ownership follows the edge: every
// host — its NIC queue, egress port queue, credit scheduler and TCP
// endpoints — is pinned to the shard that owns its edge Fabric Adapter in
// the underlying sharded cell fabric. On one bare Simulator
// (NewStardustNet) every host lives on that simulator, which is its own
// lane scheduler, so the same code runs with nothing to cross. Either way
// a VOQ for the flow src→dst is split in two: the source half (ingress
// queue, credit balance, cell fragmentation) lives with src, the
// destination half (in-order reassembly stream, §4.1 timer) with dst.
//
// Three control flows connect the halves, each on its own event lane
// keyed by the ordered host pair so the execution order of same-instant
// events is a function of the traffic alone, never of the partitioning:
//
//   - requests   (src→dst): the VOQ advertises its backlog to the
//     destination port's credit scheduler after CtrlDelay;
//   - grants     (dst→src): the scheduler's credit reaches the VOQ after
//     CtrlDelay and releases packets as cells;
//   - ship notes (src→dst): each released packet's reassembly state
//     enters the destination's in-order delivery stream one link delay
//     after shipping — always before any of its cells can finish
//     crossing the fabric (minimum two hops), so the flight ring is
//     built in ship order on the owning shard.
//
// Cells themselves cross through a CellFabric. The same seed therefore
// yields byte-identical transport state at any shard count — the PR-4
// determinism contract extended to the transport; the invariant suite and
// the CI matrix verify it rather than assume it.
//
// The hot path allocates nothing in steady state: packets, cells and
// reassembly states come from the free list of the loop that runs them
// (FreeList), every control message reuses a pre-bound sim.Action and a
// prebuilt lane scheduler, and the per-shard counters are plain fields
// summed only in barrier context.
//
// Over a fabric that can count (a ShardedCellFabric), a cell's last hop is
// not an event: the fabric hands the cell to the destination adapter as a
// count where the hop is handed over (CellCounter), the adapter ticks the
// packet's outstanding bytes down and keeps the latest (time, lane) of its
// cells, and the last byte schedules one completion event at that key —
// the arrival the packet would have completed on. Hairpins and fabrics
// that do not count deliver by events (DeliverCell).
package netsim

import (
	"fmt"

	"stardust/internal/parsim"
	"stardust/internal/sched"
	"stardust/internal/sim"
)

// StardustConfig parameterizes the abstract Stardust model used in the
// §6.3 htsim comparison (Appendix G): 512B cells, 4KB credits, 3% credit
// speed-up, ingress VOQs at the source Fabric Adapter and a round-robin
// egress scheduler per destination port.
type StardustConfig struct {
	CellBytes   int     // cell size on the wire (512)
	CellHeader  int     // header bytes within each cell (8)
	CreditBytes int64   // credit quantum (4096)
	SpeedUp     float64 // credit rate / port rate (1.03)

	HostRate   Bps      // edge port rate (10G)
	TrunkRate  Bps      // aggregate uplink rate per Fabric Adapter
	LinkDelay  sim.Time // per-hop propagation
	FabricHops int      // hops across the fabric (4 in a 2-tier Clos)
	CtrlDelay  sim.Time // control-message (request/credit) one-way delay

	VOQBytes   int // per-VOQ ingress buffer (§3.3: MBs to GBs at the FA)
	NICBytes   int // host NIC queue into the source FA
	TrunkBytes int // trunk queue capacity
	PortBytes  int // egress port queue capacity
	// Egress watermarks (§4.1): the port's credit scheduler pauses above
	// PauseBytes and resumes below ResumeBytes, keeping the egress buffer
	// just full enough to ride through scheduling jitter.
	PauseBytes  int
	ResumeBytes int
	// ReasmTimeout is the destination adapter's reassembly timer (§4.1): a
	// packet whose cells stall the in-order delivery stream longer than
	// this (a cell lost to a failed link) is discarded so the stream can
	// resume. 0 disables discarding (safe only in loss-free fabrics).
	ReasmTimeout sim.Time
}

// DefaultStardust returns the Appendix G configuration for a fat-tree with
// uplinks aggregate uplink capacity per edge device.
func DefaultStardust(hostRate Bps, uplinks int, linkDelay sim.Time) StardustConfig {
	return StardustConfig{
		CellBytes:   512,
		CellHeader:  8,
		CreditBytes: 4096,
		SpeedUp:     1.03,
		HostRate:    hostRate,
		// The fabric runs with a small speed-up over the edge (§6.2 uses
		// 1.05), so the 3% credit speed-up cannot slowly flood the trunks.
		TrunkRate:   Bps(float64(hostRate) * float64(uplinks) * 1.05),
		LinkDelay:   linkDelay,
		FabricHops:  4,
		CtrlDelay:   2 * linkDelay,
		VOQBytes:    8 << 20, // the FA's deep ingress buffer absorbs bursts (§5.4)
		NICBytes:    2 << 20,
		TrunkBytes:  1 << 20,
		PortBytes:   100 * 9000,
		PauseBytes:  4 * 9000,
		ResumeBytes: 2 * 9000,
		// A few fabric RTTs: long enough that spraying skew never trips it,
		// short enough that a lost cell does not stall a stream visibly.
		ReasmTimeout: 500 * sim.Microsecond,
	}
}

// CellFabric is the fabric crossing for cells. Inject carries one cell
// from the source edge device to the destination edge device; the fabric
// hands delivered cells to the transport (DeliverCell, or the SetEgress
// endpoints of a ShardedCellFabric) and frees lost ones. Delivered and
// Drops count the cells that reached their destination adapter and the
// cells lost on the way (barrier context).
type CellFabric interface {
	Inject(c *Packet, srcFA, dstFA int)
	Delivered() uint64
	Drops() uint64
}

// ShardedCellFabric is the fabric surface the engine placement builds
// on: cell injection plus the shard-pinning contract of a fabric built
// with fabric.NewSharded. *fabric.Net implements it.
type ShardedCellFabric interface {
	CellFabric
	// Engine returns the parsim engine the fabric is partitioned over
	// (nil means the fabric is solo and cannot carry a sharded transport).
	Engine() *parsim.Engine
	// NumFA returns the number of edge Fabric Adapters the fabric fronts.
	NumFA() int
	// ShardOfFA returns the shard owning Fabric Adapter fa; Inject must be
	// called from that shard and SetEgress handlers run pinned to it.
	ShardOfFA(fa int) int
	// SetEgress installs the delivery endpoint of destination FA fa.
	SetEgress(fa int, h Handler)
	// Lanes returns the first event lane not used by the fabric; the
	// transport allocates its lanes from there up.
	Lanes() int32
	// LinkEpoch counts the link state changes so far. It changes only in
	// barrier context.
	LinkEpoch() uint64
	// SettleThrough is called on FA fa's shard by the event at (t, lane).
	// If a link has changed state since LinkEpoch was since, the cells
	// counted into fa (CellCounter) whose arrival is due, and the one
	// arriving at (t, lane), take effect: a cell whose wire is down at its
	// arrival is reported lost (LostCell). Otherwise no cell of a packet
	// shipped at since can have been lost, and it reads nothing else.
	SettleThrough(fa int, t sim.Time, lane int32, since uint64)
}

// CellCounter is a delivery endpoint that can take a cell's last hop as a
// count instead of an event: the Stardust transport's destination adapter
// on a ShardedCellFabric. The fabric asks it on the destination's event
// loop where the hop is handed over.
type CellCounter interface {
	Handler // cells that arrive by an event: hairpins, fabrics that do not count
	// CountCell counts c as arriving at (t, lane). True: the fabric keeps
	// c until that key is due and then frees it, or reports it lost if its
	// wire is down then.
	CountCell(c *Packet, t sim.Time, lane int32) bool
	// LostCell reports a counted cell whose wire was down at its arrival.
	LostCell(c *Packet)
}

// fluidTrunk is the Appendix G abstraction of the fabric and the
// CellFabric a single-simulator net starts with: the uplinks of each edge
// device are one fluid trunk queue into the fabric and one out of it
// (§5.3's measured near-perfect balancing), FabricHops of propagation
// apart.
type fluidTrunk struct {
	up, down []*Queue    // per edge device
	routes   [][]Handler // per (src, dst) edge pair: up trunk, pipe, down trunk, sink
}

func newFluidTrunk(s *sim.Simulator, cfg StardustConfig, edges int, sink Handler) *fluidTrunk {
	t := &fluidTrunk{}
	for e := 0; e < edges; e++ {
		t.up = append(t.up, NewQueue(s, fmt.Sprintf("sd-up%d", e), cfg.TrunkRate, cfg.TrunkBytes, 0))
		t.down = append(t.down, NewQueue(s, fmt.Sprintf("sd-dn%d", e), cfg.TrunkRate, cfg.TrunkBytes, 0))
	}
	pipe := NewPipe(s, sim.Time(cfg.FabricHops)*cfg.LinkDelay)
	for src := 0; src < edges; src++ {
		for dst := 0; dst < edges; dst++ {
			t.routes = append(t.routes, []Handler{t.up[src], pipe, t.down[dst], sink})
		}
	}
	return t
}

// Inject implements CellFabric.
func (t *fluidTrunk) Inject(c *Packet, srcFA, dstFA int) {
	c.SetRoute(t.routes[srcFA*len(t.up)+dstFA])
	c.SendOn()
}

// Delivered implements CellFabric: what the down trunks passed on.
func (t *fluidTrunk) Delivered() (d uint64) {
	for _, q := range t.down {
		d += q.Forwarded()
	}
	return d
}

// Drops implements CellFabric: trunk tail-drops (§5.5: must stay zero
// under credit pacing).
func (t *fluidTrunk) Drops() (d uint64) {
	for e := range t.up {
		d += t.up[e].Drops + t.down[e].Drops
	}
	return d
}

// sdShard is the per-shard slice of a StardustNet: the shard's event heap
// and free list plus the counters its hosts increment, so the hot path
// never writes a counter another shard's goroutine could be writing.
type sdShard struct {
	id   int
	sm   *sim.Simulator
	free *FreeList // the loop's: cells, packets and reassembly states

	cellsSent      uint64
	creditsSent    uint64
	creditBytes    uint64
	voqDrops       uint64
	reasmTimeouts  uint64
	shippedBytes   uint64 // cell bytes handed to the fabric (headers included)
	deliveredBytes uint64 // packet bytes released in order at the destination

	_ [2*sim.CacheLine - 80]byte // whole lines: see sim.CacheLine, TestShardCountersLayout
}

// TransportCounters is a point-in-time aggregate snapshot of a transport —
// the raw material of the management plane's barrier scrape.
type TransportCounters struct {
	CellsSent      uint64 `json:"cells_sent"`
	CellsDelivered uint64 `json:"cells_delivered"`
	CreditsSent    uint64 `json:"credits_sent"`
	CreditBytes    uint64 `json:"credit_bytes"`
	VOQDrops       uint64 `json:"voq_drops"`
	ReasmTimeouts  uint64 `json:"reasm_timeouts"`
	ShippedBytes   uint64 `json:"shipped_bytes"`
	DeliveredBytes uint64 `json:"delivered_bytes"`
	NICDrops       uint64 `json:"nic_drops"`
	PortDrops      uint64 `json:"port_drops"`
	FabricDrops    uint64 `json:"fabric_drops"`
}

// StardustNet is the Stardust transport substrate, placed on the shards
// of a parsim.Engine or on one Simulator (see the file comment). Route
// returns a five-hop shape TCP endpoints plug into unchanged.
//
// On an engine, topology mutation (Route, and therefore flow creation) is
// only legal in barrier context: before the engine first runs, from
// Engine.At controls, or from OnBarrier hooks; aggregate accessors carry
// the same caveat. A single Simulator is always in barrier context.
type StardustNet struct {
	Cfg StardustConfig

	eng      *parsim.Engine // nil: every host on one Simulator
	fab      CellFabric
	sfab     ShardedCellFabric // fab when it counts last hops (the engine placement), else nil
	hosts    int
	hostsPer int
	laneBase int32

	shards []*sdShard
	hostSh []int   // shard of each host
	hpipes []*Pipe // per host: intra-shard propagation hop

	hostUp []*Queue // per host: NIC into the source FA
	port   []*Queue // per host: egress port
	scheds []*sched.PortScheduler
	loops  []sdCreditLoop

	voqs    map[voqKey]*svoq   // barrier-context mutation only
	streams []map[int]*sstream // per dst host: src -> stream (dst shard reads)

	// OnVOQDrop and OnReasmDiscard observe ingress tail-drops and §4.1
	// reassembly-timer discards just before the packet is released — the
	// hooks that let the invariant harness account every packet's fate.
	// They run on the dropping host's shard and must only touch state that
	// is safe there (or be effectively serialized, as a sync'd recorder).
	OnVOQDrop      func(*Packet)
	OnReasmDiscard func(*Packet)
}

type voqKey struct {
	src, dst int // host indices
}

// NewStardustNet builds the substrate for hosts end hosts, hostsPer per
// edge device, with every host on the single event loop s. Cells cross
// the Appendix G fluid trunk until UseFabric installs another fabric.
func NewStardustNet(s *sim.Simulator, cfg StardustConfig, hosts, hostsPer int) (*StardustNet, error) {
	return newStardustNet(s, nil, cfg, hosts, hostsPer)
}

// NewShardedStardustNet builds the substrate over fab (a fabric built
// with fabric.NewSharded) for hosts end hosts, hostsPer per edge Fabric
// Adapter, each host on its adapter's shard. The fabric must span
// hosts/hostsPer FAs and its engine's lookahead must not exceed LinkDelay
// or CtrlDelay (every cross-shard flow needs at least one window of
// latency).
func NewShardedStardustNet(fab ShardedCellFabric, cfg StardustConfig, hosts, hostsPer int) (*StardustNet, error) {
	return newStardustNet(nil, fab, cfg, hosts, hostsPer)
}

// newStardustNet is the one constructor: placed over sfab's engine when
// sfab is non-nil, on s otherwise.
func newStardustNet(s *sim.Simulator, sfab ShardedCellFabric, cfg StardustConfig, hosts, hostsPer int) (*StardustNet, error) {
	if hosts < 2 || hostsPer < 1 || hosts%hostsPer != 0 {
		return nil, fmt.Errorf("netsim: bad stardust sizing %d/%d", hosts, hostsPer)
	}
	if cfg.CellBytes <= cfg.CellHeader {
		return nil, fmt.Errorf("netsim: cell too small")
	}
	numFA := hosts / hostsPer
	n := &StardustNet{
		Cfg:      cfg,
		hosts:    hosts,
		hostsPer: hostsPer,
		voqs:     make(map[voqKey]*svoq),
	}
	faShard := make([]int, numFA)
	if sfab == nil {
		// A solo fabric.New schedules nothing on lanes, so the pair lanes
		// number from 0.
		n.shards = []*sdShard{{sm: s, free: FreeListOf(s)}}
		n.fab = newFluidTrunk(s, cfg, numFA, HandlerFunc(n.DeliverCell))
	} else {
		eng := sfab.Engine()
		if eng == nil {
			return nil, fmt.Errorf("netsim: sharded transport needs a sharded fabric (fabric.NewSharded)")
		}
		if look := eng.Lookahead(); cfg.LinkDelay < look || cfg.CtrlDelay < look {
			return nil, fmt.Errorf("netsim: link delay %d / ctrl delay %d below engine lookahead %d",
				cfg.LinkDelay, cfg.CtrlDelay, look)
		}
		if got := sfab.NumFA(); got != numFA {
			return nil, fmt.Errorf("netsim: %d hosts / %d per FA needs %d FAs, fabric has %d",
				hosts, hostsPer, numFA, got)
		}
		n.eng, n.fab, n.sfab, n.laneBase = eng, sfab, sfab, sfab.Lanes()
		n.shards = make([]*sdShard, eng.Shards())
		for i := range n.shards {
			sm := eng.Shard(i).Sim()
			n.shards[i] = &sdShard{id: i, sm: sm, free: FreeListOf(sm)}
		}
		for fa := range faShard {
			faShard[fa] = sfab.ShardOfFA(fa)
			if faShard[fa] < 0 || faShard[fa] >= eng.Shards() {
				return nil, fmt.Errorf("netsim: fabric pinned FA %d to shard %d of %d", fa, faShard[fa], eng.Shards())
			}
		}
	}
	if int64(n.laneBase)+3*int64(hosts)*int64(hosts) >= int64(sim.DefaultLane) {
		return nil, fmt.Errorf("netsim: %d hosts exhaust the transport lane space", hosts)
	}
	n.hostSh = make([]int, hosts)
	n.hpipes = make([]*Pipe, hosts)
	n.hostUp = make([]*Queue, hosts)
	n.port = make([]*Queue, hosts)
	n.scheds = make([]*sched.PortScheduler, hosts)
	n.loops = make([]sdCreditLoop, hosts)
	n.streams = make([]map[int]*sstream, hosts)
	for h := 0; h < hosts; h++ {
		sh := n.shards[faShard[h/hostsPer]]
		n.hostSh[h] = sh.id
		n.hpipes[h] = NewPipe(sh.sm, cfg.LinkDelay)
		n.hostUp[h] = NewQueue(sh.sm, fmt.Sprintf("sd-nic%d", h), cfg.HostRate, cfg.NICBytes, 0)
		n.port[h] = NewQueue(sh.sm, fmt.Sprintf("sd-port%d", h), cfg.HostRate, cfg.PortBytes, 0)
		n.scheds[h] = sched.New(sched.Config{
			PortRateBps:     float64(cfg.HostRate),
			CreditBytes:     cfg.CreditBytes,
			SpeedupFraction: cfg.SpeedUp - 1,
		})
		n.streams[h] = make(map[int]*sstream)
		l := &n.loops[h]
		l.net, l.h, l.sh = n, h, sh
		l.tmr = sim.NewTimer(sh.sm)
		l.fn = l.tick
		l.tmr.Arm(n.scheds[h].CreditInterval(), l.fn)
	}
	if sfab == nil {
		return n, nil
	}
	for fa := 0; fa < numFA; fa++ {
		sfab.SetEgress(fa, sdSink{n})
	}
	return n, nil
}

// laneTo returns the lane scheduler that delivers from shard `from` onto
// shard `to`: a parsim port, or the one Simulator itself.
func (n *StardustNet) laneTo(from, to *sdShard) sim.LaneScheduler {
	if n.eng == nil {
		return to.sm
	}
	return n.eng.Shard(from.id).To(to.id)
}

// Engine returns the parsim engine the transport is placed over, nil for
// a single-simulator net.
func (n *StardustNet) Engine() *parsim.Engine { return n.eng }

// Hosts returns the number of end hosts.
func (n *StardustNet) Hosts() int { return n.hosts }

// HostSim returns the event heap host h is pinned to: schedule the host's
// endpoint work (TCP sources, sinks, injectors) here.
func (n *StardustNet) HostSim(h int) *sim.Simulator { return n.shards[n.hostSh[h]].sm }

// UseFabric routes cells through f instead of the fabric the net was
// built with. Install it before creating flows and point the fabric's
// delivery callback at DeliverCell.
func (n *StardustNet) UseFabric(f CellFabric) { n.fab = f }

// checkBarrier panics when multi-shard transport state is mutated outside
// barrier context — the misuse that would otherwise be a silent race.
func (n *StardustNet) checkBarrier() {
	if n.eng != nil && !n.eng.InBarrier() {
		panic("netsim: sharded transport topology must be changed in barrier context (before Run, Engine.At or OnBarrier)")
	}
}

// laneOf returns the event lane of one directed control flow for the host
// pair src→dst: kind 0 = request, 1 = grant, 2 = ship notification. Lanes
// are a function of the pair alone, so they are identical at every shard
// count, and each lane has exactly one sending entity.
func (n *StardustNet) laneOf(src, dst, kind int) int32 {
	return n.laneBase + int32(3*(src*n.hosts+dst)+kind)
}

// Route returns the forward route for a flow src -> dst: NIC queue,
// propagation, VOQ capture, then (after in-order reassembly at the
// destination) the egress port queue and a final propagation hop. The
// caller appends the receiving endpoint, which must live on dst's shard
// (HostSim(dst)). Barrier context only — it may create the pair's VOQ.
func (n *StardustNet) Route(src, dst int) []Handler {
	v := n.voq(src, dst)
	return []Handler{n.hostUp[src], n.hpipes[src], v, n.port[dst], n.hpipes[dst]}
}

// voq returns (creating on first use) the split VOQ of the pair src→dst.
func (n *StardustNet) voq(src, dst int) *svoq {
	k := voqKey{src: src, dst: dst}
	if v, ok := n.voqs[k]; ok {
		return v
	}
	n.checkBarrier()
	srcSh, dstSh := n.shards[n.hostSh[src]], n.shards[n.hostSh[dst]]
	st := &sstream{net: n, key: k, sh: dstSh, reasmTmr: sim.NewTimer(dstSh.sm)}
	st.reasmFn = st.deliver
	st.toSrc = n.laneTo(dstSh, srcSh)
	st.grantLane = n.laneOf(src, dst, 1)
	v := &svoq{
		net:      n,
		key:      k,
		sh:       srcSh,
		stream:   st,
		toDst:    n.laneTo(srcSh, dstSh),
		reqLane:  n.laneOf(src, dst, 0),
		shipLane: n.laneOf(src, dst, 2),
	}
	st.grantAct = sdGrant{v: v}
	st.reqAct = sdRequest{st: st}
	n.voqs[k] = v
	n.streams[dst][src] = st
	return v
}

// ReadCounters snapshots the aggregate transport counters into out.
// Barrier context only (the sums cross every shard).
func (n *StardustNet) ReadCounters(out *TransportCounters) {
	*out = TransportCounters{CellsDelivered: n.fab.Delivered(), FabricDrops: n.fab.Drops()}
	for _, sh := range n.shards {
		out.CellsSent += sh.cellsSent
		out.CreditsSent += sh.creditsSent
		out.CreditBytes += sh.creditBytes
		out.VOQDrops += sh.voqDrops
		out.ReasmTimeouts += sh.reasmTimeouts
		out.ShippedBytes += sh.shippedBytes
		out.DeliveredBytes += sh.deliveredBytes
	}
	for _, q := range n.hostUp {
		out.NICDrops += q.Drops
	}
	for _, q := range n.port {
		out.PortDrops += q.Drops
	}
}

// counters returns the aggregate snapshot; the convenience accessors
// below are cold-path wrappers so ReadCounters stays the single
// aggregation site.
func (n *StardustNet) counters() TransportCounters {
	var tc TransportCounters
	n.ReadCounters(&tc)
	return tc
}

// CellsSent counts cells handed to the fabric (barrier context only).
func (n *StardustNet) CellsSent() uint64 { return n.counters().CellsSent }

// CellsDelivered counts cells that reached their destination adapter
// (barrier context only).
func (n *StardustNet) CellsDelivered() uint64 { return n.counters().CellsDelivered }

// CreditsSent counts credit grants issued (barrier context only).
func (n *StardustNet) CreditsSent() uint64 { return n.counters().CreditsSent }

// VOQDrops counts ingress tail-drops (barrier context only).
func (n *StardustNet) VOQDrops() uint64 { return n.counters().VOQDrops }

// ReasmTimeouts counts §4.1 reassembly-timer discards (barrier context
// only).
func (n *StardustNet) ReasmTimeouts() uint64 { return n.counters().ReasmTimeouts }

// FabricDrops counts cells lost inside the fabric (§5.5: zero on a
// healthy fabric under credit pacing). Barrier context only.
func (n *StardustNet) FabricDrops() uint64 { return n.fab.Drops() }

// TotalDrops counts packet and cell losses across every Stardust queue,
// the VOQs and the fabric. Barrier context only.
func (n *StardustNet) TotalDrops() uint64 {
	tc := n.counters()
	return tc.FabricDrops + tc.VOQDrops + tc.NICDrops + tc.PortDrops
}

// VisitQueues visits every host-side queue (NIC then port, host order) —
// for drop hooks and aggregate statistics. Barrier context only.
func (n *StardustNet) VisitQueues(fn func(q *Queue)) {
	for _, q := range n.hostUp {
		fn(q)
	}
	for _, q := range n.port {
		fn(q)
	}
}

// InFlight counts packets the transport still holds: queued in VOQs or
// awaiting in-order delivery at a destination. Zero at drain means every
// injected packet's fate is settled. Barrier context only.
func (n *StardustNet) InFlight() int {
	total := 0
	for _, v := range n.voqs {
		total += v.q.len() + v.stream.flight.len()
	}
	return total
}

// CheckInvariants verifies the transport bookkeeping identities on every
// VOQ — most importantly credit conservation: every granted byte is
// accounted as shipped, owed (a negative balance) or forfeited on an
// empty queue.
// Barrier context only.
func (n *StardustNet) CheckInvariants() error {
	for k, v := range n.voqs {
		if v.granted != v.shippedB+v.credit+v.forfeited {
			return fmt.Errorf("netsim: voq %d->%d credit leak: granted %d != shipped %d + banked %d + forfeited %d",
				k.src, k.dst, v.granted, v.shippedB, v.credit, v.forfeited)
		}
		if v.credit > 0 {
			// grant() is the only place that adds credit and release()
			// spends it or forfeits the rest on the spot, so no balance is
			// ever banked: every packet ships from a grant.
			return fmt.Errorf("netsim: voq %d->%d banked credit %d", k.src, k.dst, v.credit)
		}
		var queued int64
		for i := 0; i < v.q.len(); i++ {
			queued += int64(v.q.at(i).Size)
		}
		if queued != v.bytes {
			return fmt.Errorf("netsim: voq %d->%d byte accounting drift: ring %d vs counter %d", k.src, k.dst, queued, v.bytes)
		}
	}
	return nil
}

// DeliverCell is the destination adapters' cell sink for a cell that
// arrives by an event — a hairpin, or any cell of a fabric that does not
// count last hops (the delivery callback of a solo CellFabric). It runs on
// the destination host's shard: tick the cell's packet's outstanding byte
// count down and complete the packet with its last byte. A packet's cells
// either all arrive by events or, hairpins aside, are all counted: a
// fabric decides per link before the run.
func (n *StardustNet) DeliverCell(c *Packet) {
	st, ok := c.Flow.(*sreasm)
	if !ok {
		return // foreign cell from a misbehaving fabric: not ours, not counted
	}
	st.remaining -= c.Size - n.Cfg.CellHeader
	st.stream.sh.free.Put(c)
	if st.remaining <= 0 {
		st.complete()
	}
}

// sdSink is the destination adapters' endpoint on a ShardedCellFabric:
// DeliverCell for a cell that arrives by an event, a count for one whose
// last hop the fabric hands over.
type sdSink struct{ n *StardustNet }

// Receive implements Handler.
func (k sdSink) Receive(c *Packet) { k.n.DeliverCell(c) }

// CountCell implements CellCounter: the cell's bytes are counted now and
// its arrival key kept if it is the packet's latest; the last byte
// schedules the completion at the latest key, in place of the arrival
// held there.
func (k sdSink) CountCell(c *Packet, t sim.Time, lane int32) bool {
	st, ok := c.Flow.(*sreasm)
	if !ok {
		return false
	}
	st.remaining -= c.Size - k.n.Cfg.CellHeader
	if !st.counted || t > st.lastAt || t == st.lastAt && lane > st.lastLane {
		st.counted, st.lastAt, st.lastLane = true, t, lane
	}
	if st.remaining <= 0 {
		st.stream.sh.sm.AtHeld(st.lastAt, st.lastLane, (*sreasmDone)(st), 0)
	}
	return true
}

// LostCell implements CellCounter: the cell's bytes are outstanding
// again, so its packet never completes and the reassembly timer discards
// it.
func (k sdSink) LostCell(c *Packet) {
	if st, ok := c.Flow.(*sreasm); ok {
		st.remaining += c.Size - k.n.Cfg.CellHeader
	}
}

// sreasm tracks one packet's cells at the destination adapter. It doubles
// as the ship notification's sim.Action: shipping schedules the state
// itself onto the destination shard, so entering the in-order stream
// allocates nothing; as a sreasmDone it is the completion event.
type sreasm struct {
	orig      *Packet
	remaining int
	stream    *sstream
	shippedAt sim.Time
	epoch     uint64 // the fabric's link-state epoch at shipping
	// The latest arrival key among the counted cells (counted: any).
	lastAt    sim.Time
	lastLane  int32
	counted   bool
	done      bool // all cells arrived, waiting for in-order delivery
	discarded bool // reassembly timer fired; late cells just drain
}

// Act implements sim.Action: the ship notification lands on the
// destination shard — enter the stream's flight ring in ship order.
func (st *sreasm) Act(uint64) { st.stream.enter(st) }

// getReasm returns a reassembly state from the loop's list; the caller
// sets every field.
func (l *FreeList) getReasm() *sreasm {
	n := len(l.reasm) - 1
	if n < 0 {
		return new(sreasm)
	}
	st := l.reasm[n]
	l.reasm[n] = nil
	l.reasm = l.reasm[:n]
	return st
}

// putReasm keeps st for getReasm.
func (l *FreeList) putReasm(st *sreasm) {
	st.orig, st.stream = nil, nil
	l.reasm = append(l.reasm, st)
}

// sreasmDone is a sreasm as its completion event: the arrival of the
// latest of its counted cells.
type sreasmDone sreasm

// Act implements sim.Action.
func (d *sreasmDone) Act(uint64) { (*sreasm)(d).complete() }

// complete runs at the packet's last arrival. If its cells were counted,
// the adapter's in-links are settled through this arrival first (a no-op
// unless a link changed state since the packet shipped), and a lost cell
// leaves the packet incomplete. A complete packet is released in order,
// or its state freed if the reassembly timer gave up on it already.
func (st *sreasm) complete() {
	s := st.stream
	if st.counted {
		s.net.sfab.SettleThrough(s.key.dst/s.net.hostsPer, st.lastAt, st.lastLane, st.epoch)
		if st.remaining > 0 {
			return
		}
	}
	if st.discarded {
		// The stragglers have all drained; the state can be reused.
		s.sh.free.putReasm(st)
		return
	}
	st.done = true
	s.deliver()
}

// sstream is the destination half of a split VOQ: the §4.1 in-order
// reassembly stream, owned by dst's shard. It also carries the pre-bound
// actions the pair needs on the destination side (request application,
// grant dispatch), so the hot path never allocates.
type sstream struct {
	net *StardustNet
	key voqKey
	sh  *sdShard

	flight ring[*sreasm]
	// reasmTmr keeps the §4.1 reassembly timer armed while packets are
	// outstanding: it is the only thing that can unwedge a head-of-line
	// packet whose cells were all lost (no later completion would ever
	// call deliver otherwise).
	reasmTmr *sim.Timer
	reasmFn  func()

	toSrc     sim.LaneScheduler
	grantLane int32
	grantAct  sdGrant
	reqAct    sdRequest
}

// enter adds a freshly shipped packet's state to the flight ring. Ship
// notifications arrive on the pair's ship lane in ship order, so the ring
// is ship-ordered on the owning shard. Cells of a hairpin (same-FA)
// packet can complete before the notification lands — deliver() handles
// a done head either way.
func (s *sstream) enter(st *sreasm) {
	s.flight.push(st)
	// deliver arms the reassembly timer for the blocked head (if any), so
	// entering needs no arm of its own.
	s.deliver()
}

// deliver releases completed packets in ship order (§4.1 in-order
// reassembly at the destination FA). A head-of-line packet whose cells
// were lost in the fabric would stall the stream forever, so it is
// discarded once it outlives the reassembly timer.
func (s *sstream) deliver() {
	n := s.net
	now := s.sh.sm.Now()
	for s.flight.len() > 0 {
		head := s.flight.peek()
		if head.done {
			s.flight.pop()
			orig := head.orig
			s.sh.deliveredBytes += uint64(orig.Size)
			s.sh.free.putReasm(head)
			orig.SendOn()
			continue
		}
		if n.Cfg.ReasmTimeout > 0 && now-head.shippedAt > n.Cfg.ReasmTimeout {
			s.flight.pop()
			head.discarded = true
			if h := n.OnReasmDiscard; h != nil {
				h(head.orig)
			}
			s.sh.free.Put(head.orig)
			head.orig = nil
			s.sh.reasmTimeouts++
			continue
		}
		break
	}
	// Re-arm for the blocked head's deadline so the discard fires even if
	// nothing else ever completes on this stream.
	if n.Cfg.ReasmTimeout > 0 && s.flight.len() > 0 && !s.reasmTmr.Armed() {
		head := s.flight.peek()
		s.reasmTmr.Arm(head.shippedAt+n.Cfg.ReasmTimeout-now+sim.Nanosecond, s.reasmFn)
	}
}

// sdRequest applies a VOQ's backlog advertisement at the destination
// scheduler; it executes on dst's shard with the backlog in the arg.
type sdRequest struct{ st *sstream }

// Act implements sim.Action.
func (r sdRequest) Act(backlog uint64) {
	st := r.st
	st.net.scheds[st.key.dst].Request(sched.Requester{SrcFA: uint16(st.key.src), TC: 0}, int64(backlog))
}

// sdGrant delivers a credit grant to the source VOQ; it executes on src's
// shard with the granted bytes in the arg.
type sdGrant struct{ v *svoq }

// Act implements sim.Action.
func (g sdGrant) Act(bytes uint64) { g.v.grant(int64(bytes)) }

// sdCreditLoop is one destination port's credit generator, owned by the
// port's shard. Each tick applies the §4.1 egress watermarks, asks the
// scheduler for the next grant and dispatches it toward the winning
// source VOQ on the pair's grant lane.
type sdCreditLoop struct {
	net *StardustNet
	h   int
	sh  *sdShard
	tmr *sim.Timer
	fn  func()
}

func (l *sdCreditLoop) tick() {
	n := l.net
	sc := n.scheds[l.h]
	if occ := n.port[l.h].Bytes(); occ > n.Cfg.PauseBytes {
		sc.Pause()
	} else if occ < n.Cfg.ResumeBytes {
		sc.Resume()
	}
	if c, ok := sc.NextCredit(); ok {
		// The stream table only changes in barrier context, so this read
		// is stable for the whole run.
		if st := n.streams[l.h][int(c.To.SrcFA)]; st != nil {
			l.sh.creditsSent++
			l.sh.creditBytes += uint64(c.Bytes)
			st.toSrc.AtLane(l.sh.sm.Now()+n.Cfg.CtrlDelay, st.grantLane, st.grantAct, uint64(c.Bytes))
		}
	}
	l.tmr.Arm(sc.CreditInterval(), l.fn)
}

// svoq is the source half of a split VOQ: it captures packets at the
// source Fabric Adapter until credits release them as cells (§3.3). Owned
// by src's shard.
type svoq struct {
	net *StardustNet
	key voqKey
	sh  *sdShard

	q     pktRing
	bytes int64

	// Credit bookkeeping; the identity granted == shippedB + credit +
	// forfeited is the conservation invariant CheckInvariants enforces.
	// Outside grant the balance is never positive: only a debt is carried.
	credit    int64
	granted   int64
	shippedB  int64
	forfeited int64

	stream   *sstream
	toDst    sim.LaneScheduler
	reqLane  int32
	shipLane int32
}

// Receive implements Handler: a packet arrives from the host NIC.
func (v *svoq) Receive(p *Packet) {
	if v.bytes+int64(p.Size) > int64(v.net.Cfg.VOQBytes) {
		v.sh.voqDrops++
		if h := v.net.OnVOQDrop; h != nil {
			h(p)
		}
		v.sh.free.Put(p)
		return // ingress tail-drop, as a ToR would (§3.1)
	}
	v.q.push(p)
	v.bytes += int64(p.Size)
	v.refreshRequest()
}

// refreshRequest advertises the current backlog to the destination port's
// scheduler after the control-plane delay, on the pair's request lane.
func (v *svoq) refreshRequest() {
	v.toDst.AtLane(v.sh.sm.Now()+v.net.Cfg.CtrlDelay, v.reqLane, v.stream.reqAct, uint64(v.bytes))
}

func (v *svoq) grant(bytes int64) {
	v.granted += bytes
	v.credit += bytes
	v.release()
	v.refreshRequest()
}

// release dequeues whole packets against the credit balance and ships
// them as cells across the fabric (§3.4 packing: the batch is fragmented
// as one unit; we account the cell-header tax on each cell).
func (v *svoq) release() {
	for v.credit > 0 && v.q.len() > 0 {
		p := v.q.pop()
		v.bytes -= int64(p.Size)
		v.credit -= int64(p.Size)
		v.shippedB += int64(p.Size)
		v.ship(p)
	}
	if v.q.len() == 0 && v.credit > 0 {
		// Unused credit on an empty VOQ is forfeited. A negative balance
		// (overdraft from shipping a packet larger than the final grant)
		// is kept as debt against future grants.
		v.forfeited += v.credit
		v.credit = 0
	}
}

// ship fragments one packet into cells and injects them into the fabric
// from the source FA's shard; the reassembly state itself is the ship
// notification scheduled onto the destination's shard. Cells and state
// come from the source shard's free list. Nothing here keeps a cell once
// it is injected: all a cell's packet needs is the state its Flow names,
// so a cell crosses a shard cut by value, Flow and all (parsim.Value),
// like a raw fabric cell, and stays on the shard that took it.
func (v *svoq) ship(p *Packet) {
	n := v.net
	payload := n.Cfg.CellBytes - n.Cfg.CellHeader
	st := v.sh.free.getReasm()
	*st = sreasm{orig: p, remaining: p.Size, stream: v.stream, shippedAt: v.sh.sm.Now()}
	if n.sfab != nil {
		st.epoch = n.sfab.LinkEpoch()
	}
	// The notification beats every cell: a cell needs at least two fabric
	// hops (or, on the hairpin path, arrives at the same instant but on
	// the earlier fabric lane, which enter/deliver tolerate).
	v.toDst.AtLane(st.shippedAt+n.Cfg.LinkDelay, v.shipLane, st, 0)
	srcFA, dstFA := v.key.src/n.hostsPer, v.key.dst/n.hostsPer
	for sent := 0; sent < p.Size; sent += payload {
		chunk := payload
		if sent+chunk > p.Size {
			chunk = p.Size - sent
		}
		c := v.sh.free.Get()
		c.Size = chunk + n.Cfg.CellHeader
		c.Flow = st
		v.sh.cellsSent++
		v.sh.shippedBytes += uint64(c.Size)
		n.fab.Inject(c, srcFA, dstFA)
	}
}

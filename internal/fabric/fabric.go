// Package fabric is the topology-faithful cell fabric: every device of a
// topo.Graph is its own forwarding node, every serial link its own
// serialization queue + propagation pipe, and cells are sprayed per link
// at every hop with the §5.3 round-robin permutation arbiter
// (reach.Spreader). It replaces the abstract FabricHops-deep pipe of
// netsim's fluid Stardust model for experiments that need per-link load
// balance, hop-by-hop buffering or link failures: it implements
// netsim.CellFabric and netsim.ShardedCellFabric, so the Stardust
// transport substrate plugs in unchanged.
//
// There is one fabric, Net, and the topology is a parameter of it. A
// node holds, per destination edge device, the set of its ports that
// make progress toward it (descend) and one set of detour ports (climb).
// Forwarding is the up/down rule of §3.1: deliver when the cell is home,
// spray over the descend set when it is non-empty, otherwise spray over
// the climb set — but only while the cell has never descended (no
// valleys), so during reconvergence a mis-steered cell is discarded
// rather than looped: the paper's packet-discard window. The paper's
// Clos is simply the graph whose nodes are FAs (climb only), FE1s
// (descend to attached FAs, climb to the spine) and FE2s (descend only);
// Space Shuffle and star-replaced graphs publish no climb sets and route
// by descent alone. ModeECMP swaps the per-cell spray for a per-flow
// hash pick over the same candidate sets.
//
// What differs between topologies is only how the candidate sets are
// maintained when links fail and heal — the route policy (routes.go),
// chosen from the graph's type, never by a flag:
//
//   - a *topo.Clos runs the paper's reachability protocol (§5.8): every
//     FE keeps a reach.Table fed by per-link advertisements, failures are
//     detected locally at once (keepalive, §5.9) and an FE1's changed
//     reachable set reaches the spine tier Cfg.ReachDelay later as
//     reach.Messages — the protocol Appendix E sizes. It needs the
//     two-tier up/down shape: "what I reach" is well-defined because an
//     FE1's down links lead to FAs and only its up links to spines, so
//     advertisements flow strictly upward and cannot count to infinity;
//   - every other graph has no such orientation, so the adjacent devices
//     prune the dead port at once and the full tables are recomputed from
//     Graph.Routes over the live mask Cfg.ReachDelay later — the same
//     convergence lag without inventing a per-graph protocol.
//
// A fabric runs on one sim.Simulator (New) or partitioned across the
// shards of a parsim.Engine (NewSharded), and its links are wired the
// same way on both: a solo fabric's cells run the events they run on a
// one-shard engine (only the route policy's delayed control is scheduled
// without one, see routes.go). Every node's events run on its owning
// shard, cells cross shard cuts through conservative-lookahead mailboxes,
// and every link delivery is ordered by the directed link's own event
// lane, so the execution order of same-instant events at any node is a
// function of the topology alone and results are byte-identical for every
// shard count. Link administration mutates nodes on several shards and
// therefore runs in barrier context, quantized to window boundaries — a
// function of the lookahead alone.
//
// A cell never leaves its shard. The wire of a link that crosses a cut
// hands the cell's value to the mailbox (parsim.Value) and the packet back
// to the sending shard's free list; the receiving shard's lander (land)
// takes a packet from its own list, or none for a last hop it only counts.
// That is the one representation of a crossing cell: a distributed peer
// encodes and decodes the same value (distcodec.go). Nothing one shard
// writes inside a window shares a cache line with another shard's state:
// shard counters, nodes, egresses, injectors and links are padded to whole
// lines, and a link's receiver-written half starts a line of its own.
//
// The per-cell hot path allocates nothing: cells are netsim.Packets
// recycled through each shard's event loop's netsim.FreeList (an Injector
// and the Stardust transport take them from it; a delivery with no
// endpoint installed and every drop inside the fabric return them), the
// lists of a sharded fabric are evened out at every barrier
// (netsim.EvenFreeLists), every directed link's route is prebuilt once,
// spreader reshuffles are in place, and forwarding state lives in the
// node's two spreaders (held by value): each owns its group's candidate
// sets as bitmaps over port slots, which ECMP and the route policy read
// and write, and again over positions of its current permutation, which
// is all a spray decision reads — a shift and a trailing-zero count. The
// route policy writes through the spreaders, which re-derive a position
// set when its set is written and every set at a reshuffle; a reach.Table
// is never read by the forwarding path. The fabric counts what each edge
// device receives, cells and bytes (Delivered, DeliveredTo), whatever
// endpoint it hands them to.
//
// Where an edge device only counts — no endpoint (SetEgress), or one that
// counts too (netsim.CellCounter), and no OnDeliver, no OnCellDrop — a
// cell's last hop is not an event either. The link into the device
// records the cell where it is handed over: at the sender's hand-over
// when both ends share a shard, where the cell lands when the link
// crosses a cut. The receiving shard holds the arrival's
// instant (sim.Hold), and the counters take the record once sim.Due says
// the arrival would have run — when they are read, and before the link's
// state changes, so a cell on a wire that fails is the same dead drop it
// would have been. With no endpoint the link keeps only (arrival, size),
// and the cell goes back to the receiver's free list at once — or, landing
// from a cut, never takes a packet. An
// endpoint that counts is asked first (CountCell) and the link keeps the
// cell itself until it is due, so that a cell whose wire is down by then
// is reported lost to it (LostCell). Every change of a link's state bumps
// LinkEpoch: an endpoint that must know its cells' fates by a given
// arrival settles its links (SettleThrough), which is a no-op while no
// link has changed since the epoch it names. Hairpins and endpoints that
// cannot count keep the event.
//
// A paced cell is an event only at the head of its train. On an engine,
// an Injector at an edge device of a Clos — an FA relays nothing, and
// nothing else feeds it — injects in one event every cell due before the
// window's end, each admitted to its first link's queue as of its own
// instant (netsim.Queue.ReceiveAt) and counted as the event it would have
// been (sim.Elide). The window's end bounds the train because whatever
// could see its cells or change the device waits for it: a cell's next
// hop is an arrival a link delay, at least one lookahead, later, and link
// administration, route control and every cross-shard read run at the
// barrier. A hand-over event pending on one of the device's links ends a
// train before it. Devices that relay (Space Shuffle, star) and a fabric
// on a bare Simulator inject a cell an event.
package fabric

import (
	"fmt"
	"math/bits"

	"stardust/internal/netsim"
	"stardust/internal/parsim"
	"stardust/internal/reach"
	"stardust/internal/sim"
	"stardust/internal/stats"
	"stardust/internal/topo"
)

// reshuffleRounds is how many full traversals a spreader keeps one
// permutation before reshuffling (§5.3's anti-synchronization).
const reshuffleRounds = 64

// Config sizes the fabric's links and control plane.
type Config struct {
	LinkRate  netsim.Bps // per serial link (the paper runs the fabric ~5% over the edge)
	LinkDelay sim.Time   // per-hop propagation
	LinkBytes int        // per-link queue capacity
	// ReachDelay is the latency for a reachability change to take effect
	// beyond the devices adjacent to a failure (Appendix E's propagation
	// step).
	ReachDelay sim.Time
	Seed       int64
}

// DefaultConfig returns a fabric configuration for the given link speed
// and hop delay.
func DefaultConfig(rate netsim.Bps, delay sim.Time, seed int64) Config {
	return Config{
		LinkRate:   rate,
		LinkDelay:  delay,
		LinkBytes:  256 << 10,
		ReachDelay: 50 * sim.Microsecond,
		Seed:       seed,
	}
}

// ClosFor returns a two-tier Clos sized to front a k-ary fat-tree's
// edge. The sizing lives in topo.ClosForK — the single source of the
// K -> dimensions derivation shared by cmd binaries, distsim specs and
// telemetry headers, so two peers can never hash different models from
// the same flags.
func ClosFor(k int) (*topo.Clos, error) { return topo.ClosForK(k) }

// Fabric is the name bench/ spells the fabric by; there is one
// implementation.
type Fabric = *Net

// RouteMode selects how a node picks among its candidate ports.
type RouteMode int

const (
	// ModeSpray sprays per cell with the §5.3 round-robin permutation
	// arbiter — Stardust's load balancing.
	ModeSpray RouteMode = iota
	// ModeECMP picks one candidate per flow by deterministic hash — the
	// classic per-flow ECMP baseline the paper argues against.
	ModeECMP
)

// shardState is the per-shard slice of a Net: the shard's event heap, the
// free list its injectors take cells from and its egresses and drops return
// them to, and the counters its nodes increment. A solo fabric has exactly
// one; a sharded fabric has one per parsim shard, so the hot path never
// writes a counter or a list another shard's goroutine could be writing
// concurrently. Aggregate accessors (Injected, Drops, ...) sum across
// shards and are only meaningful when the fabric is quiescent: between
// runs in solo mode, in barrier context in sharded mode. The struct is one
// cache line exactly (see sim.CacheLine, TestShardStateLayout).
type shardState struct {
	id    int
	sm    *sim.Simulator
	cells *netsim.FreeList // the loop's (netsim.FreeListOf)

	injected     uint64
	deadDrops    uint64
	noRouteDrops uint64
	_            [sim.CacheLine - 48]byte
}

// link is one direction of a physical serial link: a serialization queue,
// the propagation crossing, and an arrival gate (the link itself) that
// loses cells when the link is down — cells already serialized into a
// failed link are lost on the wire, like the real thing. The queue lives
// on the sending node's shard; Receive runs on the receiving node's.
//
// The link owns its queue, its wire and its route, so a hop reads one
// object: forward hands the cell to the queue, the crossing is the queue's
// Wire, a LanePipe on the link's own lane, and the route is {link}: an
// idle link costs one kernel event per cell, the arrival (see
// netsim.Queue).
//
// A cell whose last hop this is may not need the arrival either (see the
// package comment): home names the edge device whose cells the link counts
// instead, held keeps the counted cells until they are due, and heldCells
// those an endpoint counted (counter).
//
// A link whose ends live on two shards is written by both: its queue by the
// sender, its held cells by the receiver. So the receiver's half starts a
// cache line of its own, and the link fills whole lines
// (TestLinkLayout); what both ends read is written only in barrier
// context.
type link struct {
	net     *Net
	sh      *shardState // receiving node's shard
	to      *node
	up      bool
	home    int32              // the far end's edge index while its cells are counted, else -1 (rehome)
	counter netsim.CellCounter // the far end's endpoint, while it counts the cells
	route   [1]netsim.Handler  // {link}: what a cell on the wire continues to
	wire    netsim.LanePipe

	// The sender's.
	q    netsim.Queue
	cut  parsim.Port      // a cut link's: the sender's port to the receiver
	keep *netsim.FreeList // a cut link's: the sender's list, where its cells stay
	_    [sim.CacheLine - 48]byte

	// The receiver's.
	held      fifo[arrival]
	heldCells fifo[heldCell]
	_         [sim.CacheLine - 16]byte
}

// arrivalEvents, set by tests only, delivers every cell by an event: the
// reference the counted arrivals are held to.
var arrivalEvents bool

// Receive implements netsim.Handler: the cell reaches the far end, which
// delivers it when it is home and forwards it otherwise.
func (l *link) Receive(c *netsim.Packet) {
	if !l.up {
		l.sh.deadDrops++
		l.net.dropCell(l.sh, c)
		return
	}
	if d := l.to; d.edge == c.Dst {
		d.eg.Receive(c)
	} else {
		d.forward(c, l.sh.sm.Now())
	}
}

// rehome decides whether cells on their last hop over l are counted (home
// is the far end's edge index) or delivered by an event (home is -1):
// counted while the far end's egress has no endpoint, or one that counts.
// A link whose ends share a shard is its own wire's scheduler while it
// counts, so the hand-over reaches AtLane; a cut link decides where its
// cells land (land).
func (l *link) rehome() {
	l.home, l.counter = -1, nil
	if e := l.to.edge; e >= 0 && !arrivalEvents {
		if eg := l.to.eg; eg.to == nil || eg.counter != nil {
			l.home, l.counter = e, eg.counter
		}
	}
	if l.q.Sim == l.sh.sm {
		l.wire.Sched = l.sh.sm
		if l.home >= 0 {
			l.wire.Sched = l
		}
	}
}

// Now implements sim.LaneScheduler for the wire of a link whose ends share
// a shard (see rehome).
func (l *link) Now() sim.Time { return l.sh.sm.Now() }

// AtLane implements sim.LaneScheduler: a cell handed to the wire for its
// last hop is counted and its instant held; anything else is scheduled.
func (l *link) AtLane(t sim.Time, lane int32, a sim.Action, arg uint64) {
	if c, ok := a.(*netsim.Packet); ok && c.Dst == l.home && l.count(c, t) {
		l.sh.sm.Hold(t, lane)
		return
	}
	l.sh.sm.AtLane(t, lane, a, arg)
}

// crossing is the wire of a link that crosses a shard cut, as its queue
// sees it: a cell handed to it crosses by value (parsim.Value), and the
// packet stays on the sending shard, back on its free list.
type crossing link

// Now implements sim.LaneScheduler.
func (x *crossing) Now() sim.Time { return x.cut.Now() }

// AtLane implements sim.LaneScheduler for a cell on the wire: the queue
// hands over nothing else.
func (x *crossing) AtLane(t sim.Time, lane int32, a sim.Action, _ uint64) {
	c := a.(*netsim.Packet)
	x.cut.AtValue(t, lane, c.Value())
	x.keep.Put(c)
}

// land is the arrival of a cell that crossed the cut as v, on the
// receiving shard, as its window begins (parsim.Engine.OnValue): counted
// for its instant if it only would be, with no packet at all when the
// far end has no endpoint; otherwise a packet from the receiver's own
// list, which arrives as any cell does.
func (l *link) land(t sim.Time, v parsim.Value) {
	sm, lane := l.sh.sm, l.wire.Lane
	if v.Dst == l.home && l.counter == nil && l.counts() {
		l.countArrival(t, int(v.Size))
		sm.Hold(t, lane)
		return
	}
	c := l.sh.cells.Get()
	c.SetValue(v)
	c.SetRoute(l.route[:])
	if v.Dst == l.home && l.count(c, t) {
		sm.Hold(t, lane)
		return
	}
	sm.AtLane(t, lane, c, 0)
}

// counts reports whether nothing would see a counted cell: the hooks are
// asked here rather than in rehome, because they are fields, set whenever
// the caller likes before the run.
func (l *link) counts() bool { return l.net.OnDeliver == nil && l.net.OnCellDrop == nil }

// count records c, arriving at t at its destination, for settle. With no
// endpoint c goes back to the receiver's free list at once; an endpoint
// that counts is asked first, and the link keeps c until it is due.
func (l *link) count(c *netsim.Packet, t sim.Time) bool {
	if !l.counts() {
		return false
	}
	if l.counter == nil {
		l.countArrival(t, c.Size)
		l.sh.cells.Put(c)
		return true
	}
	if !l.counter.CountCell(c, t, l.wire.Lane) {
		return false
	}
	if l.heldCells.full() {
		l.settle()
	}
	l.heldCells.push(heldCell{at: t, c: c})
	return true
}

// countArrival records a cell of size bytes that reaches an edge with no
// endpoint at t.
func (l *link) countArrival(t sim.Time, size int) {
	if l.held.full() {
		l.settle()
	}
	l.held.push(arrival{at: t, size: size})
}

// settle applies the counted cells whose arrival is due on the receiving
// shard, against the link's state: delivered while it is up, lost on the
// wire while it is down.
func (l *link) settle() { l.settleThrough(-1, -1) }

// settleThrough is settle that also applies the cell arriving at (t,
// lane), the key of the event running on the receiving shard: a cell an
// endpoint counted is freed, and reported lost if its wire is down.
func (l *link) settleThrough(t sim.Time, lane int32) {
	sm, eg := l.sh.sm, l.to.eg
	for r := &l.held; r.n > 0; r.pop() {
		a := r.peek()
		if !sm.Due(a.at, l.wire.Lane) {
			break
		}
		if !l.up {
			l.sh.deadDrops++
			continue
		}
		eg.cells++
		eg.bytes += uint64(a.size)
	}
	for r := &l.heldCells; r.n > 0; r.pop() {
		h := r.peek()
		if !sm.Due(h.at, l.wire.Lane) && (h.at != t || l.wire.Lane != lane) {
			break
		}
		if !l.up {
			l.sh.deadDrops++
			l.counter.LostCell(h.c)
		} else {
			eg.cells++
			eg.bytes += uint64(h.c.Size)
		}
		l.sh.cells.Put(h.c)
	}
}

// arrival is a counted cell of an edge with no endpoint: its arrival
// instant and size (16 bytes).
type arrival struct {
	at   sim.Time
	size int
}

// heldCell is a cell an endpoint counted, kept until its arrival.
type heldCell struct {
	at sim.Time
	c  *netsim.Packet
}

// fifo is a FIFO of counted cells in a power-of-two ring. It is settled
// when it is full, and grows only if nothing in it is due: to the most
// cells one link ever has counted ahead of their arrival.
type fifo[T any] struct {
	buf  []T
	head int
	n    int
}

// full reports that the ring has no room for push.
func (r *fifo[T]) full() bool { return r.n == len(r.buf) }

// push appends v, growing the ring if it is full.
func (r *fifo[T]) push(v T) {
	if r.full() {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// peek returns the oldest entry of a ring that has one.
func (r *fifo[T]) peek() T { return r.buf[r.head] }

// pop drops the oldest entry of a ring that has one.
func (r *fifo[T]) pop() {
	var zero T
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
}

func (r *fifo[T]) grow() {
	buf := make([]T, max(8, 2*len(r.buf)))
	for i := range r.n {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf, r.head = buf, 0
}

// egress terminates cells at their destination edge device and counts
// them: it runs on its device's shard, so in a distributed run only the
// device's owner accumulates real counts. in lists the links into the
// device, whose counted cells settle adds to cells and bytes. It fills
// whole cache lines: the egresses of two shards' edges are allocated one
// after the other.
type egress struct {
	net     *Net
	sh      *shardState
	to      netsim.Handler     // optional per-edge endpoint (SetEgress)
	counter netsim.CellCounter // to, when it can count its cells
	in      []*link
	cells   uint64
	bytes   uint64
	_       [2*sim.CacheLine - 88]byte
}

// settle applies the due counted cells of every link into the device.
func (e *egress) settle() {
	for _, l := range e.in {
		l.settle()
	}
}

// Receive implements netsim.Handler.
func (e *egress) Receive(c *netsim.Packet) {
	e.cells++
	e.bytes += uint64(c.Size)
	if e.to != nil {
		e.to.Receive(c)
		return
	}
	if fn := e.net.OnDeliver; fn != nil {
		fn(c)
		return
	}
	e.sh.cells.Put(c)
}

// portRef locates a port inside its node's port group.
type portRef struct {
	climb bool
	slot  int
}

// node is one device of the graph. Its ports fall into two groups fixed
// at build time: the climb group (the intact graph's climb set) and the
// descend group (every other port; a port may not be in both). Each
// group has its own spreader, sized over that group alone and held by
// value, and the spreader owns the group's candidate sets: sprDown one
// per destination edge (the descend sets), sprUp one, key 0 (the climb
// set). The route policy keeps them current by writing through the
// spreaders; a group of no ports is an empty spreader. A node is written
// by its shard on every cell it forwards (the spreaders' cursors), and the
// nodes of two shards are allocated one after the other: it fills whole
// cache lines.
type node struct {
	// What forwarding a cell reads, first.
	edge    int32 // edge index, -1 for pure transit nodes
	ecmp    bool  // ModeECMP (see SetMode)
	sprDown reach.Spreader[*link]
	sprUp   reach.Spreader[*link]

	net  *Net
	sh   *shardState
	id   int
	eg   *egress   // edge nodes: where cells addressed to this device end
	port []portRef // per port: where it sits in down or up
	down []*link   // descend group, by slot; nil entry when the port is unwired
	up   []*link   // climb group, by slot
	_    [sim.CacheLine - 32]byte
}

// forward sends c, not home, on as of t (the clock, or later for an
// Injector's train) by the up/down rule — descend beats climb (shortest
// path), and a cell that already descended must not climb again — and
// returns the link it took: nil when none leads on and c is discarded.
func (d *node) forward(c *netsim.Packet, t sim.Time) *link {
	var l *link
	var ok bool
	if d.ecmp {
		l, ok = d.pickECMP(c)
	} else if l, ok = d.sprDown.Next(int(c.Dst)); ok {
		c.Down = true
	} else if !c.Down {
		l, ok = d.sprUp.Next(0)
	}
	if !ok {
		d.noRoute(c)
		return nil
	}
	c.SetRoute(l.route[:])
	l.q.ReceiveAt(c, t)
	return l
}

// pickECMP picks c's next link by the same rule over the same candidate
// sets, one candidate per flow.
func (d *node) pickECMP(c *netsim.Packet) (*link, bool) {
	h := ecmpHash(d.id, c.Seq)
	if down := pickNth(d.sprDown.Links(int(c.Dst)), h); down >= 0 {
		c.Down = true
		return d.down[down], true
	}
	if !c.Down {
		if up := pickNth(d.sprUp.Links(0), h); up >= 0 {
			return d.up[up], true
		}
	}
	return nil, false
}

// noRoute discards a cell with no live next hop.
func (d *node) noRoute(c *netsim.Packet) {
	d.sh.noRouteDrops++
	d.net.dropCell(d.sh, c)
}

// ecmpHash mixes (device, flow id) into a uniform 64-bit value — a
// splitmix64 finalizer, deterministic everywhere.
func ecmpHash(node int, seq int64) uint64 {
	x := uint64(node)<<32 ^ uint64(seq)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// pickNth returns the (h mod |set|)-th member of set in ascending order,
// -1 when set is empty: the ECMP choice among the live candidates.
func pickNth(set reach.Bitmap, h uint64) int {
	n := set.Count()
	if n == 0 {
		return -1
	}
	k := int(h % uint64(n))
	for w, word := range set {
		if c := bits.OnesCount64(word); k >= c {
			k -= c
			continue
		}
		for ; k > 0; k-- {
			word &= word - 1
		}
		return w*64 + bits.TrailingZeros64(word)
	}
	return -1
}

// Net owns every node and directed link of one topo.Graph instance.
type Net struct {
	Cfg  Config
	Sim  *sim.Simulator // solo event heap; shard 0's heap when sharded
	Topo topo.Graph

	routes routePolicy

	eng    *parsim.Engine // nil in solo mode
	shards []*shardState  // len 1 in solo mode
	epoch  uint64         // link state changes so far (LinkEpoch)

	nodes  []*node
	edges  []*node // per edge device: its node
	wiring []topo.GraphLink
	// links holds both directions of every topology link: 2i is A->B,
	// 2i+1 is B->A.
	links   []*link
	adminUp []bool             // per topology link, in Graph.Routes' input shape
	hairpin [][]netsim.Handler // per edge: local switching path (src == dst)
	sources []int              // per edge: the Injectors built there

	// OnDeliver receives every cell that reaches its destination edge and
	// owns it (must forward it or free it). When nil, delivered cells go
	// back to the free list. In sharded mode it runs on the destination's
	// shard, so it must only touch per-edge state — prefer SetEgress there.
	OnDeliver func(*netsim.Packet)

	// OnCellDrop, when non-nil, observes every cell the fabric drops
	// (failed link, no live route) just before it is freed, so a
	// harness can account the fate of every injected cell. It does not see
	// link-queue tail drops; install netsim Queue.OnDrop hooks (via
	// VisitQueues) for those. In sharded mode it is called from the
	// dropping node's shard and must be safe for concurrent use.
	OnCellDrop func(*netsim.Packet)

	// OnLinkState, when non-nil, observes every administrative state
	// change of a topology link (FailLink/RestoreLink), at the sim time
	// the adjacent devices detect it (keepalive, §5.9). The management
	// plane's event bus hangs off this hook.
	OnLinkState func(link int, up bool)
	// OnReachUpdate, when non-nil, observes every delayed reachability
	// change taking effect: node is the device whose advertised set
	// changed (an FE1 whose withdrawal or readvertisement lands on the
	// spine tier; any node whose routable destination count moved on a
	// recomputed graph), reachable the edge devices it now reaches. In
	// sharded mode it is invoked in barrier context, in deterministic
	// (time, node) order.
	OnReachUpdate func(node int, reachable int)
}

// New builds all nodes and links of g on the single event loop s, wired
// exactly as a one-shard NewSharded: the same events run in the same order.
func New(s *sim.Simulator, cfg Config, g topo.Graph) (*Net, error) {
	return build(cfg, g, []*shardState{{sm: s, cells: netsim.FreeListOf(s)}}, nil, nil)
}

// ShardCount resolves a requested shard count against the graph it is to
// cut: 0 means one, and a fabric has no more shards than devices. Whoever
// builds an engine for a fabric from a number that came from outside the
// program — a parameter, a request, a peer's handshake — asks here first:
// an engine allocates shards² mailboxes.
func ShardCount(requested int, g topo.Graph) (int, error) {
	if requested < 0 || requested > g.NumNodes() {
		return 0, fmt.Errorf("fabric: %d shards: must be in [1, %d], the devices of the graph (0 means 1)", requested, g.NumNodes())
	}
	return max(requested, 1), nil
}

// NewSharded builds the fabric across the shards of eng, cut by
// Partition: a deterministic function of (graph, shard count), so two
// runs at the same shard count always cut the same links. assign must be
// nil: it is kept only for callers that still pass it. The engine's
// lookahead must not exceed the link delay (a cell crossing a cut link
// must arrive at least one window later) and the reach delay must be at
// least two lookaheads (build + deliver).
func NewSharded(eng *parsim.Engine, cfg Config, g topo.Graph, assign []int) (*Net, error) {
	if assign != nil {
		return nil, fmt.Errorf("fabric: a custom shard assignment is not supported; pass nil")
	}
	if eng.Lookahead() > cfg.LinkDelay {
		return nil, fmt.Errorf("fabric: engine lookahead %d exceeds link delay %d", eng.Lookahead(), cfg.LinkDelay)
	}
	if cfg.ReachDelay < 2*eng.Lookahead() {
		return nil, fmt.Errorf("fabric: reach delay %d below two lookaheads (%d)", cfg.ReachDelay, 2*eng.Lookahead())
	}
	shards := make([]*shardState, eng.Shards())
	lists := make([]*netsim.FreeList, len(shards))
	for i := range shards {
		sm := eng.Shard(i).Sim()
		lists[i] = netsim.FreeListOf(sm)
		shards[i] = &shardState{id: i, sm: sm, cells: lists[i]}
	}
	n, err := build(cfg, g, shards, Partition(g, eng.Shards()), eng)
	if err != nil {
		return nil, err
	}
	// A cell crosses a cut by value and lands on its link.
	eng.OnValue(func(t sim.Time, lane int32, v parsim.Value) { n.links[lane].land(t, v) })
	if len(lists) > 1 {
		// A shard that delivers more cells than it injects would hoard
		// them while its neighbours allocate: even the lists out.
		eng.OnBarrier(func(sim.Time) { netsim.EvenFreeLists(lists) })
	}
	return n, nil
}

// Partition cuts the nodes of g into n shards along its traffic. Each
// tier starts in contiguous index blocks, one per shard, so every shard
// holds its share of every tier to within one node — the edge devices
// source and sink every cell, the interior tiers forward it. Then, while
// swapping two nodes of one tier between their shards cuts fewer links,
// the best such partner of each node in turn is swapped with it; a swap
// keeps every shard's count of every tier. On a two-shard Clos this moves
// every FA to the pod of its uplinks (all of FA i's land on one half of
// the FE1s, chosen by the parity of i), so no FA–FE1 link is cut. The
// result is a deterministic function of (g, n) alone.
func Partition(g topo.Graph, n int) []int {
	tiers := make([][]int, g.NumTiers()) // each tier's nodes, ascending
	for i := 0; i < g.NumNodes(); i++ {
		t := g.Node(i).Tier
		tiers[t] = append(tiers[t], i)
	}
	out := make([]int, g.NumNodes())
	for _, tier := range tiers {
		for r, v := range tier {
			out[v] = r * n / len(tier)
		}
	}
	nbrs := make([][]int, g.NumNodes()) // one entry per link: parallel links repeat
	for _, lk := range g.GraphLinks() {
		nbrs[lk.A] = append(nbrs[lk.A], lk.B)
		nbrs[lk.B] = append(nbrs[lk.B], lk.A)
	}
	in := make([][]int, len(out)) // in[v][s]: v's links into shard s
	for v, ns := range nbrs {
		in[v] = make([]int, n)
		for _, u := range ns {
			in[v][out[u]]++
		}
	}
	move := func(v, to int) {
		for _, u := range nbrs[v] {
			in[u][out[v]]--
			in[u][to]++
		}
		out[v] = to
	}
	for swapped := true; swapped; {
		swapped = false
		for _, tier := range tiers {
			for i, u := range tier {
				a := out[u]
				best, bestGain := -1, 0
				for _, v := range tier[i+1:] {
					b := out[v]
					if b == a {
						continue
					}
					// The in-counts take a link between u and v for one the
					// swap joins, on both sides; it stays cut.
					gain := in[u][b] - in[u][a] + in[v][a] - in[v][b]
					if gain <= bestGain {
						continue
					}
					for _, w := range nbrs[u] {
						if w == v {
							gain -= 2
						}
					}
					if gain > bestGain {
						best, bestGain = v, gain
					}
				}
				if best >= 0 {
					b := out[best]
					move(u, b)
					move(best, a)
					swapped = true
				}
			}
		}
	}
	return out
}

// build wires nodes and links. shards is the shard table (one entry in
// solo mode), assign maps nodes onto it (nil in solo mode), eng is the
// parsim engine or nil.
func build(cfg Config, g topo.Graph, shards []*shardState, assign []int, eng *parsim.Engine) (*Net, error) {
	if cfg.LinkRate <= 0 || cfg.LinkBytes <= 0 {
		return nil, fmt.Errorf("fabric: need positive link rate and capacity")
	}
	if err := topo.ValidateGraph(g); err != nil {
		return nil, err
	}
	n := &Net{
		Cfg:    cfg,
		Sim:    shards[0].sm,
		Topo:   g,
		eng:    eng,
		shards: shards,
		wiring: g.GraphLinks(),
	}
	n.adminUp = make([]bool, len(n.wiring))
	for i := range n.adminUp {
		n.adminUp[i] = true
	}
	n.routes = newRoutePolicy(n)

	// Nodes, in node order.
	descend, climb := g.Routes(n.adminUp)
	edgeOf := topo.EdgeOfNode(g)
	numEdge := g.NumEdge()
	n.nodes = make([]*node, g.NumNodes())
	n.edges = make([]*node, numEdge)
	for i := range n.nodes {
		sh := shards[0]
		if assign != nil {
			sh = shards[assign[i]]
		}
		d := &node{net: n, sh: sh, id: i, edge: int32(edgeOf[i]), port: make([]portRef, g.Node(i).Ports)}
		if d.edge >= 0 {
			n.edges[d.edge] = d
		}
		for _, p := range climb[i] {
			d.port[p].climb = true
		}
		for e, ports := range descend[i] {
			for _, p := range ports {
				if d.port[p].climb {
					return nil, fmt.Errorf("fabric: %s port %d both climbs and descends toward edge %d", g.Node(i).Name, p, e)
				}
			}
		}
		nDown, nUp := 0, 0
		for p := range d.port {
			if d.port[p].climb {
				d.port[p].slot = nUp
				nUp++
			} else {
				d.port[p].slot = nDown
				nDown++
			}
		}
		d.down, d.up = make([]*link, nDown), make([]*link, nUp)
		n.nodes[i] = d
	}

	// Lanes: directed links, then the route policy's lanes, then hairpins.
	n.hairpin = make([][]netsim.Handler, numEdge)
	n.sources = make([]int, numEdge)
	for e, d := range n.edges {
		d.eg = &egress{net: n, sh: d.sh}
		hop := &netsim.LanePipe{Sched: d.sh.sm, Delay: cfg.LinkDelay, Lane: n.hairpinLane(e)}
		n.hairpin[e] = []netsim.Handler{hop, d.eg}
	}
	// One directed link per direction, lane = directed index: the queue's
	// wire is a LanePipe on the link's own lane, crossing shards by value
	// through the engine's mailboxes when the endpoints live apart (rehome
	// picks the scheduler of a link whose ends share a shard).
	mkLink := func(from, port, to int) {
		src, dst := n.nodes[from], n.nodes[to]
		l := &link{
			net: n,
			sh:  dst.sh,
			to:  dst,
			up:  true,
			q:   *netsim.NewQueue(src.sh.sm, fmt.Sprintf("%s:%d", g.Node(from).Name, port), cfg.LinkRate, cfg.LinkBytes, 0),
		}
		l.route[0] = l
		l.wire = netsim.LanePipe{Delay: cfg.LinkDelay, Lane: int32(len(n.links))}
		if src.sh != dst.sh {
			l.cut = eng.Shard(src.sh.id).To(dst.sh.id).(parsim.Port)
			l.keep = src.sh.cells
			l.wire.Sched = (*crossing)(l)
		}
		l.q.Wire = &l.wire
		if dst.eg != nil {
			dst.eg.in = append(dst.eg.in, l)
		}
		l.rehome()
		n.links = append(n.links, l)
		if ref := src.port[port]; ref.climb {
			src.up[ref.slot] = l
		} else {
			src.down[ref.slot] = l
		}
	}
	for _, lk := range n.wiring {
		mkLink(lk.A, lk.APort, lk.B)
		mkLink(lk.B, lk.BPort, lk.A)
	}

	// Spreaders, once the links they pick from exist: each draws from the
	// stream named by its node and direction (0 descend, 1 climb), so no
	// spreader's stream depends on which others exist. Each is sized over
	// its own port group. The descend sets are filled by the route policy's
	// seed; the climb set starts full.
	for i, d := range n.nodes {
		d.sprDown = reach.NewSpreader(d.down, numEdge, reshuffleRounds, stats.Stream(cfg.Seed, "spray", i, 0))
		d.sprUp = reach.NewSpreader(d.up, 1, reshuffleRounds, stats.Stream(cfg.Seed, "spray", i, 1))
		for s := range d.up {
			d.sprUp.Set(0, s)
		}
	}
	n.routes.seed(descend, climb)
	return n, nil
}

// hairpinLane is the event lane of edge e's local switching path.
func (n *Net) hairpinLane(e int) int32 {
	return int32(2*len(n.wiring) + n.routes.lanes() + e)
}

// Lanes returns the first event lane not used by the fabric: the lane
// space [0, Lanes()) names the fabric's directed links, the route
// policy's control flows and the hairpin paths. A transport layered on
// top of a sharded fabric (the sharded Stardust substrate) allocates its
// own lanes from Lanes() up, so the two layers' same-instant events never
// collide on one lane.
func (n *Net) Lanes() int32 { return n.hairpinLane(n.Topo.NumEdge()) }

// Engine returns the parsim engine of a sharded fabric (nil for New).
func (n *Net) Engine() *parsim.Engine { return n.eng }

// NumFA returns the number of edge devices — the injection and delivery
// points: Fabric Adapters on a Clos, switches or servers elsewhere.
func (n *Net) NumFA() int { return n.Topo.NumEdge() }

// NumLinks returns the number of full-duplex topology links.
func (n *Net) NumLinks() int { return len(n.wiring) }

// SetMode selects spray or per-flow ECMP forwarding. Call before the run
// starts.
func (n *Net) SetMode(m RouteMode) {
	for _, d := range n.nodes {
		d.ecmp = m == ModeECMP
	}
}

// ShardOfFA returns the shard owning edge device fa (0 in solo mode) —
// the shard whose Simulator injection events and egress endpoints for fa
// must run on. The assignment is fixed when the fabric is built.
func (n *Net) ShardOfFA(fa int) int { return n.edges[fa].sh.id }

// Cut returns the shard owning each node, in node order: Partition's
// answer for a sharded fabric, all zeros for a solo one.
func (n *Net) Cut() []int {
	out := make([]int, len(n.nodes))
	for i, d := range n.nodes {
		out[i] = d.sh.id
	}
	return out
}

// EdgeSim returns the event heap edge device fa's events run on.
func (n *Net) EdgeSim(fa int) *sim.Simulator { return n.edges[fa].sh.sm }

// SetEgress installs h as the delivery endpoint of destination edge fa,
// taking precedence over OnDeliver. The handler owns delivered cells
// (forward or free them). In sharded mode h runs pinned to fa's shard, so
// a per-edge endpoint needs no locking. Call it before the run starts: an
// edge whose endpoint cannot count (netsim.CellCounter) receives its
// cells by events, one that can, or has no endpoint, does not (see the
// package comment).
func (n *Net) SetEgress(fa int, h netsim.Handler) {
	eg := n.edges[fa].eg
	eg.to = h
	eg.counter, _ = h.(netsim.CellCounter)
	for _, l := range eg.in {
		l.rehome()
	}
}

// Inject sends one cell from edge device srcFA toward edge device dstFA.
// The cell's Flow field is opaque to the fabric and travels with it;
// delivered cells are handed to the egress endpoint (SetEgress/OnDeliver),
// lost cells are freed. In sharded mode it must be called from srcFA's
// shard (an event scheduled on that shard's Simulator). In ECMP mode the
// cell is stamped with its flow id (in Seq) so every hop hashes the same
// flow to the same path; ECMP fabrics therefore cannot carry a transport
// overlay that uses Seq.
func (n *Net) Inject(c *netsim.Packet, srcFA, dstFA int) {
	n.inject(c, srcFA, dstFA, n.edges[srcFA].sh.sm.Now())
}

// inject is Inject as of t, at or after the clock of srcFA's shard, and
// returns the link the cell took: nil for a hairpin or a discarded cell.
func (n *Net) inject(c *netsim.Packet, srcFA, dstFA int, t sim.Time) *link {
	d := n.edges[srcFA]
	d.sh.injected++
	c.Dst = int32(dstFA)
	c.Down = false
	if srcFA == dstFA {
		// Local switching inside the edge device: no fabric crossing.
		c.SetRoute(n.hairpin[srcFA][1:])
		n.hairpin[srcFA][0].(*netsim.LanePipe).ReceiveAt(c, t)
		return nil
	}
	if d.ecmp {
		c.Seq = int64(srcFA)*int64(n.Topo.NumEdge()) + int64(dstFA) + 1
	}
	return d.forward(c, t) // not home (srcFA != dstFA)
}

// dropCell returns a cell lost inside the fabric to the free list of sh,
// the shard that lost it, after showing it to the accounting hook.
func (n *Net) dropCell(sh *shardState, c *netsim.Packet) {
	if n.OnCellDrop != nil {
		n.OnCellDrop(c)
	}
	sh.cells.Put(c)
}

// Injected counts cells handed to Inject. Aggregated across shards; call
// it only when the fabric is quiescent (between runs / in barrier context).
func (n *Net) Injected() (v uint64) {
	for _, sh := range n.shards {
		v += sh.injected
	}
	return v
}

// Delivered counts cells that reached their destination edge (same
// quiescence caveat as Injected).
func (n *Net) Delivered() (v uint64) {
	for _, d := range n.edges {
		d.eg.settle()
		v += d.eg.cells
	}
	return v
}

// DeliveredTo returns the cells and bytes delivered to edge device fa
// (same quiescence caveat as Injected; in a distributed run only fa's
// owner holds real counts). It is a telemetry.SinkFunc.
func (n *Net) DeliveredTo(fa int) (cells, bytes uint64) {
	eg := n.edges[fa].eg
	eg.settle()
	return eg.cells, eg.bytes
}

// settle applies every counted cell that is due (see the package comment).
func (n *Net) settle() {
	for _, d := range n.edges {
		d.eg.settle()
	}
}

// LinkEpoch implements netsim.ShardedCellFabric: the number of link state
// changes so far, written only where the state changes (barrier context
// in sharded mode).
func (n *Net) LinkEpoch() uint64 { return n.epoch }

// SettleThrough implements netsim.ShardedCellFabric: unless no link has
// changed state since epoch since, the counted cells into edge fa that
// are due, and the one arriving at (t, lane), take effect. Call it on fa's
// shard. A cell enters a link's queue only while the link is up (the
// adjacent devices prune a failed port at once), so a cell of a packet
// shipped after the last change cannot be lost on a wire.
func (n *Net) SettleThrough(fa int, t sim.Time, lane int32, since uint64) {
	if n.epoch == since {
		return
	}
	for _, l := range n.edges[fa].eg.in {
		l.settleThrough(t, lane)
	}
}

// DeadDrops counts cells lost on a failed link (same quiescence caveat).
func (n *Net) DeadDrops() (v uint64) {
	n.settle()
	for _, sh := range n.shards {
		v += sh.deadDrops
	}
	return v
}

// NoRouteDrops counts cells discarded with no live next hop — the
// convergence window (same quiescence caveat).
func (n *Net) NoRouteDrops() (v uint64) {
	for _, sh := range n.shards {
		v += sh.noRouteDrops
	}
	return v
}

// QueueDrops sums tail drops across all link queues.
func (n *Net) QueueDrops() (v uint64) {
	for _, l := range n.links {
		v += l.q.Drops
	}
	return v
}

// Drops counts every cell lost inside the fabric: failed-link losses,
// no-route discards during convergence, and link-queue tail drops.
// Implements netsim.CellFabric. Same quiescence caveat as Injected.
func (n *Net) Drops() uint64 { return n.DeadDrops() + n.NoRouteDrops() + n.QueueDrops() }

// VisitQueues visits every directed link's serialization queue, to
// install OnDrop hooks. Counters are read through ReadLinkCounters and
// DirCounters. Sharded mode: barrier context only.
func (n *Net) VisitQueues(fn func(q *netsim.Queue)) {
	for _, l := range n.links {
		fn(&l.q)
	}
}

// LinkUp reports the administrative state of topology link i.
func (n *Net) LinkUp(i int) bool { return n.adminUp[i] }

// FailLink takes down both directions of topology link i (an index into
// Topo.GraphLinks()). The adjacent devices detect the loss immediately
// (keepalive, §5.9) and stop using the port; the rest of the fabric
// learns after Cfg.ReachDelay, by the route policy's means. In sharded
// mode it mutates state on several shards and must therefore run in
// barrier context (parsim Engine.At / OnBarrier).
func (n *Net) FailLink(i int) { n.setLink(i, false) }

// RestoreLink brings topology link i back up; routes that want it back
// arrive with the same propagation delay. The sharded-mode barrier-
// context requirement of FailLink applies.
func (n *Net) RestoreLink(i int) { n.setLink(i, true) }

func (n *Net) setLink(i int, up bool) {
	if n.eng != nil && !n.eng.InBarrier() {
		// The misuse that would otherwise be a silent data race.
		panic("fabric: sharded link state must be changed in barrier context (parsim Engine.At/OnBarrier)")
	}
	if n.adminUp[i] == up {
		return
	}
	// Cells counted before now arrived under the old state.
	n.links[2*i].settle()
	n.links[2*i+1].settle()
	n.epoch++
	n.adminUp[i] = up
	n.links[2*i].up = up
	n.links[2*i+1].up = up
	n.routes.linkChanged(i, up)
	if n.OnLinkState != nil {
		n.OnLinkState(i, up)
	}
}

// Unreachable cross-checks the forwarding state after failures, split by
// where that state lives in a distributed run. Unreachable(s) for a shard
// s counts the holes in state only shard s's owner keeps current (tables
// updated by cross-shard mail); Unreachable(Replicated) counts the holes
// in state every replica derives identically from the administrative
// link mask. Barrier context only when sharded.
func (n *Net) Unreachable(shard int) int { return n.routes.unreachable(shard) }

// Replicated selects the control-replicated half of Unreachable.
const Replicated = -1

// UnreachablePairs is Unreachable summed over every shard and the
// replicated half. Zero means every destination is still deliverable
// from everywhere — the §5.9 self-healing invariant. HoleUnit names what
// it counts; it lags the links by Cfg.ReachDelay and then equals Holes.
func (n *Net) UnreachablePairs() int {
	bad := n.Unreachable(Replicated)
	for s := range n.shards {
		bad += n.Unreachable(s)
	}
	return bad
}

// FAUplinkBytes returns the forwarded byte count of every edge device's
// outbound links, edge-major in ascending directed-link order — the
// per-link load-balance evidence for the linkload experiments.
func (n *Net) FAUplinkBytes() []uint64 {
	var out []uint64
	for _, dirs := range topo.EdgeUplinkDirs(n.Topo) {
		for _, d := range dirs {
			out = append(out, n.links[d].q.FwdBytes())
		}
	}
	return out
}

// LinkCounters is a point-in-time snapshot of one directed link's
// counters — the raw material of the management plane's telemetry scrape.
type LinkCounters struct {
	Link       int  // topology link index
	Dir        int  // 0 = A->B, 1 = B->A
	Up         bool // administrative state
	FwdBytes   uint64
	FwdCells   uint64
	Drops      uint64 // serialization-queue tail drops
	QueueBytes int    // instantaneous occupancy
	PeakBytes  int
}

// ReadLinkCounters snapshots both directions of topology link i into out
// (a 2-element window), so a periodic scraper can read the whole fabric
// without allocating. out[0] is the A->B direction. Sharded mode: barrier
// context only (the scrape crosses every shard's queues).
func (n *Net) ReadLinkCounters(i int, out *[2]LinkCounters) {
	for d := 0; d < 2; d++ {
		l := n.links[2*i+d]
		out[d] = LinkCounters{
			Link:       i,
			Dir:        d,
			Up:         l.up,
			FwdBytes:   l.q.FwdBytes(),
			FwdCells:   l.q.Forwarded(),
			Drops:      l.q.Drops,
			QueueBytes: l.q.Bytes(),
			PeakBytes:  l.q.PeakBytes,
		}
	}
}

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
// shards of a parsim.Engine (NewSharded): every node's events run on its
// owning shard, cells cross shard cuts through conservative-lookahead
// mailboxes, and every link delivery is ordered by the directed link's
// own event lane, so the execution order of same-instant events at any
// node is a function of the topology alone and results are byte-
// identical for every shard count. Link administration mutates nodes on
// several shards and therefore runs in barrier context, quantized to
// window boundaries — a function of the lookahead alone.
//
// The per-cell hot path allocates nothing: cells are pooled
// netsim.Packets, every directed link's route is prebuilt once, spreader
// reshuffles are in place, and forwarding state lives in dense bitmaps.
package fabric

import (
	"fmt"
	"math/bits"
	"math/rand"

	"stardust/internal/netsim"
	"stardust/internal/parsim"
	"stardust/internal/reach"
	"stardust/internal/sim"
	"stardust/internal/topo"
)

// Config sizes the fabric's links and control plane.
type Config struct {
	LinkRate  netsim.Bps // per serial link (the paper runs the fabric ~5% over the edge)
	LinkDelay sim.Time   // per-hop propagation
	LinkBytes int        // per-link queue capacity
	// ReshuffleRounds is how many full traversals a spreader keeps one
	// permutation before reshuffling (§5.3's anti-synchronization).
	ReshuffleRounds int
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
		LinkRate:        rate,
		LinkDelay:       delay,
		LinkBytes:       256 << 10,
		ReshuffleRounds: 64,
		ReachDelay:      50 * sim.Microsecond,
		Seed:            seed,
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

// shardState is the per-shard slice of a Net: the shard's event heap plus
// the counters its nodes increment. A solo fabric has exactly one; a
// sharded fabric has one per parsim shard, so the hot path never writes a
// counter another shard's goroutine could be writing concurrently.
// Aggregate accessors (Injected, Delivered, ...) sum across shards and are
// only meaningful when the fabric is quiescent: between runs in solo mode,
// in barrier context in sharded mode.
type shardState struct {
	id int
	sm *sim.Simulator

	injected     uint64
	delivered    uint64
	deadDrops    uint64
	noRouteDrops uint64

	_ [sim.CacheLine - 48]byte // whole lines: see sim.CacheLine, TestShardStateLayout
}

// link is one direction of a physical serial link: a serialization queue,
// the propagation crossing, and an arrival gate (the link itself) that
// loses cells when the link is down — cells already serialized into a
// failed link are lost on the wire, like the real thing. The queue lives
// on the sending node's shard; Receive runs on the receiving node's.
//
// The link owns its queue, its wire and its route's array, so a hop reads
// one object: send hands the cell to the queue, and the route is the rest
// of the hop. On an engine the crossing is the queue's Wire, a LanePipe
// on the link's own lane, and the route is {link}: an idle link costs one
// kernel event per cell, the arrival (see netsim.Queue). A solo fabric
// shares one default-lane Pipe, the route is {pipe, link}, and a cell
// pays a completion and an arrival.
type link struct {
	net   *Net
	sh    *shardState // receiving node's shard
	to    *node
	up    bool
	route []netsim.Handler // into hops
	hops  [2]netsim.Handler
	wire  netsim.LanePipe
	q     netsim.Queue
}

// Receive implements netsim.Handler: the cell reaches the far end.
func (l *link) Receive(c *netsim.Packet) {
	if !l.up {
		l.sh.deadDrops++
		l.net.dropCell(c)
		return
	}
	l.to.Receive(c)
}

func (l *link) send(c *netsim.Packet) {
	c.SetRoute(l.route)
	l.q.Receive(c)
}

// egress terminates cells at their destination edge device.
type egress struct {
	net *Net
	sh  *shardState
	to  netsim.Handler // optional per-edge endpoint (SetEgress)
}

// Receive implements netsim.Handler.
func (e *egress) Receive(c *netsim.Packet) {
	e.sh.delivered++
	if e.to != nil {
		e.to.Receive(c)
		return
	}
	if fn := e.net.OnDeliver; fn != nil {
		fn(c)
		return
	}
	c.Release()
}

// portRef locates a port inside its node's port group.
type portRef struct {
	climb bool
	slot  int
}

// node is one device of the graph. Its ports fall into two groups fixed
// at build time: the climb group (the intact graph's climb set) and the
// descend group (every other port; a port may not be in both). Each
// group has its own spreader, sized over that group alone, and candidate
// sets are bitmaps over the group's slots — the route policy keeps them
// current.
type node struct {
	net  *Net
	sh   *shardState
	id   int
	edge int32   // edge index, -1 for pure transit nodes
	eg   *egress // edge nodes: where cells addressed to this device end
	ecmp bool    // ModeECMP (see SetMode)

	port []portRef // per port: where it sits in down or up
	down []*link   // descend group; nil entry when the port is unwired
	up   []*link   // climb group

	descend []reach.Bitmap // per dst edge: live candidates over down
	climb   reach.Bitmap   // live candidates over up
	sprDown *reach.Spreader
	sprUp   *reach.Spreader
}

// Receive implements netsim.Handler: deliver the cell when it is home,
// otherwise forward it by the up/down rule — descend beats climb
// (shortest path), and a cell that already descended must not climb
// again.
func (d *node) Receive(c *netsim.Packet) {
	if d.edge == c.Dst {
		d.eg.Receive(c)
		return
	}
	down, up := -1, -1
	if d.ecmp {
		h := ecmpHash(d.id, c.Seq)
		if down = pickNth(d.descend[c.Dst], h); down < 0 && !c.Down {
			up = pickNth(d.climb, h)
		}
	} else {
		if d.sprDown != nil {
			down = d.sprDown.Next(d.descend[c.Dst])
		}
		if down < 0 && d.sprUp != nil && !c.Down {
			up = d.sprUp.Next(d.climb)
		}
	}
	switch {
	case down >= 0:
		c.Down = true
		d.down[down].send(c)
	case up >= 0:
		d.up[up].send(c)
	default:
		d.sh.noRouteDrops++
		d.net.dropCell(c)
	}
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

	nodes  []*node
	edges  []*node // per edge device: its node
	wiring []topo.GraphLink
	// links holds both directions of every topology link: 2i is A->B,
	// 2i+1 is B->A.
	links   []*link
	adminUp []bool             // per topology link, in Graph.Routes' input shape
	pipe    *netsim.Pipe       // solo mode: the shared propagation delay
	hairpin [][]netsim.Handler // per edge: local switching path (src == dst)

	// OnDeliver receives every cell that reaches its destination edge and
	// owns it (must forward or Release it). When nil, delivered cells are
	// Released. In sharded mode it runs on the destination's shard, so it
	// must only touch per-edge state — prefer SetEgress there.
	OnDeliver func(*netsim.Packet)

	// OnCellDrop, when non-nil, observes every cell the fabric drops
	// (failed link, no live route) just before it is released, so a
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

// New builds all nodes and links of g on the single event loop s.
func New(s *sim.Simulator, cfg Config, g topo.Graph) (*Net, error) {
	return build(cfg, g, []*shardState{{sm: s}}, nil, nil)
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

// NewSharded builds the fabric across the shards of eng. assign maps
// each node to a shard; nil assigns contiguous blocks per tier — a
// deterministic function of (graph, shard count), so two runs at the
// same shard count always cut the same links. The engine's lookahead
// must not exceed the link delay (a cell crossing a cut link must arrive
// at least one window later) and the reach delay must be at least two
// lookaheads (build + deliver).
func NewSharded(eng *parsim.Engine, cfg Config, g topo.Graph, assign []int) (*Net, error) {
	if eng.Lookahead() > cfg.LinkDelay {
		return nil, fmt.Errorf("fabric: engine lookahead %d exceeds link delay %d", eng.Lookahead(), cfg.LinkDelay)
	}
	if cfg.ReachDelay < 2*eng.Lookahead() {
		return nil, fmt.Errorf("fabric: reach delay %d below two lookaheads (%d)", cfg.ReachDelay, 2*eng.Lookahead())
	}
	if assign == nil {
		assign = tierBlocks(g, eng.Shards())
	}
	if len(assign) != g.NumNodes() {
		return nil, fmt.Errorf("fabric: sharding shape %d does not match %d nodes", len(assign), g.NumNodes())
	}
	for _, s := range assign {
		if s < 0 || s >= eng.Shards() {
			return nil, fmt.Errorf("fabric: shard %d out of range [0,%d)", s, eng.Shards())
		}
	}
	shards := make([]*shardState, eng.Shards())
	for i := range shards {
		shards[i] = &shardState{id: i, sm: eng.Shard(i).Sim()}
	}
	return build(cfg, g, shards, assign, eng)
}

// tierBlocks distributes the nodes of g over n shards in contiguous
// index blocks, each tier independently.
func tierBlocks(g topo.Graph, n int) []int {
	count := make([]int, g.NumTiers())
	for i := 0; i < g.NumNodes(); i++ {
		count[g.Node(i).Tier]++
	}
	rank := make([]int, len(count))
	out := make([]int, g.NumNodes())
	for i := range out {
		t := g.Node(i).Tier
		out[i] = rank[t] * n / count[t]
		rank[t]++
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
	if cfg.ReshuffleRounds < 1 {
		cfg.ReshuffleRounds = 64
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
	if eng == nil {
		n.pipe = netsim.NewPipe(n.Sim, cfg.LinkDelay)
	}
	n.routes = newRoutePolicy(n)

	// Nodes, in node order. Spreader seeds are drawn in that order, descend
	// before climb, one per spreader that exists; each spreader is sized
	// over its own port group, because Spreader.Next advances its position
	// even when no candidate is eligible.
	descend, climb := g.Routes(n.adminUp)
	seeds := rand.New(rand.NewSource(cfg.Seed))
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
		d.descend = make([]reach.Bitmap, numEdge) // filled by the route policy's seed
		d.climb = reach.NewBitmap(nUp)
		for s := range d.up {
			d.climb.Set(s)
		}
		if nDown > 0 {
			d.sprDown = reach.NewSpreader(nDown, cfg.ReshuffleRounds, seeds.Int63())
		}
		if nUp > 0 {
			d.sprUp = reach.NewSpreader(nUp, cfg.ReshuffleRounds, seeds.Int63())
		}
		n.nodes[i] = d
	}

	// Lanes: directed links, then the route policy's lanes, then hairpins.
	n.hairpin = make([][]netsim.Handler, numEdge)
	for e, d := range n.edges {
		d.eg = &egress{net: n, sh: d.sh}
		var hop netsim.Handler = n.pipe
		if eng != nil {
			hop = &netsim.LanePipe{Sched: d.sh.sm, Delay: cfg.LinkDelay, Lane: n.hairpinLane(e)}
		}
		n.hairpin[e] = []netsim.Handler{hop, d.eg}
	}
	// One directed link per direction, lane = directed index. Solo mode:
	// the shared pipe (default event lane). Sharded mode: the queue's wire,
	// a LanePipe on the link's own lane, crossing shards through the
	// engine's mailboxes when the endpoints live apart.
	mkLink := func(from, port, to int) {
		src, dst := n.nodes[from], n.nodes[to]
		l := &link{
			net: n,
			sh:  dst.sh,
			to:  dst,
			up:  true,
			q:   *netsim.NewQueue(src.sh.sm, fmt.Sprintf("%s:%d", g.Node(from).Name, port), cfg.LinkRate, cfg.LinkBytes, 0),
		}
		l.hops = [2]netsim.Handler{n.pipe, l}
		l.route = l.hops[:] // solo: {pipe, link}
		if eng != nil {
			l.wire = netsim.LanePipe{
				Sched: eng.Shard(src.sh.id).To(dst.sh.id),
				Delay: cfg.LinkDelay,
				Lane:  int32(len(n.links)),
			}
			l.q.Wire = &l.wire
			l.route = l.hops[1:] // {link}; there is no pipe
		}
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

// Sharded reports whether the fabric runs on a parsim engine.
func (n *Net) Sharded() bool { return n.eng != nil }

// Engine returns the parsim engine of a sharded fabric (nil in solo mode).
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

// EdgeSim returns the event heap edge device fa's events run on.
func (n *Net) EdgeSim(fa int) *sim.Simulator { return n.edges[fa].sh.sm }

// SetEgress installs h as the delivery endpoint of destination edge fa,
// taking precedence over OnDeliver. The handler owns delivered cells
// (forward or Release). In sharded mode h runs pinned to fa's shard, so a
// per-edge endpoint needs no locking.
func (n *Net) SetEgress(fa int, h netsim.Handler) { n.edges[fa].eg.to = h }

// Inject sends one cell from edge device srcFA toward edge device dstFA.
// The cell's Flow field is opaque to the fabric and travels with it;
// delivered cells are handed to the egress endpoint (SetEgress/OnDeliver),
// lost cells are Released. In sharded mode it must be called from srcFA's
// shard (an event scheduled on that shard's Simulator). In ECMP mode the
// cell is stamped with its flow id (in Seq) so every hop hashes the same
// flow to the same path; ECMP fabrics therefore cannot carry a transport
// overlay that uses Seq.
func (n *Net) Inject(c *netsim.Packet, srcFA, dstFA int) {
	d := n.edges[srcFA]
	d.sh.injected++
	c.Dst = int32(dstFA)
	c.Down = false
	if srcFA == dstFA {
		// Local switching inside the edge device: no fabric crossing.
		c.SetRoute(n.hairpin[srcFA])
		c.SendOn()
		return
	}
	if d.ecmp {
		c.Seq = int64(srcFA)*int64(n.Topo.NumEdge()) + int64(dstFA) + 1
	}
	d.Receive(c) // not home (srcFA != dstFA): forwards
}

// dropCell releases a cell lost inside the fabric, after showing it to
// the accounting hook.
func (n *Net) dropCell(c *netsim.Packet) {
	if n.OnCellDrop != nil {
		n.OnCellDrop(c)
	}
	c.Release()
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
	for _, sh := range n.shards {
		v += sh.delivered
	}
	return v
}

// DeadDrops counts cells lost on a failed link (same quiescence caveat).
func (n *Net) DeadDrops() (v uint64) {
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
// from everywhere — the §5.9 self-healing invariant. What a pair is
// depends on the route policy: (spine, FA) pairs plus adapters with no
// live uplink under the reach protocol, (source edge, destination edge)
// pairs on a recomputed graph.
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

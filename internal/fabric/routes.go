// Route maintenance: the one place the fabric is plural. Both policies
// keep every node's candidate bitmaps (node.descend, node.climb) current
// as links fail and heal; the forwarding path never knows which one runs.

package fabric

import (
	"encoding/binary"
	"fmt"
	"sort"

	"stardust/internal/reach"
	"stardust/internal/sim"
	"stardust/internal/topo"
)

// routePolicy maintains the installed forwarding state of a Net.
type routePolicy interface {
	// lanes is how many event lanes the policy's own control flows claim
	// between the directed-link lanes and the hairpin lanes.
	lanes() int
	// seed installs the intact graph's forwarding state (the result of
	// Graph.Routes with every link up) once all nodes and links exist.
	seed(descend [][][]int, climb [][]int)
	// linkChanged reacts to topology link i going down or coming back:
	// the adjacent devices at once, the rest after Cfg.ReachDelay.
	linkChanged(i int, up bool)
	// unreachable implements Net.Unreachable.
	unreachable(shard int) int
	// encodeMail and decodeMail carry the policy's cross-shard actions
	// over the distributed wire (MailReach); ok is false when act is not
	// one of them.
	encodeMail(act sim.Action) (payload []byte, ok bool)
	decodeMail(lane int32, payload []byte) (sim.Action, error)
}

// newRoutePolicy picks the policy from the graph's type: the paper's
// reach protocol needs the Clos's up/down orientation, everything else
// recomputes.
func newRoutePolicy(n *Net) routePolicy {
	if cl, ok := n.Topo.(*topo.Clos); ok {
		r := &reachProtocol{n: n, cl: cl, pending: make([][]reachEvent, len(n.shards))}
		if n.eng != nil {
			n.eng.OnBarrier(r.drain)
		}
		return r
	}
	return &recompute{n: n}
}

// recompute is the policy of graphs without an up/down orientation:
// FailLink prunes the dead port from the adjacent nodes' candidate sets
// at once (local keepalive), then Graph.Routes over the administrative
// mask is reinstalled after Cfg.ReachDelay. The reinstall reads the mask
// at execution time, so overlapping changes coalesce into the latest
// truth. On a sharded fabric it is a barrier control every replica runs,
// quantized to a window boundary, so nothing crosses a shard cut.
type recompute struct {
	n        *Net
	reachCnt []int // per node: dst edges currently routable, for OnReachUpdate
}

func (r *recompute) lanes() int { return 0 }

func (r *recompute) seed(descend [][][]int, climb [][]int) {
	r.reachCnt = make([]int, len(r.n.nodes))
	for _, d := range r.n.nodes {
		for e := range d.descend {
			d.descend[e] = reach.NewBitmap(len(d.down))
		}
	}
	r.install(descend, climb, false)
}

// install replaces every node's candidate sets. With notify set,
// OnReachUpdate fires in node order for every node whose routable
// destination count changed; the initial install seeds the counts
// silently.
func (r *recompute) install(descend [][][]int, climb [][]int, notify bool) {
	for i, d := range r.n.nodes {
		cnt := 0
		for e, set := range d.descend {
			set.Reset()
			for _, p := range descend[i][e] {
				set.Set(d.port[p].slot)
			}
			if len(descend[i][e]) > 0 {
				cnt++
			}
		}
		d.climb.Reset()
		for _, p := range climb[i] {
			d.climb.Set(d.port[p].slot)
		}
		if cnt != r.reachCnt[i] {
			r.reachCnt[i] = cnt
			if fn := r.n.OnReachUpdate; notify && fn != nil {
				fn(i, cnt)
			}
		}
	}
}

func (r *recompute) linkChanged(i int, up bool) {
	n := r.n
	if !up {
		lk := n.wiring[i]
		n.nodes[lk.A].prune(lk.APort)
		n.nodes[lk.B].prune(lk.BPort)
	}
	reinstall := func() {
		descend, climb := n.Topo.Routes(n.adminUp)
		r.install(descend, climb, true)
	}
	if n.eng != nil {
		n.eng.At(n.eng.Now()+n.Cfg.ReachDelay, reinstall)
		return
	}
	n.Sim.After(n.Cfg.ReachDelay, reinstall)
}

// prune clears one dead port from a node's candidate sets — the
// immediate local reaction to a failed keepalive.
func (d *node) prune(port int) {
	ref := d.port[port]
	if ref.climb {
		d.climb.Clear(ref.slot)
		return
	}
	for _, set := range d.descend {
		set.Clear(ref.slot)
	}
}

// unreachable counts ordered (src, dst) edge pairs the installed tables
// cannot begin to route: src has neither a descend candidate for dst nor
// any climb port. After reconvergence this is exact — Routes has a
// candidate iff a live path exists. The tables are a function of the
// administrative mask alone, so every replica holds them.
func (r *recompute) unreachable(shard int) int {
	if shard != Replicated {
		return 0
	}
	bad := 0
	for e, d := range r.n.edges {
		if d.climb.Count() > 0 {
			continue
		}
		for t, set := range d.descend {
			if t != e && set.Count() == 0 {
				bad++
			}
		}
	}
	return bad
}

func (r *recompute) encodeMail(sim.Action) ([]byte, bool) { return nil, false }

func (r *recompute) decodeMail(int32, []byte) (sim.Action, error) {
	return nil, fmt.Errorf("fabric: topology %s exchanges no reach mail", r.n.Topo.Spec())
}

// reachProtocol is the policy of a *topo.Clos: the hardware reachability
// protocol of §5.8. Every FE's descend sets are the rows of a
// reach.Table fed by per-link advertisements — an FE1 down link
// advertises its one adapter, an FE2 down link carries the reachable set
// of the FE1 behind it. A link failure clears the lower node's climb bit
// and the upper node's table column at once; when an FE1's reachable set
// changes, the new set lands on every spine it still has a live link to
// Cfg.ReachDelay later as reach.Messages.
type reachProtocol struct {
	n   *Net
	cl  *topo.Clos
	tbl []*reach.Table // per node; nil for FAs
	// spines[f] locates the far end of FE1 f's every climb slot — spine
	// node and its down slot — so a re-advertisement does not rescan the
	// wiring.
	spines [][]spinePort
	// pending buffers, per shard, the spine-landing notifications of a
	// sharded fabric until the barrier that drains them in order.
	pending [][]reachEvent
}

type spinePort struct {
	spine int // node index
	slot  int
}

// reachEvent is one buffered OnReachUpdate notification: the update
// lands on the spine tier at `at`.
type reachEvent struct {
	at        sim.Time
	node      int
	reachable int
}

func (r *reachProtocol) lanes() int { return r.cl.NumFE1 }

// reachLane is the event lane of FE1 f's reachability updates: after
// every directed link's lane, so at the same instant cells arrive before
// forwarding state changes (a fixed, partition-independent rule).
func (r *reachProtocol) reachLane(f int) int32 { return int32(2*len(r.n.wiring) + f) }

// applySet installs set as the advertised reachability of one table
// column via the wire-format message sequence (exercising the real
// protocol path).
func applySet(t *reach.Table, slot int, set reach.Bitmap) {
	for _, m := range reach.BuildMessages(0, set, t.NumFA()) {
		if err := t.ApplyMessage(slot, m); err != nil {
			panic(err) // slot and set come from this fabric's own wiring
		}
	}
}

// advertised is the reachable set node i announces on its up links: an
// adapter reaches itself, an FE whatever its table holds.
func (r *reachProtocol) advertised(i int) reach.Bitmap {
	if e := r.n.nodes[i].edge; e >= 0 {
		one := reach.NewBitmap(r.cl.NumFA)
		one.Set(int(e))
		return one
	}
	return r.tbl[i].ReachableSet()
}

// seed builds the tables from the wiring, FA links first so each FE2
// column carries its FE1's full set; an FE's descend sets are its
// table's rows, an FA has none. Climb sets start full.
func (r *reachProtocol) seed([][][]int, [][]int) {
	n := r.n
	r.tbl = make([]*reach.Table, len(n.nodes))
	for i, d := range n.nodes {
		if d.edge >= 0 {
			continue
		}
		r.tbl[i] = reach.NewTable(r.cl.NumFA, len(d.down))
		for e := range d.descend {
			d.descend[e] = r.tbl[i].Links(e) // shared: the table updates it in place
		}
	}
	r.spines = make([][]spinePort, r.cl.NumFE1)
	for f := range r.spines {
		r.spines[f] = make([]spinePort, len(n.nodes[r.cl.NumFA+f].up))
	}
	for _, faLinks := range []bool{true, false} {
		for _, lk := range n.wiring {
			lo, hi := n.nodes[lk.A], n.nodes[lk.B]
			if (lo.edge >= 0) != faLinks {
				continue
			}
			ds := hi.port[lk.BPort].slot
			applySet(r.tbl[lk.B], ds, r.advertised(lk.A))
			if !faLinks {
				r.spines[lk.A-r.cl.NumFA][lo.port[lk.APort].slot] = spinePort{spine: lk.B, slot: ds}
			}
		}
	}
}

func (r *reachProtocol) linkChanged(i int, up bool) {
	lk := r.n.wiring[i] // A is the lower tier
	lo, hi := r.n.nodes[lk.A], r.n.nodes[lk.B]
	us, ds := lo.port[lk.APort].slot, hi.port[lk.BPort].slot
	if up {
		lo.climb.Set(us)
		applySet(r.tbl[lk.B], ds, r.advertised(lk.A))
	} else {
		lo.climb.Clear(us)
		r.tbl[lk.B].LinkDown(ds)
	}
	if lo.edge >= 0 && r.cl.NumFE2 > 0 {
		// The FE1's own set changed; in a single-tier fabric FAs spray
		// blindly and there is nothing upstream to tell.
		r.readvertise(lk.B)
	}
}

// applyReach applies one FE1's reach messages to a spine's table — the
// cross-shard payload of a sharded re-advertisement.
type applyReach struct {
	tbl   *reach.Table
	spine int // node index, for the wire
	slot  int
	msgs  []reach.Message
}

// Act implements sim.Action.
func (a applyReach) Act(uint64) {
	for _, m := range a.msgs {
		if err := a.tbl.ApplyMessage(a.slot, m); err != nil {
			panic(err) // built locally or validated by decodeMail
		}
	}
}

// readvertise propagates FE1 node fe's (changed) reachable set to every
// spine it still has a live link to, after the protocol's propagation
// delay. The set is read at (sharded: one lookahead before) delivery
// time, so overlapping failures coalesce into the latest truth.
func (r *reachProtocol) readvertise(fe int) {
	n := r.n
	f := fe - r.cl.NumFA
	build := func() (reach.Bitmap, []reach.Message) {
		set := r.tbl[fe].ReachableSet()
		return set, reach.BuildMessages(uint16(f), set, r.cl.NumFA)
	}
	if n.eng == nil {
		n.Sim.After(n.Cfg.ReachDelay, func() {
			set, msgs := build()
			for _, sl := range r.spines[f] {
				if n.nodes[sl.spine].down[sl.slot].up {
					applyReach{tbl: r.tbl[sl.spine], slot: sl.slot, msgs: msgs}.Act(0)
				}
			}
			if n.OnReachUpdate != nil {
				n.OnReachUpdate(fe, set.Count())
			}
		})
		return
	}
	// Sharded: build the messages one lookahead early on the FE1's shard
	// so they can cross a mailbox, deliver to every connected spine at the
	// same instant as solo mode on the FE1's reach lane.
	look := n.eng.Lookahead()
	lane := r.reachLane(f)
	sh := n.nodes[fe].sh
	src := n.eng.Shard(sh.id)
	sh.sm.AtLaneFunc(sh.sm.Now()+n.Cfg.ReachDelay-look, lane, func() {
		deliver := sh.sm.Now() + look
		set, msgs := build()
		for _, sl := range r.spines[f] {
			sp := n.nodes[sl.spine]
			// The spine-side link state only changes in barrier context, so
			// this cross-shard read is synchronized by the window barrier
			// and identical at every shard count.
			if sp.down[sl.slot].up {
				src.To(sp.sh.id).AtLane(deliver, lane, applyReach{tbl: r.tbl[sl.spine], spine: sl.spine, slot: sl.slot, msgs: msgs}, 0)
			}
		}
		r.pending[sh.id] = append(r.pending[sh.id], reachEvent{at: deliver, node: fe, reachable: set.Count()})
	})
}

// drain runs at every window barrier: collect the spine-landing
// notifications whose instant has passed, sort them into the canonical
// (time, node) order, and hand them to OnReachUpdate. Buffering per shard
// and sorting at the quiescent barrier is what keeps the management
// plane's view consistent — and deterministic — across shards.
func (r *reachProtocol) drain(now sim.Time) {
	var due []reachEvent
	for s, evs := range r.pending {
		keep := evs[:0]
		for _, ev := range evs {
			if ev.at <= now {
				due = append(due, ev)
			} else {
				keep = append(keep, ev)
			}
		}
		r.pending[s] = keep
	}
	if len(due) == 0 || r.n.OnReachUpdate == nil {
		return
	}
	sort.Slice(due, func(i, j int) bool {
		if due[i].at != due[j].at {
			return due[i].at < due[j].at
		}
		return due[i].node < due[j].node
	})
	for _, ev := range due {
		r.n.OnReachUpdate(ev.node, ev.reachable)
	}
}

// unreachable counts (spine, destination FA) pairs with no live down
// path on the spines shard owns — spine tables change by mail, so only
// the owner's replica is current — and, as the replicated half, FAs with
// no live uplink at all: climb bits are administrative state.
func (r *reachProtocol) unreachable(shard int) int {
	bad := 0
	if shard == Replicated {
		for _, d := range r.n.nodes[:r.cl.NumFA] {
			if d.climb.Count() == 0 {
				bad++
			}
		}
		return bad
	}
	for i := r.cl.NumFA + r.cl.NumFE1; i < len(r.n.nodes); i++ {
		if r.n.nodes[i].sh.id != shard {
			continue
		}
		for fa := 0; fa < r.cl.NumFA; fa++ {
			if !r.tbl[i].Reachable(fa) {
				bad++
			}
		}
	}
	return bad
}

func (r *reachProtocol) encodeMail(act sim.Action) ([]byte, bool) {
	a, ok := act.(applyReach)
	if !ok {
		return nil, false
	}
	buf := make([]byte, 0, 8+20*len(a.msgs))
	buf = binary.AppendUvarint(buf, uint64(a.spine-r.cl.NumFA-r.cl.NumFE1))
	buf = binary.AppendUvarint(buf, uint64(a.slot))
	buf = binary.AppendUvarint(buf, uint64(len(a.msgs)))
	for _, msg := range a.msgs {
		buf = binary.AppendUvarint(buf, uint64(msg.Origin))
		buf = binary.AppendUvarint(buf, uint64(msg.Chunk))
		f := byte(0)
		if msg.Faulty {
			f = 1
		}
		buf = append(buf, f)
		for _, w := range msg.Bits {
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
	}
	return buf, true
}

// decodeMail rebuilds an applyReach bound to this replica's spine table.
// Every field is checked against the model — the frame comes off a
// socket — so Act cannot fail later inside the event loop.
func (r *reachProtocol) decodeMail(lane int32, payload []byte) (sim.Action, error) {
	uvarint := func(what string, limit int) (int, error) {
		v, k := binary.Uvarint(payload)
		if k <= 0 {
			return 0, fmt.Errorf("fabric: truncated reach %s", what)
		}
		if v >= uint64(limit) {
			return 0, fmt.Errorf("fabric: reach %s %d out of range [0,%d)", what, v, limit)
		}
		payload = payload[k:]
		return int(v), nil
	}
	spine, err := uvarint("spine", r.cl.NumFE2)
	if err != nil {
		return nil, err
	}
	spine += r.cl.NumFA + r.cl.NumFE1
	t := r.tbl[spine]
	slot, err := uvarint("port", t.NumLinks())
	if err != nil {
		return nil, err
	}
	perTable := reach.MessagesPerTable(r.cl.NumFA)
	cnt, err := uvarint("count", perTable+1)
	if err != nil {
		return nil, err
	}
	msgs := make([]reach.Message, cnt)
	for i := range msgs {
		m := &msgs[i]
		origin, err := uvarint("origin", r.cl.NumFE1)
		if err != nil {
			return nil, err
		}
		if lane != r.reachLane(origin) {
			return nil, fmt.Errorf("fabric: reach update of FE1 %d on lane %d", origin, lane)
		}
		chunk, err := uvarint("chunk", perTable)
		if err != nil {
			return nil, err
		}
		if len(payload) < 1+8*len(m.Bits) {
			return nil, fmt.Errorf("fabric: truncated reach bitmap")
		}
		m.Origin, m.Chunk, m.Faulty = uint16(origin), uint16(chunk), payload[0] != 0
		payload = payload[1:]
		for w := range m.Bits {
			m.Bits[w] = binary.LittleEndian.Uint64(payload)
			payload = payload[8:]
		}
	}
	if len(payload) != 0 {
		return nil, fmt.Errorf("fabric: %d trailing bytes after reach batch", len(payload))
	}
	return applyReach{tbl: t, spine: spine, slot: slot, msgs: msgs}, nil
}

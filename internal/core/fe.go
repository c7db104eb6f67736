package core

import (
	"stardust/internal/cell"
	"stardust/internal/reach"
	"stardust/internal/sim"
	"stardust/internal/stats"
	"stardust/internal/topo"
)

// FabricElement is the Stardust cell switch (§4.2): no packet parsing, no
// protocol tables — only a reachability-driven forwarding table, per-link
// shallow output queues with FCI marking, and per-cell load balancing with
// up-down discipline in multi-tier fabrics.
type FabricElement struct {
	net    *Network
	ID     topo.NodeID
	links  []*link
	downN  int // ports [0,downN) face the tier below (FAs for FE1)
	failed bool

	table    *reach.Table
	monitors []*reach.Monitor
	spreader reach.Spreader[int]
	downSet  reach.Bitmap // pickDown's candidate set
	reachTmr *sim.Timer

	// Per-output-link queues (cells waiting for the serializer) with a
	// shared overflow pool (§5.5).
	queues     [][]*cell.Cell
	sending    []bool
	sharedUsed int

	// Stats
	Forwarded     uint64
	Dropped       uint64 // queue overflow (§5.5: probability infinitesimal)
	NoRoute       uint64
	FCIMarked     uint64
	QueuePeak     int
	queueDepthSum uint64
	queueSamples  uint64
}

func newFabricElement(n *Network, id topo.NodeID, numLinks int) *FabricElement {
	downN := numLinks
	if id.Kind == topo.KindFE1 && n.clos.Tiers == 2 {
		downN = n.clos.FE1Down
	}
	fe := &FabricElement{
		net:      n,
		ID:       id,
		links:    make([]*link, numLinks),
		downN:    downN,
		table:    reach.NewTable(n.clos.NumFA, numLinks),
		spreader: newSpreader(n, id, numLinks),
		downSet:  reach.NewBitmap(numLinks),
		queues:   make([][]*cell.Cell, numLinks),
		sending:  make([]bool, numLinks),
	}
	for i := 0; i < numLinks; i++ {
		fe.monitors = append(fe.monitors, reach.NewMonitor(n.Cfg.ReachInterval, n.Cfg.ReachThreshold))
	}
	return fe
}

func (fe *FabricElement) start() {
	fe.reachTmr = sim.NewTimer(fe.net.Sim)
	var tick func()
	tick = func() {
		fe.reachTick()
		fe.reachTmr.Arm(fe.net.Cfg.ReachInterval, tick)
	}
	// Stagger device start times within one interval so advertisement
	// bursts do not synchronize.
	offset := sim.Time((int64(fe.ID.Index)*2654435761 + int64(fe.ID.Kind)) % int64(fe.net.Cfg.ReachInterval))
	fe.net.Sim.After(offset, tick)
}

// reachTick sends this element's advertisements and checks link health.
func (fe *FabricElement) reachTick() {
	if fe.failed {
		return
	}
	now := fe.net.Sim.Now()
	// Keepalive loss detection.
	for port, mon := range fe.monitors {
		if fe.links[port] == nil {
			continue
		}
		if mon.Tick(now) {
			fe.table.LinkDown(port)
		}
	}
	// What this element can deliver toward the FAs: the union of its
	// down-facing links' advertised sets. Advertising only down-derived
	// reachability upward preserves the up-down discipline (no routing
	// loops); downward we advertise everything we can reach so lower tiers
	// and FAs learn about failures above them (§5.10).
	downSet := reach.NewBitmap(fe.net.clos.NumFA)
	allSet := reach.NewBitmap(fe.net.clos.NumFA)
	for port := 0; port < len(fe.links); port++ {
		if fe.monitors[port].State() != reach.LinkUpState {
			continue
		}
		if port < fe.downN {
			downSet.Or(fe.table.LinkSet(port))
		}
		allSet.Or(fe.table.LinkSet(port))
	}
	id := uint16(fe.ID.Index)
	upMsgs := reach.BuildMessages(id, downSet, fe.net.clos.NumFA)
	downMsgs := reach.BuildMessages(id, allSet, fe.net.clos.NumFA)
	for port, l := range fe.links {
		if l == nil {
			continue
		}
		msgs := downMsgs
		if port >= fe.downN {
			msgs = upMsgs
		}
		for _, m := range msgs {
			m.Faulty = l.faulty
			l.sendMsg(reachMsg{msg: m})
		}
	}
}

// onCtrl handles a control message arriving on port.
func (fe *FabricElement) onCtrl(port int, m any) {
	if fe.failed {
		return
	}
	switch v := m.(type) {
	case reachMsg:
		now := fe.net.Sim.Now()
		mon := fe.monitors[port]
		wasUp := mon.State() == reach.LinkUpState
		mon.OnMessage(now, v.msg.Faulty)
		if mon.State() == reach.LinkUpState {
			fe.table.ApplyMessage(port, v.msg)
		} else if wasUp {
			fe.table.LinkDown(port)
		}
	}
}

// onCell forwards a data cell (§4.2): table lookup, load-balanced link
// choice, shallow queueing, FCI marking above threshold.
func (fe *FabricElement) onCell(port int, c *cell.Cell) {
	if fe.failed {
		return
	}
	dst := int(c.Header.Dst)
	eligible := fe.table.Links(dst)
	out := -1
	if port >= fe.downN {
		// Up-down discipline: cells descending from the tier above may
		// only continue downward.
		out = fe.pickDown(eligible)
	} else {
		out = spray(&fe.spreader, eligible)
	}
	if out < 0 {
		fe.NoRoute++
		fe.net.discard(discardIDs(c)...)
		return
	}
	// Pipeline latency, then enqueue on the output link.
	fe.net.Sim.After(fe.net.Cfg.FELatency, func() { fe.enqueue(out, c) })
}

// pickDown spreads among eligible down-facing links only: the candidate
// set is eligible without the ports from downN on.
func (fe *FabricElement) pickDown(eligible reach.Bitmap) int {
	down := fe.downSet
	copy(down, eligible)
	for l := fe.downN; l < len(fe.links); l++ {
		down.Clear(l)
	}
	return spray(&fe.spreader, down)
}

// newSpreader returns device id's §5.3 spreader over numLinks ports, named
// by index, with one candidate set (see spray). A device has one spreader,
// and it draws from the stream ("spray", node, 0), node being the device's
// index in the Clos graph.
func newSpreader(n *Network, id topo.NodeID, numLinks int) reach.Spreader[int] {
	ports := make([]int, numLinks)
	for i := range ports {
		ports[i] = i
	}
	return reach.NewSpreader(ports, 1, 4, stats.Stream(n.Cfg.Seed, "spray", n.clos.NodeIndex(id), 0))
}

// spray makes eligible sp's candidate set and returns the port it picks
// next, -1 when eligible is empty.
func spray(sp *reach.Spreader[int], eligible reach.Bitmap) int {
	sp.Replace(0, eligible)
	if port, ok := sp.Next(0); ok {
		return port
	}
	return -1
}

// enqueue admits a cell to an output-link queue. Occupancy beyond the
// per-link capacity borrows from the device's shared pool (§5.5); the
// invariant is sharedUsed == sum over ports of max(0, depth - capacity).
func (fe *FabricElement) enqueue(port int, c *cell.Cell) {
	q := fe.queues[port]
	if len(q) >= fe.net.Cfg.FEQueueCells {
		if fe.sharedUsed >= fe.net.Cfg.FESharedCells {
			fe.Dropped++
			fe.net.discard(discardIDs(c)...)
			return
		}
		fe.sharedUsed++
	}
	if len(q) >= fe.net.Cfg.FCIThreshCells {
		c.Header.Flags |= cell.FlagFCI
		fe.FCIMarked++
	}
	fe.queues[port] = append(q, c)
	depth := len(fe.queues[port])
	if depth > fe.QueuePeak {
		fe.QueuePeak = depth
	}
	fe.queueDepthSum += uint64(depth)
	fe.queueSamples++
	if !fe.sending[port] {
		fe.drain(port)
	}
}

func (fe *FabricElement) drain(port int) {
	q := fe.queues[port]
	if len(q) == 0 {
		fe.sending[port] = false
		return
	}
	fe.sending[port] = true
	c := q[0]
	fe.queues[port] = q[1:]
	if len(q) > fe.net.Cfg.FEQueueCells {
		// The departing cell shrinks an over-capacity queue: release the
		// shared-pool slot it was borrowing.
		fe.sharedUsed--
	}
	fe.Forwarded++
	txDone := fe.links[port].sendCell(c)
	fe.net.Sim.At(txDone, func() { fe.drain(port) })
}

// MeanQueueDepth returns the average output-queue depth observed at
// enqueue instants (cells).
func (fe *FabricElement) MeanQueueDepth() float64 {
	if fe.queueSamples == 0 {
		return 0
	}
	return float64(fe.queueDepthSum) / float64(fe.queueSamples)
}

// discardIDs collects the packet IDs whose segments a dropped cell
// carried, so the network can forget those in-flight packets.
func discardIDs(c *cell.Cell) []uint64 {
	out := make([]uint64, 0, len(c.Segments))
	for _, s := range c.Segments {
		out = append(out, s.Packet.ID)
	}
	return out
}

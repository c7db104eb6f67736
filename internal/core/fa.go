package core

import (
	"stardust/internal/cell"
	"stardust/internal/reach"
	"stardust/internal/sched"
	"stardust/internal/sim"
	"stardust/internal/voq"
)

// FabricAdapter is the Stardust edge device (§4.1): it parses host packets
// into VOQs, requests and receives credits, chops credit batches into
// packed cells sprayed across its uplinks, and on the egress side
// reassembles cells into packets and schedules its host ports.
type FabricAdapter struct {
	net *Network
	ID  uint16

	// Ingress.
	voqs       *voq.Manager
	frags      map[fragKey]*cell.Fragmenter
	uplinks    []*link
	upQueues   [][]*cell.Cell
	upSending  []bool
	hostInBusy []sim.Time // per host-port ingress serializer (store-and-forward)

	// Routing.
	table    *reach.Table
	monitors []*reach.Monitor
	spreader *reach.Spreader
	reachTmr *sim.Timer

	// Egress.
	scheds     []*sched.PortScheduler
	schedTmrs  []*sim.Timer
	reasm      map[reasmKey]*cell.Reassembler
	egressQ    []int64 // bytes queued per host port
	egressBusy []bool
	egressPkts [][]*Packet
	expireTmr  *sim.Timer

	// Stats
	CellsSent     uint64
	CellsReceived uint64
	FCIReceived   uint64
	UplinkDrops   uint64
	NoRouteDrops  uint64
	ReasmDrops    uint64
	EgressPeakB   int64
}

type reasmKey struct {
	src uint16
	tc  uint8
}

// fragKey scopes one cell sequence space: all VOQs toward the same
// destination FA and traffic class share a fragmenter, because the
// destination reassembles one stream per (source FA, traffic class).
type fragKey struct {
	dst uint16
	tc  uint8
}

func newFabricAdapter(n *Network, id uint16, numUplinks int) *FabricAdapter {
	fa := &FabricAdapter{
		net:        n,
		ID:         id,
		voqs:       voq.NewManager(n.Cfg.FAIngressBufBytes),
		frags:      make(map[fragKey]*cell.Fragmenter),
		uplinks:    make([]*link, numUplinks),
		upQueues:   make([][]*cell.Cell, numUplinks),
		upSending:  make([]bool, numUplinks),
		hostInBusy: make([]sim.Time, n.Cfg.HostPortsPerFA),
		table:      reach.NewTable(n.clos.NumFA, numUplinks),
		spreader:   reach.NewSpreader(numUplinks, 4, n.Cfg.Seed+int64(id)*31337),
		reasm:      make(map[reasmKey]*cell.Reassembler),
		egressQ:    make([]int64, n.Cfg.HostPortsPerFA),
		egressBusy: make([]bool, n.Cfg.HostPortsPerFA),
		egressPkts: make([][]*Packet, n.Cfg.HostPortsPerFA),
	}
	for i := 0; i < numUplinks; i++ {
		fa.monitors = append(fa.monitors, reach.NewMonitor(n.Cfg.ReachInterval, n.Cfg.ReachThreshold))
	}
	for p := 0; p < n.Cfg.HostPortsPerFA; p++ {
		cfg := n.Cfg.Credit
		cfg.PortRateBps = n.Cfg.HostPortBps
		fa.scheds = append(fa.scheds, sched.New(cfg))
	}
	fa.voqs.OnActivate = fa.onVOQActivate
	return fa
}

func (fa *FabricAdapter) start() {
	// Reachability: advertise self on every uplink, monitor the adverts
	// coming back down from tier 1.
	fa.reachTmr = sim.NewTimer(fa.net.Sim)
	var tick func()
	tick = func() {
		fa.reachTick()
		fa.reachTmr.Arm(fa.net.Cfg.ReachInterval, tick)
	}
	offset := sim.Time((int64(fa.ID)*40503 + 17) % int64(fa.net.Cfg.ReachInterval))
	fa.net.Sim.After(offset, tick)

	// Per-port credit generation loops.
	for p := range fa.scheds {
		port := p
		tmr := sim.NewTimer(fa.net.Sim)
		fa.schedTmrs = append(fa.schedTmrs, tmr)
		var loop func()
		loop = func() {
			s := fa.scheds[port]
			if c, ok := s.NextCredit(); ok {
				fa.net.sendFAtoFA(fa.ID, c.To.SrcFA, creditGrant{
					SrcFA:   c.To.SrcFA,
					DstFA:   fa.ID,
					DstPort: uint8(port),
					TC:      c.To.TC,
					Bytes:   c.Bytes,
				})
			}
			tmr.Arm(s.CreditInterval(), loop)
		}
		tmr.Arm(fa.scheds[port].CreditInterval(), loop)
	}

	// Reassembly expiry sweep.
	fa.expireTmr = sim.NewTimer(fa.net.Sim)
	var sweep func()
	sweep = func() {
		now := fa.net.Sim.Now()
		for _, r := range fa.reasm {
			if n := r.Expire(now); n > 0 {
				fa.ReasmDrops += uint64(n)
			}
		}
		fa.expireTmr.Arm(fa.net.Cfg.ReassemblyTimeout/2, sweep)
	}
	fa.expireTmr.Arm(fa.net.Cfg.ReassemblyTimeout/2, sweep)
}

func (fa *FabricAdapter) reachTick() {
	now := fa.net.Sim.Now()
	for port, mon := range fa.monitors {
		if fa.uplinks[port] == nil {
			continue
		}
		if mon.Tick(now) {
			fa.table.LinkDown(port)
		}
	}
	self := reach.NewBitmap(fa.net.clos.NumFA)
	self.Set(int(fa.ID))
	msgs := reach.BuildMessages(fa.ID, self, fa.net.clos.NumFA)
	for _, l := range fa.uplinks {
		if l == nil {
			continue
		}
		for _, m := range msgs {
			m.Faulty = l.faulty
			l.sendMsg(reachMsg{msg: m})
		}
	}
}

// Converged reports whether this FA currently has at least one live path
// to every other FA.
func (fa *FabricAdapter) Converged() bool {
	for dst := 0; dst < fa.net.clos.NumFA; dst++ {
		if dst == int(fa.ID) {
			continue
		}
		if !fa.table.Reachable(dst) {
			return false
		}
	}
	return true
}

// ingress accepts a packet from a host (§4.1 ingress path). With
// store-and-forward the packet enters its VOQ only after full reception at
// the host port rate.
func (fa *FabricAdapter) ingress(p *Packet) bool {
	k := voq.Key{DstFA: p.DstFA, DstPort: p.DstPort, TC: p.TC}
	if fa.net.Cfg.StoreAndForward {
		now := fa.net.Sim.Now()
		// Serialize arriving packets per ingress host port.
		port := int(p.SrcPort) % len(fa.hostInBusy)
		start := fa.hostInBusy[port]
		if start < now {
			start = now
		}
		rxDone := start + sim.Time(float64(p.Size*8)/fa.net.Cfg.HostPortBps*float64(sim.Second))
		fa.hostInBusy[port] = rxDone
		fa.net.Sim.At(rxDone, func() { fa.enqueue(k, p) })
		return true
	}
	return fa.enqueue(k, p)
}

func (fa *FabricAdapter) enqueue(k voq.Key, p *Packet) bool {
	ok := fa.voqs.Enqueue(k, cell.PacketRef{ID: p.ID, Size: p.Size})
	if !ok {
		fa.net.discard(p.ID)
	}
	return ok
}

// onVOQActivate fires when a VOQ turns non-empty: request credit from the
// destination's egress scheduler (§3.3); low-latency classes transmit
// immediately (§5.6).
func (fa *FabricAdapter) onVOQActivate(k voq.Key, q *voq.Queue) {
	fa.net.sendFAtoFA(fa.ID, k.DstFA, creditRequest{
		SrcFA:   fa.ID,
		DstFA:   k.DstFA,
		DstPort: k.DstPort,
		TC:      k.TC,
		Backlog: q.Bytes(),
	})
	if fa.net.Cfg.LowLatencyTCs[k.TC] {
		fa.net.Sim.After(0, func() { fa.grant(k, fa.net.Cfg.Credit.CreditBytes) })
	}
}

// onCtrl handles control messages arriving at this FA.
func (fa *FabricAdapter) onCtrl(port int, m any) {
	switch v := m.(type) {
	case reachMsg:
		mon := fa.monitors[port]
		wasUp := mon.State() == reach.LinkUpState
		mon.OnMessage(fa.net.Sim.Now(), v.msg.Faulty)
		if mon.State() == reach.LinkUpState {
			fa.table.ApplyMessage(port, v.msg)
		} else if wasUp {
			fa.table.LinkDown(port)
		}
	}
}

// onFAMsg handles end-to-end control messages (requests and credits).
func (fa *FabricAdapter) onFAMsg(m any) {
	switch v := m.(type) {
	case creditRequest:
		fa.scheds[v.DstPort].Request(sched.Requester{SrcFA: v.SrcFA, TC: v.TC}, v.Backlog)
	case creditGrant:
		fa.grant(voq.Key{DstFA: v.DstFA, DstPort: v.DstPort, TC: v.TC}, v.Bytes)
	}
}

// grant releases a credit-worth of packets from the VOQ, fragments them
// into packed cells and sprays the cells across the eligible uplinks
// (§3.2, §3.4).
func (fa *FabricAdapter) grant(k voq.Key, bytes int64) {
	batch := fa.voqs.Grant(k, bytes)
	if len(batch) == 0 {
		return
	}
	// Refresh the egress scheduler's backlog view (withdraws at zero).
	fa.net.sendFAtoFA(fa.ID, k.DstFA, creditRequest{
		SrcFA: fa.ID, DstFA: k.DstFA, DstPort: k.DstPort, TC: k.TC,
		Backlog: fa.voqs.Backlog(k),
	})
	fk := fragKey{dst: k.DstFA, tc: k.TC}
	fr := fa.frags[fk]
	if fr == nil {
		fr = cell.NewFragmenter(fa.net.Cfg.CellSize, fa.net.Cfg.Packing)
		fa.frags[fk] = fr
	}
	now := fa.net.Sim.Now()
	for _, ref := range batch {
		if p := fa.net.packet(ref.ID); p != nil {
			p.Dequeued = now
		}
	}
	cells := fr.Fragment(fa.ID, k.DstFA, k.TC, batch)
	eligible := fa.table.Links(int(k.DstFA))
	for _, c := range cells {
		out := fa.spreader.Next(eligible)
		if out < 0 {
			fa.NoRouteDrops++
			fa.net.discard(discardIDs(c)...)
			continue
		}
		fa.sendOnUplink(out, eligible, c)
	}
}

// sendOnUplink enqueues a cell on the chosen uplink; if that serializer's
// queue is full it falls back to the other eligible links (the load
// balancer weighs link occupancy, §4.2) and drops only when every path is
// saturated.
func (fa *FabricAdapter) sendOnUplink(port int, eligible reach.Bitmap, c *cell.Cell) {
	for tries := 0; tries < len(fa.uplinks); tries++ {
		if len(fa.upQueues[port]) < fa.net.Cfg.FAUplinkQueueCells {
			fa.upQueues[port] = append(fa.upQueues[port], c)
			if !fa.upSending[port] {
				fa.drainUplink(port)
			}
			return
		}
		next := fa.spreader.Next(eligible)
		if next < 0 {
			break
		}
		port = next
	}
	fa.UplinkDrops++
	fa.net.discard(discardIDs(c)...)
}

func (fa *FabricAdapter) drainUplink(port int) {
	q := fa.upQueues[port]
	if len(q) == 0 {
		fa.upSending[port] = false
		return
	}
	fa.upSending[port] = true
	c := q[0]
	fa.upQueues[port] = q[1:]
	fa.CellsSent++
	txDone := fa.uplinks[port].sendCell(c)
	fa.net.Sim.At(txDone, func() { fa.drainUplink(port) })
}

// onFabricCell receives a data cell from the fabric: reassemble, and when
// packets complete, queue them on their egress port (§4.1 egress path).
func (fa *FabricAdapter) onFabricCell(port int, c *cell.Cell) {
	_ = port
	fa.CellsReceived++
	if c.Header.Flags&cell.FlagFCI != 0 {
		fa.FCIReceived++
		// Throttle the schedulers of the ports this cell feeds (§4.2).
		seen := map[uint8]bool{}
		for _, seg := range c.Segments {
			if p := fa.net.packet(seg.Packet.ID); p != nil && !seen[p.DstPort] {
				seen[p.DstPort] = true
				fa.scheds[p.DstPort].OnFCI()
			}
		}
	}
	rk := reasmKey{src: c.Header.Src, tc: c.Header.TC}
	r := fa.reasm[rk]
	if r == nil {
		r = cell.NewReassembler(fa.net.Cfg.ReassemblySkew, fa.net.Cfg.ReassemblyTimeout)
		fa.reasm[rk] = r
	}
	done := r.Push(fa.net.Sim.Now(), c)
	for _, ref := range done {
		p := fa.net.packet(ref.ID)
		if p == nil {
			continue // dropped elsewhere; tail arrived anyway
		}
		p.Reassembled = fa.net.Sim.Now()
		fa.egressEnqueue(p)
	}
}

func (fa *FabricAdapter) egressEnqueue(p *Packet) {
	port := int(p.DstPort)
	fa.egressQ[port] += int64(p.Size)
	if fa.egressQ[port] > fa.EgressPeakB {
		fa.EgressPeakB = fa.egressQ[port]
	}
	fa.egressPkts[port] = append(fa.egressPkts[port], p)
	// Egress buffer watermarks gate the credit scheduler (§4.1).
	if fa.egressQ[port] > fa.net.Cfg.FAEgressBufBytes*3/4 {
		fa.scheds[port].Pause()
	}
	if !fa.egressBusy[port] {
		fa.drainEgress(port)
	}
}

func (fa *FabricAdapter) drainEgress(port int) {
	pkts := fa.egressPkts[port]
	if len(pkts) == 0 {
		fa.egressBusy[port] = false
		return
	}
	fa.egressBusy[port] = true
	p := pkts[0]
	fa.egressPkts[port] = pkts[1:]
	txTime := sim.Time(float64(p.Size*8) / fa.net.Cfg.HostPortBps * float64(sim.Second))
	fa.net.Sim.After(txTime, func() {
		fa.egressQ[port] -= int64(p.Size)
		if fa.egressQ[port] < fa.net.Cfg.FAEgressBufBytes/2 && fa.scheds[port].Paused() {
			fa.scheds[port].Resume()
		}
		fa.net.deliver(p)
		fa.drainEgress(port)
	})
}

// Scheduler returns the egress credit scheduler of the given host port.
func (fa *FabricAdapter) Scheduler(port int) *sched.PortScheduler { return fa.scheds[port] }

// Table exposes the adapter's reachability table for inspection.
func (fa *FabricAdapter) Table() *reach.Table { return fa.table }

// Package core implements the Stardust architecture (§3, §4) as an
// event-driven model: Fabric Adapter devices at the edge (VOQ ingress
// buffering, credit-scheduled egress, cell fragmentation with packet
// packing, out-of-order reassembly) and Fabric Element cell switches in the
// fabric (reachability-table forwarding, per-link shallow queues, FCI
// marking, dynamic per-cell load balancing), wired by serial links with
// real serialization and propagation delay.
//
// Data cells contend for link bandwidth exactly as on the wire. Control
// traffic (credit requests, credits, reachability messages) is modelled as
// delay-only messages: the paper budgets these at well under 0.1% of link
// bandwidth (Appendix E), so they do not contend for capacity in the model.
//
// Package core is deliberately Clos-only: the FA/FE device split, the
// control-crossbar hop budget and the reachability advertisement schedule
// are the paper's chassis architecture, defined over the Clos wiring.
// Topology-pluggable simulation (Space Shuffle, star-replaced graphs, …)
// lives in internal/fabric, whose one fabric.Net runs over any
// topo.Graph; core keeps the device-faithful model it reproduces from
// §3–§4 and never labels non-Clos roles.
package core

import (
	"fmt"

	"stardust/internal/sched"
	"stardust/internal/sim"
	"stardust/internal/topo"
)

// Config parameterizes a Stardust network.
type Config struct {
	CellSize int  // maximum cell size incl. header (e.g. 256)
	Packing  bool // packet packing within credit batches (§3.4)

	LinkBps   float64  // fabric serial link rate (e.g. 50e9)
	LinkDelay sim.Time // per-link propagation (e.g. 500ns for 100m fiber)
	FELatency sim.Time // Fabric Element pipeline latency per hop

	HostPortBps    float64 // edge (host-facing) port rate
	HostPortsPerFA int     // number of host ports per Fabric Adapter

	FAIngressBufBytes  int64 // shared VOQ buffer per FA (§3.3: MBs to GBs)
	FAEgressBufBytes   int64 // egress buffer per port
	FAUplinkQueueCells int   // per-uplink output queue at the FA, in cells

	FEQueueCells    int  // per-output-link queue capacity (cells)
	FESharedCells   int  // extra shared pool on top of per-link capacity
	FCIThreshCells  int  // queue depth that sets FCI on passing cells (§4.2)
	StoreAndForward bool // FA waits for full packet before fragmenting (Arad-style, §6.1.2)

	Credit sched.Config // egress credit scheduler parameters

	ReassemblySkew    int      // max out-of-order cell distance (§4.1)
	ReassemblyTimeout sim.Time // reassembly timer (§4.1)

	ReachInterval  sim.Time // reachability message period per link (App E: c/f)
	ReachThreshold int      // consecutive evidence to flip link state (th)

	// LowLatencyTCs marks traffic classes whose VOQs transmit immediately
	// on activation without waiting for a credit (§5.6).
	LowLatencyTCs map[uint8]bool

	Seed int64
}

// DefaultConfig returns the paper's canonical parameters for a fabric of
// 50G links and 100G host ports.
func DefaultConfig() Config {
	return Config{
		CellSize:           256,
		Packing:            true,
		LinkBps:            50e9,
		LinkDelay:          500 * sim.Nanosecond, // 100m fiber
		FELatency:          300 * sim.Nanosecond,
		HostPortBps:        100e9,
		HostPortsPerFA:     40,
		FAIngressBufBytes:  32 << 20,
		FAEgressBufBytes:   2 << 20,
		FAUplinkQueueCells: 256,
		FEQueueCells:       256,
		FESharedCells:      4096, // ~1MB shared pool (§5.5; §6.2 sizes 8MB/FE)
		FCIThreshCells:     64,
		StoreAndForward:    false,
		Credit:             sched.DefaultConfig(100e9),
		ReassemblySkew:     4096,
		ReassemblyTimeout:  500 * sim.Microsecond,
		ReachInterval:      10 * sim.Microsecond,
		ReachThreshold:     3,
		Seed:               1,
	}
}

// Packet is the unit handed to a Fabric Adapter by a host and delivered to
// a host on the far side.
type Packet struct {
	ID      uint64
	Size    int // bytes as received from the host
	SrcFA   uint16
	SrcPort uint8
	DstFA   uint16
	DstPort uint8
	TC      uint8

	Injected    sim.Time // when the ingress FA accepted it
	Dequeued    sim.Time // when a credit released it from its VOQ
	Reassembled sim.Time
	Delivered   sim.Time // when the egress port finished transmitting it
}

// Latency returns the end-to-end latency of a delivered packet.
func (p *Packet) Latency() sim.Time { return p.Delivered - p.Injected }

// Network is a complete Stardust instance: Fabric Adapters, Fabric
// Elements, and the links between them, sharing one event simulator.
type Network struct {
	Cfg Config
	Sim *sim.Simulator

	FAs []*FabricAdapter
	FEs []*FabricElement // tier-1 elements first, then tier-2

	clos *topo.Clos

	// OnDeliver, when set, observes every packet delivered to a host.
	OnDeliver func(*Packet)

	nextPktID uint64
	inflight  map[uint64]*Packet

	// Metrics
	Delivered  uint64
	DeliveredB uint64
}

// New builds a Stardust network over the given Clos fabric instance.
func New(cfg Config, clos *topo.Clos) (*Network, error) {
	if err := clos.Validate(); err != nil {
		return nil, err
	}
	if cfg.CellSize <= 16 || cfg.LinkBps <= 0 || cfg.HostPortBps <= 0 {
		return nil, fmt.Errorf("core: invalid config")
	}
	if cfg.HostPortsPerFA < 1 || cfg.HostPortsPerFA > 256 {
		return nil, fmt.Errorf("core: host ports per FA out of range")
	}
	n := &Network{
		Cfg:      cfg,
		Sim:      sim.New(),
		clos:     clos,
		inflight: make(map[uint64]*Packet),
	}
	for i := 0; i < clos.NumFA; i++ {
		n.FAs = append(n.FAs, newFabricAdapter(n, uint16(i), clos.FAUplinks))
	}
	for i := 0; i < clos.NumFE1; i++ {
		n.FEs = append(n.FEs, newFabricElement(n, topo.NodeID{Kind: topo.KindFE1, Index: i}, clos.FE1Down+clos.FE1Up))
	}
	for i := 0; i < clos.NumFE2; i++ {
		n.FEs = append(n.FEs, newFabricElement(n, topo.NodeID{Kind: topo.KindFE2, Index: i}, clos.FE2Down))
	}
	for _, l := range clos.Links {
		a := n.endpoint(l.A, l.APort)
		b := n.endpoint(l.B, l.BPort)
		wire(n, a, b)
	}
	// Start periodic reachability advertisement on every device.
	for _, fa := range n.FAs {
		fa.start()
	}
	for _, fe := range n.FEs {
		fe.start()
	}
	return n, nil
}

// fe returns the element for a topo node id.
func (n *Network) fe(id topo.NodeID) *FabricElement {
	switch id.Kind {
	case topo.KindFE1:
		return n.FEs[id.Index]
	case topo.KindFE2:
		return n.FEs[n.clos.NumFE1+id.Index]
	}
	panic("core: not a fabric element: " + id.String())
}

type endpointRef struct {
	fa   *FabricAdapter
	fe   *FabricElement
	port int
}

func (n *Network) endpoint(id topo.NodeID, port int) endpointRef {
	if id.Kind == topo.KindFA {
		return endpointRef{fa: n.FAs[id.Index], port: port}
	}
	return endpointRef{fe: n.fe(id), port: port}
}

// NumFA returns the number of Fabric Adapters.
func (n *Network) NumFA() int { return len(n.FAs) }

// Inject hands a packet to the ingress Fabric Adapter at the current
// simulation time. It returns false if the ingress buffer dropped it.
func (n *Network) Inject(srcFA uint16, srcPort uint8, dstFA uint16, dstPort uint8, tc uint8, size int) (bool, *Packet) {
	n.nextPktID++
	p := &Packet{
		ID:       n.nextPktID,
		Size:     size,
		SrcFA:    srcFA,
		SrcPort:  srcPort,
		DstFA:    dstFA,
		DstPort:  dstPort,
		TC:       tc,
		Injected: n.Sim.Now(),
	}
	n.inflight[p.ID] = p
	if ok := n.FAs[srcFA].ingress(p); !ok {
		return false, p
	}
	return true, p
}

func (n *Network) deliver(p *Packet) {
	p.Delivered = n.Sim.Now()
	n.Delivered++
	n.DeliveredB += uint64(p.Size)
	delete(n.inflight, p.ID)
	if n.OnDeliver != nil {
		n.OnDeliver(p)
	}
}

func (n *Network) packet(id uint64) *Packet { return n.inflight[id] }

func (n *Network) discard(ids ...uint64) {
	for _, id := range ids {
		delete(n.inflight, id)
	}
}

// sendFAtoFA delivers an end-to-end control message (credit request or
// grant) between Fabric Adapters. Control messages ride the fabric's
// dedicated control crossbar (§4.2); they are modelled as delay-only with
// the worst-case hop count of the fabric.
func (n *Network) sendFAtoFA(src, dst uint16, m any) {
	if src == dst {
		n.Sim.After(0, func() { n.FAs[dst].onFAMsg(m) })
		return
	}
	links := int64(2 * n.clos.Tiers)
	fes := links - 1
	msgTx := sim.Time(int64(24) * int64(8e12/n.Cfg.LinkBps))
	delay := sim.Time(links)*(n.Cfg.LinkDelay+msgTx) + sim.Time(fes)*n.Cfg.FELatency
	n.Sim.After(delay, func() { n.FAs[dst].onFAMsg(m) })
}

// Run drives the simulation until the given time.
func (n *Network) Run(until sim.Time) { n.Sim.RunUntil(until) }

// Converged reports whether every Fabric Adapter has a live path to every
// other Fabric Adapter.
func (n *Network) Converged() bool {
	for _, fa := range n.FAs {
		if !fa.Converged() {
			return false
		}
	}
	return true
}

// WarmUp runs the simulation until reachability converges or the budget
// elapses. Returns the convergence state.
func (n *Network) WarmUp(budget sim.Time) bool {
	deadline := n.Sim.Now() + budget
	step := sim.Time(int64(n.Cfg.ReachInterval))
	for n.Sim.Now() < deadline {
		n.Sim.RunUntil(n.Sim.Now() + step)
		if n.Converged() {
			return true
		}
	}
	return n.Converged()
}

// FailLink takes down the link attached to the given device port in both
// directions (the fiber is cut). Reachability keepalive loss withdraws the
// paths within the configured detection time (§5.9).
func (n *Network) FailLink(id topo.NodeID, port int) error {
	ep := n.endpoint(id, port)
	var l *link
	if ep.fa != nil {
		l = ep.fa.uplinks[port]
	} else {
		l = ep.fe.links[port]
	}
	if l == nil {
		return fmt.Errorf("core: no link at %v port %d", id, port)
	}
	l.fail()
	l.peerLink().fail()
	return nil
}

// RestoreLink brings a failed link back up.
func (n *Network) RestoreLink(id topo.NodeID, port int) error {
	ep := n.endpoint(id, port)
	var l *link
	if ep.fa != nil {
		l = ep.fa.uplinks[port]
	} else {
		l = ep.fe.links[port]
	}
	if l == nil {
		return fmt.Errorf("core: no link at %v port %d", id, port)
	}
	l.restore()
	l.peerLink().restore()
	return nil
}

// SetLinkFaulty marks (or clears) the link at the given device port as
// error-degraded: the transmitting side flags itself faulty on its
// reachability cells and the receiver excludes it from forwarding until
// the flag clears and the threshold of good messages passes (§5.10).
func (n *Network) SetLinkFaulty(id topo.NodeID, port int, faulty bool) error {
	ep := n.endpoint(id, port)
	var l *link
	if ep.fa != nil {
		l = ep.fa.uplinks[port]
	} else {
		l = ep.fe.links[port]
	}
	if l == nil {
		return fmt.Errorf("core: no link at %v port %d", id, port)
	}
	l.faulty = faulty
	l.peerLink().faulty = faulty
	return nil
}

// FailDevice silences a Fabric Element entirely (§5.10: it stops sending
// reachability messages and forwards nothing).
func (n *Network) FailDevice(id topo.NodeID) error {
	if id.Kind == topo.KindFA {
		return fmt.Errorf("core: failing Fabric Adapters is not modelled")
	}
	fe := n.fe(id)
	fe.failed = true
	for _, l := range fe.links {
		if l != nil {
			l.fail()
			l.peerLink().fail()
		}
	}
	return nil
}

package netsim

import (
	"fmt"

	"stardust/internal/sim"
	"stardust/internal/topo"
)

// FatTreeConfig sizes the simulated fat-tree of Appendix G: all links the
// same rate (10G in the paper), per-port buffering of QueuePackets full
// packets, and optional ECN marking for DCTCP/DCQCN.
type FatTreeConfig struct {
	K            int
	LinkRate     Bps
	LinkDelay    sim.Time
	QueuePackets int // buffer per port, in MTU-size packets (paper: 100)
	MTU          int
	ECNThreshPkt int // marking threshold in packets (0 = off)
}

// DefaultFatTree returns the 432-node configuration of §6.3.
func DefaultFatTree() FatTreeConfig {
	return FatTreeConfig{
		K:            12,
		LinkRate:     10e9,
		LinkDelay:    sim.Microsecond, // ~200m at 5ns/m, htsim-style
		QueuePackets: 100,
		MTU:          9000,
		ECNThreshPkt: 0,
	}
}

// FatTreeNet owns the queues and pipes of a fat-tree instance. Directed
// hops are modelled as a serialization queue followed by a propagation
// pipe.
type FatTreeNet struct {
	Cfg  FatTreeConfig
	Sim  *sim.Simulator
	Topo *topo.FatTree

	// queues[level] indexed by the *source* device of the hop and, for
	// fan-out levels, the chosen next device.
	hostUp   []*Queue   // host -> edge (one per host)
	edgeUp   [][]*Queue // edge -> agg: [edge][aggPos]
	aggUp    [][]*Queue // agg -> core: [agg][corePos]
	coreDown [][]*Queue // core -> agg: [core][pod]
	aggDown  [][]*Queue // agg -> edge: [agg][edgePos]
	edgeDown [][]*Queue // edge -> host: [edge][hostPos]
	pipes    *Pipe      // shared: all links have identical delay
}

// NewFatTreeNet builds all queues for a k-ary fat-tree.
func NewFatTreeNet(s *sim.Simulator, cfg FatTreeConfig) (*FatTreeNet, error) {
	ft, err := topo.NewFatTree(cfg.K)
	if err != nil {
		return nil, err
	}
	if cfg.LinkRate <= 0 || cfg.QueuePackets < 1 || cfg.MTU < 64 {
		return nil, fmt.Errorf("netsim: bad fat-tree config")
	}
	n := &FatTreeNet{Cfg: cfg, Sim: s, Topo: ft, pipes: NewPipe(s, cfg.LinkDelay)}
	maxB := cfg.QueuePackets * cfg.MTU
	ecn := cfg.ECNThreshPkt * cfg.MTU
	h := cfg.K / 2
	mk := func(name string) *Queue { return NewQueue(s, name, cfg.LinkRate, maxB, ecn) }

	n.hostUp = make([]*Queue, ft.Hosts)
	for i := range n.hostUp {
		n.hostUp[i] = mk(fmt.Sprintf("h%d-up", i))
	}
	n.edgeUp = make([][]*Queue, ft.Edges)
	n.edgeDown = make([][]*Queue, ft.Edges)
	for e := 0; e < ft.Edges; e++ {
		n.edgeUp[e] = make([]*Queue, h)
		n.edgeDown[e] = make([]*Queue, h)
		for a := 0; a < h; a++ {
			n.edgeUp[e][a] = mk(fmt.Sprintf("e%d-a%d", e, a))
			n.edgeDown[e][a] = mk(fmt.Sprintf("e%d-h%d", e, a))
		}
	}
	n.aggUp = make([][]*Queue, ft.Aggs)
	n.aggDown = make([][]*Queue, ft.Aggs)
	for a := 0; a < ft.Aggs; a++ {
		n.aggUp[a] = make([]*Queue, h)
		n.aggDown[a] = make([]*Queue, h)
		for c := 0; c < h; c++ {
			n.aggUp[a][c] = mk(fmt.Sprintf("a%d-c%d", a, c))
			n.aggDown[a][c] = mk(fmt.Sprintf("a%d-e%d", a, c))
		}
	}
	n.coreDown = make([][]*Queue, ft.Cores)
	for c := 0; c < ft.Cores; c++ {
		n.coreDown[c] = make([]*Queue, cfg.K)
		for p := 0; p < cfg.K; p++ {
			n.coreDown[c][p] = mk(fmt.Sprintf("c%d-p%d", c, p))
		}
	}
	return n, nil
}

// Paths returns the number of distinct paths between two hosts.
func (n *FatTreeNet) Paths(src, dst int) int { return n.Topo.PathsBetween(src, dst) }

// Route returns the forward route (queues and pipes interleaved) from src
// host to dst host using the given ECMP path choice. The caller appends
// the destination endpoint.
func (n *FatTreeNet) Route(src, dst, choice int) []Handler {
	hops := n.Topo.Route(src, dst, choice)
	h := n.Cfg.K / 2
	var out []Handler
	add := func(q *Queue) { out = append(out, q, n.pipes) }
	for _, hp := range hops {
		switch hp.Level {
		case 0:
			add(n.hostUp[src])
		case 1:
			add(n.edgeUp[hp.From][hp.To%h])
		case 2:
			add(n.aggUp[hp.From][hp.To%h])
		case 3:
			add(n.coreDown[hp.From][n.Topo.AggPod(hp.To)])
		case 4:
			add(n.aggDown[hp.From][hp.To%h])
		case 5:
			add(n.edgeDown[hp.From][dst%h])
		}
	}
	return out
}

// AllQueues visits every queue (for aggregate statistics).
func (n *FatTreeNet) AllQueues(fn func(*Queue)) {
	for _, q := range n.hostUp {
		fn(q)
	}
	for _, qs := range n.edgeUp {
		for _, q := range qs {
			fn(q)
		}
	}
	for _, qs := range n.edgeDown {
		for _, q := range qs {
			fn(q)
		}
	}
	for _, qs := range n.aggUp {
		for _, q := range qs {
			fn(q)
		}
	}
	for _, qs := range n.aggDown {
		for _, q := range qs {
			fn(q)
		}
	}
	for _, qs := range n.coreDown {
		for _, q := range qs {
			fn(q)
		}
	}
}

// EdgeUplinkBytes returns forwarded bytes per edge-switch uplink queue in
// device-major order — the ECMP load-balance evidence compared against
// the cell fabric's per-link spread in fabric/linkload.
func (n *FatTreeNet) EdgeUplinkBytes() []uint64 {
	var out []uint64
	for _, qs := range n.edgeUp {
		for _, q := range qs {
			out = append(out, q.FwdBytes())
		}
	}
	return out
}

// TotalDrops sums tail drops across the network.
func (n *FatTreeNet) TotalDrops() uint64 {
	var d uint64
	n.AllQueues(func(q *Queue) { d += q.Drops })
	return d
}

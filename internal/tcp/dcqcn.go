package tcp

import (
	"stardust/internal/netsim"
	"stardust/internal/sim"
)

// DCQCN implements the rate-based congestion control of [82] as used in
// the §6.3 comparison: ECN-marked packets trigger CNPs from the
// notification point (receiver) at most once per CNP interval; the
// reaction point (sender) cuts its rate multiplicatively by alpha/2 and
// recovers through fast-recovery halving steps followed by additive
// increase.
type DCQCN struct {
	Sim  *sim.Simulator
	Name string

	MSS       int
	LineRate  netsim.Bps
	FlowBytes int64 // 0 = long-running
	// MaxInflight is the PFC-style pause point: the sender stops injecting
	// new data while more than this many bytes are unacked, the way a
	// PFC-paused NIC stops draining its queue. Deployed DCQCN runs over a
	// lossless (PFC) fabric, so a sender can never have unbounded data
	// outstanding in full queues; without this bound a lossy simulated
	// fabric livelocks under heavy fan-in (flows keep blasting new data at
	// line rate while every cumulative ack is stalled behind a loss hole).
	// NewDCQCN initializes it to DefaultMaxInflight; setting it to 0
	// afterwards disables the pause entirely.
	MaxInflight int64

	fwd  []netsim.Handler
	free *netsim.FreeList // the loop's: data packets come from it, acks go back to it

	rate      netsim.Bps
	target    netsim.Bps
	alpha     float64
	g         float64
	stage     int // fast-recovery iterations since last CNP
	rAI       netsim.Bps
	minRate   netsim.Bps
	incTimer  *sim.Timer
	alphaTmr  *sim.Timer
	cnpSeen   bool
	sending   bool
	chain     bool // a pace() chain is scheduled
	highest   int64
	cumAck    int64
	dupAcks   int
	recover   int64 // highest byte outstanding at the last loss escape
	rtoTimer  *sim.Timer
	rtoPeriod sim.Time

	Done       bool
	DoneAt     sim.Time
	OnComplete func(*DCQCN)
	startAt    sim.Time

	// Cached method values so per-packet pacing and per-period timer
	// re-arms do not allocate closures.
	paceFn     func()
	increaseFn func()
	alphaFn    func()
	rtoFn      func()

	// Stats
	CNPs        uint64
	Retransmits uint64
	FastRecov   uint64 // dup-ack loss escapes (see lossEscape)
	DeliveredB  int64
}

// DCQCNTimer is the rate-increase and alpha-update period (55us in [82]).
const DCQCNTimer = 55 * sim.Microsecond

// DefaultMaxInflight is the default PFC-style pause point (see
// DCQCN.MaxInflight): roughly one 100-packet switch buffer of 9KB MTUs.
const DefaultMaxInflight = 256 << 10

// CNPInterval is the minimum gap between CNPs from the notification point
// (50us in [82]).
const CNPInterval = 50 * sim.Microsecond

// NewDCQCN creates a sender at line rate.
func NewDCQCN(s *sim.Simulator, name string, mss int, lineRate netsim.Bps, flowBytes int64, fwd []netsim.Handler) *DCQCN {
	d := &DCQCN{
		Sim:       s,
		Name:      name,
		MSS:       mss,
		LineRate:  lineRate,
		FlowBytes: flowBytes,
		fwd:       fwd,
		free:      netsim.FreeListOf(s),
		rate:      lineRate,
		target:    lineRate,
		g:         1.0 / 256,
		rAI:       40e6, // 40 Mbps additive step [82]
		minRate:   1e6,
		rtoPeriod: 4 * sim.Millisecond,
	}
	d.MaxInflight = DefaultMaxInflight
	d.incTimer = sim.NewTimer(s)
	d.alphaTmr = sim.NewTimer(s)
	d.rtoTimer = sim.NewTimer(s)
	d.paceFn = d.pace
	d.increaseFn = d.increase
	d.alphaFn = d.onAlphaDecay
	d.rtoFn = d.onRTO
	return d
}

// SetRoute installs the forward route (must end at the DCQCNSink).
func (d *DCQCN) SetRoute(route []netsim.Handler) { d.fwd = route }

// Start begins paced transmission.
func (d *DCQCN) Start() {
	d.startAt = d.Sim.Now()
	d.sending = true
	d.pace()
	d.armAlphaDecay()
	d.armRTO()
}

// StartAt schedules Start.
func (d *DCQCN) StartAt(t sim.Time) { d.Sim.At(t, d.Start) }

// FCT returns the completion time.
func (d *DCQCN) FCT() sim.Time { return d.DoneAt - d.startAt }

// Rate returns the current sending rate.
func (d *DCQCN) Rate() netsim.Bps { return d.rate }

func (d *DCQCN) pace() {
	if d.Done || !d.sending {
		d.chain = false
		return
	}
	if d.FlowBytes > 0 && d.highest >= d.FlowBytes {
		// Everything sent; wait for acks (retransmit timer handles loss).
		d.chain = false
		return
	}
	if d.MaxInflight > 0 && d.highest-d.cumAck >= d.MaxInflight {
		// PFC-style pause: too much unacked data outstanding. OnAck
		// resumes the chain as soon as the window drains.
		d.chain = false
		return
	}
	d.chain = true
	size := int64(d.MSS)
	if d.FlowBytes > 0 && d.highest+size > d.FlowBytes {
		size = d.FlowBytes - d.highest
	}
	p := d.free.Get()
	p.Size = int(size)
	p.Seq = d.highest
	p.Flow = d
	p.SetRoute(d.fwd)
	p.SendOn()
	d.highest += size
	gap := sim.Time(float64(size*8) / float64(d.rate) * float64(sim.Second))
	d.Sim.After(gap, d.paceFn)
}

// OnAck handles a cumulative ack from the notification point.
func (d *DCQCN) OnAck(ack int64) {
	if d.Done {
		return
	}
	if ack > d.cumAck {
		d.cumAck = ack
		d.DeliveredB = ack
		d.dupAcks = 0
		d.armRTO()
		if !d.chain && d.sending {
			d.pace() // resume after a PFC-style pause
		}
	} else if ack == d.cumAck && d.highest > d.cumAck {
		// A packet landed beyond a hole: the hole was lost, not delayed.
		// Three duplicates trigger the loss escape at RTT timescale
		// instead of waiting out the full retransmission timeout.
		d.dupAcks++
		if d.dupAcks >= 3 && d.cumAck >= d.recover {
			d.dupAcks = 0
			d.FastRecov++
			d.lossEscape()
			d.highest = d.cumAck
			if !d.chain {
				d.pace()
			}
			d.armRTO()
		}
	}
	if d.FlowBytes > 0 && d.cumAck >= d.FlowBytes {
		d.Done = true
		d.DoneAt = d.Sim.Now()
		d.incTimer.Cancel()
		d.alphaTmr.Cancel()
		d.rtoTimer.Cancel()
		if d.OnComplete != nil {
			d.OnComplete(d)
		}
	}
}

// OnCNP handles a congestion notification packet: multiplicative decrease
// and reset of the recovery state machine.
func (d *DCQCN) OnCNP() {
	if d.Done {
		return
	}
	d.CNPs++
	d.cnpSeen = true
	d.alpha = (1-d.g)*d.alpha + d.g
	d.target = d.rate
	d.rate = netsim.Bps(float64(d.rate) * (1 - d.alpha/2))
	if d.rate < d.minRate {
		d.rate = d.minRate
	}
	d.stage = 0
	d.incTimer.Arm(DCQCNTimer, d.increaseFn)
}

func (d *DCQCN) increase() {
	if d.Done {
		return
	}
	if d.stage < 5 {
		// Fast recovery: halve toward the target.
		d.rate = (d.rate + d.target) / 2
		d.stage++
	} else {
		// Additive increase.
		d.target += d.rAI
		if d.target > d.LineRate {
			d.target = d.LineRate
		}
		d.rate = (d.rate + d.target) / 2
	}
	if d.rate > d.LineRate {
		d.rate = d.LineRate
	}
	d.incTimer.Arm(DCQCNTimer, d.increaseFn)
}

func (d *DCQCN) armAlphaDecay() {
	d.alphaTmr.Arm(DCQCNTimer, d.alphaFn)
}

func (d *DCQCN) onAlphaDecay() {
	if !d.cnpSeen {
		d.alpha *= 1 - d.g
	}
	d.cnpSeen = false
	d.armAlphaDecay()
}

func (d *DCQCN) armRTO() {
	d.rtoTimer.Arm(d.rtoPeriod, d.rtoFn)
}

func (d *DCQCN) onRTO() {
	if d.Done {
		return
	}
	// No cumulative progress for a full period: go back to the hole.
	// DCQCN fabrics are near-lossless so this is a rare recovery path.
	d.Retransmits++
	d.lossEscape()
	d.highest = d.cumAck
	if !d.chain {
		d.pace()
	}
	d.armRTO()
}

// lossEscape is the rate-recovery escape for detected packet loss: a loss
// (dup-acks or a retransmission timeout) means packets died in a full
// queue before the ECN marker could slow us down — congestion more severe
// than any CNP can signal (deployed DCQCN never sees this because PFC
// keeps the fabric lossless). Saturate alpha and cut hard so the offered
// load falls below the loss point and the normal CNP/alpha control loop
// can take over again. Further escapes are suppressed until the hole
// outstanding at this escape is repaired (NewReno-style), so one loss
// burst is answered by one cut.
func (d *DCQCN) lossEscape() {
	d.recover = d.highest
	d.alpha = 1
	d.target = d.rate
	d.rate /= 2
	if d.rate < d.minRate {
		d.rate = d.minRate
	}
	d.stage = 0
	d.incTimer.Arm(DCQCNTimer, d.increaseFn)
}

// DCQCNSink is the notification point: cumulative acks per packet plus
// CNPs for marked packets, rate-limited to one per CNPInterval.
type DCQCNSink struct {
	Sim     *sim.Simulator
	Src     *DCQCN
	rev     []netsim.Handler
	free    *netsim.FreeList // the loop's
	cumAck  int64
	ooo     map[int64]int
	lastCNP sim.Time

	ReceivedB int64
}

// NewDCQCNSink builds the receiver; rev must end at DCQCNAck.
func NewDCQCNSink(s *sim.Simulator, src *DCQCN, rev []netsim.Handler) *DCQCNSink {
	return &DCQCNSink{Sim: s, Src: src, rev: rev, free: netsim.FreeListOf(s), ooo: make(map[int64]int), lastCNP: -1 << 60}
}

// Receive implements netsim.Handler.
func (k *DCQCNSink) Receive(p *netsim.Packet) {
	k.ReceivedB += int64(p.Size)
	if p.Seq == k.cumAck {
		k.cumAck += int64(p.Size)
		for {
			sz, ok := k.ooo[k.cumAck]
			if !ok {
				break
			}
			delete(k.ooo, k.cumAck)
			k.cumAck += int64(sz)
		}
	} else if p.Seq > k.cumAck {
		k.ooo[p.Seq] = p.Size
	}
	ce := p.CE
	k.free.Put(p)
	ack := k.free.Get()
	ack.Size = 64
	ack.Ack = true
	ack.Seq = k.cumAck
	ack.Flow = k.Src
	if ce && k.Sim.Now()-k.lastCNP >= CNPInterval {
		k.lastCNP = k.Sim.Now()
		ack.Echo = true // congestion notification packet
	}
	ack.SetRoute(k.rev)
	ack.SendOn()
}

// DCQCNAckEndpoint terminates the reverse route for DCQCN flows.
type DCQCNAckEndpoint struct{}

// Receive implements netsim.Handler.
func (DCQCNAckEndpoint) Receive(p *netsim.Packet) {
	src, ok := p.Flow.(*DCQCN)
	if !ok {
		return // not an ACK of ours: left to the garbage collector
	}
	seq, echo := p.Seq, p.Echo
	src.free.Put(p)
	if echo {
		src.OnCNP()
	}
	src.OnAck(seq)
}

// DCQCNAck is a shared endpoint.
var DCQCNAck DCQCNAckEndpoint

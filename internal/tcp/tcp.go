// Package tcp implements the transport endpoints compared in §6.3
// (Fig 10): TCP NewReno, DCTCP (ECN-fraction congestion control), MPTCP
// with LIA coupling, and DCQCN rate-based control, all running over
// package netsim.
package tcp

import (
	"stardust/internal/netsim"
	"stardust/internal/sim"
)

// Config holds per-flow transport parameters.
type Config struct {
	MSS        int      // segment size (paper: 9000B for the TCP variants)
	InitialWnd int      // initial window in segments
	MaxCwnd    int      // receive-window cap in bytes (htsim-style maxcwnd)
	RTOMin     sim.Time // minimum retransmission timeout
	DCTCP      bool     // enable ECN-fraction window scaling
	DCTCPGain  float64  // g (1/16 by default)
	AckBytes   int      // ACK packet size on the wire
}

// DefaultConfig returns the htsim-style defaults used in §6.3.
func DefaultConfig() Config {
	return Config{
		MSS:        9000,
		InitialWnd: 2,
		MaxCwnd:    1 << 20, // ~116 segments of 9000B
		RTOMin:     1 * sim.Millisecond,
		DCTCPGain:  1.0 / 16,
		AckBytes:   64,
	}
}

// Source is a TCP NewReno sender (optionally DCTCP). One Source drives one
// flow over a fixed route.
type Source struct {
	Sim  *sim.Simulator
	Cfg  Config
	Name string

	FlowBytes int64 // total bytes to send; 0 = unbounded (long-running)

	// Quota-fed mode (MPTCP subflows): the sender pulls byte permissions
	// from a shared pool instead of owning a fixed FlowBytes.
	quota *Quota
	end   int64 // current assigned end of this sender's byte stream

	fwd  []netsim.Handler // route to the sink (sink included)
	free *netsim.FreeList // the loop's: data packets come from it, acks go back to it

	cwnd      float64 // bytes
	ssthresh  float64
	highest   int64 // next byte to send
	cumAck    int64
	recover   int64
	dupacks   int
	inFastRec bool

	srtt, rttvar sim.Time
	rto          sim.Time
	timedSeq     int64
	timedAt      sim.Time
	rtoTimer     *sim.Timer
	backoff      int

	// DCTCP state.
	alpha       float64
	bytesAcked  int64
	bytesMarked int64
	obsWindowHi int64
	lastCutHi   int64

	// MPTCP hook: called on each in-CA ACK to let the coupled controller
	// override the additive increase (nil = standalone NewReno increase).
	couple func(s *Source, ackedBytes int64)

	// Completion.
	Done       bool
	DoneAt     sim.Time
	OnComplete func(*Source)
	// OnAcked observes every cumulative-ack advance (bytes newly acked).
	OnAcked func(int64)

	// Stats
	Retransmits uint64
	Timeouts    uint64
	DeliveredB  int64 // cumulative acked bytes
	startAt     sim.Time
	started     bool

	// onTimeoutFn caches the onTimeout method value so re-arming the RTO
	// timer on every ACK does not allocate a closure.
	onTimeoutFn func()
}

// NewSource creates a sender; route is the forward path and must end at
// the flow's Sink.
func NewSource(s *sim.Simulator, cfg Config, name string, flowBytes int64, route []netsim.Handler) *Source {
	src := &Source{
		Sim:       s,
		Cfg:       cfg,
		Name:      name,
		FlowBytes: flowBytes,
		fwd:       route,
		free:      netsim.FreeListOf(s),
		cwnd:      float64(cfg.InitialWnd * cfg.MSS),
		ssthresh:  1 << 30,
		rto:       cfg.RTOMin,
		timedSeq:  -1,
		alpha:     0,
	}
	if flowBytes > 0 {
		src.end = flowBytes
	} else {
		src.end = 1 << 62
	}
	src.rtoTimer = sim.NewTimer(s)
	src.onTimeoutFn = src.onTimeout
	return src
}

// SetRoute installs the forward route (must end at the flow's Sink).
func (s *Source) SetRoute(route []netsim.Handler) { s.fwd = route }

// Start begins transmission at the current simulation time.
func (s *Source) Start() {
	s.startAt = s.Sim.Now()
	s.started = true
	s.sendMore()
}

// StartAt schedules Start at time t.
func (s *Source) StartAt(t sim.Time) { s.Sim.At(t, s.Start) }

// StartTime returns when the flow started.
func (s *Source) StartTime() sim.Time { return s.startAt }

// FCT returns the flow completion time (valid once Done).
func (s *Source) FCT() sim.Time { return s.DoneAt - s.startAt }

// Cwnd returns the congestion window in bytes.
func (s *Source) Cwnd() float64 { return s.cwnd }

func (s *Source) flight() int64 { return s.highest - s.cumAck }

func (s *Source) sendMore() {
	if s.Done {
		return
	}
	for s.flight()+int64(s.Cfg.MSS) <= int64(s.cwnd) {
		if s.highest >= s.end {
			if s.quota == nil {
				break
			}
			grab := s.quota.Take(int64(s.Cfg.MSS))
			if grab == 0 {
				break
			}
			s.end += grab
		}
		size := int64(s.Cfg.MSS)
		if s.highest+size > s.end {
			size = s.end - s.highest
		}
		s.transmit(s.highest, int(size), false)
		s.highest += size
	}
	s.armRTO()
}

func (s *Source) transmit(seq int64, size int, rtx bool) {
	p := s.free.Get()
	p.Size = size
	p.Seq = seq
	p.Flow = s
	p.SetRoute(s.fwd)
	if !rtx && s.timedSeq < 0 {
		s.timedSeq = seq
		s.timedAt = s.Sim.Now()
	}
	if rtx {
		s.Retransmits++
	}
	p.SendOn()
}

func (s *Source) armRTO() {
	if s.flight() > 0 {
		s.rtoTimer.Arm(s.rto<<uint(s.backoff), s.onTimeoutFn)
	} else {
		s.rtoTimer.Cancel()
	}
}

func (s *Source) onTimeout() {
	if s.Done || s.flight() == 0 {
		return
	}
	s.Timeouts++
	s.ssthresh = max64f(float64(s.flight())/2, float64(2*s.Cfg.MSS))
	s.cwnd = float64(s.Cfg.MSS)
	s.inFastRec = false
	s.dupacks = 0
	s.backoff++
	if s.backoff > 6 {
		s.backoff = 6
	}
	s.highest = s.cumAck // go-back-N from the hole
	s.timedSeq = -1
	s.sendMore()
}

// OnAck processes a cumulative ACK (called by the Sink's ACK packet
// arriving back at the source).
func (s *Source) OnAck(ack int64, echo bool) {
	if s.Done {
		return
	}
	// RTT sampling (Karn's algorithm: only segments sent once).
	if s.timedSeq >= 0 && ack > s.timedSeq {
		sample := s.Sim.Now() - s.timedAt
		if s.srtt == 0 {
			s.srtt = sample
			s.rttvar = sample / 2
		} else {
			diff := s.srtt - sample
			if diff < 0 {
				diff = -diff
			}
			s.rttvar = (3*s.rttvar + diff) / 4
			s.srtt = (7*s.srtt + sample) / 8
		}
		s.rto = s.srtt + 4*s.rttvar
		if s.rto < s.Cfg.RTOMin {
			s.rto = s.Cfg.RTOMin
		}
		s.timedSeq = -1
		s.backoff = 0
	}

	// DCTCP accounting (per-ACK echo of CE marks).
	if s.Cfg.DCTCP {
		adv := ack - s.cumAck
		if adv < 0 {
			adv = 0
		}
		s.bytesAcked += adv
		if echo {
			s.bytesMarked += adv
			s.maybeCutDCTCP()
		}
		if ack >= s.obsWindowHi {
			g := s.Cfg.DCTCPGain
			frac := 0.0
			if s.bytesAcked > 0 {
				frac = float64(s.bytesMarked) / float64(s.bytesAcked)
			}
			s.alpha = (1-g)*s.alpha + g*frac
			s.bytesAcked, s.bytesMarked = 0, 0
			s.obsWindowHi = s.highest
		}
	}

	switch {
	case ack > s.cumAck:
		acked := ack - s.cumAck
		s.cumAck = ack
		s.DeliveredB = ack
		s.dupacks = 0
		if s.inFastRec {
			if ack >= s.recover {
				s.inFastRec = false
				s.cwnd = s.ssthresh
			} else {
				// Partial ACK: retransmit the next hole, deflate.
				s.transmit(s.cumAck, s.Cfg.MSS, true)
				s.cwnd = max64f(s.cwnd-float64(acked)+float64(s.Cfg.MSS), float64(s.Cfg.MSS))
			}
		} else if s.cwnd < s.ssthresh {
			s.cwnd += float64(acked) // slow start
		} else if s.couple != nil {
			s.couple(s, acked)
		} else {
			s.cwnd += float64(acked) * float64(s.Cfg.MSS) / s.cwnd // CA
		}
		if s.OnAcked != nil {
			s.OnAcked(acked)
		}
		if s.limited() && s.cumAck >= s.end {
			s.Done = true
			s.DoneAt = s.Sim.Now()
			s.rtoTimer.Cancel()
			if s.OnComplete != nil {
				s.OnComplete(s)
			}
			return
		}
	case ack == s.cumAck && s.flight() > 0:
		s.dupacks++
		if s.inFastRec {
			s.cwnd += float64(s.Cfg.MSS) // window inflation
		} else if s.dupacks == 3 {
			s.inFastRec = true
			s.recover = s.highest
			s.ssthresh = max64f(float64(s.flight())/2, float64(2*s.Cfg.MSS))
			s.cwnd = s.ssthresh + 3*float64(s.Cfg.MSS)
			s.transmit(s.cumAck, s.Cfg.MSS, true)
		}
	}
	if s.Cfg.MaxCwnd > 0 && s.cwnd > float64(s.Cfg.MaxCwnd) {
		s.cwnd = float64(s.Cfg.MaxCwnd)
	}
	s.sendMore()
}

// maybeCutDCTCP applies the alpha-scaled reduction at most once per
// window of data.
func (s *Source) maybeCutDCTCP() {
	if s.cumAck < s.lastCutHi {
		return
	}
	s.lastCutHi = s.highest
	s.cwnd = max64f(s.cwnd*(1-s.alpha/2), float64(s.Cfg.MSS))
	s.ssthresh = s.cwnd
}

// limited reports whether this sender's byte stream has a known end.
func (s *Source) limited() bool {
	if s.quota != nil {
		return s.quota.Remaining() == 0
	}
	return s.FlowBytes > 0
}

// Quota is a shared pool of bytes pulled by MPTCP subflows on demand.
type Quota struct {
	total    int64
	assigned int64
}

// NewQuota creates a pool of total bytes.
func NewQuota(total int64) *Quota { return &Quota{total: total} }

// Take grabs up to n bytes from the pool.
func (q *Quota) Take(n int64) int64 {
	rem := q.total - q.assigned
	if rem <= 0 {
		return 0
	}
	if n > rem {
		n = rem
	}
	q.assigned += n
	return n
}

// Remaining returns the unassigned bytes.
func (q *Quota) Remaining() int64 { return q.total - q.assigned }

func max64f(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Sink is the receiving endpoint: it reassembles the byte stream
// cumulatively and returns one ACK per data packet along the reverse
// route, echoing CE marks per-packet (DCTCP-style).
type Sink struct {
	Sim  *sim.Simulator
	Cfg  Config
	Src  *Source
	rev  []netsim.Handler // reverse route back to the source (ends at ackReceiver)
	free *netsim.FreeList // the loop's: data packets end here, acks start here

	cumAck int64
	ooo    map[int64]int // out-of-order segments: seq -> size

	ReceivedB int64
}

// NewSink builds the receiving side; rev is the reverse route and must end
// at a handler that calls Src.OnAck (use AckEndpoint).
func NewSink(s *sim.Simulator, cfg Config, src *Source, rev []netsim.Handler) *Sink {
	return &Sink{Sim: s, Cfg: cfg, Src: src, rev: rev, free: netsim.FreeListOf(s), ooo: make(map[int64]int)}
}

// Receive implements netsim.Handler for data packets.
func (k *Sink) Receive(p *Packet) { k.receive(p) }

// Packet aliases netsim.Packet for the Handler implementations here.
type Packet = netsim.Packet

func (k *Sink) receive(p *Packet) {
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
	echo := p.CE
	k.free.Put(p)
	ack := k.free.Get()
	ack.Size = k.Cfg.AckBytes
	ack.Seq = k.cumAck
	ack.Ack = true
	ack.Echo = echo
	ack.Flow = k.Src
	ack.SetRoute(k.rev)
	ack.SendOn()
}

// AckEndpoint terminates the reverse route, delivering ACKs to sources
// (and the ACK to its source's free list).
type AckEndpoint struct{}

// Receive implements netsim.Handler.
func (AckEndpoint) Receive(p *Packet) {
	src, ok := p.Flow.(*Source)
	if !ok {
		return // not an ACK of ours: left to the garbage collector
	}
	seq, echo := p.Seq, p.Echo
	src.free.Put(p)
	src.OnAck(seq, echo)
}

// Ack is a shared AckEndpoint.
var Ack AckEndpoint

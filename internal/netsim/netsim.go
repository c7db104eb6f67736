// Package netsim is the packet-level network simulator used for the
// protocol comparison of §6.3 (Fig 10) — the role htsim plays in the
// paper. It provides serialization queues with tail-drop and ECN marking,
// propagation pipes, and a k-ary fat-tree plumbing with per-flow ECMP path
// selection. Transport endpoints (TCP NewReno, DCTCP, DCQCN, MPTCP and the
// Stardust Fabric Adapter model) live in package tcp and netsim's
// stardust.go.
//
// The packet hot path is allocation-free in steady state: packets come
// from a shared free list (NewPacket/Release), queues buffer them in
// ring buffers that reuse their backing arrays under sustained load, and
// queue draining and pipe propagation schedule pre-bound sim.Actions
// instead of closures.
package netsim

import (
	"fmt"
	"sync"

	"stardust/internal/sim"
)

// Bps is a link rate in bits per second.
type Bps float64

// Handler consumes packets; queues, pipes and endpoints all implement it.
type Handler interface {
	Receive(p *Packet)
}

// Packet is the unit moved through the simulated network. A packet carries
// its forward route and advances itself hop by hop.
//
// Packets are pooled: obtain them with NewPacket and hand them back with
// Release at the end of their life (terminal endpoints and dropping queues
// do this). A released packet must not be touched again.
type Packet struct {
	Size int   // bytes on the wire
	Seq  int64 // first byte carried (data) / echoed cumulative ack (ACK)
	Ack  bool
	CE   bool // congestion-experienced mark (set by queues)
	Echo bool // ECN echo on an ACK
	Flow any  // owning endpoint state (opaque to the network)
	// Fabric-cell addressing, used only when the packet is a cell crossing
	// a per-link fabric (internal/fabric): Dst is the destination Fabric
	// Adapter and Down latches once the cell has started descending so
	// up/down routing cannot valley. Zero for ordinary packets.
	Dst   int32
	Down  bool
	route []Handler
	hop   int
}

// packetPool is the shared free list. It is safe for concurrent use, so
// simulations running in parallel worker goroutines share one pool.
var packetPool = sync.Pool{New: func() any { return new(Packet) }}

// NewPacket returns a zeroed packet from the shared free list.
func NewPacket() *Packet { return packetPool.Get().(*Packet) }

// Release zeroes p and returns it to the free list. The caller must hold
// the only live reference.
func (p *Packet) Release() {
	*p = Packet{}
	packetPool.Put(p)
}

// SetRoute installs the forward route and resets the hop cursor.
func (p *Packet) SetRoute(route []Handler) {
	p.route = route
	p.hop = 0
}

// SendOn advances the packet to its next hop. Packets that run off the end
// of their route are dropped (the route must terminate in an endpoint that
// does not call SendOn).
func (p *Packet) SendOn() {
	if p.hop >= len(p.route) {
		return
	}
	h := p.route[p.hop]
	p.hop++
	h.Receive(p)
}

// Act implements sim.Action so pipes and queues can schedule a packet's
// next hop without allocating a closure.
func (p *Packet) Act(uint64) { p.SendOn() }

// ring is a growable circular buffer. Unlike an append-and-shift slice it
// reuses its backing array under sustained load: the array only grows
// when more items are simultaneously queued than ever before. Vacated
// slots are zeroed so pooled pointers do not linger past their pop.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

func (r *ring[T]) len() int { return r.n }

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = v
	r.n++
}

// at returns the i-th oldest item (0 = head) without removing it.
func (r *ring[T]) at(i int) (v T) {
	if i < 0 || i >= r.n {
		return v
	}
	j := r.head + i
	if j >= len(r.buf) {
		j -= len(r.buf)
	}
	return r.buf[j]
}

// peek returns the oldest item without removing it, or the zero value.
func (r *ring[T]) peek() (v T) {
	if r.n == 0 {
		return v
	}
	return r.buf[r.head]
}

// pop removes and returns the oldest item, or the zero value.
func (r *ring[T]) pop() (v T) {
	if r.n == 0 {
		return v
	}
	v, r.buf[r.head] = r.buf[r.head], v
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return v
}

// popTail removes and returns the newest item, or the zero value.
func (r *ring[T]) popTail() (v T) {
	if r.n == 0 {
		return v
	}
	i := r.head + r.n - 1
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	v, r.buf[i] = r.buf[i], v
	r.n--
	return v
}

func (r *ring[T]) grow() {
	buf := make([]T, max(16, 2*len(r.buf)))
	for i := 0; i < r.n; i++ {
		j := r.head + i
		if j >= len(r.buf) {
			j -= len(r.buf)
		}
		buf[i] = r.buf[j]
	}
	r.buf = buf
	r.head = 0
}

// pktRing is the packet instantiation used by queues and VOQs.
type pktRing = ring[*Packet]

// Queue is a store-and-forward output queue draining at a fixed rate, with
// tail-drop at MaxBytes and optional ECN marking above ECNThreshBytes
// (instantaneous queue, DCTCP-style).
//
// A queue completes a packet in one of two ways, fixed by what it feeds
// and never by a setting. Eager (Wire == nil): the packet waits in the
// queue while it serializes, a completion event fires when it is done and
// sends it on — to a default-lane Pipe or anything else. The completion
// has to be a real event here, because the next hop's event takes its
// sequence number inside it, between the other events of that instant.
// Wire mode (Wire != nil, a link with an event lane of its own): a
// fixed-rate FIFO server knows a packet's departure when the packet is
// admitted — max(now, previous departure) + size/rate — and the far end
// orders arrivals by (time, lane) alone, so the packet is handed to the
// wire at once and its completion is only a (departure, size) entry.
// Nothing is dispatched for it; whoever looks at the queue next — an
// arrival, Bytes, a counter read — first applies the entries whose instant
// has come (sim.Completed: after the explicit-lane events of that instant,
// before the default-lane ones). Only a packet whose service would start
// more than sim.ElideHorizon ahead waits in the ring, and then the
// completion of the last packet handed over is a real event
// (sim.AtCompletion) that hands over the next horizon's worth. Invariant:
// the ring is non-empty exactly while that event is pending.
type Queue struct {
	Name           string
	Sim            *sim.Simulator
	Rate           Bps
	MaxBytes       int
	ECNThreshBytes int // 0 disables marking

	// Wire, when non-nil, is the lane-keyed link every packet of this
	// queue leaves on; it replaces the packet's next route hop. Set it
	// before the first packet arrives.
	Wire *LanePipe

	ring  pktRing // eager: waiting for the wire; wire mode: beyond the horizon
	cur   *Packet // eager: the packet serializing onto the wire
	bytes int
	busy  bool // eager: a completion event is pending

	// Wire mode: last is the departure of the newest packet handed to the
	// wire; head is the oldest completion not yet applied (size 0: none — a
	// wire carries no empty packets) and later holds the ones behind it, so
	// an idle link touches no ring.
	last  sim.Time
	head  completion
	later ring[completion]

	// Last txTime result; fabric cells are all one size.
	txSize int
	txDur  sim.Time

	// OnDrop, when non-nil, observes every tail-dropped packet just
	// before it is released — the hook that lets a harness account the
	// fate of every packet it injected (conservation invariants).
	OnDrop func(*Packet)

	// Stats. Forwarded and FwdBytes are methods: they may have lazy
	// completions to apply first.
	Drops     uint64
	Marks     uint64
	PeakBytes int
	forwarded uint64
	fwdBytes  uint64
}

// completion is a packet on the wire whose serialization the queue has
// not accounted yet.
type completion struct {
	dep  sim.Time
	size int
}

// NewQueue builds a queue bound to the simulator.
func NewQueue(s *sim.Simulator, name string, rate Bps, maxBytes int, ecnThresh int) *Queue {
	if rate <= 0 || maxBytes <= 0 {
		panic("netsim: queue needs positive rate and capacity")
	}
	return &Queue{Name: name, Sim: s, Rate: rate, MaxBytes: maxBytes, ECNThreshBytes: ecnThresh}
}

func (q *Queue) txTime(bytes int) sim.Time {
	if bytes != q.txSize {
		q.txSize = bytes
		q.txDur = sim.Time(float64(bytes*8) / float64(q.Rate) * float64(sim.Second))
	}
	return q.txDur
}

// settle applies the completions whose instant has come.
func (q *Queue) settle() {
	for q.head.size > 0 && q.Sim.Completed(q.head.dep) {
		q.complete(q.head.size)
		q.head = q.later.pop()
	}
}

// complete accounts one packet as serialized.
func (q *Queue) complete(size int) {
	q.bytes -= size
	q.forwarded++
	q.fwdBytes += uint64(size)
}

// Bytes returns the current occupancy.
func (q *Queue) Bytes() int {
	q.settle()
	return q.bytes
}

// Forwarded returns the number of packets serialized onto the wire.
func (q *Queue) Forwarded() uint64 {
	q.settle()
	return q.forwarded
}

// FwdBytes returns the bytes serialized onto the wire (per-link load
// evidence).
func (q *Queue) FwdBytes() uint64 {
	q.settle()
	return q.fwdBytes
}

// Receive implements Handler.
func (q *Queue) Receive(p *Packet) {
	q.settle()
	if q.bytes+p.Size > q.MaxBytes {
		q.Drops++
		if q.OnDrop != nil {
			q.OnDrop(p)
		}
		p.Release()
		return
	}
	if q.ECNThreshBytes > 0 && q.bytes >= q.ECNThreshBytes {
		p.CE = true
		q.Marks++
	}
	q.bytes += p.Size
	if q.bytes > q.PeakBytes {
		q.PeakBytes = q.bytes
	}
	switch {
	case q.busy || q.ring.len() > 0:
		q.ring.push(p)
	case q.Wire == nil:
		q.start(p)
	case q.last <= q.Sim.Now()+sim.ElideHorizon:
		q.hand(p)
	default:
		// Too far ahead to schedule the arrival now: the last packet handed
		// over completes as an event, which takes the ring from there.
		q.ring.push(p)
		q.Sim.AtCompletion(q.last, q, 0)
	}
}

// start begins serializing p on an idle wire (eager).
func (q *Queue) start(p *Packet) {
	q.busy = true
	q.cur = p
	q.Sim.AfterAction(q.txTime(p.Size), q, 0)
}

// hand gives p to the wire for the departure its place in the queue fixes,
// and notes the completion (wire mode).
func (q *Queue) hand(p *Packet) {
	q.last = max(q.last, q.Sim.Now()) + q.txTime(p.Size)
	c := completion{q.last, p.Size}
	if q.head.size == 0 {
		q.head = c
	} else {
		q.later.push(c)
	}
	q.Sim.Elide()
	q.Wire.ReceiveAt(p, q.last) // the wire owns p from here
}

// Act implements sim.Action. Eager: the current packet finished
// serializing. Wire mode: so did the last packet handed over, and with it
// every one before; the ring's next horizon's worth follows.
func (q *Queue) Act(uint64) {
	if q.Wire == nil {
		p := q.cur
		q.cur = nil
		q.complete(p.Size)
		p.SendOn() // p may be released downstream; do not touch it again
		q.busy = false
		if next := q.ring.pop(); next != nil {
			q.start(next)
		}
		return
	}
	for ; q.head.size > 0; q.head = q.later.pop() {
		q.complete(q.head.size)
	}
	for now := q.Sim.Now(); q.ring.len() > 0 && q.last <= now+sim.ElideHorizon; {
		q.hand(q.ring.pop())
	}
	if q.ring.len() > 0 {
		q.Sim.AtCompletion(q.last, q, 0)
	}
}

// Pipe is a pure propagation delay.
type Pipe struct {
	Sim   *sim.Simulator
	Delay sim.Time
}

// NewPipe builds a pipe.
func NewPipe(s *sim.Simulator, delay sim.Time) *Pipe { return &Pipe{Sim: s, Delay: delay} }

// Receive implements Handler.
func (p *Pipe) Receive(pkt *Packet) {
	p.Sim.AfterAction(p.Delay, pkt, 0)
}

// LanePipe is a propagation delay that delivers onto an explicit event
// lane of a lane scheduler — the sharded counterpart of Pipe. With the
// owning shard's Simulator as the scheduler it is an intra-shard hop; with
// a parsim cross-shard port it hands the packet to another event loop. In
// both cases the packet's arrival is ordered by its (time, lane) key, so a
// sharded simulation executes the same arrival order at any shard count.
// The endpoint the packet continues to (its next route hop) is pinned to
// the scheduler's shard.
type LanePipe struct {
	Sched sim.LaneScheduler
	Delay sim.Time
	Lane  int32
}

// Receive implements Handler.
func (p *LanePipe) Receive(pkt *Packet) { p.ReceiveAt(pkt, p.Sched.Now()) }

// ReceiveAt is Receive for a packet that will leave the sender at dep, a
// time at or after now: the arrival is scheduled at once for dep+Delay.
// A wire-mode Queue drives its link this way at admission (see Queue). It is exact because the lane has one sender whose departures
// are distinct instants, so (time, lane) alone places the arrival and the
// sequence number it gets by being scheduled early is irrelevant; a
// default-lane Pipe has no such method because there it would not be.
func (p *LanePipe) ReceiveAt(pkt *Packet, dep sim.Time) {
	p.Sched.AtLane(dep+p.Delay, p.Lane, pkt, 0)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(*Packet)

// Receive implements Handler.
func (f HandlerFunc) Receive(p *Packet) { f(p) }

// Counter is a terminal handler counting packets and bytes (a debugging
// sink). It releases delivered packets back to the free list.
type Counter struct {
	Packets uint64
	Bytes   uint64
}

// Receive implements Handler.
func (c *Counter) Receive(p *Packet) {
	c.Packets++
	c.Bytes += uint64(p.Size)
	p.Release()
}

func (q *Queue) String() string {
	return fmt.Sprintf("queue %s: %dB queued, %d fwd, %d drops, %d marks", q.Name, q.Bytes(), q.Forwarded(), q.Drops, q.Marks)
}

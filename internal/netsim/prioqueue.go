package netsim

import "stardust/internal/sim"

// PriorityQueue is a two-band strict-priority output queue (Appendix F's
// traffic-class scenario): band-0 (high) packets always transmit before
// band-1 (low). Bands share the byte budget; when full, low-priority
// packets are dropped first, then arriving highs tail-drop.
type PriorityQueue struct {
	Name     string
	Sim      *sim.Simulator
	Rate     Bps
	MaxBytes int

	// Classify returns the band (0 = high, 1 = low) for a packet.
	Classify func(*Packet) int

	bands   [2]pktRing
	cur     *Packet
	curBand int
	bytes   int
	busy    bool

	Drops     [2]uint64
	Forwarded [2]uint64
}

// NewPriorityQueue builds a two-band strict priority queue.
func NewPriorityQueue(s *sim.Simulator, name string, rate Bps, maxBytes int, classify func(*Packet) int) *PriorityQueue {
	return &PriorityQueue{Name: name, Sim: s, Rate: rate, MaxBytes: maxBytes, Classify: classify}
}

func (q *PriorityQueue) txTime(bytes int) sim.Time {
	return sim.Time(float64(bytes*8) / float64(q.Rate) * float64(sim.Second))
}

// Receive implements Handler.
func (q *PriorityQueue) Receive(p *Packet) {
	band := 0
	if q.Classify != nil {
		band = q.Classify(p) & 1
	}
	if q.bytes+p.Size > q.MaxBytes {
		// Evict queued low-priority bytes for an arriving high, newest
		// first (the in-service packet is never evicted).
		if band == 0 {
			for q.bands[1].len() > 0 && q.bytes+p.Size > q.MaxBytes {
				victim := q.bands[1].popTail()
				q.bytes -= victim.Size
				q.Drops[1]++
				FreeListOf(q.Sim).Put(victim)
			}
		}
		if q.bytes+p.Size > q.MaxBytes {
			q.Drops[band]++
			FreeListOf(q.Sim).Put(p)
			return
		}
	}
	q.bytes += p.Size
	if q.busy {
		q.bands[band].push(p)
		return
	}
	q.busy = true
	q.cur, q.curBand = p, band
	q.Sim.AfterAction(q.txTime(p.Size), q, 0)
}

// Act implements sim.Action: the current packet finished serializing.
func (q *PriorityQueue) Act(uint64) {
	p, band := q.cur, q.curBand
	q.cur = nil
	q.bytes -= p.Size
	q.Forwarded[band]++
	p.SendOn() // p may be released downstream; do not touch it again
	for b := 0; b < 2; b++ {
		if next := q.bands[b].pop(); next != nil {
			q.cur, q.curBand = next, b
			q.Sim.AfterAction(q.txTime(next.Size), q, 0)
			return
		}
	}
	q.busy = false
}

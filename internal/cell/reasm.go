package cell

import (
	"fmt"

	"stardust/internal/sim"
)

// Reassembler rebuilds packets from cells arriving out of order (§4.1).
//
// One Reassembler serves one (source FA, traffic class) stream at the
// destination Fabric Adapter. Cells are admitted into a sliding window
// keyed by sequence number; the in-order cursor advances over contiguous
// cells, completing packets as their final segments pass the cursor. If the
// stream stalls for longer than the configured timeout (e.g. a cell lost to
// a link error), the window is flushed and the packets it touched are
// discarded, mirroring the paper's reassembly-timer behaviour.
type Reassembler struct {
	window  map[uint16]*Cell
	started map[uint64]bool // packets whose first segment passed the cursor
	cursor  uint16          // next expected sequence number
	maxSkew int             // maximum out-of-order distance accepted
	timeout sim.Time
	stallAt sim.Time // time the current head-of-line gap appeared
	stalled bool

	// Stats
	Completed  uint64 // packets fully reassembled
	Discarded  uint64 // packets dropped on timeout/overflow
	CellsSeen  uint64
	CellsStale uint64 // cells behind the cursor (dropped)
	Resyncs    uint64 // stream jumps after loss bursts
}

// NewReassembler creates a reassembler accepting cells up to maxSkew ahead
// of the in-order cursor (bounded by Fabric Element queue sizes, §4.1) and
// flushing streams stalled longer than timeout.
func NewReassembler(maxSkew int, timeout sim.Time) *Reassembler {
	if maxSkew < 1 || maxSkew > 1<<14 {
		panic(fmt.Sprintf("cell: maxSkew %d out of range", maxSkew))
	}
	return &Reassembler{
		window:  make(map[uint16]*Cell),
		started: make(map[uint64]bool),
		maxSkew: maxSkew,
		timeout: timeout,
	}
}

// seqAhead returns how far s is ahead of the cursor in modular arithmetic,
// interpreting distances >= 2^15 as "behind".
func (r *Reassembler) seqAhead(s uint16) int {
	d := uint16(s - r.cursor)
	if d < 1<<15 {
		return int(d)
	}
	return int(d) - 1<<16
}

// Push admits a cell at the given time and returns any packets completed by
// the in-order advance.
func (r *Reassembler) Push(now sim.Time, c *Cell) []PacketRef {
	r.CellsSeen++
	ahead := r.seqAhead(c.Header.Seq)
	if ahead < 0 {
		r.CellsStale++
		// A stale cell can carry the tail of a packet we once started;
		// account the loss so started does not leak.
		for _, seg := range c.Segments {
			if seg.Last && r.started[seg.Packet.ID] {
				delete(r.started, seg.Packet.ID)
				r.Discarded++
			}
		}
		return nil
	}
	if ahead >= r.maxSkew {
		// The stream has jumped far beyond the window — a burst of cells
		// was lost (e.g. a device died with cells in flight, §5.10).
		// Normal spraying cannot reorder past the skew bound, so
		// resynchronize: flush everything pending and resume at the
		// arriving cell. Waiting for the timer instead would deadlock
		// against a live stream that keeps advancing.
		r.Resyncs++
		r.flush()
		r.cursor = c.Header.Seq
	}
	r.window[c.Header.Seq] = c

	var done []PacketRef
	for {
		nc, ok := r.window[r.cursor]
		if !ok {
			break
		}
		delete(r.window, r.cursor)
		r.cursor++
		for _, seg := range nc.Segments {
			if seg.First {
				r.started[seg.Packet.ID] = true
			}
			if seg.Last {
				if r.started[seg.Packet.ID] {
					delete(r.started, seg.Packet.ID)
					done = append(done, seg.Packet)
					r.Completed++
				} else {
					// The head of this packet was flushed earlier; the
					// tail alone cannot form a packet.
					r.Discarded++
				}
			}
		}
	}
	if len(r.window) == 0 {
		r.stalled = false
	} else if !r.stalled {
		r.stalled = true
		r.stallAt = now
	}
	return done
}

// Expire flushes the window if the head-of-line gap has persisted past the
// timeout (a reassembly-timer expiry, §4.1: "the packet is discarded").
// Returns the number of packets discarded.
func (r *Reassembler) Expire(now sim.Time) int {
	if !r.stalled || now-r.stallAt < r.timeout {
		return 0
	}
	maxAhead := 0
	for s := range r.window {
		if a := r.seqAhead(s); a > maxAhead {
			maxAhead = a
		}
	}
	n := r.flush()
	// Skip the cursor past the flushed region; the next in-flight cell
	// resynchronizes the stream.
	r.cursor += uint16(maxAhead + 1)
	return n
}

// flush drops every pending cell and every incomplete packet, returning
// the number of packets discarded.
func (r *Reassembler) flush() int {
	discarded := make(map[uint64]bool)
	for s, c := range r.window {
		for _, seg := range c.Segments {
			discarded[seg.Packet.ID] = true
		}
		delete(r.window, s)
	}
	// Packets mid-flight across the gap (head seen, tail not yet arrived)
	// can never complete either.
	for id := range r.started {
		discarded[id] = true
		delete(r.started, id)
	}
	r.stalled = false
	r.Discarded += uint64(len(discarded))
	return len(discarded)
}

// Pending returns the number of cells parked in the out-of-order window.
func (r *Reassembler) Pending() int { return len(r.window) }

// Cursor returns the next expected sequence number.
func (r *Reassembler) Cursor() uint16 { return r.cursor }

// Waiting for a neighbour without going to sleep. A mesh read that finds
// its socket — or its shared-memory ring (ring.go) — empty asks it again,
// without blocking, up to pollTries times, and only then parks in the
// netpoller like any other read. Why, for how long, and when a link stops
// doing it: see the measured constants in peer.go's package comment.
//
// A poll can hold nothing up. It is bounded, every attempt goes through
// the connection (syscall.RawConn), so it fails on the deadline or a Close
// exactly as the parked read would, and between attempts it yields the
// processor, so whatever is queued on this P runs: this peer's own writer,
// a coordinator reader in a shared process, the neighbour itself. What it
// cannot do is wake a goroutine parked in the netpoller — a P that always
// has the poller to run never looks there, and sysmon does only every 10 ms
// — which is one more reason why a poll is short and why a link that polls
// in vain stops.
package distsim

import (
	"net"
	"runtime"
)

const (
	pollTries   = 512  // non-blocking attempts before a read parks
	pollQuick   = 128  // a poll paid if the frame came within this many
	pollMisses  = 2    // consecutive polls that did not, and the link stops polling
	pollHoldMin = 32   // reads it sits out then, doubling with every probe that did not pay ...
	pollHoldCap = 4096 // ... up to this many
)

// pollForce pins a link's decision; tests only (chaos.poll).
type pollForce uint8

const (
	pollGoverned pollForce = iota
	pollAlways
	pollNever
)

// pollGovernor decides, read by read, whether a link polls before it
// parks. It needs no clock because success is observable: a poll paid when
// the frame arrived within its first pollQuick attempts — it bridged a wait
// about as short as the wake-up it avoided. One that ran longer, or gave
// up, burned a processor the neighbour may have needed to produce that very
// frame (two peers on one CPU), so after pollMisses of those in a row the
// link parks at once for hold reads, then probes with a single polled
// read: one that does not pay doubles hold, one that pays switches polling
// back on. A read that found its frame already waiting says nothing either
// way.
type pollGovernor struct {
	force  pollForce
	misses int // consecutive polls that did not pay
	hold   int // reads to sit out after the latest miss; 0 while the link polls
	left   int // of those, still to sit out
}

// next reports whether the coming read polls.
func (g *pollGovernor) next() bool {
	switch g.force {
	case pollAlways:
		return true
	case pollNever:
		return false
	}
	if g.left > 0 {
		g.left--
		return false
	}
	return true
}

// polled records whether a read that polled, and did not find its frame
// waiting, paid.
func (g *pollGovernor) polled(paid bool) {
	if paid {
		g.misses, g.hold = 0, 0
		return
	}
	if g.misses++; g.misses < pollMisses {
		return
	}
	g.hold = min(max(2*g.hold, pollHoldMin), pollHoldCap)
	g.left = g.hold
}

// polling reports whether the link currently polls (as opposed to sitting
// out a hold or probing from one).
func (g *pollGovernor) polling() bool {
	return g.force == pollAlways || g.force == pollGoverned && g.hold == 0
}

// sock is non-blocking access to what carries a connection's bytes: the
// socket itself (poll_unix.go), or, between two peers of one host, a pair
// of shared-memory rings that use the socket as their doorbell
// (ring_unix.go). One goroutine reads and one writes at a time.
type sock interface {
	// read reads into p. An empty transport makes it return at once, or
	// with park set wait as conn.Read would; blocked reports that it was
	// found empty.
	read(p []byte, park bool) (n int, blocked bool, err error)
	// write offers p without waiting and returns how much was taken.
	write(p []byte) (int, error)
	// writeAll writes all of p, waiting for the far end if it must.
	writeAll(p []byte) error
}

// pollCounts is what a link's reads cost: every read either found bytes
// without parking (ready) or waited in the netpoller (parks); tries are
// the non-blocking attempts the polled ones made.
type pollCounts struct {
	tries, ready, parks uint64
}

// sockReader is the read side of a connection. Without a governor — every
// connection but a mesh link — and wherever the platform offers no
// non-blocking access to the socket (sock == nil), Read is conn.Read.
type sockReader struct {
	conn net.Conn
	sock sock // non-blocking access to conn, nil where the platform has none
	gov  *pollGovernor
	n    pollCounts
}

func (r *sockReader) Read(p []byte) (int, error) {
	if r.sock == nil || r.gov == nil {
		return r.conn.Read(p)
	}
	if !r.gov.next() {
		return r.park(p)
	}
	for try := 1; try <= pollTries; try++ {
		n, blocked, err := r.sock.read(p, false)
		if !blocked {
			r.n.tries += uint64(try)
			r.n.ready++
			if try > 1 {
				r.gov.polled(try <= pollQuick)
			}
			return n, err
		}
		runtime.Gosched() // whoever is queued on this P runs now
	}
	r.n.tries += pollTries
	r.gov.polled(false)
	return r.park(p)
}

// park reads like conn.Read does: one attempt, then the netpoller.
func (r *sockReader) park(p []byte) (int, error) {
	n, blocked, err := r.sock.read(p, true)
	if blocked {
		r.n.parks++
	} else {
		r.n.ready++
	}
	return n, err
}

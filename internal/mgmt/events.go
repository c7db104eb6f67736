package mgmt

import (
	"sync"

	"stardust/internal/sim"
)

// EventKind classifies management-plane events.
type EventKind string

// The event kinds the controller publishes.
const (
	// EventLinkDown: a serial link failed; the adjacent devices detected
	// it immediately (keepalive, §5.9).
	EventLinkDown EventKind = "link-down"
	// EventLinkUp: a failed serial link recovered.
	EventLinkUp EventKind = "link-up"
	// EventReachUpdate: an FE1's reachable set landed on the spine tier —
	// the delayed withdrawal (after a failure) or readvertisement (after
	// a recovery) of §5.8 / Appendix E.
	EventReachUpdate EventKind = "reach-update"
	// EventAnomaly: the detector raised an anomaly.
	EventAnomaly EventKind = "anomaly"
	// EventAnomalyCleared: a previously raised anomaly stopped firing.
	EventAnomalyCleared EventKind = "anomaly-cleared"
)

// Event is one management-plane notification. Seq is a strictly
// increasing sequence number assigned by the bus at publish time; Time is
// the simulated instant the event describes. Link is the topology link
// index for link-scoped events and -1 otherwise.
type Event struct {
	Seq    uint64    `json:"seq"`
	Time   sim.Time  `json:"sim_ps"`
	Kind   EventKind `json:"kind"`
	Link   int       `json:"link"`
	Device string    `json:"device,omitempty"`
	Detail string    `json:"detail,omitempty"`
}

// Bus is the management-plane event bus: a bounded ring of recent events,
// the queryable log that clients long-poll through Since. Publishing never
// blocks, so the simulation goroutine can publish from inside fabric hooks
// without ever stalling on a slow HTTP client; a client that polls too
// rarely finds the oldest events evicted, and the eviction is counted.
type Bus struct {
	mu      sync.Mutex
	seq     uint64
	ring    []Event
	head    int // index of the oldest retained event
	n       int
	evicted uint64 // retained-log entries overwritten by ring wrap
}

// NewBus returns a bus retaining the last capacity events.
func NewBus(capacity int) *Bus {
	if capacity < 1 {
		capacity = 1
	}
	return &Bus{ring: make([]Event, capacity)}
}

// Publish stamps e with the next sequence number and appends it to the
// ring. It returns the stamped event.
func (b *Bus) Publish(e Event) Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.seq++
	e.Seq = b.seq
	i := b.head + b.n
	if i >= len(b.ring) {
		i -= len(b.ring)
	}
	if b.n == len(b.ring) {
		b.head++ // overwrite the oldest
		if b.head == len(b.ring) {
			b.head = 0
		}
		b.evicted++
	} else {
		b.n++
	}
	b.ring[i] = e
	return e
}

// Since returns up to max retained events with Seq > seq, oldest first.
// max <= 0 means all retained.
func (b *Bus) Since(seq uint64, max int) []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []Event
	for i := 0; i < b.n; i++ {
		j := b.head + i
		if j >= len(b.ring) {
			j -= len(b.ring)
		}
		if b.ring[j].Seq <= seq {
			continue
		}
		out = append(out, b.ring[j])
		if max > 0 && len(out) == max {
			break
		}
	}
	return out
}

// LastSeq returns the sequence number of the most recent event.
func (b *Bus) LastSeq() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seq
}

// BusStats is the bus's own loss accounting: events published, retained
// in the queryable ring, and evicted from it by wrap-around.
type BusStats struct {
	Published uint64 `json:"published"`
	Retained  int    `json:"retained"`
	Capacity  int    `json:"capacity"`
	Evicted   uint64 `json:"evicted"`
}

// Stats snapshots the loss counters.
func (b *Bus) Stats() BusStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BusStats{Published: b.seq, Retained: b.n, Capacity: len(b.ring), Evicted: b.evicted}
}

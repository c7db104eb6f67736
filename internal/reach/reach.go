// Package reach implements the hardware reachability protocol of
// §4.2/§5.8/§5.9: every device periodically advertises the set of Fabric
// Adapters it can reach on each of its links; receivers maintain a
// forwarding table mapping destination Fabric Adapter to the set of local
// links that reach it, monitor link health by the keepalive stream, and
// load-balance cells over the reachable set with a periodically reshuffled
// round-robin permutation (§5.3).
package reach

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// Bitmap is a dense bit set over Fabric Adapter (or link) indices.
type Bitmap []uint64

// NewBitmap returns a bitmap able to hold n bits.
func NewBitmap(n int) Bitmap { return make(Bitmap, (n+63)/64) }

// Set sets bit i.
func (b Bitmap) Set(i int) { b[i/64] |= 1 << (i % 64) }

// Clear clears bit i.
func (b Bitmap) Clear(i int) { b[i/64] &^= 1 << (i % 64) }

// Get reports bit i.
func (b Bitmap) Get(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }

// Or merges o into b (b |= o); the bitmaps must be the same length.
func (b Bitmap) Or(o Bitmap) {
	for i := range b {
		b[i] |= o[i]
	}
}

// Count returns the number of set bits.
func (b Bitmap) Count() int {
	n := 0
	for _, w := range b {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// Reset clears all bits.
func (b Bitmap) Reset() {
	for i := range b {
		b[i] = 0
	}
}

// Clone returns a copy.
func (b Bitmap) Clone() Bitmap {
	o := make(Bitmap, len(b))
	copy(o, b)
	return o
}

// ChunkBits is the number of Fabric Adapters covered by one reachability
// message (Appendix E's b parameter).
const ChunkBits = 128

// MessageBytes is the nominal on-wire size of one reachability message
// (Appendix E's B parameter: 24 bytes = origin + chunk + 16B bitmap +
// framing).
const MessageBytes = 24

// Message is one reachability advertisement: "FAs [Chunk*128,
// Chunk*128+128) reachable through the sender" as a bitmap.
type Message struct {
	Origin uint16 // advertising device's id (opaque to the receiver)
	Chunk  uint16
	Faulty bool // sender marks itself faulty (error rate crossed, §5.10)
	Bits   [ChunkBits / 64]uint64
}

// MessagesPerTable returns how many messages cover numFA adapters.
func MessagesPerTable(numFA int) int { return (numFA + ChunkBits - 1) / ChunkBits }

// BuildMessages encodes a full reachability set into its message sequence.
func BuildMessages(origin uint16, reachable Bitmap, numFA int) []Message {
	n := MessagesPerTable(numFA)
	msgs := make([]Message, n)
	for c := 0; c < n; c++ {
		m := Message{Origin: origin, Chunk: uint16(c)}
		for w := 0; w < ChunkBits/64; w++ {
			idx := c*ChunkBits/64 + w
			if idx < len(reachable) {
				m.Bits[w] = reachable[idx]
			}
		}
		msgs[c] = m
	}
	return msgs
}

// Table is a device's forwarding table: destination Fabric Adapter -> set
// of local links through which it is reachable. Its size is
// Number-of-Fabric-Adapters entries of Number-of-Links bits (§5.8) — two
// orders of magnitude smaller than an IP table (Appendix C).
type Table struct {
	numFA   int
	numLink int
	perFA   []Bitmap // indexed by FA, bits = links
	perLink []Bitmap // indexed by link, bits = FAs (the advertised set)
}

// NewTable creates an empty table for numFA destinations over numLink
// local links.
func NewTable(numFA, numLink int) *Table {
	t := &Table{numFA: numFA, numLink: numLink}
	t.perFA = make([]Bitmap, numFA)
	for i := range t.perFA {
		t.perFA[i] = NewBitmap(numLink)
	}
	t.perLink = make([]Bitmap, numLink)
	for i := range t.perLink {
		t.perLink[i] = NewBitmap(numFA)
	}
	return t
}

// NumFA returns the table's destination count.
func (t *Table) NumFA() int { return t.numFA }

// NumLinks returns the table's link count.
func (t *Table) NumLinks() int { return t.numLink }

// ApplyMessage merges one advertisement received on link. It replaces the
// chunk's bits for that link, so withdrawn destinations disappear.
func (t *Table) ApplyMessage(link int, m Message) error {
	if link < 0 || link >= t.numLink {
		return fmt.Errorf("reach: link %d out of range", link)
	}
	base := int(m.Chunk) * ChunkBits
	if base >= t.numFA && m.Chunk != 0 {
		return fmt.Errorf("reach: chunk %d beyond %d FAs", m.Chunk, t.numFA)
	}
	for w := 0; w < ChunkBits/64; w++ {
		idx := base/64 + w
		if idx >= len(t.perLink[link]) {
			break
		}
		old := t.perLink[link][idx]
		bits := m.Bits[w]
		if m.Faulty {
			bits = 0 // a self-declared faulty link advertises nothing
		}
		t.perLink[link][idx] = bits
		changed := old ^ bits
		if changed == 0 {
			continue
		}
		for b := 0; b < 64; b++ {
			if changed&(1<<b) == 0 {
				continue
			}
			fa := idx*64 + b
			if fa >= t.numFA {
				break
			}
			if bits&(1<<b) != 0 {
				t.perFA[fa].Set(link)
			} else {
				t.perFA[fa].Clear(link)
			}
		}
	}
	return nil
}

// LinkDown withdraws every destination learned through link (keepalive
// loss, §5.9).
func (t *Table) LinkDown(link int) {
	for fa := 0; fa < t.numFA; fa++ {
		if t.perLink[link].Get(fa) {
			t.perFA[fa].Clear(link)
		}
	}
	t.perLink[link].Reset()
}

// Links returns the set of links reaching fa (shared; do not mutate).
func (t *Table) Links(fa int) Bitmap { return t.perFA[fa] }

// LinkSet returns the set of FAs advertised on link (shared; do not
// mutate).
func (t *Table) LinkSet(link int) Bitmap { return t.perLink[link] }

// Reachable reports whether any link reaches fa.
func (t *Table) Reachable(fa int) bool {
	for _, w := range t.perFA[fa] {
		if w != 0 {
			return true
		}
	}
	return false
}

// ReachableSet returns the union of destinations reachable via any link —
// the set this device advertises upstream/downstream.
func (t *Table) ReachableSet() Bitmap {
	out := NewBitmap(t.numFA)
	for _, lb := range t.perLink {
		out.Or(lb)
	}
	return out
}

// Spreader implements §5.3's cell load balancer: a round-robin arbiter
// that traverses the links in a random permutation order, replaced every
// few rounds so that recurrent synchronization with packet arrival times
// cannot bias any link persistently.
type Spreader struct {
	perm      []int
	pos       int
	rounds    int
	maxRounds int
	rng       *rand.Rand
	// inv[link] is link's position in perm, kept for spreaders of at most
	// 64 links: it lets Next find the first eligible position with bit
	// arithmetic instead of walking the permutation.
	inv [64]uint8
}

// NewSpreader creates a spreader over numLink links reshuffling its
// permutation every reshuffleRounds full traversals.
func NewSpreader(numLink, reshuffleRounds int, seed int64) *Spreader {
	if numLink <= 0 {
		panic("reach: spreader needs links")
	}
	if reshuffleRounds < 1 {
		reshuffleRounds = 4
	}
	s := &Spreader{rng: rand.New(rand.NewSource(seed)), maxRounds: reshuffleRounds}
	s.perm = s.rng.Perm(numLink)
	s.invert()
	return s
}

func (s *Spreader) invert() {
	if len(s.perm) <= len(s.inv) {
		for at, link := range s.perm {
			s.inv[link] = uint8(at)
		}
	}
}

// reshuffle replaces the traversal order with a fresh permutation
// in place (Fisher-Yates), so the periodic reshuffle allocates nothing —
// the spreader sits on the per-cell fabric hot path.
func (s *Spreader) reshuffle() {
	for i := len(s.perm) - 1; i > 0; i-- {
		j := s.rng.Intn(i + 1)
		s.perm[i], s.perm[j] = s.perm[j], s.perm[i]
	}
	s.invert()
}

// Next returns the next link to use among the eligible set (bits over
// links): the first eligible link in permutation order from the current
// position, wrapping once. The position moves past it, a round is counted
// at every wrap, and an empty set costs one full fruitless traversal (the
// position comes back to where it was, one round later). Returns -1 when
// the set is empty. The permutation is only replaced between traversals,
// at position 0, never inside a call.
func (s *Spreader) Next(eligible Bitmap) int {
	n := len(s.perm)
	if s.pos == 0 && s.rounds >= s.maxRounds {
		s.rounds = 0
		s.reshuffle()
	}
	at := s.pos
	if !eligible.Get(s.perm[at]) {
		if n > len(s.inv) {
			return s.scan(eligible)
		}
		// The eligible links as a set of permutation positions; the answer
		// is its first member at or after pos, else its first member.
		var set uint64
		for w := eligible[0] & (^uint64(0) >> (64 - n)); w != 0; w &= w - 1 {
			set |= 1 << s.inv[bits.TrailingZeros64(w)]
		}
		if set == 0 {
			s.rounds++
			return -1
		}
		if later := set >> at; later != 0 {
			at += bits.TrailingZeros64(later)
		} else {
			at = bits.TrailingZeros64(set)
			s.rounds++
		}
	}
	if s.pos = at + 1; s.pos == n {
		s.pos = 0
		s.rounds++
	}
	return s.perm[at]
}

// scan is Next by walking the permutation, for spreaders too wide for the
// inverse table.
func (s *Spreader) scan(eligible Bitmap) int {
	n := len(s.perm)
	for scanned := 0; scanned < n; scanned++ {
		link := s.perm[s.pos]
		s.pos++
		if s.pos == n {
			s.pos = 0
			s.rounds++
		}
		if eligible.Get(link) {
			return link
		}
	}
	return -1
}

// Package reach implements the hardware reachability protocol of
// §4.2/§5.8/§5.9: every device periodically advertises the set of Fabric
// Adapters it can reach on each of its links; receivers maintain a
// forwarding table mapping destination Fabric Adapter to the set of local
// links that reach it, monitor link health by the keepalive stream, and
// load-balance cells over the reachable set with a periodically reshuffled
// round-robin permutation (§5.3).
//
// The load balancer (Spreader) owns its candidate sets and keeps each one
// in its own permutation order as well as over links, so a spray decision
// is a shift and a trailing-zero count. The position order is derived
// again only when a set is written and when the permutation is reshuffled
// (every few traversals); a forwarding table (Table) is not read by it, so
// whoever changes a table writes the changed rows through the spreader.
package reach

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"slices"
	"unsafe"

	"stardust/internal/sim"
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
		n += bits.OnesCount64(w)
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
// cannot bias any link persistently. L is what a link is to the caller
// (its index, or the link itself); the spreader hands back the L of the
// link it picks.
//
// A spreader owns the candidate sets it chooses from, one per key (a
// destination, or a single key for a group with one set), and keeps each
// twice: over link indices, for whoever asks which links a key may use,
// and over permutation positions, which is all Next reads. A position set
// is the image of its link set under the current permutation; it is
// derived again when the set is written (Set, Clear, Replace) and, for
// every key, when the permutation is reshuffled. Each key keeps its own
// place in the traversal, so every key's set is balanced on its own
// however the keys interleave.
type Spreader[L any] struct {
	// What Next reads first: the position sets, key-major, words words per
	// key; the links in permutation order; each key's next position (the
	// number of links when its traversal is at its end); the picks left
	// before a reshuffle is due.
	posSets []uint64
	byPos   []L
	at      []int32
	left    int
	words   int32 // per set, at least one

	linkSets []uint64 // the link sets, laid out like posSets
	perm     []int32  // position -> link index
	inv      []int32  // link index -> position
	period   int      // picks from one reshuffle to the next
	rng      rand.PCG
}

// NewSpreader creates a spreader over links holding sets empty candidate
// sets and reshuffling its permutation every reshuffleRounds×len(links)
// picks — reshuffleRounds full traversals of a set of every link —
// drawing every permutation from its own copy of src. A link is named by
// its index in links. A spreader over no links is empty: Next finds
// nothing.
func NewSpreader[L any](links []L, sets, reshuffleRounds int, src *rand.PCG) Spreader[L] {
	n := len(links)
	words := max(1, (n+63)/64)
	s := Spreader[L]{
		posSets:  lines[uint64](sets * words),
		byPos:    lines[L](n),
		at:       lines[int32](sets),
		left:     reshuffleRounds * n,
		words:    int32(words),
		linkSets: lines[uint64](sets * words),
		perm:     lines[int32](n),
		inv:      lines[int32](n),
		period:   reshuffleRounds * n,
		rng:      *src,
	}
	for i := range n {
		s.perm[i], s.byPos[i] = int32(i), links[i]
	}
	s.invert()
	s.reshuffle()
	return s
}

// lines makes a slice of n whose backing array fills whole cache lines, so
// that a spreader's arrays never share a line with another's: a sharded
// fabric's spreaders are made one after the other, for every shard.
func lines[T any](n int) []T {
	size := int(unsafe.Sizeof(*new(T)))
	per := max(1, sim.CacheLine/size)
	return make([]T, n, (n+per-1)/per*per)
}

// Sets returns how many candidate sets the spreader holds.
func (s *Spreader[L]) Sets() int { return len(s.linkSets) / int(s.words) }

// Links returns key's candidate set over link indices (shared; do not
// mutate: write through Set, Clear or Replace).
func (s *Spreader[L]) Links(key int) Bitmap {
	w := int(s.words)
	return s.linkSets[key*w : (key+1)*w : (key+1)*w]
}

// positions returns key's candidate set over permutation positions.
func (s *Spreader[L]) positions(key int) Bitmap {
	w := int(s.words)
	return s.posSets[key*w : (key+1)*w : (key+1)*w]
}

// Set adds link, one of the spreader's link indices, to key's candidate
// set.
func (s *Spreader[L]) Set(key, link int) {
	s.Links(key).Set(link)
	s.positions(key).Set(int(s.inv[link]))
}

// Clear removes link, one of the spreader's link indices, from key's
// candidate set.
func (s *Spreader[L]) Clear(key, link int) {
	s.Links(key).Clear(link)
	s.positions(key).Clear(int(s.inv[link]))
}

// Replace makes set, over link indices, key's candidate set. Bits beyond
// the spreader's links are not candidates, and words set does not have are
// empty.
func (s *Spreader[L]) Replace(key int, set Bitmap) {
	dst := s.Links(key)
	changed := false
	for w := range dst {
		v := uint64(0)
		if w < len(set) {
			v = set[w]
		}
		if tail := len(s.perm) - 64*w; tail < 64 {
			v &= 1<<max(tail, 0) - 1
		}
		changed = changed || dst[w] != v
		dst[w] = v
	}
	if changed {
		s.derive(key)
	}
}

// derive rebuilds key's position set from its link set.
func (s *Spreader[L]) derive(key int) {
	pos := s.positions(key)
	clear(pos)
	for w, word := range s.Links(key) {
		for ; word != 0; word &= word - 1 {
			at := s.inv[w*64+bits.TrailingZeros64(word)]
			pos[at>>6] |= 1 << (at & 63)
		}
	}
}

func (s *Spreader[L]) invert() {
	for at, link := range s.perm {
		s.inv[link] = int32(at)
	}
}

// reshuffle replaces the traversal order with a fresh permutation in
// place (Fisher-Yates), sends every key back to position 0 and derives
// every position set again, allocating nothing — the spreader sits on the
// per-cell fabric hot path.
func (s *Spreader[L]) reshuffle() {
	clear(s.at)
	if len(s.perm) < 2 {
		return // one order only: nothing can move
	}
	rng := rand.New(&s.rng)
	for i := len(s.perm) - 1; i > 0; i-- {
		j := rng.IntN(i + 1)
		s.perm[i], s.perm[j] = s.perm[j], s.perm[i]
		s.byPos[i], s.byPos[j] = s.byPos[j], s.byPos[i]
	}
	s.invert()
	// The image of an empty set is empty already. Equal link sets have
	// equal images, and keys often come in runs of them (every destination
	// behind one next hop): a run is derived once.
	prev := -1
	for key := range s.Sets() {
		links := s.Links(key)
		switch {
		case !slices.ContainsFunc(links, func(w uint64) bool { return w != 0 }):
		case prev >= 0 && slices.Equal(links, s.Links(prev)):
			copy(s.positions(key), s.positions(prev))
		default:
			s.derive(key)
			prev = key
		}
	}
}

// Next picks the next link among key's candidates: the first candidate in
// permutation order from key's position on, wrapping once, and key's
// position moves past it. An empty set returns ok false.
//
// Each key keeps its own position, but the reshuffle epoch is the
// spreader's: it counts the picks of every key, and the call that finds
// none left replaces the permutation and sends every key back to position
// 0 before it picks. So between two reshuffles every key walks its set
// round-robin from the start of one permutation, whatever the other keys
// do: a member of a set S that is not written is picked ⌊c/|S|⌋ or
// ⌈c/|S|⌉ times in the key's c picks.
func (s *Spreader[L]) Next(key int) (link L, ok bool) {
	n := len(s.byPos)
	if n == 0 {
		return link, false
	}
	if s.left <= 0 {
		s.left = s.period
		s.reshuffle()
	}
	words := int(s.words)
	set := s.posSets[key*words : (key+1)*words]
	at := -1
	if from := int(s.at[key]); from < n {
		at = first(set, from)
	}
	if at < 0 {
		if at = first(set, 0); at < 0 {
			return link, false
		}
	}
	s.left--
	s.at[key] = int32(at + 1)
	return s.byPos[at], true
}

// first returns the first member of set at position from or later, -1 if
// there is none: a shift and a trailing-zero count, and then a scan of the
// words after from's.
func first(set []uint64, from int) int {
	w := from >> 6
	if word := set[w] >> (from & 63); word != 0 {
		return from + bits.TrailingZeros64(word)
	}
	for w++; w < len(set); w++ {
		if set[w] != 0 {
			return w*64 + bits.TrailingZeros64(set[w])
		}
	}
	return -1
}

// Check reports whether every position set is the image of its link set
// under the current permutation, every key's position lies in the
// traversal, and no link set names a link beyond the spreader's: the
// invariant every write, every Next and every reshuffle keeps.
func (s *Spreader[L]) Check() error {
	for at, link := range s.perm {
		if s.inv[link] != int32(at) {
			return fmt.Errorf("reach: link %d at position %d, inverse says %d", link, at, s.inv[link])
		}
	}
	for key, at := range s.at {
		if at < 0 || int(at) > len(s.perm) {
			return fmt.Errorf("reach: set %d at position %d of %d", key, at, len(s.perm))
		}
	}
	for key := range s.Sets() {
		links, pos := s.Links(key), s.positions(key)
		for w := range links {
			if tail := len(s.perm) - 64*w; tail < 64 && (links[w]|pos[w])>>max(tail, 0) != 0 {
				return fmt.Errorf("reach: set %d names a link or position beyond its %d", key, len(s.perm))
			}
		}
		for link, at := range s.inv {
			if links.Get(link) != pos.Get(int(at)) {
				return fmt.Errorf("reach: set %d: link %d is %v, its position %d is %v", key, link, links.Get(link), at, pos.Get(int(at)))
			}
		}
	}
	return nil
}

package reach

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"stardust/internal/sim"
)

func TestBitmapBasics(t *testing.T) {
	b := NewBitmap(130)
	b.Set(0)
	b.Set(64)
	b.Set(129)
	if !b.Get(0) || !b.Get(64) || !b.Get(129) || b.Get(1) {
		t.Fatal("set/get broken")
	}
	if b.Count() != 3 {
		t.Fatalf("count = %d", b.Count())
	}
	b.Clear(64)
	if b.Get(64) || b.Count() != 2 {
		t.Fatal("clear broken")
	}
	c := b.Clone()
	c.Set(5)
	if b.Get(5) {
		t.Fatal("clone aliases")
	}
	b.Or(c)
	if !b.Get(5) {
		t.Fatal("or broken")
	}
	b.Reset()
	if b.Count() != 0 {
		t.Fatal("reset broken")
	}
}

// Property: Count equals the number of distinct set indices.
func TestPropertyBitmapCount(t *testing.T) {
	f := func(idxs []uint16) bool {
		b := NewBitmap(1 << 16)
		seen := map[uint16]bool{}
		for _, i := range idxs {
			b.Set(int(i))
			seen[i] = true
		}
		return b.Count() == len(seen)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMessagesRoundTrip(t *testing.T) {
	const numFA = 300 // needs 3 chunks
	set := NewBitmap(numFA)
	for _, fa := range []int{0, 127, 128, 255, 299} {
		set.Set(fa)
	}
	msgs := BuildMessages(42, set, numFA)
	if len(msgs) != 3 {
		t.Fatalf("messages = %d, want 3", len(msgs))
	}
	tbl := NewTable(numFA, 8)
	for _, m := range msgs {
		if m.Origin != 42 {
			t.Fatal("origin lost")
		}
		if err := tbl.ApplyMessage(3, m); err != nil {
			t.Fatal(err)
		}
	}
	for fa := 0; fa < numFA; fa++ {
		want := set.Get(fa)
		if got := tbl.Reachable(fa); got != want {
			t.Fatalf("FA %d reachable=%v want %v", fa, got, want)
		}
		if want && !tbl.Links(fa).Get(3) {
			t.Fatalf("FA %d not mapped to link 3", fa)
		}
	}
}

func TestApplyMessageWithdraws(t *testing.T) {
	tbl := NewTable(128, 4)
	full := NewBitmap(128)
	for i := 0; i < 128; i++ {
		full.Set(i)
	}
	for _, m := range BuildMessages(1, full, 128) {
		tbl.ApplyMessage(0, m)
	}
	if !tbl.Reachable(77) {
		t.Fatal("setup failed")
	}
	// A later advertisement without FA 77 must withdraw it.
	partial := full.Clone()
	partial.Clear(77)
	for _, m := range BuildMessages(1, partial, 128) {
		tbl.ApplyMessage(0, m)
	}
	if tbl.Reachable(77) {
		t.Fatal("withdrawal failed")
	}
	if !tbl.Reachable(76) {
		t.Fatal("collateral withdrawal")
	}
}

func TestFaultyAdvertisementWithdraws(t *testing.T) {
	tbl := NewTable(128, 4)
	full := NewBitmap(128)
	full.Set(5)
	for _, m := range BuildMessages(1, full, 128) {
		tbl.ApplyMessage(2, m)
	}
	if !tbl.Reachable(5) {
		t.Fatal("setup failed")
	}
	msgs := BuildMessages(1, full, 128)
	for i := range msgs {
		msgs[i].Faulty = true
		tbl.ApplyMessage(2, msgs[i])
	}
	if tbl.Reachable(5) {
		t.Fatal("faulty link still forwarding")
	}
}

func TestLinkDown(t *testing.T) {
	tbl := NewTable(128, 4)
	set := NewBitmap(128)
	set.Set(10)
	set.Set(20)
	for _, m := range BuildMessages(1, set, 128) {
		tbl.ApplyMessage(0, m)
		tbl.ApplyMessage(1, m)
	}
	tbl.LinkDown(0)
	if !tbl.Reachable(10) {
		t.Fatal("redundant link lost too")
	}
	if tbl.Links(10).Get(0) {
		t.Fatal("downed link still in table")
	}
	tbl.LinkDown(1)
	if tbl.Reachable(10) || tbl.Reachable(20) {
		t.Fatal("unreachable FA still reachable")
	}
	if tbl.ReachableSet().Count() != 0 {
		t.Fatal("reachable set not empty")
	}
}

func TestApplyMessageErrors(t *testing.T) {
	tbl := NewTable(128, 4)
	if err := tbl.ApplyMessage(9, Message{}); err == nil {
		t.Fatal("bad link must error")
	}
	if err := tbl.ApplyMessage(0, Message{Chunk: 5}); err == nil {
		t.Fatal("bad chunk must error")
	}
}

func TestSpreaderEvenness(t *testing.T) {
	// §5.3: "the same amount of data is sent down each link".
	s := NewSpreader(indices(16), 1, 4, pcg(1))
	eligible := NewBitmap(16)
	for i := 0; i < 16; i++ {
		eligible.Set(i)
	}
	s.Replace(0, eligible)
	counts := make([]int, 16)
	const rounds = 1600
	for i := 0; i < rounds; i++ {
		l := pick(&s, 0)
		if l < 0 {
			t.Fatal("no link")
		}
		counts[l]++
	}
	for l, n := range counts {
		if n != rounds/16 {
			t.Fatalf("link %d got %d cells, want %d (perfect fluid)", l, n, rounds/16)
		}
	}
}

func TestSpreaderSkipsIneligible(t *testing.T) {
	s := NewSpreader(indices(8), 1, 4, pcg(2))
	s.Set(0, 3)
	s.Set(0, 6)
	counts := map[int]int{}
	for i := 0; i < 100; i++ {
		l := pick(&s, 0)
		if l != 3 && l != 6 {
			t.Fatalf("ineligible link %d chosen", l)
		}
		counts[l]++
	}
	if counts[3] != 50 || counts[6] != 50 {
		t.Fatalf("uneven split: %v", counts)
	}
}

func TestSpreaderEmptySet(t *testing.T) {
	s := NewSpreader(indices(4), 1, 4, pcg(3))
	if l := pick(&s, 0); l != -1 {
		t.Fatalf("empty set returned %d", l)
	}
}

// A port group of no links is an empty spreader: every key's set is empty
// and stays so, and Next says so, however often it is asked.
func TestSpreaderOfNoLinks(t *testing.T) {
	s := NewSpreader(indices(0), 3, 2, pcg(1))
	for i := 0; i < 100; i++ {
		if l := pick(&s, i%3); l != -1 {
			t.Fatalf("call %d: a spreader of no links returned %d", i, l)
		}
	}
	s.Replace(1, Bitmap{^uint64(0)})
	if l := pick(&s, 1); l != -1 || s.Links(1).Count() != 0 {
		t.Fatalf("a spreader of no links took candidates: Next %d, set %v", l, s.Links(1))
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
}

// Property: over any eligible subset, a full multiple of traversals visits
// each eligible link equally often.
func TestPropertySpreaderFairness(t *testing.T) {
	f := func(mask uint16, seed int64) bool {
		if mask == 0 {
			return true
		}
		s := NewSpreader(indices(16), 1, 1000000, pcg(seed)) // no reshuffle mid-test
		eligible := NewBitmap(16)
		n := 0
		for i := 0; i < 16; i++ {
			if mask&(1<<i) != 0 {
				eligible.Set(i)
				n++
			}
		}
		s.Replace(0, eligible)
		counts := make([]int, 16)
		for i := 0; i < n*32; i++ {
			counts[pick(&s, 0)]++
		}
		for i := 0; i < 16; i++ {
			want := 0
			if eligible.Get(i) {
				want = 32
			}
			if counts[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMonitorUpDown(t *testing.T) {
	m := NewMonitor(10*sim.Microsecond, 3)
	if m.State() != LinkDownState {
		t.Fatal("monitor must start down")
	}
	// Three consecutive good messages bring it up.
	now := sim.Time(0)
	flipped := false
	for i := 0; i < 3; i++ {
		flipped = m.OnMessage(now, false)
		now += 10 * sim.Microsecond
	}
	if !flipped || m.State() != LinkUpState {
		t.Fatal("link did not come up after threshold messages")
	}
	// Keepalive loss: no message for > th*interval after the last one
	// (which arrived at now-10us).
	last := now - 10*sim.Microsecond
	if m.Tick(last + 25*sim.Microsecond) {
		t.Fatal("down too early")
	}
	if !m.Tick(last + 35*sim.Microsecond) {
		t.Fatal("keepalive loss not detected")
	}
	if m.State() != LinkDownState {
		t.Fatal("state wrong after loss")
	}
}

func TestMonitorFaultyMessage(t *testing.T) {
	m := NewMonitor(10*sim.Microsecond, 2)
	m.OnMessage(0, false)
	m.OnMessage(10, false)
	if m.State() != LinkUpState {
		t.Fatal("setup failed")
	}
	if !m.OnMessage(20, true) {
		t.Fatal("faulty message must down the link")
	}
	// One good message is not enough to recover with threshold 2.
	m.OnMessage(30, false)
	if m.State() != LinkDownState {
		t.Fatal("recovered too fast")
	}
	m.OnMessage(40, false)
	if m.State() != LinkUpState {
		t.Fatal("did not recover")
	}
}

func TestMessagesPerTable(t *testing.T) {
	// Appendix E: 32,000 hosts / 40 per FA = 800 FAs -> 7 messages.
	if got := MessagesPerTable(800); got != 7 {
		t.Fatalf("MessagesPerTable(800) = %d, want 7", got)
	}
	if got := MessagesPerTable(128); got != 1 {
		t.Fatalf("MessagesPerTable(128) = %d, want 1", got)
	}
	if got := MessagesPerTable(129); got != 2 {
		t.Fatalf("MessagesPerTable(129) = %d, want 2", got)
	}
}

// Regression: with a small reshuffle period and a sparse eligible set, the
// spreader must never fail to find an eligible link (a mid-scan reshuffle
// used to skip links).
func TestSpreaderSparseNeverFails(t *testing.T) {
	s := NewSpreader(indices(8), 1, 2, pcg(42)) // reshuffle every 16 picks
	s.Set(0, 2)
	s.Set(0, 5)
	for i := 0; i < 10000; i++ {
		if l := pick(&s, 0); l != 2 && l != 5 {
			t.Fatalf("iteration %d: got %d", i, l)
		}
	}
}

// scanSpreader is the arbiter as it was first written — walk the
// permutation from the key's position, wrapping once, until an eligible
// link turns up — kept as the reference Spreader.Next is held to. It
// draws and reshuffles its permutation exactly as Spreader does, keeps one
// position per key, and is handed the key's link set to walk on every
// call.
type scanSpreader struct {
	perm      []int
	pos       []int
	picks     int
	maxRounds int
	rng       *rand.Rand
}

func newScanSpreader(numLink, keys, reshuffleRounds int, seed int64) *scanSpreader {
	s := &scanSpreader{pos: make([]int, keys), rng: rand.New(pcg(seed)), maxRounds: reshuffleRounds}
	for l := range numLink {
		s.perm = append(s.perm, l)
	}
	s.shuffle()
	return s
}

func (s *scanSpreader) shuffle() {
	for i := len(s.perm) - 1; i > 0; i-- {
		j := s.rng.IntN(i + 1)
		s.perm[i], s.perm[j] = s.perm[j], s.perm[i]
	}
	clear(s.pos)
}

func (s *scanSpreader) Next(key int, eligible Bitmap) int {
	n := len(s.perm)
	if n > 0 && s.picks >= s.maxRounds*n {
		s.picks = 0
		s.shuffle()
	}
	for i := range n {
		p := (s.pos[key] + i) % n
		if link := s.perm[p]; eligible.Get(link) {
			s.pos[key] = p + 1
			s.picks++
			return link
		}
	}
	return -1
}

// spreaderPair drives a Spreader and its walk reference side by side over
// keys candidate sets: every write goes to the Spreader through its API and
// to the reference's own copy of the link sets, and every Next must agree
// in link, every key's position, pick count and permutation.
type spreaderPair struct {
	t    testing.TB
	n    int
	got  Spreader[int]
	want *scanSpreader
	sets []Bitmap // the reference's link sets, bits beyond n included
	step int
}

func newSpreaderPair(t testing.TB, n, keys, rounds int, seed int64) *spreaderPair {
	p := &spreaderPair{t: t, n: n, got: NewSpreader(indices(n), keys, rounds, pcg(seed)), want: newScanSpreader(n, keys, rounds, seed)}
	for range keys {
		p.sets = append(p.sets, NewBitmap(n+64)) // room for bits beyond n
	}
	return p
}

func (p *spreaderPair) set(key, link int)   { p.got.Set(key, link); p.sets[key].Set(link) }
func (p *spreaderPair) clear(key, link int) { p.got.Clear(key, link); p.sets[key].Clear(link) }

func (p *spreaderPair) replace(key int, set Bitmap) {
	p.got.Replace(key, set)
	p.sets[key].Reset()
	copy(p.sets[key], set)
}

func (p *spreaderPair) next(key int) {
	p.t.Helper()
	p.step++
	g, w := pick(&p.got, key), p.want.Next(key, p.sets[key])
	perm := make([]int, len(p.got.perm))
	for i, l := range p.got.perm {
		perm[i] = int(l)
	}
	at := make([]int, len(p.got.at))
	for k, a := range p.got.at {
		at[k] = int(a)
	}
	picks := p.got.period - p.got.left
	if g != w || !slices.Equal(at, p.want.pos) || picks != p.want.picks || !slices.Equal(perm, p.want.perm) {
		p.t.Fatalf("n=%d step %d key %d: link %d positions %v picks %d, the walk gives link %d positions %v picks %d (perms equal: %v)",
			p.n, p.step, key, g, at, picks, w, p.want.pos, p.want.picks, slices.Equal(perm, p.want.perm))
	}
}

// check holds the Spreader's link sets to the reference's below n, and its
// position sets to their image (Check).
func (p *spreaderPair) check() {
	p.t.Helper()
	for key, want := range p.sets {
		got := p.got.Links(key)
		for l := 0; l < p.n; l++ {
			if got.Get(l) != want.Get(l) {
				p.t.Fatalf("n=%d step %d: set %d has link %d %v, written %v", p.n, p.step, key, l, got.Get(l), want.Get(l))
			}
		}
	}
	if err := p.got.Check(); err != nil {
		p.t.Fatalf("n=%d step %d: %v", p.n, p.step, err)
	}
}

// Spreader.Next finds its answer with bit arithmetic over position sets
// instead of a walk; the state it leaves behind — positions, pick count,
// and through them every later reshuffle — must be the walk's exactly, on
// any set: full, sparse, empty, with bits beyond the links, written
// between calls through Set, Clear and Replace.
func TestSpreaderNextMatchesScan(t *testing.T) {
	const keys = 3
	for _, n := range []int{1, 2, 3, 7, 8, 31, 63, 64, 65, 100, 130} {
		for _, rounds := range []int{1, 2, 64} {
			for seed := int64(1); seed <= 6; seed++ {
				p := newSpreaderPair(t, n, keys, rounds, seed)
				rng := rand.New(rand.NewPCG(uint64(seed), 977))
				for call := 0; call < 3000; call++ {
					// Mostly keep the sets and flip one link, as failures do;
					// now and then redraw one at a random density (bits beyond
					// n included) or empty it.
					key := rng.IntN(keys)
					switch r := rng.IntN(40); {
					case r == 0:
						p.replace(key, nil)
					case r < 4:
						set, density := NewBitmap(n+64), rng.IntN(101)
						for l := 0; l < n+64; l++ {
							if rng.IntN(100) < density {
								set.Set(l)
							}
						}
						p.replace(key, set)
					case r < 12:
						if l := rng.IntN(n); p.sets[key].Get(l) {
							p.clear(key, l)
						} else {
							p.set(key, l)
						}
					}
					p.next(rng.IntN(keys))
					if call%97 == 0 {
						p.check()
					}
				}
				p.check()
			}
		}
	}
}

// checkBalance calls Next over a spreader of n links holding sets, one key
// after another as seq names them, and holds every epoch between two
// reshuffles to the balance a per-key round robin gives: each member of
// key k's set picked ⌊c_k/|S_k|⌋ or ⌈c_k/|S_k|⌉ times in the epoch's c_k
// calls on k, no other link ever. It does not look at the permutation or
// the positions: a call that reshuffled is one that drew from the
// spreader's random source, and its pick is the new epoch's first.
func checkBalance(t testing.TB, n, rounds int, seed int64, sets []Bitmap, seq []int) {
	t.Helper()
	s := NewSpreader(indices(n), len(sets), rounds, pcg(seed))
	for k, set := range sets {
		s.Replace(k, set)
	}
	counts := make([][]int, len(sets))
	for k := range counts {
		counts[k] = make([]int, n)
	}
	calls := make([]int, len(sets))
	epoch := 0
	settle := func() {
		for k, set := range sets {
			size := s.Links(k).Count()
			for l := range n {
				c := counts[k][l]
				switch {
				case !set.Get(l) && c != 0:
					t.Fatalf("epoch %d: key %d picked link %d, not in its set, %d times", epoch, k, l, c)
				case set.Get(l) && (c < calls[k]/size || c > (calls[k]+size-1)/size):
					t.Fatalf("epoch %d: key %d picked link %d %d times in %d calls over %d links (n=%d, sets %v, seq %v)",
						epoch, k, l, c, calls[k], size, n, sets, seq)
				}
			}
			clear(counts[k])
			calls[k] = 0
		}
		epoch++
	}
	for _, k := range seq {
		src := s.rng
		l := pick(&s, k)
		if s.rng != src {
			settle()
		}
		if (l < 0) != (s.Links(k).Count() == 0) {
			t.Fatalf("key %d: picked %d from a set of %d links", k, l, s.Links(k).Count())
		}
		if l >= 0 {
			counts[k][l]++
			calls[k]++
		}
	}
	settle()
}

// Property: however the keys interleave, each key's set is balanced
// between two reshuffles (checkBalance), with one permutation for the whole
// run and with one replaced every traversal's worth of picks or every few.
func TestPropertySpreaderBalance(t *testing.T) {
	f := func(width uint8, rounds uint8, seed int64, masks [4]uint64, keys []uint8) bool {
		n := int(width)%70 + 1
		sets := make([]Bitmap, len(masks))
		for k, m := range masks {
			sets[k] = NewBitmap(n)
			for l := range n {
				if m>>(l%64)&1 != 0 {
					sets[k].Set(l)
				}
			}
		}
		seq := make([]int, 0, 8*len(keys))
		for range 8 {
			for _, k := range keys {
				seq = append(seq, int(k)%len(sets))
			}
		}
		r := []int{1, 3, 64, 1 << 30}[rounds%4]
		checkBalance(t, n, r, seed, sets, seq)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	// Two keys over one full set, called in turn: one cursor for both would
	// hand each key every other link only.
	full := NewBitmap(4)
	for l := range 4 {
		full.Set(l)
	}
	checkBalance(t, 4, 1<<30, 1, []Bitmap{full, full}, []int{0, 1, 0, 1, 0, 1, 0, 1})
}

// Bits beyond the spreader's links (a wider table's row handed to a
// narrower port group) are not candidates.
func TestSpreaderIgnoresBitsBeyondLinks(t *testing.T) {
	s := NewSpreader(indices(5), 1, 4, pcg(9))
	eligible := NewBitmap(64)
	eligible.Set(40)
	s.Replace(0, eligible)
	if got := pick(&s, 0); got != -1 {
		t.Fatalf("picked %d from a set with no link below 5", got)
	}
	eligible.Set(3)
	s.Replace(0, eligible)
	for i := 0; i < 20; i++ {
		if got := pick(&s, 0); got != 3 {
			t.Fatalf("picked %d, only link 3 is eligible", got)
		}
	}
}

// indices returns the link indices 0..n-1: the links of a spreader whose
// caller names its links by index.
func indices(n int) []int {
	links := make([]int, n)
	for i := range links {
		links[i] = i
	}
	return links
}

// pcg is the random source a test spreader draws its permutations from.
func pcg(seed int64) *rand.PCG { return rand.NewPCG(uint64(seed), 0) }

// pick is Next as a link index, -1 when the set is empty.
func pick(s *Spreader[int], key int) int {
	if link, ok := s.Next(key); ok {
		return link
	}
	return -1
}

// Check catches a link set whose position set was not written with it,
// and a set naming a position beyond the spreader's links.
func TestSpreaderCheckCatchesDrift(t *testing.T) {
	s := NewSpreader(indices(5), 2, 4, pcg(1))
	s.Set(1, 3)
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	s.linkSets[1] |= 1 << 1 // a link written without its position
	if s.Check() == nil {
		t.Fatal("a link without its position passed")
	}
	s.linkSets[1] &^= 1 << 1
	s.posSets[0] |= 1 << 7 // a position beyond the links
	if s.Check() == nil {
		t.Fatal("a position beyond the links passed")
	}
}

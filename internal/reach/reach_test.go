package reach

import (
	"math/rand"
	"reflect"
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
	s := NewSpreader(16, 4, 1)
	eligible := NewBitmap(16)
	for i := 0; i < 16; i++ {
		eligible.Set(i)
	}
	counts := make([]int, 16)
	const rounds = 1600
	for i := 0; i < rounds; i++ {
		l := s.Next(eligible)
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
	s := NewSpreader(8, 4, 2)
	eligible := NewBitmap(8)
	eligible.Set(3)
	eligible.Set(6)
	counts := map[int]int{}
	for i := 0; i < 100; i++ {
		l := s.Next(eligible)
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
	s := NewSpreader(4, 4, 3)
	if l := s.Next(NewBitmap(4)); l != -1 {
		t.Fatalf("empty set returned %d", l)
	}
}

// Property: over any eligible subset, a full multiple of traversals visits
// each eligible link equally often.
func TestPropertySpreaderFairness(t *testing.T) {
	f := func(mask uint16, seed int64) bool {
		if mask == 0 {
			return true
		}
		s := NewSpreader(16, 1000000, seed) // no reshuffle mid-test
		eligible := NewBitmap(16)
		n := 0
		for i := 0; i < 16; i++ {
			if mask&(1<<i) != 0 {
				eligible.Set(i)
				n++
			}
		}
		counts := make([]int, 16)
		for i := 0; i < n*32; i++ {
			counts[s.Next(eligible)]++
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
	s := NewSpreader(8, 2, 42) // reshuffle every 2 rounds
	eligible := NewBitmap(8)
	eligible.Set(2)
	eligible.Set(5)
	for i := 0; i < 10000; i++ {
		if l := s.Next(eligible); l != 2 && l != 5 {
			t.Fatalf("iteration %d: got %d", i, l)
		}
	}
}

// scanSpreader is the arbiter as it was first written — walk the
// permutation from pos until an eligible link turns up — kept as the
// reference Spreader.Next is held to.
type scanSpreader struct{ Spreader }

func (s *scanSpreader) Next(eligible Bitmap) int {
	if s.pos == 0 && s.rounds >= s.maxRounds {
		s.rounds = 0
		s.reshuffle()
	}
	return s.scan(eligible)
}

// Spreader.Next finds its answer with bit arithmetic instead of a walk;
// the state it leaves behind — position, round count, and through them
// every later reshuffle — must be the walk's exactly, on any eligible
// set: full, sparse, empty, changing between calls.
func TestSpreaderNextMatchesScan(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 8, 31, 63, 64, 65, 100} {
		for _, rounds := range []int{1, 2, 64} {
			for seed := int64(1); seed <= 6; seed++ {
				got := NewSpreader(n, rounds, seed)
				want := &scanSpreader{*NewSpreader(n, rounds, seed)}
				rng := rand.New(rand.NewSource(seed * 977))
				eligible := NewBitmap(n)
				for call := 0; call < 3000; call++ {
					// Mostly keep the set and flip one link, as failures do;
					// now and then redraw it at a random density or empty it.
					switch r := rng.Intn(40); {
					case r == 0:
						eligible.Reset()
					case r < 4:
						density := rng.Intn(101)
						for l := 0; l < n; l++ {
							if rng.Intn(100) < density {
								eligible.Set(l)
							} else {
								eligible.Clear(l)
							}
						}
					case r < 12:
						if l := rng.Intn(n); eligible.Get(l) {
							eligible.Clear(l)
						} else {
							eligible.Set(l)
						}
					}
					g, w := got.Next(eligible), want.Next(eligible)
					if g != w || got.pos != want.pos || got.rounds != want.rounds || !reflect.DeepEqual(got.perm, want.perm) {
						t.Fatalf("n=%d rounds=%d seed=%d call %d: link %d pos %d rounds %d, scan gives link %d pos %d rounds %d (perms equal: %v)",
							n, rounds, seed, call, g, got.pos, got.rounds, w, want.pos, want.rounds, reflect.DeepEqual(got.perm, want.perm))
					}
				}
			}
		}
	}
}

// Bits beyond the spreader's links (a wider table's row handed to a
// narrower port group) are not candidates.
func TestSpreaderIgnoresBitsBeyondLinks(t *testing.T) {
	s := NewSpreader(5, 4, 9)
	eligible := NewBitmap(64)
	eligible.Set(40)
	if got := s.Next(eligible); got != -1 {
		t.Fatalf("picked %d from a set with no link below 5", got)
	}
	eligible.Set(3)
	for i := 0; i < 20; i++ {
		if got := s.Next(eligible); got != 3 {
			t.Fatalf("picked %d, only link 3 is eligible", got)
		}
	}
}

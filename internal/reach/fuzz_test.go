package reach

import (
	"math/rand/v2"
	"testing"
)

// FuzzReachApplyMessage fuzzes the hardware reachability table's message
// application (§5.8): arbitrary messages on arbitrary links must never
// panic, must reject out-of-range input with an error, and must leave the
// two table projections (per-FA link sets and per-link FA sets) exactly
// consistent. It also checks idempotence, the BuildMessages/ApplyMessage
// round trip, and LinkDown's full withdrawal.
func FuzzReachApplyMessage(f *testing.F) {
	f.Add(uint8(8), uint8(4), uint8(1), uint16(0), false, uint64(0b1011), uint64(0))
	f.Add(uint8(200), uint8(31), uint8(30), uint16(1), false, ^uint64(0), ^uint64(0))
	f.Add(uint8(1), uint8(1), uint8(0), uint16(9), true, uint64(1), uint64(0))
	f.Add(uint8(130), uint8(16), uint8(200), uint16(0), false, uint64(42), uint64(7))
	f.Fuzz(func(t *testing.T, numFA, numLink, link uint8, chunk uint16, faulty bool, w0, w1 uint64) {
		nFA := int(numFA)%200 + 1
		nLink := int(numLink)%32 + 1
		tbl := NewTable(nFA, nLink)

		m := Message{Origin: 3, Chunk: chunk, Faulty: faulty}
		m.Bits[0], m.Bits[1] = w0, w1
		err := tbl.ApplyMessage(int(link), m)
		if int(link) >= nLink {
			if err == nil {
				t.Fatalf("link %d accepted by a %d-link table", link, nLink)
			}
			return
		}
		if base := int(chunk) * ChunkBits; base >= nFA && chunk != 0 {
			if err == nil {
				t.Fatalf("chunk %d accepted by a %d-FA table", chunk, nFA)
			}
			return
		}
		if err != nil {
			t.Fatalf("in-range message rejected: %v", err)
		}

		checkConsistent := func() {
			t.Helper()
			for fa := 0; fa < nFA; fa++ {
				viaAny := false
				for l := 0; l < nLink; l++ {
					viaLink := tbl.LinkSet(l).Get(fa)
					if tbl.Links(fa).Get(l) != viaLink {
						t.Fatalf("projections disagree at (fa=%d, link=%d)", fa, l)
					}
					viaAny = viaAny || viaLink
				}
				if tbl.Reachable(fa) != viaAny {
					t.Fatalf("Reachable(%d)=%v but per-link union says %v", fa, tbl.Reachable(fa), viaAny)
				}
			}
		}
		checkConsistent()

		// Idempotence: applying the same advertisement again is a no-op.
		before := tbl.ReachableSet().Clone()
		if err := tbl.ApplyMessage(int(link), m); err != nil {
			t.Fatalf("re-apply rejected: %v", err)
		}
		checkConsistent()
		after := tbl.ReachableSet()
		for i := range before {
			if before[i] != after[i] {
				t.Fatal("re-applying the same message changed the table")
			}
		}

		// Round trip: a full advertised set must survive encode + apply.
		set := NewBitmap(nFA)
		for fa := 0; fa < nFA; fa++ {
			w := w0
			if fa >= 64 {
				w = w1
			}
			if w&(1<<(fa%64)) != 0 {
				set.Set(fa)
			}
		}
		for _, bm := range BuildMessages(7, set, nFA) {
			if err := tbl.ApplyMessage(int(link), bm); err != nil {
				t.Fatalf("round-trip apply: %v", err)
			}
		}
		got := tbl.LinkSet(int(link))
		for fa := 0; fa < nFA; fa++ {
			if got.Get(fa) != set.Get(fa) {
				t.Fatalf("round trip lost fa %d: sent %v, table has %v", fa, set.Get(fa), got.Get(fa))
			}
		}
		checkConsistent()

		// LinkDown withdraws everything learned through the link (§5.9).
		tbl.LinkDown(int(link))
		if tbl.LinkSet(int(link)).Count() != 0 {
			t.Fatal("LinkDown left advertised destinations behind")
		}
		for fa := 0; fa < nFA; fa++ {
			if tbl.Links(fa).Get(int(link)) {
				t.Fatalf("LinkDown left fa %d routed via the dead link", fa)
			}
		}
		checkConsistent()
	})
}

// FuzzSpreaderMatchesWalk runs a fuzzed program of Set, Clear, Replace and
// Next steps over several keys of a spreader of up to 130 links against
// the walk reference (scanSpreader): every Next must agree in link,
// every key's position, pick count and permutation, and every step must
// leave the link sets as written and the position sets their image. A
// step is two bytes, an operation and its argument; a Replace draws its
// set, bits beyond the links included, from the argument.
func FuzzSpreaderMatchesWalk(f *testing.F) {
	f.Add(uint8(5), uint8(2), int64(1), []byte{0, 3, 3, 0, 3, 1, 1, 3, 3, 2})
	f.Add(uint8(64), uint8(1), int64(7), []byte{2, 200, 3, 0, 3, 1, 2, 9, 3, 2, 1, 64})
	f.Add(uint8(130), uint8(3), int64(-4), []byte{2, 77, 2, 78, 2, 79, 3, 0, 3, 1, 3, 2, 0, 129, 1, 5})
	f.Fuzz(func(t *testing.T, width, rounds uint8, seed int64, prog []byte) {
		const keys = 3
		n := int(width)%130 + 1
		p := newSpreaderPair(t, n, keys, int(rounds)%8+1, seed)
		for i := 0; i+1 < len(prog); i += 2 {
			op, arg := prog[i]%4, int(prog[i+1])
			key := arg % keys
			switch op {
			case 0:
				p.set(key, arg%n)
			case 1:
				p.clear(key, arg%n)
			case 2:
				rng := rand.New(rand.NewPCG(uint64(arg), 0))
				set, density := NewBitmap(n+64), rng.IntN(101)
				for l := 0; l < n+64; l++ {
					if rng.IntN(100) < density {
						set.Set(l)
					}
				}
				p.replace(key, set)
			case 3:
				p.next(key)
			}
			p.check()
		}
		// Long enough past the program for several reshuffles.
		for i := 0; i < 8*n; i++ {
			p.next(i % keys)
		}
		p.check()
	})
}

// FuzzSpreaderBalance holds a spreader to checkBalance on fuzzed candidate
// sets and key sequences: between two reshuffles, each member of a key's
// set is picked as often as a round robin of that key alone would pick it,
// give or take one. The sets are drawn from their bytes (eight links a
// byte, cycling), the key of each call from one byte of keys.
func FuzzSpreaderBalance(f *testing.F) {
	f.Add(uint8(3), uint8(0), int64(1), []byte{0xff, 0xff}, []byte{0, 1, 0, 1, 0, 1, 0, 1})
	f.Add(uint8(8), uint8(2), int64(5), []byte{0xff, 0x0f, 0x3c}, []byte{0, 1, 2, 0, 0, 1, 2, 2, 1, 0, 1, 2, 0, 1, 2, 0})
	f.Add(uint8(99), uint8(0), int64(-3), []byte{0xaa, 0x55, 0xff, 0x81}, []byte{3, 2, 1, 0, 0, 1, 2, 3, 3, 3, 0, 1})
	f.Fuzz(func(t *testing.T, width, rounds uint8, seed int64, masks, keys []byte) {
		if len(masks) == 0 || len(masks) > 8 {
			return
		}
		n := int(width)%130 + 1
		sets := make([]Bitmap, len(masks))
		for k, m := range masks {
			sets[k] = NewBitmap(n)
			for l := range n {
				if m>>(l%8)&1 != 0 {
					sets[k].Set(l)
				}
			}
		}
		seq := make([]int, 0, 4*len(keys))
		for range 4 {
			for _, k := range keys {
				seq = append(seq, int(k)%len(sets))
			}
		}
		checkBalance(t, n, []int{1 << 30, 1, 2, 64}[rounds%4], seed, sets, seq)
	})
}

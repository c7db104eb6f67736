package telemetry

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"stardust/internal/sim"
)

// writeStream encodes windows of per-window deltas into a fresh stream.
func writeStream(t testing.TB, hdr StreamHeader, deltas [][]uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, hdr)
	if err != nil {
		t.Fatal(err)
	}
	snap := Snapshot{Dirs: make([]DirSample, hdr.Dirs), Sinks: make([]SinkSample, hdr.FAs)}
	for d := range snap.Dirs {
		snap.Dirs[d].Up = true
	}
	for i, win := range deltas {
		snap.T = sim.Time(i+1) * sim.Microsecond
		for d, v := range win {
			snap.Dirs[d].FwdCells += v
			snap.Dirs[d].FwdBytes += v * 512
		}
		if hdr.FAs > 0 {
			snap.Sinks[0].Cells += win[0]
			snap.Sinks[0].Bytes += win[0] * 512
		}
		if err := w.WriteWindow(&snap); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestCompareIdentical(t *testing.T) {
	hdr := StreamHeader{Dirs: 2, FAs: 1, ScrapePs: sim.Microsecond}
	deltas := [][]uint64{{10, 20}, {30, 40}, {50, 60}}
	a := writeStream(t, hdr, deltas)
	b := writeStream(t, hdr, deltas)
	d, err := Compare(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !d.ByteIdentical || !d.Zero || !d.ShapeMatch {
		t.Fatalf("identical streams misreported: %+v", d)
	}
	if d.RecordedWindows != 3 || d.ComparedWindows != 3 || d.FirstDivergentWindow != -1 {
		t.Fatalf("window accounting wrong: %+v", d)
	}
	if !strings.Contains(d.String(), "byte-identical") {
		t.Fatalf("verdict: %s", d)
	}
}

func TestCompareZeroDivergenceDifferentHeader(t *testing.T) {
	deltas := [][]uint64{{10, 20}, {30, 40}}
	a := writeStream(t, StreamHeader{Dirs: 2, FAs: 1, ScrapePs: sim.Microsecond, Seed: 1}, deltas)
	b := writeStream(t, StreamHeader{Dirs: 2, FAs: 1, ScrapePs: sim.Microsecond, Seed: 2}, deltas)
	d, err := Compare(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d.ByteIdentical || !d.Zero || !d.ShapeMatch {
		t.Fatalf("same counters, different header misreported: %+v", d)
	}
	if !strings.Contains(d.String(), "zero divergence") {
		t.Fatalf("verdict: %s", d)
	}
}

func TestCompareLocalizesDivergence(t *testing.T) {
	hdr := StreamHeader{Dirs: 3, FAs: 1, ScrapePs: sim.Microsecond}
	a := writeStream(t, hdr, [][]uint64{{10, 20, 5}, {30, 40, 5}, {50, 60, 5}})
	b := writeStream(t, hdr, [][]uint64{{10, 20, 5}, {37, 40, 5}, {50, 25, 5}})
	d, err := Compare(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d.ByteIdentical || d.Zero {
		t.Fatalf("divergence missed: %+v", d)
	}
	if d.DivergentWindows != 2 || d.FirstDivergentWindow != 1 || d.FirstDivergentT != 2*sim.Microsecond {
		t.Fatalf("localization wrong: %+v", d)
	}
	// Dirs 0 and 1 diverged (in different windows); dir 2 never did.
	if d.DirsDiverged != 2 {
		t.Fatalf("DirsDiverged = %d, want 2: %+v", d.DirsDiverged, d)
	}
	if d.MaxCellDelta != 35 { // |60-25|
		t.Fatalf("MaxCellDelta = %d, want 35", d.MaxCellDelta)
	}
	if !strings.Contains(d.String(), "diverged in 2/3 windows") {
		t.Fatalf("verdict: %s", d)
	}
}

func TestCompareShapeChange(t *testing.T) {
	a := writeStream(t, StreamHeader{Dirs: 2, FAs: 1, ScrapePs: sim.Microsecond}, [][]uint64{{10, 20}})
	b := writeStream(t, StreamHeader{Dirs: 4, FAs: 2, ScrapePs: sim.Microsecond}, [][]uint64{{1, 2, 3, 4}})
	d, err := Compare(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d.ShapeMatch || d.Zero {
		t.Fatalf("shape change missed: %+v", d)
	}
	if d.RecordedCells != 10 || d.ReplayedCells != 1 {
		t.Fatalf("aggregate totals wrong: %+v", d)
	}
	if !strings.Contains(d.String(), "shape change") {
		t.Fatalf("verdict: %s", d)
	}
}

func TestCompareRejectsCorruptInput(t *testing.T) {
	good := writeStream(t, StreamHeader{Dirs: 2, FAs: 0, ScrapePs: sim.Microsecond}, [][]uint64{{1, 2}})
	bad := append([]byte(nil), good...)
	bad[len(bad)-1] ^= 0xFF
	if _, err := Compare(good, bad); err == nil {
		t.Fatal("corrupt replayed stream accepted")
	}
	if _, err := Compare(bad, good); err == nil {
		t.Fatal("corrupt recorded stream accepted")
	}
}

// Unequal window counts: the shorter prefix compares clean but Zero must
// be false (the replay ended early or ran long).
func TestCompareLengthMismatch(t *testing.T) {
	hdr := StreamHeader{Dirs: 2, FAs: 0, ScrapePs: sim.Microsecond}
	a := writeStream(t, hdr, [][]uint64{{1, 2}, {3, 4}, {5, 6}})
	b := writeStream(t, hdr, [][]uint64{{1, 2}, {3, 4}})
	d, err := Compare(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d.Zero || d.DivergentWindows != 0 || d.ComparedWindows != 2 {
		t.Fatalf("length mismatch misreported: %+v", d)
	}
}

// compareReference is Compare as it was written before the lockstep walk:
// read each stream whole, deep-copying every window, then diff the copies.
// It is the oracle of the differential tests below.
func compareReference(recorded, replayed []byte) (*Divergence, error) {
	d := &Divergence{FirstDivergentWindow: -1, ByteIdentical: bytes.Equal(recorded, replayed)}

	rec, rhdr, err := referenceWindows(recorded)
	if err != nil {
		return nil, fmt.Errorf("telemetry: recorded stream: %w", err)
	}
	rep, phdr, err := referenceWindows(replayed)
	if err != nil {
		return nil, fmt.Errorf("telemetry: replayed stream: %w", err)
	}
	d.RecordedWindows = len(rec.windows)
	d.ReplayedWindows = len(rep.windows)
	d.RecordedCells, d.RecordedDrops = rec.cells, rec.drops
	d.ReplayedCells, d.ReplayedDrops = rep.cells, rep.drops
	d.ShapeMatch = rhdr.Dirs == phdr.Dirs && rhdr.FAs == phdr.FAs
	if !d.ShapeMatch {
		d.Zero = false
		return d, nil
	}

	n := min(len(rec.windows), len(rep.windows))
	d.ComparedWindows = n
	diverged := make([]bool, rhdr.Dirs)
	for w := 0; w < n; w++ {
		a, b := &rec.windows[w], &rep.windows[w]
		bad := false
		for dir := 0; dir < rhdr.Dirs; dir++ {
			dc := absDelta(a.DFwdCells[dir], b.DFwdCells[dir])
			dd := absDelta(a.DDrops[dir], b.DDrops[dir])
			if dc == 0 && dd == 0 && a.DFwdBytes[dir] == b.DFwdBytes[dir] {
				continue
			}
			bad = true
			diverged[dir] = true
			if dc > d.MaxCellDelta {
				d.MaxCellDelta = dc
			}
			if dd > d.MaxDropDelta {
				d.MaxDropDelta = dd
			}
		}
		for fa := 0; fa < rhdr.FAs; fa++ {
			if a.DSinkCells[fa] != b.DSinkCells[fa] || a.DSinkBytes[fa] != b.DSinkBytes[fa] {
				bad = true
			}
		}
		if bad {
			d.DivergentWindows++
			if d.FirstDivergentWindow < 0 {
				d.FirstDivergentWindow = w
				d.FirstDivergentT = a.T
			}
		}
	}
	for _, v := range diverged {
		if v {
			d.DirsDiverged++
		}
	}
	d.Zero = d.DivergentWindows == 0 && len(rec.windows) == len(rep.windows)
	return d, nil
}

type referenceTotals struct {
	windows []Window // deep-copied per window
	cells   uint64
	drops   uint64
}

func referenceWindows(stream []byte) (*referenceTotals, StreamHeader, error) {
	sr := NewReader(bytes.NewReader(stream))
	hdr, err := sr.Header()
	if err != nil {
		return nil, hdr, err
	}
	t := &referenceTotals{}
	for {
		win, _, err := sr.Next()
		if err == io.EOF {
			return t, hdr, nil
		}
		if err != nil {
			return nil, hdr, err
		}
		if win == nil {
			continue
		}
		cp := Window{
			Index:      win.Index,
			T:          win.T,
			DFwdBytes:  append([]uint64(nil), win.DFwdBytes...),
			DFwdCells:  append([]uint64(nil), win.DFwdCells...),
			DDrops:     append([]uint64(nil), win.DDrops...),
			DSinkCells: append([]uint64(nil), win.DSinkCells...),
			DSinkBytes: append([]uint64(nil), win.DSinkBytes...),
		}
		t.windows = append(t.windows, cp)
		for _, c := range win.DSinkCells {
			t.cells += c
		}
		for _, d := range win.DDrops {
			t.drops += d
		}
	}
}

// checkAgainstReference fails t unless Compare and compareReference agree
// on a pair: the same report, field for field, or the same error.
func checkAgainstReference(t *testing.T, recorded, replayed []byte) {
	t.Helper()
	got, gerr := Compare(recorded, replayed)
	want, werr := compareReference(recorded, replayed)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("error %v, reference %v", gerr, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("report\n%+v\nreference\n%+v", got, want)
	}
}

// randomStream writes a stream of the given shape whose windows carry
// random deltas (drops and sink counters included) and, between them,
// link events.
func randomStream(t testing.TB, rng *rand.Rand, hdr StreamHeader, windows int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, hdr)
	if err != nil {
		t.Fatal(err)
	}
	snap := Snapshot{Dirs: make([]DirSample, hdr.Dirs), Sinks: make([]SinkSample, hdr.FAs)}
	for i := 0; i < windows; i++ {
		snap.T += sim.Microsecond + sim.Time(rng.Intn(2))
		for d := range snap.Dirs {
			c := uint64(rng.Intn(3))
			snap.Dirs[d].FwdCells += c
			snap.Dirs[d].FwdBytes += c*512 + uint64(rng.Intn(2))
			snap.Dirs[d].Drops += uint64(rng.Intn(4) / 3)
			snap.Dirs[d].Up = rng.Intn(8) != 0
		}
		for f := range snap.Sinks {
			c := uint64(rng.Intn(3))
			snap.Sinks[f].Cells += c
			snap.Sinks[f].Bytes += c * 512
		}
		if err := w.WriteWindow(&snap); err != nil {
			t.Fatal(err)
		}
		if rng.Intn(4) == 0 {
			if err := w.WriteEvent(snap.T, EvLinkDown, rng.Intn(hdr.Dirs+1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return buf.Bytes()
}

// variants returns the forms of a stream the differential tests feed
// Compare: cut mid-frame and at the magic, a flipped CRC byte, a flipped
// body byte, and last the stream with a record of an unknown type
// appended, which a reader skips.
func variants(s []byte) [][]byte {
	flip := func(i int) []byte {
		c := append([]byte(nil), s...)
		c[i] ^= 0x40
		return c
	}
	out := [][]byte{s[:len(s)/2], s[:len(Magic)+2], s[:len(s)-1], flip(len(s) - 1), flip(len(s) / 2)}
	unknown := append(append([]byte(nil), s...), 9, 1, 0) // type 9, one body byte, its CRC
	unknown = binary.LittleEndian.AppendUint32(unknown, crc32.ChecksumIEEE([]byte{9, 0}))
	return append(out, unknown)
}

// TestCompareMatchesReference holds the lockstep Compare to the deep-copy
// reference over seeded random pairs: equal and divergent counters, shapes
// that differ, lengths that differ, and every damaged variant of either
// side against every other.
func TestCompareMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	shapes := []StreamHeader{
		{Dirs: 2, FAs: 1, ScrapePs: sim.Microsecond},
		{Dirs: 9, FAs: 3, ScrapePs: sim.Microsecond},
		{Dirs: 0, FAs: 2, ScrapePs: sim.Microsecond},
	}
	for trial := 0; trial < 60; trial++ {
		ha := shapes[rng.Intn(len(shapes))]
		hb := ha
		if rng.Intn(4) == 0 {
			hb = shapes[rng.Intn(len(shapes))]
		}
		na := rng.Intn(12)
		nb := na
		if rng.Intn(3) == 0 {
			nb = rng.Intn(12)
		}
		seed := rng.Int63()
		a := randomStream(t, rand.New(rand.NewSource(seed)), ha, na)
		b := randomStream(t, rand.New(rand.NewSource(seed+int64(rng.Intn(2)))), hb, nb)
		checkAgainstReference(t, a, b)
		checkAgainstReference(t, a, a)
		va := variants(a)
		if d, err := Compare(a, va[len(va)-1]); err != nil || !d.Zero || d.ByteIdentical {
			t.Fatalf("an unknown record changed the comparison: %+v, %v", d, err)
		}
		for _, va := range append(va, a) {
			for _, vb := range append(variants(b), b) {
				checkAgainstReference(t, va, vb)
			}
		}
	}
}

func FuzzCompare(f *testing.F) {
	two := StreamHeader{Dirs: 2, FAs: 1, ScrapePs: sim.Microsecond}
	three := StreamHeader{Dirs: 3, FAs: 1, ScrapePs: sim.Microsecond}
	a := writeStream(f, two, [][]uint64{{10, 20}, {30, 40}, {50, 60}})
	b := writeStream(f, three, [][]uint64{{10, 20, 5}, {30, 40, 5}, {50, 60, 5}})
	c := writeStream(f, three, [][]uint64{{10, 20, 5}, {37, 40, 5}, {50, 25, 5}})
	short := writeStream(f, two, [][]uint64{{10, 20}, {30, 40}})
	seeded := writeStream(f, StreamHeader{Dirs: 2, FAs: 1, ScrapePs: sim.Microsecond, Seed: 2}, [][]uint64{{10, 20}, {30, 40}, {50, 60}})
	wide := randomStream(f, rand.New(rand.NewSource(1)), StreamHeader{Dirs: 9, FAs: 3, ScrapePs: sim.Microsecond}, 6)
	pairs := [][2][]byte{{a, a}, {a, seeded}, {b, c}, {a, b}, {a, short}, {short, a}, {wide, wide}}
	for _, s := range [][]byte{a, c, wide} {
		for _, v := range variants(s) {
			pairs = append(pairs, [2][]byte{s, v}, [2][]byte{v, s}, [2][]byte{v, v})
		}
	}
	for _, p := range pairs {
		f.Add(p[0], p[1])
	}
	f.Fuzz(checkAgainstReference)
}

// TestCompareAllocsIndependentOfLength: Compare holds one window per
// stream, so a pair twenty times longer costs the same allocations.
func TestCompareAllocsIndependentOfLength(t *testing.T) {
	hdr := StreamHeader{Dirs: 64, FAs: 16, ScrapePs: sim.Microsecond}
	allocs := func(windows int) float64 {
		a := randomStream(t, rand.New(rand.NewSource(1)), hdr, windows)
		b := randomStream(t, rand.New(rand.NewSource(2)), hdr, windows)
		return testing.AllocsPerRun(5, func() {
			if d, err := Compare(a, b); err != nil || d.ComparedWindows != windows {
				t.Fatalf("%d windows: %+v, %v", windows, d, err)
			}
		})
	}
	if short, long := allocs(100), allocs(2000); short != long {
		t.Fatalf("Compare allocates %v times over 100 windows and %v over 2,000", short, long)
	}
}

package stats

import (
	"bytes"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestWelfordBasics(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Fatalf("N = %d", w.N())
	}
	if got := w.Mean(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Mean = %v, want 5", got)
	}
	// Sample variance of this classic dataset is 32/7.
	if got := w.Var(); math.Abs(got-32.0/7.0) > 1e-12 {
		t.Fatalf("Var = %v, want %v", got, 32.0/7.0)
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v", w.Min(), w.Max())
	}
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Var() != 0 || w.Std() != 0 {
		t.Fatal("empty Welford must be zero")
	}
}

// Property: Welford matches the two-pass formulas.
func TestPropertyWelfordMatchesTwoPass(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) < 2 {
			return true
		}
		var w Welford
		var sum float64
		for _, v := range raw {
			w.Add(float64(v))
			sum += float64(v)
		}
		mean := sum / float64(len(raw))
		var ss float64
		for _, v := range raw {
			ss += (float64(v) - mean) * (float64(v) - mean)
		}
		variance := ss / float64(len(raw)-1)
		return math.Abs(w.Mean()-mean) < 1e-6 && math.Abs(w.Var()-variance) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for i := 0; i < 10; i++ {
		h.Add(float64(i) + 0.5)
	}
	bins := h.Bins()
	for i, c := range bins {
		if c != 1 {
			t.Fatalf("bin %d = %d, want 1", i, c)
		}
	}
	if h.N() != 10 {
		t.Fatalf("N = %d", h.N())
	}
	if got := h.Mean(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Mean = %v", got)
	}
}

func TestHistogramClamping(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	h.Add(-5)
	h.Add(100)
	bins := h.Bins()
	if bins[0] != 1 || bins[9] != 1 {
		t.Fatalf("clamping failed: %v", bins)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(0, 100, 100)
	for i := 0; i < 100; i++ {
		h.Add(float64(i))
	}
	if q := h.Quantile(0.5); math.Abs(q-50.5) > 1.0 {
		t.Fatalf("median = %v, want ~50", q)
	}
	if q := h.Quantile(0.99); math.Abs(q-99.5) > 1.0 {
		t.Fatalf("p99 = %v, want ~99", q)
	}
}

func TestHistogramCCDF(t *testing.T) {
	h := NewHistogram(0, 4, 4)
	h.Add(0.5)
	h.Add(1.5)
	h.Add(2.5)
	h.Add(3.5)
	ccdf := h.CCDF()
	want := []float64{1, 0.75, 0.5, 0.25}
	for i := range want {
		if math.Abs(ccdf[i]-want[i]) > 1e-12 {
			t.Fatalf("CCDF = %v, want %v", ccdf, want)
		}
	}
}

func TestHistogramWriteTSV(t *testing.T) {
	h := NewHistogram(0, 2, 2)
	h.Add(0.5)
	h.Add(1.5)
	var buf bytes.Buffer
	if err := h.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty TSV output")
	}
}

func TestHistogramPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewHistogram(0, 10, 0) },
		func() { NewHistogram(10, 0, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestSampleQuantilesAndCDF(t *testing.T) {
	var s Sample
	for i := 100; i >= 1; i-- {
		s.Add(float64(i))
	}
	if s.N() != 100 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Min() != 1 || s.Max() != 100 {
		t.Fatalf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	if got := s.Mean(); math.Abs(got-50.5) > 1e-12 {
		t.Fatalf("Mean = %v", got)
	}
	if q := s.Quantile(0.5); q != 51 {
		t.Fatalf("median = %v, want 51", q)
	}
	xs, ps := s.CDF()
	if xs[0] != 1 || ps[0] != 0.01 || xs[99] != 100 || ps[99] != 1.0 {
		t.Fatalf("CDF endpoints wrong: %v %v", xs[0], ps[99])
	}
	if f := s.FractionAtLeast(91); math.Abs(f-0.1) > 1e-12 {
		t.Fatalf("FractionAtLeast = %v, want 0.1", f)
	}
}

func TestDiscrete(t *testing.T) {
	d := NewDiscrete([]int{64, 1500}, []float64{3, 1})
	rng := rand.New(rand.NewPCG(1, 0))
	n64 := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		v := d.Sample(rng)
		if v != 64 && v != 1500 {
			t.Fatalf("unexpected value %d", v)
		}
		if v == 64 {
			n64++
		}
	}
	frac := float64(n64) / draws
	if math.Abs(frac-0.75) > 0.01 {
		t.Fatalf("P(64) = %v, want ~0.75", frac)
	}
	if m := d.Mean(); math.Abs(m-(0.75*64+0.25*1500)) > 1e-9 {
		t.Fatalf("Mean = %v", m)
	}
}

func TestEmpiricalCDF(t *testing.T) {
	// Uniform on [0, 10].
	e := NewEmpiricalCDF([]float64{0, 10}, []float64{0, 1})
	rng := rand.New(rand.NewPCG(7, 0))
	var w Welford
	for i := 0; i < 200000; i++ {
		x := e.Sample(rng)
		if x < 0 || x > 10 {
			t.Fatalf("sample %v out of range", x)
		}
		w.Add(x)
	}
	if math.Abs(w.Mean()-5) > 0.05 {
		t.Fatalf("mean = %v, want ~5", w.Mean())
	}
	if m := e.Mean(); math.Abs(m-5) > 1e-12 {
		t.Fatalf("analytic mean = %v", m)
	}
}

func TestExpMean(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 0))
	var w Welford
	for i := 0; i < 100000; i++ {
		w.Add(Exp(rng, 3.0))
	}
	if math.Abs(w.Mean()-3.0) > 0.1 {
		t.Fatalf("Exp mean = %v, want ~3", w.Mean())
	}
}

// Property: Permutation returns a derangement (no host sends to itself).
func TestPropertyPermutationDerangement(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 0))
	for n := 2; n < 64; n++ {
		p := Permutation(rng, n)
		if len(p) != n {
			t.Fatalf("len = %d", len(p))
		}
		seen := make([]bool, n)
		for i, v := range p {
			if i == v {
				t.Fatalf("fixed point at %d in %v", i, p)
			}
			if seen[v] {
				t.Fatalf("duplicate %d in %v", v, p)
			}
			seen[v] = true
		}
	}
}

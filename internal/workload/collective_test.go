package workload

import (
	"math/rand/v2"
	"testing"
)

func TestRingAllReduce(t *testing.T) {
	const n, bytes = 8, 1 << 20
	phases := RingAllReduce(n, bytes)
	if got, want := len(phases), 2*(n-1); got != want {
		t.Fatalf("phases = %d, want %d", got, want)
	}
	for pi, flows := range phases {
		if len(flows) != n {
			t.Fatalf("phase %d: %d flows, want %d", pi, len(flows), n)
		}
		for _, f := range flows {
			if f.Dst != (f.Src+1)%n {
				t.Fatalf("phase %d: flow %d->%d breaks the ring", pi, f.Src, f.Dst)
			}
			if f.Bytes != bytes/n {
				t.Fatalf("phase %d: chunk %d bytes, want %d", pi, f.Bytes, bytes/n)
			}
		}
	}
}

func TestTreeAllReduce(t *testing.T) {
	for _, n := range []int{2, 5, 8, 16} {
		phases := TreeAllReduce(n, 4096)
		log2 := 0
		for s := 1; s < n; s *= 2 {
			log2++
		}
		if got, want := len(phases), 2*log2; got != want {
			t.Fatalf("n=%d: phases = %d, want %d", n, got, want)
		}
		// Broadcast phases mirror the reduce phases in reverse order.
		for i := 0; i < log2; i++ {
			red, bc := phases[i], phases[2*log2-1-i]
			if len(red) != len(bc) {
				t.Fatalf("n=%d: reduce phase %d has %d flows, mirror has %d", n, i, len(red), len(bc))
			}
			for j := range red {
				if red[j].Src != bc[j].Dst || red[j].Dst != bc[j].Src {
					t.Fatalf("n=%d: phase %d flow %d->%d not mirrored by %d->%d",
						n, i, red[j].Src, red[j].Dst, bc[j].Src, bc[j].Dst)
				}
			}
		}
		// Every reduce flow lands on a lower rank (tree rooted at 0).
		for i := 0; i < log2; i++ {
			for _, f := range phases[i] {
				if f.Dst >= f.Src {
					t.Fatalf("n=%d: reduce flow %d->%d does not descend", n, f.Src, f.Dst)
				}
			}
		}
	}
}

func TestStorageFlowSizes(t *testing.T) {
	cdf := StorageFlowSizes()
	rng := rand.New(rand.NewPCG(7, 0))
	small, large := 0, 0
	for i := 0; i < 10000; i++ {
		s := cdf.Sample(rng)
		if s < 256 || s > 64e6 {
			t.Fatalf("sample %g outside [256, 64e6]", s)
		}
		if s <= 4e3 {
			small++
		}
		if s >= 4e6 {
			large++
		}
	}
	if small < 4000 {
		t.Fatalf("only %d/10000 samples <= 4KB; the mix should be metadata-dominated", small)
	}
	if large < 500 {
		t.Fatalf("only %d/10000 samples >= 4MB; the chunk tail is missing", large)
	}
}

func TestDiurnalArrivals(t *testing.T) {
	const peak, trough, period, dur = 1000.0, 0.2, 10.0, 20.0
	a := DiurnalArrivals(rand.New(rand.NewPCG(42, 0)), peak, trough, period, dur)
	b := DiurnalArrivals(rand.New(rand.NewPCG(42, 0)), peak, trough, period, dur)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("determinism broken: %d vs %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("determinism broken at arrival %d: %g vs %g", i, a[i], b[i])
		}
	}
	prev := -1.0
	for _, x := range a {
		if x <= prev || x >= dur {
			t.Fatalf("arrival %g not strictly increasing within [0, %g)", x, dur)
		}
		prev = x
	}
	// The sinusoid peaks in the first half-period and bottoms out in the
	// second: the arrival counts must reflect the modulation.
	var peakN, troughN int
	for _, x := range a {
		switch {
		case x < period/2:
			peakN++
		case x < period:
			troughN++
		}
	}
	if peakN <= troughN {
		t.Fatalf("peak half-period got %d arrivals, trough half got %d; modulation missing", peakN, troughN)
	}
}

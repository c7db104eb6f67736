package workload

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestPacketMixesWellFormed(t *testing.T) {
	for _, name := range Traces {
		sizes, weights := PacketMix(name)
		if len(sizes) != len(weights) || len(sizes) == 0 {
			t.Fatalf("%s: malformed mix", name)
		}
		var sum float64
		for i, w := range weights {
			if w <= 0 || sizes[i] < 64 || sizes[i] > 1500 {
				t.Fatalf("%s: bad entry %d", name, i)
			}
			sum += w
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("%s: weights sum to %v", name, sum)
		}
	}
}

func TestTraceCharacter(t *testing.T) {
	// Hadoop must skew large, Web small (the property Fig 8b relies on).
	hadoop := PacketSampler(TraceHadoop).Mean()
	web := PacketSampler(TraceWeb).Mean()
	db := PacketSampler(TraceDB).Mean()
	if hadoop < 1000 {
		t.Fatalf("hadoop mean %v too small", hadoop)
	}
	if web > 600 {
		t.Fatalf("web mean %v too large", web)
	}
	if db < web || db > hadoop {
		t.Fatalf("db mean %v should sit between web and hadoop", db)
	}
}

func TestWebFlowSizes(t *testing.T) {
	d := WebFlowSizes()
	rng := rand.New(rand.NewPCG(1, 0))
	small, large := 0, 0
	const draws = 50000
	for i := 0; i < draws; i++ {
		v := d.Sample(rng)
		if v < 300 || v > 1e7 {
			t.Fatalf("flow size %v out of range", v)
		}
		if v <= 10e3 {
			small++
		}
		if v >= 1e6 {
			large++
		}
	}
	if frac := float64(small) / draws; frac < 0.55 || frac > 0.75 {
		t.Fatalf("P(<=10KB) = %v, want ~0.65", frac)
	}
	if frac := float64(large) / draws; frac > 0.05 {
		t.Fatalf("P(>=1MB) = %v, want <= 0.05 (heavy tail, not heavy body)", frac)
	}
}

func TestNewIncast(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 0))
	inc := NewIncast(rng, 100, 10, 450_000)
	if len(inc.Backends) != 10 {
		t.Fatalf("backends = %d", len(inc.Backends))
	}
	seen := map[int]bool{inc.Frontend: true}
	for _, b := range inc.Backends {
		if seen[b] {
			t.Fatalf("duplicate node %d", b)
		}
		seen[b] = true
	}
	// Clamp: n >= nodes.
	inc = NewIncast(rng, 5, 10, 1)
	if len(inc.Backends) != 4 {
		t.Fatalf("clamped backends = %d", len(inc.Backends))
	}
}

func TestHotspotMatrix(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 0))
	const nodes = 128
	flows, hot := Hotspot(rng, nodes, 3, 0.5)
	if len(flows) != nodes {
		t.Fatalf("flows = %d, want one per node", len(flows))
	}
	if len(hot) != 3 {
		t.Fatalf("hot = %v", hot)
	}
	isHot := map[int]bool{}
	for _, h := range hot {
		if isHot[h] {
			t.Fatalf("duplicate hot node %d", h)
		}
		isHot[h] = true
	}
	hotFlows := 0
	seenSrc := map[int]bool{}
	for _, f := range flows {
		if f.Src == f.Dst {
			t.Fatalf("self flow %v", f)
		}
		if f.Src < 0 || f.Src >= nodes || f.Dst < 0 || f.Dst >= nodes {
			t.Fatalf("out of range flow %v", f)
		}
		if seenSrc[f.Src] {
			t.Fatalf("node %d sends twice", f.Src)
		}
		seenSrc[f.Src] = true
		if isHot[f.Dst] {
			hotFlows++
		}
	}
	// Distribution shape: with hotFraction 0.5 roughly half the senders
	// (plus permutation coincidences) aim at a hot node.
	if frac := float64(hotFlows) / nodes; frac < 0.35 || frac > 0.7 {
		t.Fatalf("hot fan-in fraction %.2f, want ~0.5", frac)
	}

	// Determinism: the same seed reproduces the same matrix.
	rng2 := rand.New(rand.NewPCG(4, 0))
	flows2, hot2 := Hotspot(rng2, nodes, 3, 0.5)
	for i := range flows {
		if flows[i] != flows2[i] {
			t.Fatalf("flow %d differs across identical seeds", i)
		}
	}
	for i := range hot {
		if hot[i] != hot2[i] {
			t.Fatal("hot set differs across identical seeds")
		}
	}

	// Clamping: more hotspots than nodes.
	flows, hot = Hotspot(rand.New(rand.NewPCG(5, 0)), 4, 10, 1.0)
	if len(hot) != 3 || len(flows) != 4 {
		t.Fatalf("clamp: %d hot, %d flows", len(hot), len(flows))
	}
}

func TestAllToAllMatrix(t *testing.T) {
	const nodes = 9
	flows := AllToAll(nodes)
	if len(flows) != nodes*(nodes-1) {
		t.Fatalf("flows = %d, want %d", len(flows), nodes*(nodes-1))
	}
	seen := map[Flow]bool{}
	for _, f := range flows {
		if f.Src == f.Dst {
			t.Fatalf("self flow %v", f)
		}
		if seen[f] {
			t.Fatalf("duplicate pair %v", f)
		}
		seen[f] = true
	}
}

// Property: SplitFlow conserves bytes, respects the MTU, and only the last
// packet is short.
func TestPropertySplitFlow(t *testing.T) {
	f := func(bytesRaw uint32, mtuRaw uint16) bool {
		bytes := int64(bytesRaw % 10_000_000)
		mtu := int(mtuRaw%9000) + 1
		pkts := SplitFlow(bytes, mtu)
		if bytes == 0 {
			return len(pkts) == 0
		}
		var sum int64
		for i, p := range pkts {
			if p <= 0 || p > mtu {
				return false
			}
			if i < len(pkts)-1 && p != mtu {
				return false
			}
			sum += int64(p)
		}
		return sum == bytes
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

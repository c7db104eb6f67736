package experiments

import (
	"strings"
	"testing"

	"stardust/internal/sim"
)

func TestPushPullFig7(t *testing.T) {
	r := PushPull(false)
	// Paper Fig 7: Ethernet delivers only ~66% of B despite B not being
	// oversubscribed; Stardust delivers 100% of B and 50% of each A.
	if r.EthernetB > 0.75 {
		t.Fatalf("Ethernet push should hurt B: got %.2f", r.EthernetB)
	}
	if r.StardustB < 0.95 {
		t.Fatalf("Stardust B = %.2f, want ~1.0", r.StardustB)
	}
	if r.StardustA1 < 0.45 || r.StardustA1 > 0.55 {
		t.Fatalf("Stardust A1 = %.2f, want ~0.5", r.StardustA1)
	}
	if r.StardustTotal < 0.95 {
		t.Fatalf("Stardust egress = %.2f, want ~1.0", r.StardustTotal)
	}
	if r.EthernetTotal >= r.StardustTotal {
		t.Fatal("push fabric should not beat pull fabric")
	}
}

func TestPushPullFig12TrafficClasses(t *testing.T) {
	r := PushPull(true)
	// Appendix F: with A high-priority, B is entirely starved in the push
	// fabric and the egress throughput is half of Stardust's.
	if r.EthernetB > 0.05 {
		t.Fatalf("Ethernet B with TCs = %.2f, want ~0", r.EthernetB)
	}
	if r.StardustB < 0.95 {
		t.Fatalf("Stardust B with TCs = %.2f, want ~1.0", r.StardustB)
	}
	ratio := r.EthernetTotal / r.StardustTotal
	if ratio < 0.4 || ratio > 0.65 {
		t.Fatalf("push/pull egress ratio = %.2f, want ~0.5", ratio)
	}
}

func TestPermutationOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-protocol permutation in -short mode")
	}
	cfg := QuickHtsim()
	cfg.Duration = 10 * sim.Millisecond
	cfg.Warmup = 5 * sim.Millisecond
	util := map[Protocol]float64{}
	for _, p := range Protocols {
		r, err := Permutation(cfg, p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		util[p] = r.MeanUtilPct
		if len(r.Gbps) != 16 {
			t.Fatalf("%s: %d flows", p, len(r.Gbps))
		}
		if p == ProtoStardust && r.FabricDrops != 0 {
			t.Fatalf("Stardust fabric dropped %d", r.FabricDrops)
		}
	}
	// Fig 10a ordering: Stardust > MPTCP > DCTCP, DCQCN (single-path ECMP
	// collisions cap the single-path protocols).
	if util[ProtoStardust] < 80 {
		t.Fatalf("Stardust mean utilization %.1f%%, want > 80%%", util[ProtoStardust])
	}
	if util[ProtoStardust] <= util[ProtoDCTCP] {
		t.Fatalf("Stardust (%.1f%%) should beat DCTCP (%.1f%%)", util[ProtoStardust], util[ProtoDCTCP])
	}
	if util[ProtoStardust] <= util[ProtoDCQCN] {
		t.Fatalf("Stardust (%.1f%%) should beat DCQCN (%.1f%%)", util[ProtoStardust], util[ProtoDCQCN])
	}
	if util[ProtoMPTCP] <= util[ProtoDCTCP] {
		t.Fatalf("MPTCP (%.1f%%) should beat single-path DCTCP (%.1f%%)", util[ProtoMPTCP], util[ProtoDCTCP])
	}
}

func TestIncastStardustFairness(t *testing.T) {
	if testing.Short() {
		t.Skip("incast comparison in -short mode")
	}
	cfg := QuickHtsim()
	sd, err := Incast(cfg, ProtoStardust, 12, 450_000)
	if err != nil {
		t.Fatal(err)
	}
	dc, err := Incast(cfg, ProtoDCTCP, 12, 450_000)
	if err != nil {
		t.Fatal(err)
	}
	// Fig 10c: Stardust's spread between first and last completion is
	// small (fair round-robin credits); DCTCP's is much larger.
	sdSpread := sd.LastMs / sd.FirstMs
	dcSpread := dc.LastMs / dc.FirstMs
	if sdSpread > 2.0 {
		t.Fatalf("Stardust incast spread %.2fx, want near 1", sdSpread)
	}
	if dcSpread < sdSpread {
		t.Fatalf("DCTCP spread (%.2f) should exceed Stardust (%.2f)", dcSpread, sdSpread)
	}
	// Last-completion times are bandwidth-bound and comparable (§6.3).
	if sd.LastMs > 3*dc.LastMs {
		t.Fatalf("Stardust last FCT %.2fms vs DCTCP %.2fms", sd.LastMs, dc.LastMs)
	}
}

func TestFCTStardustFast(t *testing.T) {
	if testing.Short() {
		t.Skip("FCT comparison in -short mode")
	}
	cfg := QuickHtsim()
	sd, err := FCT(cfg, ProtoStardust, 30)
	if err != nil {
		t.Fatal(err)
	}
	dc, err := FCT(cfg, ProtoDCTCP, 30)
	if err != nil {
		t.Fatal(err)
	}
	if sd.Ms.N() < 20 || dc.Ms.N() < 20 {
		t.Fatalf("not enough measured flows: %d / %d", sd.Ms.N(), dc.Ms.N())
	}
	// Fig 10b: the scheduled fabric completes short flows much faster at
	// the tail.
	if sd.Ms.Quantile(0.9) >= dc.Ms.Quantile(0.9) {
		t.Fatalf("Stardust p90 %.3fms not better than DCTCP %.3fms",
			sd.Ms.Quantile(0.9), dc.Ms.Quantile(0.9))
	}
}

// A per-link fabric run refuses a shard count its Clos cannot have where
// the engine is built: 100,000 used to allocate shards² mailboxes first.
func TestFullFabricRefusesBadShardCount(t *testing.T) {
	cfg := QuickHtsim()
	cfg.FullFabric = true
	for _, shards := range []int{-1, 17, 100000} {
		cfg.Shards = shards
		_, err := Permutation(cfg, ProtoStardust)
		if err == nil || !strings.Contains(err.Error(), "must be in [1, 16], the devices of the graph") {
			t.Fatalf("Shards = %d: %v", shards, err)
		}
	}
}

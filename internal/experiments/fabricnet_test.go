package experiments

import (
	"reflect"
	"testing"

	"stardust/internal/sim"
	"stardust/internal/workload"
)

func quickFabricCfg() HtsimConfig {
	cfg := QuickHtsim()
	cfg.Duration = 5 * sim.Millisecond
	cfg.Warmup = 2 * sim.Millisecond
	return cfg
}

// The full-fabric Stardust substrate must match the fluid model's headline
// result: a permutation at near-line-rate with zero fabric loss.
func TestFullFabricPermutation(t *testing.T) {
	cfg := quickFabricCfg()
	cfg.FullFabric = true
	r, err := Permutation(cfg, ProtoStardust)
	if err != nil {
		t.Fatal(err)
	}
	if r.MeanUtilPct < 90 {
		t.Fatalf("full-fabric mean util %.1f%%, want >= 90%%", r.MeanUtilPct)
	}
	if r.FabricDrops != 0 {
		t.Fatalf("healthy full fabric dropped %d cells", r.FabricDrops)
	}
}

func TestLinkLoadSprayVsECMP(t *testing.T) {
	cfg := quickFabricCfg()
	spray, err := LinkLoad(cfg, "spray")
	if err != nil {
		t.Fatal(err)
	}
	ecmp, err := LinkLoad(cfg, "ecmp")
	if err != nil {
		t.Fatal(err)
	}
	// §5.3: per-device cell spraying balances within a few percent; ECMP
	// flow hashing collides.
	if spray.DevSpreadPct > 5 {
		t.Fatalf("spray per-device spread %.2f%%, want <= 5%%", spray.DevSpreadPct)
	}
	if ecmp.DevSpreadPct < 2*spray.DevSpreadPct {
		t.Fatalf("ECMP spread %.2f%% not clearly worse than spray %.2f%%",
			ecmp.DevSpreadPct, spray.DevSpreadPct)
	}
	if spray.MeanUtilPct < 90 {
		t.Fatalf("spray util %.1f%%", spray.MeanUtilPct)
	}
	if _, err := LinkLoad(cfg, "bogus"); err == nil {
		t.Fatal("bad mode must error")
	}
}

func TestFabricFailuresRecovery(t *testing.T) {
	cfg := quickFabricCfg()
	cfg.Duration = 12 * sim.Millisecond
	// One link failure at K=4 cannot isolate an FA (each has two uplinks).
	r, err := FabricFailures(cfg, 1, 4*sim.Millisecond, sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if r.Unreachable != 0 {
		t.Fatalf("reach cross-check: %d unreachable pairs after one failure", r.Unreachable)
	}
	if r.PreGbps <= 0 || r.RecoveredGbps <= 0 {
		t.Fatalf("degenerate goodput: pre=%v recovered=%v", r.PreGbps, r.RecoveredGbps)
	}
	// Self-healing: the post-failure steady state recovers most of the
	// pre-failure goodput (one of 16 FA uplinks is gone, so not all).
	if r.RecoveredGbps < 0.6*r.PreGbps {
		t.Fatalf("no recovery: pre=%.1fG recovered=%.1fG", r.PreGbps, r.RecoveredGbps)
	}
	if r.RecoveredGbps < r.DipGbps {
		t.Fatalf("recovered %.1fG below dip %.1fG", r.RecoveredGbps, r.DipGbps)
	}
}

// Byte-identical determinism across runs and across executors: the
// engine's guarantee must extend to the fabric experiments, and Shards
// (0 means 1) must not change a result — including the failure run, whose
// FailLink calls land between engine runs.
func TestFabricExperimentsDeterministic(t *testing.T) {
	run := func(shards int) (*LinkLoadResult, *FailureResult) {
		cfg := quickFabricCfg()
		cfg.Shards = shards
		l, err := LinkLoad(cfg, "spray")
		if err != nil {
			t.Fatal(err)
		}
		f, err := FabricFailures(cfg, 1, 2*sim.Millisecond, sim.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return l, f
	}
	l0, f0 := run(0)
	if l, f := run(4); !reflect.DeepEqual(l, l0) || !reflect.DeepEqual(f, f0) {
		t.Fatalf("shards=4 differs from shards=0:\n%+v %+v\n%+v %+v", l, f, l0, f0)
	}
}

func TestHotspotRun(t *testing.T) {
	cfg := quickFabricCfg()
	r, hot, err := HotspotRun(cfg, ProtoStardust, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(hot) != 2 {
		t.Fatalf("hot list %v", hot)
	}
	if r.Flows != 16 {
		t.Fatalf("flows = %d, want one per host", r.Flows)
	}
	if r.HotGbps <= 0 {
		t.Fatal("no goodput into the hot destinations")
	}
	// The scheduled fabric must keep serving the non-hot flows.
	if r.ColdMeanGps <= 0 {
		t.Fatal("cold flows starved")
	}
}

func TestAllToAllRun(t *testing.T) {
	cfg := quickFabricCfg()
	r, err := AllToAllRun(cfg, ProtoStardust)
	if err != nil {
		t.Fatal(err)
	}
	if r.Flows != 16*15 {
		t.Fatalf("flows = %d", r.Flows)
	}
	if r.MeanUtilPct < 20 {
		t.Fatalf("all-to-all util %.1f%% collapsed", r.MeanUtilPct)
	}
}

func TestRunMatrixRejectsBadFlows(t *testing.T) {
	cfg := quickFabricCfg()
	if _, err := RunMatrix(cfg, ProtoStardust, []workload.Flow{{Src: 0, Dst: 0}}, nil); err == nil {
		t.Fatal("self-flow must error")
	}
}

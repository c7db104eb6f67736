package fabric_test

import (
	"testing"

	"stardust/internal/distsim"
	"stardust/internal/sim"
)

// §5.3's spray keeps every queue of a healthy Clos short at load 0.8: a
// K=8 Clos on one shard, 1 ms of rotate or permutation traffic, drops no
// cell and drains within the model's allowance.
//
// The seeds are ones that failed while a spreader kept one position for
// all its candidate sets and replaced its permutation only when a pick
// landed on its last position, so that a spreader whose sets missed that
// position never reshuffled: queues overflowed, or cells were still
// pending past the drain. They fail on the old spray streams (seed 13
// rotate leaves 49 events pending, permutation drops 3,769 cells) and
// again on the named streams with that spreader restored (13 and 21
// permutation, 32 both). One shared position reshuffled every 64×n picks,
// as now, passes them too; what the per-key position adds, balance within
// each key's set, is held by reach's TestPropertySpreaderBalance and
// FuzzSpreaderBalance.
func TestSprayDrainsAtLoad(t *testing.T) {
	for _, seed := range []int64{13, 21, 32} {
		for _, pattern := range []string{"rotate", "permutation"} {
			spec := distsim.Spec{K: 8, Topo: "clos", Seed: seed, Shards: 1, Dur: sim.Millisecond,
				Load: 0.8, CellBytes: 512, Hotspot: 1, Pattern: pattern}
			m, err := distsim.NewModel(spec)
			if err != nil {
				t.Fatal(err)
			}
			out, err := m.RunLocal()
			if err != nil {
				t.Errorf("seed %d %s: %v", seed, pattern, err)
				continue
			}
			if out.Drops != 0 || out.Delivered != out.Injected {
				t.Errorf("seed %d %s: %d injected, %d delivered, %d dropped", seed, pattern, out.Injected, out.Delivered, out.Drops)
			}
		}
	}
}

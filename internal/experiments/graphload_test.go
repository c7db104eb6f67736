package experiments

import (
	"testing"

	"stardust/internal/sim"
	"stardust/internal/topo"
	"stardust/internal/workload"
)

// TestGraphSprayBeatsECMP is the §5.3 claim carried to non-Clos graphs:
// per-cell spraying spreads each device's bytes over its uplinks at
// least as evenly as hash-pinned per-flow ECMP, and loses no more
// throughput doing it. Run on both new families with identical traffic.
func TestGraphSprayBeatsECMP(t *testing.T) {
	const k, load, seed = 8, 0.6, 3
	warm, dur := 100*sim.Microsecond, 400*sim.Microsecond
	for _, topoName := range []string{"sshuffle", "star"} {
		t.Run(topoName, func(t *testing.T) {
			spray, err := GraphLinkLoad(topoName, k, "spray", load, warm, dur, seed)
			if err != nil {
				t.Fatal(err)
			}
			ecmp, err := GraphLinkLoad(topoName, k, "ecmp", load, warm, dur, seed)
			if err != nil {
				t.Fatal(err)
			}
			if spray.Delivered == 0 || ecmp.Delivered == 0 {
				t.Fatalf("no traffic delivered: spray %d, ecmp %d", spray.Delivered, ecmp.Delivered)
			}
			// Identical matrix, so injected counts agree; the comparison is
			// over fates and spread alone.
			if spray.Injected != ecmp.Injected {
				t.Fatalf("traffic matrices diverged: %d vs %d cells injected", spray.Injected, ecmp.Injected)
			}
			if spray.CoVPct > ecmp.CoVPct {
				t.Errorf("spray CoV %.2f%% worse than ecmp %.2f%%", spray.CoVPct, ecmp.CoVPct)
			}
			if spray.Delivered < ecmp.Delivered {
				t.Errorf("spray delivered %d < ecmp %d", spray.Delivered, ecmp.Delivered)
			}
			t.Logf("%s: spray cov=%.2f%% delivered=%d | ecmp cov=%.2f%% delivered=%d",
				spray.Topo, spray.CoVPct, spray.Delivered, ecmp.CoVPct, ecmp.Delivered)
		})
	}
}

// TestGraphECMPRejectsClos: the Clos fabric runs the paper's reach
// protocol, not the graph router; asking it for ECMP must error (the
// fat-tree ECMP contender lives in the linkload experiment).
func TestGraphECMPRejectsClos(t *testing.T) {
	if _, err := GraphLinkLoad("clos", 4, "ecmp", 0.5, sim.Microsecond, sim.Microsecond, 1); err == nil {
		t.Fatal("ecmp mode on the clos fabric should error")
	}
}

// TestGraphLoadDeterminism: same seed, same numbers — the scenario layer
// byte-diffs its output across worker counts, so the experiment must be
// a pure function of its arguments.
func TestGraphLoadDeterminism(t *testing.T) {
	a, err := GraphLinkLoad("sshuffle", 6, "spray", 0.5, 50*sim.Microsecond, 100*sim.Microsecond, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GraphLinkLoad("sshuffle", 6, "spray", 0.5, 50*sim.Microsecond, 100*sim.Microsecond, 11)
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Fatalf("two identical runs diverged:\n%+v\n%+v", a, b)
	}
}

// choicePoints counts the (node, flow) points at which a cell of one of
// perm's flows over g has more than one candidate next hop: the only
// places where spraying and hash-pinning can part. It walks every node the
// flow's cells can reach over the live candidate sets, from its source.
func choicePoints(g topo.Graph, perm []int) int {
	descend, _ := g.Routes(nil)
	peer := make([][]int, g.NumNodes())
	for i := range peer {
		peer[i] = make([]int, g.Node(i).Ports)
	}
	for _, lk := range g.GraphLinks() {
		peer[lk.A][lk.APort], peer[lk.B][lk.BPort] = lk.B, lk.A
	}
	points := 0
	for src, dst := range perm {
		if src == dst {
			continue
		}
		seen := map[int]bool{}
		for next := []int{g.EdgeNode(src)}; len(next) > 0; {
			u := next[len(next)-1]
			next = next[:len(next)-1]
			if seen[u] {
				continue
			}
			seen[u] = true
			if len(descend[u][dst]) > 1 {
				points++
			}
			for _, p := range descend[u][dst] {
				next = append(next, peer[u][p])
			}
		}
	}
	return points
}

// On the star, fabric/graphload prints the same row for spray and ECMP
// exactly when the seed's permutation gives no cell a choice of next hop:
// at the default seed 3 none has one, so the two rows are equal there by
// construction, not by a mode switch that fails to reach the nodes.
func TestGraphModesDifferOnlyAtChoicePoints(t *testing.T) {
	const k, load = 8, 0.6
	g, err := topo.ByName("star", k)
	if err != nil {
		t.Fatal(err)
	}
	if _, climb := g.Routes(nil); len(climb) != g.NumNodes() {
		t.Fatalf("%d climb lists for %d nodes", len(climb), g.NumNodes())
	} else {
		for n, ports := range climb {
			if len(ports) > 0 {
				t.Fatalf("node %d of %s may climb: the walk sees descend candidates only", n, g.Spec())
			}
		}
	}
	want := map[int64]int{1: 7, 2: 2, 3: 0, 4: 3, 5: 2}
	for seed := int64(1); seed <= 5; seed++ {
		points := choicePoints(g, workload.Permutation(newMatrixRNG(seed), g.NumEdge()))
		if points != want[seed] {
			t.Errorf("seed %d: %d choice points, want %d", seed, points, want[seed])
		}
		spray, err := GraphLinkLoad("star", k, "spray", load, 100*sim.Microsecond, 400*sim.Microsecond, seed)
		if err != nil {
			t.Fatal(err)
		}
		ecmp, err := GraphLinkLoad("star", k, "ecmp", load, 100*sim.Microsecond, 400*sim.Microsecond, seed)
		if err != nil {
			t.Fatal(err)
		}
		ecmp.Mode = spray.Mode
		if same := *spray == *ecmp; same != (points == 0) {
			t.Errorf("seed %d: %d choice points, rows equal %v:\n%+v\n%+v", seed, points, same, spray, ecmp)
		}
	}
}

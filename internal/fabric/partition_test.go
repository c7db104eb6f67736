package fabric

import (
	"fmt"
	"slices"
	"testing"

	"stardust/internal/topo"
)

// tierBlocks cuts every tier, edge devices included, into contiguous index
// blocks: Partition without its swaps, and the bound it must not exceed.
func tierBlocks(g topo.Graph, n int) []int {
	count := make([]int, g.NumTiers())
	for i := 0; i < g.NumNodes(); i++ {
		count[g.Node(i).Tier]++
	}
	rank := make([]int, len(count))
	out := make([]int, g.NumNodes())
	for i := range out {
		t := g.Node(i).Tier
		out[i] = rank[t] * n / count[t]
		rank[t]++
	}
	return out
}

// cutLinks counts the topology links of g whose ends part puts on
// different shards.
func cutLinks(g topo.Graph, part []int) int {
	cut := 0
	for _, lk := range g.GraphLinks() {
		if part[lk.A] != part[lk.B] {
			cut++
		}
	}
	return cut
}

// Partition is deterministic, keeps every tier — the edge devices among
// them — within one node per shard, cuts no more links than per-tier
// blocks, overall or between any prefix of the shards and the rest (a
// distributed run gives each peer a contiguous range of shards, see
// distsim.OwnersFor), and cuts no FA–FE1 link of a two-shard Clos.
func TestPartitionProperties(t *testing.T) {
	for _, family := range []string{"clos", "sshuffle", "star"} {
		for _, k := range []int{4, 8, 16} {
			g, err := topo.ByName(family, k)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{2, 3, 4} {
				t.Run(fmt.Sprintf("%s/k=%d/shards=%d", family, k, n), func(t *testing.T) {
					part := Partition(g, n)
					if again := Partition(g, n); !slices.Equal(part, again) {
						t.Fatal("two calls cut differently")
					}
					perTier := make([][]int, g.NumTiers())
					for i := range perTier {
						perTier[i] = make([]int, n)
					}
					for i, s := range part {
						if s < 0 || s >= n {
							t.Fatalf("node %d on shard %d", i, s)
						}
						perTier[g.Node(i).Tier][s]++
					}
					for tier, count := range perTier {
						if lo, hi := slices.Min(count), slices.Max(count); hi-lo > 1 {
							t.Errorf("tier %d per shard %v: spread %d > 1", tier, count, hi-lo)
						}
					}
					edges := make([]int, n)
					for e := 0; e < g.NumEdge(); e++ {
						edges[part[g.EdgeNode(e)]]++
					}
					if lo, hi := slices.Min(edges), slices.Max(edges); hi-lo > 1 {
						t.Errorf("edge devices per shard %v: spread %d > 1", edges, hi-lo)
					}
					blocks := tierBlocks(g, n)
					for j := 1; j < n; j++ {
						prefix := func(p []int) []int {
							out := make([]int, len(p))
							for i, s := range p {
								out[i] = min(s/j, 1)
							}
							return out
						}
						if got, want := cutLinks(g, prefix(part)), cutLinks(g, prefix(blocks)); got > want {
							t.Errorf("shards [0,%d) against the rest: cuts %d links, per-tier blocks %d", j, got, want)
						}
					}
					cut, ref := cutLinks(g, part), cutLinks(g, blocks)
					if cut > ref {
						t.Errorf("cuts %d links, per-tier blocks %d", cut, ref)
					}
					if c, ok := g.(*topo.Clos); ok && n == 2 {
						for _, lk := range g.GraphLinks() {
							if lk.A < c.NumFA && part[lk.A] != part[lk.B] {
								t.Fatalf("FA–FE1 link %d–%d cut", lk.A, lk.B)
							}
						}
					}
					t.Logf("edges %v, cut %d of %d links (blocks %d)", edges, cut, len(g.GraphLinks()), ref)
				})
			}
		}
	}
}

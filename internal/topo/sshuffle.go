// Space Shuffle (Yu & Qian): every switch gets a coordinate in each of S
// independent ring spaces — a position in a random circular permutation —
// and is physically wired to its predecessor and successor in every
// space. Greedy routing forwards to any neighbor strictly closer to the
// destination under the min-over-spaces circular distance; because the
// best space's ring successor is always a neighbor, greedy always makes
// progress on the intact graph, and "strictly closer" makes any multipath
// spray over the candidates provably loop-free.
//
// Every switch is simultaneously an edge device (hosts hang off every
// switch), so unlike the Clos there is no dedicated core tier: the same
// nodes originate, transit and sink traffic.
package topo

import (
	"fmt"
	"math/rand"
	"sort"
)

// SpaceShuffle is a switch-centric random ring-space topology.
type SpaceShuffle struct {
	N      int   // switches
	Spaces int   // ring spaces
	Seed   int64 // ring-permutation seed (part of the spec)

	pos   [][]int // pos[s][node] = position of node on ring s
	ring  [][]int // ring[s][position] = node
	nbr   [][]int // nbr[n] = sorted neighbor node ids; port p connects to nbr[n][p]
	links []GraphLink
}

// NewSpaceShuffle builds n switches on s random ring spaces. The wiring
// is a pure function of (n, s, seed): every process parsing the same spec
// builds the identical graph. It is the one stream not drawn from
// stats.Stream: its seed is part of the spec string, not of the run, so
// the spec names the graph, and keeps naming the graph it always named.
func NewSpaceShuffle(n, s int, seed int64) (*SpaceShuffle, error) {
	if n < 4 || s < 1 {
		return nil, fmt.Errorf("topo: sshuffle needs >= 4 switches and >= 1 space, got n=%d s=%d", n, s)
	}
	g := &SpaceShuffle{N: n, Spaces: s, Seed: seed}
	rng := rand.New(rand.NewSource(seed))
	g.ring = make([][]int, s)
	g.pos = make([][]int, s)
	adj := make([]map[int]bool, n)
	for i := range adj {
		adj[i] = make(map[int]bool)
	}
	for sp := 0; sp < s; sp++ {
		g.ring[sp] = rng.Perm(n)
		g.pos[sp] = make([]int, n)
		for p, node := range g.ring[sp] {
			g.pos[sp][node] = p
		}
		for p, node := range g.ring[sp] {
			succ := g.ring[sp][(p+1)%n]
			adj[node][succ] = true
			adj[succ][node] = true
		}
	}
	// Ports in sorted-neighbor order; links once per unordered pair, in
	// (lower node, then neighbor) order so link indices are canonical.
	g.nbr = make([][]int, n)
	for u := range adj {
		for v := range adj[u] {
			g.nbr[u] = append(g.nbr[u], v)
		}
		sort.Ints(g.nbr[u])
	}
	portOf := func(u, v int) int { return sort.SearchInts(g.nbr[u], v) }
	for u := 0; u < n; u++ {
		for _, v := range g.nbr[u] {
			if v > u {
				g.links = append(g.links, GraphLink{A: u, APort: portOf(u, v), B: v, BPort: portOf(v, u)})
			}
		}
	}
	return g, nil
}

// Spec implements Graph.
func (g *SpaceShuffle) Spec() string {
	return fmt.Sprintf("sshuffle:n=%d,s=%d,seed=%d", g.N, g.Spaces, g.Seed)
}

// NumNodes implements Graph.
func (g *SpaceShuffle) NumNodes() int { return g.N }

// NumTiers implements Graph: a flat, single-tier fabric.
func (g *SpaceShuffle) NumTiers() int { return 1 }

// NumEdge implements Graph: every switch fronts hosts.
func (g *SpaceShuffle) NumEdge() int { return g.N }

// EdgeNode implements Graph.
func (g *SpaceShuffle) EdgeNode(e int) int { return e }

// Node implements Graph.
func (g *SpaceShuffle) Node(i int) NodeInfo {
	return NodeInfo{Name: fmt.Sprintf("SS%d", i), Role: "SS", Tier: 0, Ports: len(g.nbr[i])}
}

// GraphLinks implements Graph.
func (g *SpaceShuffle) GraphLinks() []GraphLink { return g.links }

// Dist is the routing metric: the minimum over all spaces of the circular
// distance between u's and t's positions on that space's ring.
func (g *SpaceShuffle) Dist(u, t int) int {
	best := g.N
	for sp := 0; sp < g.Spaces; sp++ {
		d := g.pos[sp][u] - g.pos[sp][t]
		if d < 0 {
			d = -d
		}
		if g.N-d < d {
			d = g.N - d
		}
		if d < best {
			best = d
		}
	}
	return best
}

// Routes implements Graph. On the intact graph the candidates are the
// greedy ones: every neighbor strictly closer under the ring metric
// (never empty — the best space's ring successor qualifies). Under
// failures a stale greedy table can strand a node whose closer neighbors
// all died, so the rebuilt tables fall back to live-BFS distances — one
// consistent potential for the whole graph, which keeps the multipath
// sets loop-free (mixing the two metrics per node could cycle).
func (g *SpaceShuffle) Routes(up []bool) (descend [][][]int, climb [][]int) {
	climb = make([][]int, g.N)
	for i := range up {
		if !up[i] {
			return bfsRoutes(g, up), climb
		}
	}
	descend = make([][][]int, g.N)
	for n := range descend {
		descend[n] = make([][]int, g.N)
		for t := 0; t < g.N; t++ {
			if t == n {
				continue
			}
			dn := g.Dist(n, t)
			for p, v := range g.nbr[n] {
				if g.Dist(v, t) < dn {
					descend[n][t] = append(descend[n][t], p)
				}
			}
		}
	}
	return descend, climb
}

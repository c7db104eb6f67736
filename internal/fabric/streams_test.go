package fabric

import (
	"slices"
	"testing"

	"stardust/internal/reach"
	"stardust/internal/sim"
	"stardust/internal/topo"
)

// climbless is a graph whose transit node lost its climb group: its
// climb ports descend instead, toward every edge it did not descend to,
// so every route survives and its climb spreader has no links and draws
// nothing.
type climbless struct {
	topo.Graph
	node int
}

func (g climbless) Routes(up []bool) ([][][]int, [][]int) {
	descend, climb := g.Graph.Routes(up)
	for e, ports := range descend[g.node] {
		if len(ports) == 0 {
			descend[g.node][e] = climb[g.node]
		}
	}
	climb[g.node] = nil
	return descend, climb
}

// sprayDraws is what a node's spreaders hand out: for every key of both
// groups with candidates, the slots of 200 picks in a row — several
// reshuffles of a group of a few links.
func sprayDraws(d *node) [][]int {
	var out [][]int
	for _, g := range []struct {
		spr   *reach.Spreader[*link]
		group []*link
	}{{&d.sprDown, d.down}, {&d.sprUp, d.up}} {
		for key := range g.spr.Sets() {
			var picks []int
			for range 200 {
				if l, ok := g.spr.Next(key); ok {
					picks = append(picks, slices.Index(g.group, l))
				}
			}
			out = append(out, picks)
		}
	}
	return out
}

// Every spreader draws from the stream named by its node and direction, so
// a node that draws nothing moves no other node's stream: a Clos two of
// whose leaf switches have no climb group sprays, at every other node,
// exactly as the full Clos does. (When the spreaders' seeds were
// drawn in node order from one stream and a group of no links drew none,
// every node after the first climb-less one sprayed differently.)
func TestSprayStreamsAreNamed(t *testing.T) {
	g, err := topo.ByName("clos", 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(10e9, sim.Microsecond, 7)
	full, err := New(sim.New(), cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	gone := []int{g.NumEdge(), g.NumEdge() + 3} // two nodes of the tier above the edge
	cut, err := New(sim.New(), cfg, climbless{climbless{g, gone[0]}, gone[1]})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range gone {
		if len(cut.nodes[i].up) != 0 || len(full.nodes[i].up) == 0 {
			t.Fatalf("node %d: %d climb links in the cut graph, %d in the full one", i, len(cut.nodes[i].up), len(full.nodes[i].up))
		}
	}
	for i := range full.nodes {
		if slices.Contains(gone, i) {
			continue
		}
		want, got := sprayDraws(full.nodes[i]), sprayDraws(cut.nodes[i])
		if !slices.EqualFunc(want, got, slices.Equal) {
			t.Fatalf("node %d sprays differently once other nodes lost their climb groups", i)
		}
	}
}

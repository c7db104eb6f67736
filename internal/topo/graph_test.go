package topo

import (
	"math/rand"
	"reflect"
	"testing"
)

// testGraphs builds one instance of every family at comparable size.
func testGraphs(t *testing.T) map[string]Graph {
	t.Helper()
	out := map[string]Graph{}
	for _, name := range []string{"clos", "sshuffle", "star"} {
		g, err := ByName(name, 4)
		if err != nil {
			t.Fatalf("ByName(%q, 4): %v", name, err)
		}
		out[name] = g
	}
	return out
}

func TestGraphStructuralInvariants(t *testing.T) {
	for name, g := range testGraphs(t) {
		if err := ValidateGraph(g); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if g.NumEdge() != 8 {
			t.Errorf("%s: ByName k=4 should size 8 edge devices, got %d", name, g.NumEdge())
		}
	}
}

// ByName takes what -topo and topo= document: a family sized by k, or a
// full spec string that carries its own size.
func TestByNameAcceptsSpecs(t *testing.T) {
	for _, tc := range []struct {
		name     string
		k        int
		wantSpec string // "" = an error
	}{
		{"", 4, "clos:k=4"},
		{"clos", 4, "clos:k=4"},
		{"sshuffle", 4, "sshuffle:n=8,s=3,seed=1"},
		{"sshuffle:n=8,s=3,seed=1", 4, "sshuffle:n=8,s=3,seed=1"},
		{"sshuffle:n=32,s=2,seed=1", 4, "sshuffle:n=32,s=2,seed=1"},
		{"sshuffle:n=32,s=2,seed=1", 0, "sshuffle:n=32,s=2,seed=1"}, // k is not consulted
		{"clos:k=8", 4, "clos:k=8"},
		{"clos1:fa=4,up=2,fe1=2", 4, "clos1:fa=4,up=2,fe1=2"},
		{"sshuffle", 3, ""},
		{"sshuffle:n=32", 4, ""},
		{"ring:n=8", 4, ""},
		{"ring", 4, ""},
	} {
		g, err := ByName(tc.name, tc.k)
		switch {
		case tc.wantSpec == "" && err == nil:
			t.Errorf("ByName(%q, %d) built %s, want an error", tc.name, tc.k, g.Spec())
		case tc.wantSpec != "" && err != nil:
			t.Errorf("ByName(%q, %d): %v", tc.name, tc.k, err)
		case tc.wantSpec != "" && g.Spec() != tc.wantSpec:
			t.Errorf("ByName(%q, %d) built %s, want %s", tc.name, tc.k, g.Spec(), tc.wantSpec)
		}
	}
}

func TestSpecRoundTrip(t *testing.T) {
	for name, g := range testGraphs(t) {
		spec := g.Spec()
		g2, err := ParseSpec(spec)
		if err != nil {
			t.Fatalf("%s: ParseSpec(%q): %v", name, spec, err)
		}
		if g2.Spec() != spec {
			t.Errorf("%s: spec round-trip %q -> %q", name, spec, g2.Spec())
		}
		if g2.NumNodes() != g.NumNodes() || len(g2.GraphLinks()) != len(g.GraphLinks()) {
			t.Errorf("%s: rebuilt graph differs: %d/%d nodes, %d/%d links",
				name, g2.NumNodes(), g.NumNodes(), len(g2.GraphLinks()), len(g.GraphLinks()))
		}
		if !reflect.DeepEqual(g2.GraphLinks(), g.GraphLinks()) {
			t.Errorf("%s: rebuilt wiring differs from original", name)
		}
	}
	// The full-parameter Clos forms round-trip too.
	for _, spec := range []string{"clos1:fa=4,up=2,fe1=2", "clos2:fa=8,up=2,fe1=4,dn=4,fe1up=4,fe2=4"} {
		g, err := ParseSpec(spec)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", spec, err)
		}
		if g.Spec() != spec {
			t.Errorf("spec %q round-trips to %q", spec, g.Spec())
		}
	}
}

func TestParseSpecRejectsUnknown(t *testing.T) {
	for _, spec := range []string{
		"hypercube:d=4", "clos:k=5", "sshuffle:n=8", "clos:k=abc", "star:m=4,d=3", "",
		// Non-positive and oversize dimensions: refused before building.
		"clos:k=-4", "clos:k=4000", "sshuffle:n=50000000,s=3,seed=1", "star:m=3000000,d=4",
		"clos2:fa=0,up=0,fe1=0,dn=0,fe1up=1,fe2=1",
	} {
		g, err := ParseSpec(spec)
		if err == nil {
			t.Errorf("ParseSpec(%q) should fail", spec)
		}
		if g != nil { // a nil *Clos inside a non-nil Graph would pass an `if g != nil` guard and crash
			t.Errorf("ParseSpec(%q) = %T alongside an error, want an untyped nil", spec, g)
		}
	}
}

// TestRoutesLoopFree walks random sprays over the candidate tables and
// checks every cell reaches its destination within a hop bound — the
// loop-freedom/progress contract Routes promises, on the intact graph
// and under every single-link failure.
func TestRoutesLoopFree(t *testing.T) {
	for name, g := range testGraphs(t) {
		links := g.GraphLinks()
		peer := portPeers(g, nil)
		rng := rand.New(rand.NewSource(7))
		masks := [][]bool{allUp(len(links))}
		for i := 0; i < len(links); i++ {
			m := allUp(len(links))
			m[i] = false
			masks = append(masks, m)
		}
		for _, up := range masks {
			descend, climb := g.Routes(up)
			livePeer := portPeers(g, up)
			for trial := 0; trial < 50; trial++ {
				src := rng.Intn(g.NumEdge())
				dst := rng.Intn(g.NumEdge())
				if src == dst {
					continue
				}
				n := g.EdgeNode(src)
				target := g.EdgeNode(dst)
				descended := false
				for hops := 0; ; hops++ {
					if n == target {
						break
					}
					if hops > 2*g.NumNodes() {
						t.Fatalf("%s: loop or detour from edge %d to %d", name, src, dst)
					}
					var port int
					if cand := descend[n][dst]; len(cand) > 0 {
						port = cand[rng.Intn(len(cand))]
						descended = true
					} else if !descended && len(climb[n]) > 0 {
						port = climb[n][rng.Intn(len(climb[n]))]
					} else {
						break // converged drop — legal under failures
					}
					if livePeer[n][port] < 0 {
						t.Fatalf("%s: table offers dead/unwired port %d on node %d", name, port, n)
					}
					n = peer[n][port]
				}
			}
		}
	}
}

// TestRoutesDeterministic rebuilds tables twice (and the graph itself
// twice from its spec) and demands identical candidate sets — the
// determinism contract distsim model hashing leans on.
func TestRoutesDeterministic(t *testing.T) {
	for name, g := range testGraphs(t) {
		up := allUp(len(g.GraphLinks()))
		up[0] = false
		d1, c1 := g.Routes(up)
		g2, err := ParseSpec(g.Spec())
		if err != nil {
			t.Fatal(err)
		}
		d2, c2 := g2.Routes(up)
		if !reflect.DeepEqual(d1, d2) || !reflect.DeepEqual(c1, c2) {
			t.Errorf("%s: Routes not reproducible from spec", name)
		}
	}
}

func TestEdgeUplinkDirs(t *testing.T) {
	for name, g := range testGraphs(t) {
		groups := EdgeUplinkDirs(g)
		if len(groups) != g.NumEdge() {
			t.Fatalf("%s: %d groups for %d edges", name, len(groups), g.NumEdge())
		}
		seen := map[int]bool{}
		for e, dirs := range groups {
			if len(dirs) == 0 {
				t.Errorf("%s: edge %d has no uplink dirs", name, e)
			}
			for _, d := range dirs {
				if seen[d] {
					t.Errorf("%s: dir %d in two edge groups", name, d)
				}
				seen[d] = true
				if d < 0 || d >= 2*len(g.GraphLinks()) {
					t.Errorf("%s: dir %d out of range", name, d)
				}
			}
		}
	}
	// Clos groups must match the legacy derivation: FAUplinks dirs per FA.
	cl, _ := ClosForK(4)
	for fa, dirs := range EdgeUplinkDirs(cl) {
		if len(dirs) != cl.FAUplinks {
			t.Errorf("clos FA%d: %d uplink dirs, want %d", fa, len(dirs), cl.FAUplinks)
		}
	}
}

func allUp(n int) []bool {
	up := make([]bool, n)
	for i := range up {
		up[i] = true
	}
	return up
}

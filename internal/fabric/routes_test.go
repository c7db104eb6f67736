package fabric

import (
	"fmt"
	"math/rand"
	"testing"

	"stardust/internal/parsim"
	"stardust/internal/sim"
	"stardust/internal/topo"
)

// installedRoutes reads every node's live candidate sets back out as
// ascending port lists — the shape Graph.Routes returns.
func installedRoutes(n *Net) (descend [][][]int, climb [][]int) {
	descend = make([][][]int, len(n.nodes))
	climb = make([][]int, len(n.nodes))
	for i, d := range n.nodes {
		descend[i] = make([][]int, d.sprDown.Sets())
		for p, ref := range d.port {
			if ref.climb {
				if d.sprUp.Links(0).Get(ref.slot) {
					climb[i] = append(climb[i], p)
				}
				continue
			}
			for e := range descend[i] {
				if d.sprDown.Links(e).Get(ref.slot) {
					descend[i][e] = append(descend[i][e], p)
				}
			}
		}
	}
	return descend, climb
}

// TestReachProtocolConvergesToRoutes ties the two route policies
// together: topo/closgraph.go claims Clos.Routes(mask) is what the reach
// protocol's tables hold after convergence, and the recompute policy
// would install exactly that. After a seeded random fail/heal program —
// overlapping changes, some links left down — and a ReachDelay drain,
// every FE's installed descend sets and every FA's live-uplink set must
// equal Routes over the administrative mask, solo and at 2 shards; and
// before and after every change, the spreaders hold what the tables say
// (checkSpray).
func TestReachProtocolConvergesToRoutes(t *testing.T) {
	for _, k := range []int{4, 6} {
		for _, shards := range []int{0, 2} {
			for seed := int64(1); seed <= 4; seed++ {
				t.Run(fmt.Sprintf("k=%d/shards=%d/seed=%d", k, shards, seed), func(t *testing.T) {
					cl, err := ClosFor(k)
					if err != nil {
						t.Fatal(err)
					}
					cfg := DefaultConfig(10e9, sim.Microsecond, seed)
					var (
						n    *Net
						at   func(sim.Time, func())
						run  func(until sim.Time)
						last sim.Time
					)
					if shards == 0 {
						s := sim.New()
						n, err = New(s, cfg, cl)
						at, run = s.At, func(sim.Time) { s.Run() }
					} else {
						eng := parsim.New(parsim.Config{Shards: shards, Lookahead: sim.Microsecond})
						n, err = NewSharded(eng, cfg, cl, nil)
						at, run = eng.At, func(until sim.Time) { eng.RunUntilQuiet(until) }
					}
					if err != nil {
						t.Fatal(err)
					}
					// Changes land closer together than ReachDelay, so
					// withdrawals and readvertisements overlap in flight.
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < 40; i++ {
						lk, heal := rng.Intn(n.NumLinks()), rng.Intn(3) == 0
						last += sim.Time(rng.Int63n(int64(cfg.ReachDelay)))
						at(last, func() {
							if err := checkSpray(n); err != nil {
								t.Errorf("before changing link %d: %v", lk, err)
							}
							if heal {
								n.RestoreLink(lk)
							} else {
								n.FailLink(lk)
							}
							if err := checkSpray(n); err != nil {
								t.Errorf("after changing link %d: %v", lk, err)
							}
						})
					}
					run(last + 4*cfg.ReachDelay)
					if err := checkSpray(n); err != nil {
						t.Error(err)
					}

					down := 0
					for _, up := range n.adminUp {
						if !up {
							down++
						}
					}
					if down == 0 {
						t.Fatal("program left no link down: the comparison would be the intact graph")
					}
					wantDescend, wantClimb := cl.Routes(n.adminUp)
					gotDescend, gotClimb := installedRoutes(n)
					for i := range n.nodes {
						name := cl.Node(i).Name
						if fmt.Sprint(gotClimb[i]) != fmt.Sprint(wantClimb[i]) {
							t.Errorf("%s climbs over %v, Routes says %v", name, gotClimb[i], wantClimb[i])
						}
						for e := range gotDescend[i] {
							if fmt.Sprint(gotDescend[i][e]) != fmt.Sprint(wantDescend[i][e]) {
								t.Errorf("%s descends to FA%d over %v, Routes says %v", name, e, gotDescend[i][e], wantDescend[i][e])
							}
						}
					}
				})
			}
		}
	}
}

// TestHolesMatchConvergedTables: Holes, computed from the link mask
// alone, is what the installed tables count once they have caught up.
// Clos, star and Space Shuffle at K 4 and 8, seeds 1–40, on 2 shards:
// up to a third of the links fail at one instant, and after 5×ReachDelay
// Net.UnreachablePairs must equal Holes over the administrative mask.
func TestHolesMatchConvergedTables(t *testing.T) {
	for _, name := range []string{"clos", "star", "sshuffle"} {
		holed := 0
		for _, k := range []int{4, 8} {
			g, err := topo.ByName(name, k)
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(1); seed <= 40; seed++ {
				cfg := DefaultConfig(10e9, sim.Microsecond, seed)
				eng := parsim.New(parsim.Config{Shards: 2, Lookahead: sim.Microsecond})
				n, err := NewSharded(eng, cfg, g, nil)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(seed))
				fail := rng.Perm(n.NumLinks())[:rng.Intn(n.NumLinks()/3+1)]
				eng.At(sim.Microsecond, func() {
					for _, lk := range fail {
						n.FailLink(lk)
					}
				})
				eng.RunUntilQuiet(sim.Microsecond + 5*cfg.ReachDelay)
				want := Holes(g, n.adminUp)
				if got := n.UnreachablePairs(); got != want {
					t.Errorf("%s k=%d seed %d, links %v down: tables count %d %s, Holes says %d",
						name, k, seed, fail, got, HoleUnit(g), want)
				}
				if want > 0 {
					holed++
				}
			}
		}
		if holed == 0 {
			t.Errorf("%s: no case opened a hole, so nothing was compared but zeros", name)
		}
	}
}

package fabric

import (
	"fmt"
	"math/rand"
	"testing"

	"stardust/internal/parsim"
	"stardust/internal/sim"
)

// installedRoutes reads every node's live candidate sets back out as
// ascending port lists — the shape Graph.Routes returns.
func installedRoutes(n *Net) (descend [][][]int, climb [][]int) {
	descend = make([][][]int, len(n.nodes))
	climb = make([][]int, len(n.nodes))
	for i, d := range n.nodes {
		descend[i] = make([][]int, len(d.descend))
		for p, ref := range d.port {
			if ref.climb {
				if d.climb.Get(ref.slot) {
					climb[i] = append(climb[i], p)
				}
				continue
			}
			for e, set := range d.descend {
				if set.Get(ref.slot) {
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
// equal Routes over the administrative mask, solo and at 2 shards.
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
							if heal {
								n.RestoreLink(lk)
							} else {
								n.FailLink(lk)
							}
						})
					}
					run(last + 4*cfg.ReachDelay)

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

package experiments

import (
	"fmt"
	"io"

	"stardust/internal/fabric"
	"stardust/internal/netsim"
	"stardust/internal/sim"
	"stardust/internal/topo"
	"stardust/internal/workload"
)

// GraphLoadResult summarizes per-uplink byte spread of one raw-cell run
// on a pluggable topology — the §5.3 spray-vs-ECMP comparison carried to
// non-Clos graphs (Space Shuffle, star-replaced). The Spread counts
// uplink directions; the cell-fate counters are there because on
// irregular graphs ECMP can also lose throughput outright, not just
// balance.
type GraphLoadResult struct {
	Topo string
	Mode string // "spray" or "ecmp"
	Spread
	Injected  uint64
	Delivered uint64
	Drops     uint64
}

// GraphLinkLoad runs a permutation of raw-cell flows between the edge
// devices of the named topology and measures how evenly each device
// spread its bytes over its own uplinks. Mode "spray" uses per-cell
// round-robin spraying (Stardust); mode "ecmp" pins each flow to one
// hash-chosen path — the comparison the paper makes on the Clos, here
// runnable on any topo.Graph. Both modes see the identical traffic
// matrix for a given seed.
func GraphLinkLoad(topoName string, k int, mode string, load float64, warmup, dur sim.Time, seed int64) (*GraphLoadResult, error) {
	g, err := topo.ByName(topoName, k)
	if err != nil {
		return nil, err
	}
	s := sim.New()
	fcfg := fabric.DefaultConfig(netsim.Bps(10e9), sim.Microsecond, seed)
	fab, err := fabric.New(s, fcfg, g)
	if err != nil {
		return nil, err
	}
	switch mode {
	case "spray":
		// The fabric sprays by default.
	case "ecmp":
		if _, isClos := g.(*topo.Clos); isClos {
			return nil, fmt.Errorf("experiments: graphload compares ecmp on the non-clos graphs; for %s use linkload, the fat-tree ECMP contender", g.Spec())
		}
		fab.SetMode(fabric.ModeECMP)
	default:
		return nil, fmt.Errorf("experiments: graphload mode %q (want spray or ecmp)", mode)
	}

	uplinks := topo.EdgeUplinkDirs(g)
	numFA := g.NumEdge()
	perm := workload.Permutation(newMatrixRNG(seed), numFA)
	const cell = 512
	for fa := 0; fa < numFA; fa++ {
		dst := perm[fa]
		if dst == fa || len(uplinks[fa]) == 0 {
			continue
		}
		gap := fab.CellGap(fa, cell, load)
		j := fab.NewInjector(fa, gap, cell, 0, -1)
		j.FixDst(dst)
		j.Start(sim.Time(fa) * gap / sim.Time(numFA))
	}

	s.RunUntil(warmup)
	base := append([]uint64(nil), fab.FAUplinkBytes()...)
	s.RunUntil(warmup + dur)
	end := fab.FAUplinkBytes()

	// Group sizes vary on irregular graphs.
	groups := make([]int, numFA)
	for fa := range groups {
		groups[fa] = len(uplinks[fa])
	}
	return &GraphLoadResult{
		Topo: g.Spec(), Mode: mode, Spread: uplinkSpread(base, end, groups),
		Injected: fab.Injected(), Delivered: fab.Delivered(), Drops: fab.Drops(),
	}, nil
}

// WriteGraphLoad prints one graphload row.
func WriteGraphLoad(w io.Writer, r *GraphLoadResult) {
	fmt.Fprintf(w, "%-24s %-6s links=%3d  mean=%9.0fB  dev-spread=%7.2f%%  spread=%7.2f%%  cov=%6.2f%%  delivered=%d drops=%d\n",
		r.Topo, r.Mode, r.Links, r.MeanBytes, r.DevSpreadPct, r.SpreadPct, r.CoVPct, r.Delivered, r.Drops)
}

package experiments

import (
	"fmt"
	"io"
	"math"

	"stardust/internal/fabric"
	"stardust/internal/netsim"
	"stardust/internal/sim"
	"stardust/internal/topo"
	"stardust/internal/workload"
)

// GraphLoadResult summarizes per-uplink byte spread of one raw-cell run
// on a pluggable topology — the §5.3 spray-vs-ECMP comparison carried to
// non-Clos graphs (Space Shuffle, star-replaced). Same shape as
// LinkLoadResult, plus the cell-fate counters, because on irregular
// graphs ECMP can also lose throughput outright, not just balance.
type GraphLoadResult struct {
	Topo         string
	Mode         string // "spray" or "ecmp"
	Links        int    // measured uplink directions
	MeanBytes    float64
	MinBytes     float64
	MaxBytes     float64
	CoVPct       float64 // global coefficient of variation, percent
	SpreadPct    float64 // global (max-min)/mean, percent
	DevSpreadPct float64 // worst per-device uplink spread, percent
	Injected     uint64
	Delivered    uint64
	Drops        uint64
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

	res := &GraphLoadResult{
		Topo: g.Spec(), Mode: mode, Links: len(end),
		Injected: fab.Injected(), Delivered: fab.Delivered(), Drops: fab.Drops(),
	}
	var sum, sumSq float64
	res.MinBytes = math.Inf(1)
	for i := range end {
		b := float64(end[i] - base[i])
		sum += b
		sumSq += b * b
		res.MinBytes = math.Min(res.MinBytes, b)
		res.MaxBytes = math.Max(res.MaxBytes, b)
	}
	nl := float64(len(end))
	res.MeanBytes = sum / nl
	if res.MeanBytes > 0 {
		variance := sumSq/nl - res.MeanBytes*res.MeanBytes
		res.CoVPct = 100 * math.Sqrt(math.Max(variance, 0)) / res.MeanBytes
		res.SpreadPct = 100 * (res.MaxBytes - res.MinBytes) / res.MeanBytes
	}
	// Per-device spread over each edge device's own uplink group; group
	// sizes vary on irregular graphs, so walk the flat array by group.
	off := 0
	for fa := 0; fa < numFA; fa++ {
		n := len(uplinks[fa])
		if n < 2 {
			off += n
			continue
		}
		var dMin, dMax, dSum float64
		dMin = math.Inf(1)
		for p := 0; p < n; p++ {
			b := float64(end[off+p] - base[off+p])
			dSum += b
			dMin = math.Min(dMin, b)
			dMax = math.Max(dMax, b)
		}
		off += n
		if dSum > 0 {
			if sp := 100 * (dMax - dMin) / (dSum / float64(n)); sp > res.DevSpreadPct {
				res.DevSpreadPct = sp
			}
		}
	}
	return res, nil
}

// WriteGraphLoad prints one graphload row.
func WriteGraphLoad(w io.Writer, r *GraphLoadResult) {
	fmt.Fprintf(w, "%-24s %-6s links=%3d  mean=%9.0fB  dev-spread=%7.2f%%  spread=%7.2f%%  cov=%6.2f%%  delivered=%d drops=%d\n",
		r.Topo, r.Mode, r.Links, r.MeanBytes, r.DevSpreadPct, r.SpreadPct, r.CoVPct, r.Delivered, r.Drops)
}

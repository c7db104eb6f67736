package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"sort"

	"stardust/internal/sim"
	"stardust/internal/stats"
	"stardust/internal/workload"
)

// newMatrixRNG is the run's traffic-matrix stream, named apart from the
// testbed's flow-choice stream, so every protocol of a sweep sees the
// identical matrix.
func newMatrixRNG(seed int64) *rand.Rand {
	return rand.New(stats.Stream(seed, "matrix"))
}

// This file holds the experiments that need the topology-faithful
// per-link fabric (internal/fabric): per-link load balance under cell
// spraying vs ECMP, goodput through link failures, and the hotspot /
// all-to-all traffic matrices.

// Spread summarizes how evenly one run spread bytes over the measured
// uplink set. The §5.3 claim is per device — every FA (or edge switch)
// spreads its own offered load evenly over its own uplinks — so
// DevSpreadPct is the headline number: the worst (max-min)/mean across
// the per-device uplink groups. The global numbers additionally fold in
// per-device demand differences (hairpin flows never touch an uplink).
type Spread struct {
	Links        int
	MinBytes     float64
	MaxBytes     float64
	MeanBytes    float64
	CoVPct       float64 // global coefficient of variation, percent
	SpreadPct    float64 // global (max-min)/mean, percent
	DevSpreadPct float64 // worst per-device uplink spread, percent
}

// uplinkSpread measures the bytes each uplink carried between the base
// and end readings, laid out device by device with groups[d] uplinks for
// device d. A device with fewer than two uplinks has no spread of its own.
func uplinkSpread(base, end []uint64, groups []int) Spread {
	res := Spread{Links: len(end)}
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
	off := 0
	for _, n := range groups {
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
	return res
}

// LinkLoadResult is one fabric/linkload run: the uplink spread, and the
// edge utilization as a sanity check.
type LinkLoadResult struct {
	Mode string // "spray" (Stardust cells) or "ecmp" (per-flow hashing)
	Spread
	MeanUtilPct float64
}

// LinkLoad runs a permutation workload and measures per-uplink byte
// counts over the measurement window. Mode "spray" runs the Stardust
// substrate over the per-link cell fabric and reads the FA uplinks; mode
// "ecmp" runs DCTCP on the fat-tree and reads the edge-switch uplinks —
// the §5.3 near-perfect-balance claim against flow-hash collisions.
func LinkLoad(cfg HtsimConfig, mode string) (*LinkLoadResult, error) {
	var proto Protocol
	switch mode {
	case "spray":
		proto = ProtoStardust
		cfg.FullFabric = true
	case "ecmp":
		proto = ProtoDCTCP
	default:
		return nil, fmt.Errorf("experiments: linkload mode %q (want spray or ecmp)", mode)
	}
	tb, err := newTestbed(cfg, proto)
	if err != nil {
		return nil, err
	}
	perm := workload.Permutation(tb.rng, tb.hosts)
	runners := make([]flowRunner, tb.hosts)
	for src := 0; src < tb.hosts; src++ {
		runners[src] = tb.launchFlow(proto, src, perm[src], 0, 0, nil)
	}
	linkBytes := func() []uint64 {
		if tb.fab != nil {
			return tb.fab.FAUplinkBytes()
		}
		return tb.ft.EdgeUplinkBytes()
	}
	perDev := cfg.K / 2 // uplinks per FA and per edge switch alike
	tb.runUntil(cfg.Warmup)
	base := linkBytes()
	goodputBase := make([]int64, tb.hosts)
	for i, r := range runners {
		goodputBase[i] = r.deliveredAt()
	}
	tb.runUntil(cfg.Warmup + cfg.Duration)

	end := linkBytes()
	groups := make([]int, len(end)/perDev)
	for i := range groups {
		groups[i] = perDev
	}
	res := &LinkLoadResult{Mode: mode, Spread: uplinkSpread(base, end, groups)}
	var good float64
	for i, r := range runners {
		good += float64(r.deliveredAt()-goodputBase[i]) * 8 / cfg.Duration.Seconds()
	}
	res.MeanUtilPct = 100 * good / (float64(tb.hosts) * tb.linkRate())
	return res, nil
}

// FailureResult is one fabric/failures run: aggregate goodput per time
// bin through a mid-run link-failure event, plus the reachability
// cross-check.
type FailureResult struct {
	FailedLinks   int
	BinMs         float64
	Gbps          []float64 // aggregate goodput per bin, in failure-relative order
	FailBin       int       // index of the bin in which the failure fired
	PreGbps       float64   // mean over bins before the failure
	DipGbps       float64   // minimum bin at/after the failure
	RecoveredGbps float64   // mean over the last quarter of the bins
	Unreachable   int       // reach-table cross-check (0 = self-healed)
	FabricDrops   uint64
	ReasmTimeouts uint64
}

// FabricFailures runs a permutation workload on the Stardust substrate
// over the per-link fabric, kills nFail random fabric links at failAt
// (relative to the end of warmup), and bins aggregate goodput to expose
// the dip and the self-healing recovery (§5.9, Appendix E).
func FabricFailures(cfg HtsimConfig, nFail int, failAt, bin sim.Time) (*FailureResult, error) {
	cfg.FullFabric = true
	tb, err := newTestbed(cfg, ProtoStardust)
	if err != nil {
		return nil, err
	}
	if bin <= 0 {
		bin = sim.Millisecond
	}
	perm := workload.Permutation(tb.rng, tb.hosts)
	runners := make([]flowRunner, tb.hosts)
	for src := 0; src < tb.hosts; src++ {
		runners[src] = tb.launchFlow(ProtoStardust, src, perm[src], 0, 0, nil)
	}
	delivered := func() float64 {
		var sum int64
		for _, r := range runners {
			sum += r.deliveredAt()
		}
		return float64(sum)
	}
	if nFail > tb.fab.NumLinks() {
		nFail = tb.fab.NumLinks()
	}
	victims := tb.rng.Perm(tb.fab.NumLinks())[:nFail]

	tb.runUntil(cfg.Warmup)
	res := &FailureResult{FailedLinks: nFail, BinMs: bin.Seconds() * 1e3, FailBin: -1}
	prev := delivered()
	failed := false
	for t := cfg.Warmup; t < cfg.Warmup+cfg.Duration; t += bin {
		if !failed && t-cfg.Warmup >= failAt {
			for _, v := range victims {
				tb.fab.FailLink(v)
			}
			failed = true
			res.FailBin = len(res.Gbps)
		}
		tb.runUntil(t + bin)
		now := delivered()
		res.Gbps = append(res.Gbps, (now-prev)*8/bin.Seconds()/1e9)
		prev = now
	}
	if !failed { // failAt beyond the window: fail at the very end
		for _, v := range victims {
			tb.fab.FailLink(v)
		}
		res.FailBin = len(res.Gbps)
	}

	res.DipGbps = math.Inf(1)
	var pre, preN, rec, recN float64
	lastQuarter := len(res.Gbps) - (len(res.Gbps)-res.FailBin)/4
	for i, g := range res.Gbps {
		if i < res.FailBin {
			pre += g
			preN++
		} else if g < res.DipGbps {
			res.DipGbps = g
		}
		if i >= lastQuarter {
			rec += g
			recN++
		}
	}
	if preN > 0 {
		res.PreGbps = pre / preN
	}
	if recN > 0 {
		res.RecoveredGbps = rec / recN
	}
	if math.IsInf(res.DipGbps, 1) {
		res.DipGbps = 0
	}
	res.Unreachable = tb.fab.UnreachablePairs()
	res.FabricDrops = tb.fab.Drops()
	res.ReasmTimeouts = tb.sd.ReasmTimeouts()
	return res, nil
}

// MatrixResult is one traffic-matrix run (hotspot, all-to-all): the
// per-flow goodput distribution plus hot/cold aggregates when the matrix
// designates hot destinations.
type MatrixResult struct {
	Proto       Protocol
	Flows       int
	Gbps        []float64 // sorted per-flow goodput
	MeanUtilPct float64
	HotGbps     float64 // aggregate goodput into hot destinations
	ColdMeanGps float64 // mean per-flow goodput of the remaining flows
}

// RunMatrix launches one long-running flow per matrix entry and measures
// per-flow goodput over the window. hot, when non-nil, marks destinations
// whose incoming flows are aggregated separately.
func RunMatrix(cfg HtsimConfig, proto Protocol, flows []workload.Flow, hot map[int]bool) (*MatrixResult, error) {
	tb, err := newTestbed(cfg, proto)
	if err != nil {
		return nil, err
	}
	runners := make([]flowRunner, len(flows))
	for i, f := range flows {
		if f.Src == f.Dst || f.Src >= tb.hosts || f.Dst >= tb.hosts {
			return nil, fmt.Errorf("experiments: bad matrix flow %d->%d for %d hosts", f.Src, f.Dst, tb.hosts)
		}
		runners[i] = tb.launchFlow(proto, f.Src, f.Dst, 0, 0, nil)
	}
	tb.runUntil(cfg.Warmup)
	base := make([]int64, len(runners))
	for i, r := range runners {
		base[i] = r.deliveredAt()
	}
	tb.runUntil(cfg.Warmup + cfg.Duration)

	res := &MatrixResult{Proto: proto, Flows: len(flows)}
	var sum, cold, coldN float64
	for i, r := range runners {
		gbps := float64(r.deliveredAt()-base[i]) * 8 / cfg.Duration.Seconds() / 1e9
		res.Gbps = append(res.Gbps, gbps)
		sum += gbps
		if hot != nil {
			if hot[flows[i].Dst] {
				res.HotGbps += gbps
			} else {
				cold += gbps
				coldN++
			}
		}
	}
	sort.Float64s(res.Gbps)
	if coldN > 0 {
		res.ColdMeanGps = cold / coldN
	}
	res.MeanUtilPct = 100 * sum * 1e9 / (float64(tb.hosts) * tb.linkRate())
	return res, nil
}

// HotspotRun builds the hotspot matrix for the testbed size and runs it.
func HotspotRun(cfg HtsimConfig, proto Protocol, hotspots int, hotFraction float64) (*MatrixResult, []int, error) {
	hosts := cfg.K * cfg.K * cfg.K / 4
	rng := newMatrixRNG(cfg.Seed)
	flows, hotList := workload.Hotspot(rng, hosts, hotspots, hotFraction)
	hot := make(map[int]bool, len(hotList))
	for _, h := range hotList {
		hot[h] = true
	}
	r, err := RunMatrix(cfg, proto, flows, hot)
	return r, hotList, err
}

// AllToAllRun builds the complete matrix for the testbed size and runs it.
func AllToAllRun(cfg HtsimConfig, proto Protocol) (*MatrixResult, error) {
	hosts := cfg.K * cfg.K * cfg.K / 4
	return RunMatrix(cfg, proto, workload.AllToAll(hosts), nil)
}

// WriteLinkLoad prints one linkload row.
func WriteLinkLoad(w io.Writer, r *LinkLoadResult) {
	fmt.Fprintf(w, "%-6s links=%3d  mean=%8.0fB  dev-spread=%6.2f%%  spread=%6.2f%%  cov=%6.2f%%  min=%8.0fB max=%8.0fB  util=%5.1f%%\n",
		r.Mode, r.Links, r.MeanBytes, r.DevSpreadPct, r.SpreadPct, r.CoVPct, r.MinBytes, r.MaxBytes, r.MeanUtilPct)
}

// WriteFailures prints one failures summary row.
func WriteFailures(w io.Writer, r *FailureResult) {
	fmt.Fprintf(w, "fail=%d links: pre=%6.2fG dip=%6.2fG recovered=%6.2fG  unreachable=%d drops=%d reasm-timeouts=%d\n",
		r.FailedLinks, r.PreGbps, r.DipGbps, r.RecoveredGbps, r.Unreachable, r.FabricDrops, r.ReasmTimeouts)
	fmt.Fprintf(w, "  goodput/bin (G): ")
	for i, g := range r.Gbps {
		if i == r.FailBin {
			fmt.Fprintf(w, "| ")
		}
		fmt.Fprintf(w, "%.1f ", g)
	}
	fmt.Fprintln(w)
}

// WriteMatrix prints one traffic-matrix summary row.
func WriteMatrix(w io.Writer, kind string, r *MatrixResult) {
	n := len(r.Gbps)
	fmt.Fprintf(w, "%-9s %-8s flows=%5d  mean-util=%5.1f%%  p5=%5.2fG median=%5.2fG min=%5.2fG",
		r.Proto, kind, r.Flows, r.MeanUtilPct, r.Gbps[n/20], r.Gbps[n/2], r.Gbps[0])
	if r.HotGbps > 0 {
		fmt.Fprintf(w, "  hot-agg=%5.2fG cold-mean=%5.2fG", r.HotGbps, r.ColdMeanGps)
	}
	fmt.Fprintln(w)
}

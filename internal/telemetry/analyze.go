package telemetry

import (
	"fmt"
	"io"
	"sync"

	"stardust/internal/fabric"
	"stardust/internal/sim"
	"stardust/internal/topo"
)

// WindowView is one scrape window presented to analyzers: per-direction
// deltas since the previous window plus instantaneous occupancy and link
// state. The same view shape is produced online (by the Recorder) and
// offline (by Analyze over a recorded stream), so analyzer stages are
// indifferent to where the data comes from.
type WindowView struct {
	Index uint64
	T     sim.Time

	DFwdBytes  []uint64 // per dir, bytes forwarded this window
	DFwdCells  []uint64 // per dir, cells forwarded this window
	DDrops     []uint64 // per dir, cells dropped this window
	QueueBytes []uint64 // per dir, queue occupancy at the scrape instant
	Up         []bool   // per dir, link administrative state

	DSinkCells []uint64 // per destination FA, cells delivered this window
	DSinkBytes []uint64 // per destination FA, bytes delivered this window

	Meta *Meta
}

// Meta is the topology context analyzers need to group directed-link
// series by device: which dirs are a given FA's uplinks, which dirs leave
// a given spine. Built once per stream, never per window.
type Meta struct {
	Dirs int
	FAs  int
	// FAUplinks[fa] lists the dir indices carrying traffic from fa into
	// tier 1 — the spray set whose balance Stardust's per-link spraying
	// is supposed to guarantee.
	FAUplinks [][]int
	// SpineDown[s] lists the dir indices leaving spine (FE2) s toward
	// tier 1. All of them down means the spine is a black hole.
	SpineDown [][]int
	// DirNames[d] is a human label like "FA3->FE1_1", for findings.
	DirNames []string
}

// MetaFor derives analyzer metadata from a Clos instance. scrape-period
// and counters are not needed: Meta is pure wiring.
func MetaFor(cl *topo.Clos) *Meta {
	m := &Meta{
		Dirs:      2 * len(cl.Links),
		FAs:       cl.NumFA,
		FAUplinks: make([][]int, cl.NumFA),
		SpineDown: make([][]int, cl.NumFE2),
		DirNames:  make([]string, 2*len(cl.Links)),
	}
	for i, lk := range cl.Links {
		m.DirNames[2*i] = fmt.Sprintf("%s->%s", lk.A, lk.B)
		m.DirNames[2*i+1] = fmt.Sprintf("%s->%s", lk.B, lk.A)
		if lk.A.Kind == topo.KindFA {
			fa := lk.A.Index
			m.FAUplinks[fa] = append(m.FAUplinks[fa], 2*i)
		}
		if lk.B.Kind == topo.KindFE2 {
			s := lk.B.Index
			m.SpineDown[s] = append(m.SpineDown[s], 2*i+1)
		}
	}
	return m
}

// MetaForGraph derives analyzer metadata from any topo.Graph. Uplink
// groups come from the edge devices' outbound directions; SpineDown
// groups the outbound directions of top-tier transit nodes (the spines
// of a Clos, the switches of a star-replaced graph; empty on a flat
// fabric, where there is no core to black-hole).
func MetaForGraph(g topo.Graph) *Meta {
	links := g.GraphLinks()
	m := &Meta{
		Dirs:      2 * len(links),
		FAs:       g.NumEdge(),
		FAUplinks: topo.EdgeUplinkDirs(g),
		DirNames:  make([]string, 2*len(links)),
	}
	topTier := g.NumTiers() - 1
	spineOf := map[int]int{} // node -> SpineDown index
	edge := topo.EdgeOfNode(g)
	for i := 0; i < g.NumNodes(); i++ {
		if edge[i] < 0 && g.Node(i).Tier == topTier {
			spineOf[i] = len(m.SpineDown)
			m.SpineDown = append(m.SpineDown, nil)
		}
	}
	for i, lk := range links {
		m.DirNames[2*i] = fmt.Sprintf("%s->%s", g.Node(lk.A).Name, g.Node(lk.B).Name)
		m.DirNames[2*i+1] = fmt.Sprintf("%s->%s", g.Node(lk.B).Name, g.Node(lk.A).Name)
		if s, ok := spineOf[lk.A]; ok {
			m.SpineDown[s] = append(m.SpineDown[s], 2*i)
		}
		if s, ok := spineOf[lk.B]; ok {
			m.SpineDown[s] = append(m.SpineDown[s], 2*i+1)
		}
	}
	return m
}

// MetaFromHeader rebuilds Meta from a stream header. A header carrying
// the canonical topology spec regenerates the exact wiring for any
// family — and fails loudly on a spec this build does not know, rather
// than silently assuming a Clos shaped by K (the bug that mislabeled
// every non-Clos stream). Older Clos-only streams carry K instead;
// headerless shapes degrade to device-less metadata (analyzers that
// need grouping see no groups).
func MetaFromHeader(hdr StreamHeader) (*Meta, error) {
	if hdr.Topo != "" {
		g, err := topo.ParseSpec(hdr.Topo)
		if err != nil {
			return nil, fmt.Errorf("telemetry: stream topology: %w", err)
		}
		var m *Meta
		if cl, ok := g.(*topo.Clos); ok {
			m = MetaFor(cl) // legacy Clos labels (FA3->FE11), matching online runs
		} else {
			m = MetaForGraph(g)
		}
		if m.Dirs != hdr.Dirs || m.FAs != hdr.FAs {
			return nil, fmt.Errorf("telemetry: header topo %q implies %d dirs/%d sinks, stream has %d/%d",
				hdr.Topo, m.Dirs, m.FAs, hdr.Dirs, hdr.FAs)
		}
		return m, nil
	}
	if hdr.K > 0 {
		cl, err := fabric.ClosFor(hdr.K)
		if err != nil {
			return nil, err
		}
		m := MetaFor(cl)
		if m.Dirs != hdr.Dirs || m.FAs != hdr.FAs {
			return nil, fmt.Errorf("telemetry: header K=%d implies %d dirs/%d FAs, stream has %d/%d",
				hdr.K, m.Dirs, m.FAs, hdr.Dirs, hdr.FAs)
		}
		return m, nil
	}
	return &Meta{Dirs: hdr.Dirs, FAs: hdr.FAs}, nil
}

// Finding is one analyzer observation. Seq is assigned when the finding
// enters a FindingLog; offline analysis leaves it zero.
type Finding struct {
	Seq      uint64   `json:"seq,omitempty"`
	Window   uint64   `json:"window"`
	T        sim.Time `json:"t_ps"`
	Stage    string   `json:"stage"`
	Severity string   `json:"severity"`
	Detail   string   `json:"detail"`
	Value    float64  `json:"value,omitempty"`
}

// Severity levels. Plain strings so findings serialize readably.
const (
	SevInfo     = "info"
	SevWarn     = "warn"
	SevCritical = "critical"
)

// Analyzer is one composable analytics stage. Window is called once per
// scrape window in stream order; Finish is called once at end of stream
// (or never, for an online run that is still going) for whole-run
// summaries. Implementations may keep state; they are driven from a
// single goroutine.
type Analyzer interface {
	Name() string
	Window(v *WindowView) []Finding
	Finish() []Finding
}

// Analyze runs analyzer stages over a recorded stream. meta may be nil,
// in which case it is derived from the stream header. Returns all
// findings in stream order (Finish findings last).
func Analyze(r io.Reader, meta *Meta, stages ...Analyzer) ([]Finding, error) {
	sr := NewReader(r)
	hdr, err := sr.Header()
	if err != nil {
		return nil, err
	}
	if meta == nil {
		if meta, err = MetaFromHeader(hdr); err != nil {
			return nil, err
		}
	}
	v := WindowView{
		DFwdBytes:  make([]uint64, hdr.Dirs),
		DFwdCells:  make([]uint64, hdr.Dirs),
		DDrops:     make([]uint64, hdr.Dirs),
		QueueBytes: make([]uint64, hdr.Dirs),
		Up:         make([]bool, hdr.Dirs),
		DSinkCells: make([]uint64, hdr.FAs),
		DSinkBytes: make([]uint64, hdr.FAs),
		Meta:       meta,
	}
	var out []Finding
	for {
		win, _, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return out, err
		}
		if win == nil {
			continue // event record; the up bitmap already carries link state
		}
		v.Index = win.Index
		v.T = win.T
		copy(v.DFwdBytes, win.DFwdBytes)
		copy(v.DFwdCells, win.DFwdCells)
		copy(v.DDrops, win.DDrops)
		for d := range win.Dirs {
			v.QueueBytes[d] = win.Dirs[d].QueueBytes
			v.Up[d] = win.Dirs[d].Up
		}
		copy(v.DSinkCells, win.DSinkCells)
		copy(v.DSinkBytes, win.DSinkBytes)
		for _, a := range stages {
			out = append(out, a.Window(&v)...)
		}
	}
	for _, a := range stages {
		out = append(out, a.Finish()...)
	}
	return out, nil
}

// FindingLog is a bounded, sequence-numbered finding ring safe for
// concurrent append (simulation side) and read (HTTP tailers). Old
// findings are evicted when the ring fills; Since reports from any
// sequence number so a tailer can detect its own gap.
type FindingLog struct {
	mu    sync.Mutex
	ring  []Finding
	next  uint64 // seq of the next finding appended
	first uint64 // seq of the oldest finding still in the ring
}

// NewFindingLog builds a log keeping the most recent cap findings.
func NewFindingLog(capacity int) *FindingLog {
	if capacity <= 0 {
		capacity = 256
	}
	return &FindingLog{ring: make([]Finding, 0, capacity)}
}

// Append stamps sequence numbers and stores the findings.
func (l *FindingLog) Append(fs ...Finding) {
	if len(fs) == 0 {
		return
	}
	l.mu.Lock()
	for _, f := range fs {
		f.Seq = l.next
		l.next++
		if len(l.ring) < cap(l.ring) {
			l.ring = append(l.ring, f)
		} else {
			l.ring[int(f.Seq)%cap(l.ring)] = f
			l.first = f.Seq + 1 - uint64(cap(l.ring))
		}
	}
	l.mu.Unlock()
}

// Total returns how many findings have ever been appended.
func (l *FindingLog) Total() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// Since returns up to max findings with seq >= from, in order, plus the
// sequence number the caller should resume from.
func (l *FindingLog) Since(from uint64, max int) (out []Finding, next uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from < l.first {
		from = l.first // tailer fell behind; it can see the gap via seq
	}
	for s := from; s < l.next && len(out) < max; s++ {
		out = append(out, l.ring[int(s)%cap(l.ring)])
	}
	return out, from + uint64(len(out))
}

// SprayImbalance flags windows where one FA's uplink spray diverges:
// (max-min)/mean of per-uplink cells this window above Threshold, over
// live uplinks only (a failed link legitimately carries nothing). It also
// tracks the worst ratio seen per FA for the end-of-stream summary.
type SprayImbalance struct {
	Threshold float64 // default 0.25
	MinCells  uint64  // ignore windows with less traffic than this per FA

	worst   []float64
	worstFA int
}

func (a *SprayImbalance) Name() string { return "spray-imbalance" }

func (a *SprayImbalance) Window(v *WindowView) []Finding {
	if v.Meta == nil || len(v.Meta.FAUplinks) == 0 {
		return nil
	}
	th := a.Threshold
	if th <= 0 {
		th = 0.25
	}
	minCells := a.MinCells
	if minCells == 0 {
		minCells = 16
	}
	if a.worst == nil {
		a.worst = make([]float64, len(v.Meta.FAUplinks))
		a.worstFA = -1
	}
	var out []Finding
	for fa, ups := range v.Meta.FAUplinks {
		var min, max, sum uint64
		live := 0
		min = ^uint64(0)
		for _, d := range ups {
			if !v.Up[d] {
				continue
			}
			c := v.DFwdCells[d]
			sum += c
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
			live++
		}
		if live < 2 || sum < minCells {
			continue
		}
		mean := float64(sum) / float64(live)
		ratio := float64(max-min) / mean
		if ratio > a.worst[fa] {
			a.worst[fa] = ratio
			if a.worstFA < 0 || ratio > a.worst[a.worstFA] {
				a.worstFA = fa
			}
		}
		if ratio > th {
			out = append(out, Finding{
				Window: v.Index, T: v.T, Stage: a.Name(), Severity: SevWarn,
				Detail: fmt.Sprintf("FA%d uplink spray imbalance %.3f over %d live links (max-min %d cells, mean %.1f)",
					fa, ratio, live, max-min, mean),
				Value: ratio,
			})
		}
	}
	return out
}

func (a *SprayImbalance) Finish() []Finding {
	if a.worstFA < 0 {
		return nil
	}
	return []Finding{{
		Stage: a.Name(), Severity: SevInfo,
		Detail: fmt.Sprintf("worst spray imbalance %.3f at FA%d", a.worst[a.worstFA], a.worstFA),
		Value:  a.worst[a.worstFA],
	}}
}

// CongestionOnset detects the transition into congestion per directed
// link: the first window where drops appear after a drop-free window, and
// occupancy ramps (queue strictly rising for RampWindows consecutive
// windows above MinQueueBytes).
type CongestionOnset struct {
	RampWindows   int    // default 3
	MinQueueBytes uint64 // default 4096

	prevDrops []uint64
	prevQueue []uint64
	rising    []int
	onsets    int
}

func (a *CongestionOnset) Name() string { return "congestion-onset" }

func (a *CongestionOnset) Window(v *WindowView) []Finding {
	ramp := a.RampWindows
	if ramp <= 0 {
		ramp = 3
	}
	floor := a.MinQueueBytes
	if floor == 0 {
		floor = 4096
	}
	n := len(v.DDrops)
	if a.prevDrops == nil {
		a.prevDrops = make([]uint64, n)
		a.prevQueue = make([]uint64, n)
		a.rising = make([]int, n)
	}
	var out []Finding
	for d := 0; d < n; d++ {
		if v.DDrops[d] > 0 && a.prevDrops[d] == 0 {
			a.onsets++
			out = append(out, Finding{
				Window: v.Index, T: v.T, Stage: a.Name(), Severity: SevCritical,
				Detail: fmt.Sprintf("%s started dropping: %d cells this window, queue %dB",
					dirLabel(v.Meta, d), v.DDrops[d], v.QueueBytes[d]),
				Value: float64(v.DDrops[d]),
			})
		}
		if v.QueueBytes[d] > a.prevQueue[d] && v.QueueBytes[d] >= floor {
			a.rising[d]++
			if a.rising[d] == ramp {
				out = append(out, Finding{
					Window: v.Index, T: v.T, Stage: a.Name(), Severity: SevWarn,
					Detail: fmt.Sprintf("%s occupancy rising %d windows, now %dB",
						dirLabel(v.Meta, d), ramp, v.QueueBytes[d]),
					Value: float64(v.QueueBytes[d]),
				})
			}
		} else {
			a.rising[d] = 0
		}
		a.prevDrops[d] = v.DDrops[d]
		a.prevQueue[d] = v.QueueBytes[d]
	}
	return out
}

func (a *CongestionOnset) Finish() []Finding {
	return []Finding{{
		Stage: a.Name(), Severity: SevInfo,
		Detail: fmt.Sprintf("%d congestion onsets over the stream", a.onsets),
		Value:  float64(a.onsets),
	}}
}

// ReachHoles reports windows during which a device is unreachable at the
// link layer: an FA with every uplink down (isolated edge) or a spine
// with every down-link down (dead spine). Findings mark the transitions
// in and out of the hole.
type ReachHoles struct {
	faHole    []bool
	spineHole []bool
	holes     int
}

func (a *ReachHoles) Name() string { return "reach-holes" }

func (a *ReachHoles) Window(v *WindowView) []Finding {
	if v.Meta == nil {
		return nil
	}
	if a.faHole == nil {
		a.faHole = make([]bool, len(v.Meta.FAUplinks))
		a.spineHole = make([]bool, len(v.Meta.SpineDown))
	}
	var out []Finding
	check := func(holes []bool, dirs [][]int, what string, i int) {
		if len(dirs[i]) == 0 {
			return
		}
		down := true
		for _, d := range dirs[i] {
			if v.Up[d] {
				down = false
				break
			}
		}
		switch {
		case down && !holes[i]:
			holes[i] = true
			a.holes++
			out = append(out, Finding{
				Window: v.Index, T: v.T, Stage: a.Name(), Severity: SevCritical,
				Detail: fmt.Sprintf("%s%d reachability hole opened: all %d links down", what, i, len(dirs[i])),
			})
		case !down && holes[i]:
			holes[i] = false
			out = append(out, Finding{
				Window: v.Index, T: v.T, Stage: a.Name(), Severity: SevInfo,
				Detail: fmt.Sprintf("%s%d reachability hole closed", what, i),
			})
		}
	}
	for fa := range v.Meta.FAUplinks {
		check(a.faHole, v.Meta.FAUplinks, "FA", fa)
	}
	for s := range v.Meta.SpineDown {
		check(a.spineHole, v.Meta.SpineDown, "FE2_", s)
	}
	return out
}

func (a *ReachHoles) Finish() []Finding {
	return []Finding{{
		Stage: a.Name(), Severity: SevInfo,
		Detail: fmt.Sprintf("%d reachability holes over the stream", a.holes),
		Value:  float64(a.holes),
	}}
}

// FAHeatmap accumulates a per-FA × window heat matrix of delivered bytes
// (the per-FA delivery series), downsampled to at most MaxCols columns.
// Finish summarizes the hottest and coldest destinations.
type FAHeatmap struct {
	MaxCols int // default 64

	rows    [][]uint64 // rows[fa][col]
	col     int
	perCol  int // windows folded into one column so far this column
	fold    int // windows per column (doubles when MaxCols is hit)
	windows int
}

func (a *FAHeatmap) Name() string { return "fa-heatmap" }

func (a *FAHeatmap) Window(v *WindowView) []Finding {
	if len(v.DSinkBytes) == 0 {
		return nil
	}
	maxCols := a.MaxCols
	if maxCols <= 0 {
		maxCols = 64
	}
	if a.rows == nil {
		a.rows = make([][]uint64, len(v.DSinkBytes))
		for i := range a.rows {
			a.rows[i] = make([]uint64, 0, maxCols)
		}
		a.fold = 1
	}
	// Start a new column when the previous one has absorbed `fold`
	// windows; halve resolution in place when the matrix is full.
	if a.perCol == 0 {
		if len(a.rows[0]) == maxCols {
			for fa := range a.rows {
				half := a.rows[fa][:0]
				for c := 0; c+1 < maxCols; c += 2 {
					half = append(half, a.rows[fa][c]+a.rows[fa][c+1])
				}
				a.rows[fa] = half
			}
			a.fold *= 2
			a.col = len(a.rows[0])
		}
		for fa := range a.rows {
			a.rows[fa] = append(a.rows[fa], 0)
		}
		a.col = len(a.rows[0]) - 1
	}
	for fa, b := range v.DSinkBytes {
		a.rows[fa][a.col] += b
	}
	a.perCol = (a.perCol + 1) % a.fold
	a.windows++
	return nil
}

func (a *FAHeatmap) Finish() []Finding {
	if a.windows == 0 {
		return nil
	}
	totals := make([]uint64, len(a.rows))
	var hot, cold int
	for fa, row := range a.rows {
		for _, v := range row {
			totals[fa] += v
		}
		if totals[fa] > totals[hot] {
			hot = fa
		}
		if totals[fa] < totals[cold] {
			cold = fa
		}
	}
	return []Finding{{
		Stage: a.Name(), Severity: SevInfo,
		Detail: fmt.Sprintf("heatmap over %d windows: hottest FA%d (%dB), coldest FA%d (%dB)",
			a.windows, hot, totals[hot], cold, totals[cold]),
		Value: float64(totals[hot]),
	}}
}

// Rows exposes the accumulated heat matrix (per FA, per column, bytes).
func (a *FAHeatmap) Rows() [][]uint64 { return a.rows }

// DefaultAnalyzers is the standard online pipeline.
func DefaultAnalyzers() []Analyzer {
	return []Analyzer{
		&SprayImbalance{},
		&CongestionOnset{},
		&ReachHoles{},
		&FAHeatmap{},
	}
}

func dirLabel(m *Meta, d int) string {
	if m != nil && d < len(m.DirNames) && m.DirNames[d] != "" {
		return m.DirNames[d]
	}
	return fmt.Sprintf("dir%d", d)
}

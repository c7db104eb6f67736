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

// Meta is the topology context analyzers need: the graph itself (what
// the route policy can reach over the live links) and, derived from it,
// which dirs are a given FA's uplinks. Built once per stream, never per
// window.
type Meta struct {
	Dirs int
	FAs  int
	// Graph is the recorded fabric's wiring; nil for a stream whose
	// header names no topology.
	Graph topo.Graph
	// FAUplinks[fa] lists the dir indices carrying traffic from fa into
	// tier 1 — the spray set whose balance Stardust's per-link spraying
	// is supposed to guarantee.
	FAUplinks [][]int
	// DirNames[d] is a human label like "FA3->FE1_1", for findings.
	DirNames []string
}

// edgeName names edge device fa as the graph does ("FA3" on a Clos) — the
// inventory ID the management plane keys anomalies on.
func (m *Meta) edgeName(fa int) string {
	if m.Graph == nil {
		return fmt.Sprintf("FA%d", fa)
	}
	return m.Graph.Node(m.Graph.EdgeNode(fa)).Name
}

// MetaFor derives analyzer metadata from a Clos instance. scrape-period
// and counters are not needed: Meta is pure wiring.
func MetaFor(cl *topo.Clos) *Meta {
	m := &Meta{
		Dirs:      2 * len(cl.Links),
		FAs:       cl.NumFA,
		Graph:     cl,
		FAUplinks: make([][]int, cl.NumFA),
		DirNames:  make([]string, 2*len(cl.Links)),
	}
	for i, lk := range cl.Links {
		m.DirNames[2*i] = fmt.Sprintf("%s->%s", lk.A, lk.B)
		m.DirNames[2*i+1] = fmt.Sprintf("%s->%s", lk.B, lk.A)
		if lk.A.Kind == topo.KindFA {
			fa := lk.A.Index
			m.FAUplinks[fa] = append(m.FAUplinks[fa], 2*i)
		}
	}
	return m
}

// MetaForGraph derives analyzer metadata from any topo.Graph. Uplink
// groups come from the edge devices' outbound directions.
func MetaForGraph(g topo.Graph) *Meta {
	links := g.GraphLinks()
	m := &Meta{
		Dirs:      2 * len(links),
		FAs:       g.NumEdge(),
		Graph:     g,
		FAUplinks: topo.EdgeUplinkDirs(g),
		DirNames:  make([]string, 2*len(links)),
	}
	for i, lk := range links {
		m.DirNames[2*i] = fmt.Sprintf("%s->%s", g.Node(lk.A).Name, g.Node(lk.B).Name)
		m.DirNames[2*i+1] = fmt.Sprintf("%s->%s", g.Node(lk.B).Name, g.Node(lk.A).Name)
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
// enters a FindingLog; offline analysis leaves it zero. Device names the
// one device a finding is about, empty when it is about the fabric.
type Finding struct {
	Seq      uint64   `json:"seq,omitempty"`
	Window   uint64   `json:"window"`
	T        sim.Time `json:"t_ps"`
	Stage    string   `json:"stage"`
	Severity string   `json:"severity"`
	Device   string   `json:"device,omitempty"`
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

// NewFindingLog builds a log keeping the most recent capacity findings.
func NewFindingLog(capacity int) *FindingLog {
	return &FindingLog{ring: make([]Finding, 0, capacity)}
}

// Append stamps sequence numbers on the findings and stores them.
func (l *FindingLog) Append(fs ...Finding) {
	if len(fs) == 0 {
		return
	}
	l.mu.Lock()
	for i := range fs {
		fs[i].Seq = l.next
		f := fs[i]
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

// The analyzers' thresholds. The management plane raises its anomalies
// from these findings, so one set of numbers judges a fabric online and
// its recorded stream offline.
const (
	// sprayThreshold is the (max-min)/mean per-uplink cell spread above
	// which an FA's spray is flagged (§5.3 promises near-perfect balance).
	sprayThreshold = 0.25
	// sprayMinCells is the per-FA window traffic below which balance is
	// not judged: idle or barely loaded FAs give meaningless ratios.
	sprayMinCells = 16
	// rampWindows consecutive rising windows above minQueueBytes make an
	// occupancy ramp.
	rampWindows   = 3
	minQueueBytes = 4096
	// maxCols bounds the heat matrix's columns.
	maxCols = 64
)

// SprayImbalance flags windows where one FA's uplink spray diverges:
// (max-min)/mean of per-uplink cells this window above sprayThreshold,
// over live uplinks only (a failed link legitimately carries nothing). It
// also tracks the worst ratio seen per FA for the end-of-stream summary.
type SprayImbalance struct {
	meta    *Meta // names the worst FA in the summary
	worst   []float64
	worstFA int
}

func (a *SprayImbalance) Name() string { return "spray-imbalance" }

func (a *SprayImbalance) Window(v *WindowView) []Finding {
	if v.Meta == nil || len(v.Meta.FAUplinks) == 0 {
		return nil
	}
	if a.worst == nil {
		a.meta = v.Meta
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
		if live < 2 || sum < sprayMinCells {
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
		if ratio > sprayThreshold {
			dev := v.Meta.edgeName(fa)
			out = append(out, Finding{
				Window: v.Index, T: v.T, Stage: a.Name(), Severity: SevWarn, Device: dev,
				Detail: fmt.Sprintf("%s uplink spray imbalance %.3f over %d live links (max-min %d cells, mean %.1f)",
					dev, ratio, live, max-min, mean),
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
		Detail: fmt.Sprintf("worst spray imbalance %.3f at %s", a.worst[a.worstFA], a.meta.edgeName(a.worstFA)),
		Value:  a.worst[a.worstFA],
	}}
}

// CongestionOnset detects the transition into congestion per directed
// link: the first window where drops appear after a drop-free window, and
// occupancy ramps (queue strictly rising for rampWindows consecutive
// windows above minQueueBytes).
type CongestionOnset struct {
	prevDrops []uint64
	prevQueue []uint64
	rising    []int
	onsets    int
}

func (a *CongestionOnset) Name() string { return "congestion-onset" }

func (a *CongestionOnset) Window(v *WindowView) []Finding {
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
		if v.QueueBytes[d] > a.prevQueue[d] && v.QueueBytes[d] >= minQueueBytes {
			a.rising[d]++
			if a.rising[d] == rampWindows {
				out = append(out, Finding{
					Window: v.Index, T: v.T, Stage: a.Name(), Severity: SevWarn,
					Detail: fmt.Sprintf("%s occupancy rising %d windows, now %dB",
						dirLabel(v.Meta, d), rampWindows, v.QueueBytes[d]),
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

// ReachHoles watches the §5.9 invariant over the window's live links:
// fabric.Holes counts what the route policy cannot route once it has
// converged over them, recomputed only in windows whose up bitmap
// changed. Its findings are the transitions of that count n: "opened"
// when n leaves zero (Value n), "closed" when it returns to zero.
type ReachHoles struct {
	up    []bool // per topology link, as of the last window
	n     int    // holes over up
	holes int    // openings over the stream
}

func (a *ReachHoles) Name() string { return "reach-holes" }

func (a *ReachHoles) Window(v *WindowView) []Finding {
	if v.Meta == nil || v.Meta.Graph == nil {
		return nil
	}
	changed := false
	if a.up == nil {
		a.up = make([]bool, len(v.Up)/2)
		changed = true
	}
	for lk := range a.up {
		if a.up[lk] != v.Up[2*lk] {
			a.up[lk] = v.Up[2*lk]
			changed = true
		}
	}
	if !changed {
		return nil
	}
	was := a.n
	a.n = fabric.Holes(v.Meta.Graph, a.up)
	switch {
	case a.n > 0 && was == 0:
		a.holes++
		return []Finding{{
			Window: v.Index, T: v.T, Stage: a.Name(), Severity: SevCritical,
			Detail: fmt.Sprintf("reachability hole opened: %d unreachable %s", a.n, fabric.HoleUnit(v.Meta.Graph)),
			Value:  float64(a.n),
		}}
	case a.n == 0 && was > 0:
		return []Finding{{
			Window: v.Index, T: v.T, Stage: a.Name(), Severity: SevInfo,
			Detail: "reachability hole closed",
		}}
	}
	return nil
}

func (a *ReachHoles) Finish() []Finding {
	return []Finding{{
		Stage: a.Name(), Severity: SevInfo,
		Detail: fmt.Sprintf("%d reachability holes over the stream", a.holes),
		Value:  float64(a.holes),
	}}
}

// FAHeatmap accumulates a per-FA × window heat matrix of delivered bytes
// (the per-FA delivery series), downsampled to at most maxCols columns.
// Finish summarizes the hottest and coldest destinations.
type FAHeatmap struct {
	rows    [][]uint64 // rows[fa][col]
	col     int
	perCol  int // windows folded into one column so far this column
	fold    int // windows per column (doubles when maxCols is hit)
	windows int
}

func (a *FAHeatmap) Name() string { return "fa-heatmap" }

func (a *FAHeatmap) Window(v *WindowView) []Finding {
	if len(v.DSinkBytes) == 0 {
		return nil
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

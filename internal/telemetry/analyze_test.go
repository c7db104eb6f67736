package telemetry

import (
	"bytes"
	"strings"
	"testing"

	"stardust/internal/fabric"
	"stardust/internal/sim"
	"stardust/internal/topo"
)

// synthStream builds a stream from a window script: each step mutates the
// running absolute snapshot (deltas are what analyzers see).
func synthStream(t *testing.T, dirs, fas int, steps []func(s *Snapshot)) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, StreamHeader{Dirs: dirs, FAs: fas, ScrapePs: 10 * sim.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	snap := Snapshot{Dirs: make([]DirSample, dirs), Sinks: make([]SinkSample, fas)}
	for d := range snap.Dirs {
		snap.Dirs[d].Up = true
	}
	for i, step := range steps {
		snap.T = sim.Time(i+1) * 10 * sim.Microsecond
		step(&snap)
		if err := w.WriteWindow(&snap); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// twoUplinkMeta: one FA with dirs 0,1 as uplinks, and no graph.
func twoUplinkMeta() *Meta {
	return &Meta{
		Dirs:      2,
		FAs:       1,
		FAUplinks: [][]int{{0, 1}},
		DirNames:  []string{"FA0->FE1_0", "FA0->FE1_1"},
	}
}

func bySeverity(fs []Finding, stage, sev string) []Finding {
	var out []Finding
	for _, f := range fs {
		if f.Stage == stage && f.Severity == sev {
			out = append(out, f)
		}
	}
	return out
}

func TestSprayImbalanceAnalyzer(t *testing.T) {
	stream := synthStream(t, 2, 1, []func(*Snapshot){
		// Balanced: 100 cells each way.
		func(s *Snapshot) { s.Dirs[0].FwdCells += 100; s.Dirs[1].FwdCells += 100 },
		// Skewed: 190 vs 10 — ratio (max-min)/mean = 1.8.
		func(s *Snapshot) { s.Dirs[0].FwdCells += 190; s.Dirs[1].FwdCells += 10 },
	})
	fs, err := Analyze(bytes.NewReader(stream), twoUplinkMeta(), &SprayImbalance{})
	if err != nil {
		t.Fatal(err)
	}
	warns := bySeverity(fs, "spray-imbalance", SevWarn)
	if len(warns) != 1 {
		t.Fatalf("want 1 imbalance warning, got %d: %v", len(warns), fs)
	}
	if warns[0].Window != 1 || warns[0].Value < 1.7 || warns[0].Value > 1.9 {
		t.Fatalf("warning at wrong window or ratio: %+v", warns[0])
	}
	finish := bySeverity(fs, "spray-imbalance", SevInfo)
	if len(finish) != 1 || !strings.Contains(finish[0].Detail, "FA0") {
		t.Fatalf("missing worst-FA summary: %v", finish)
	}

	// A down link carrying nothing is not imbalance: with dir 1 down only
	// one live uplink remains, which cannot be compared against itself.
	down := synthStream(t, 2, 1, []func(*Snapshot){
		func(s *Snapshot) { s.Dirs[1].Up = false; s.Dirs[0].FwdCells += 200 },
	})
	fs, err = Analyze(bytes.NewReader(down), twoUplinkMeta(), &SprayImbalance{})
	if err != nil {
		t.Fatal(err)
	}
	if len(bySeverity(fs, "spray-imbalance", SevWarn)) != 0 {
		t.Fatalf("failed link flagged as imbalance: %v", fs)
	}
}

func TestCongestionOnsetAnalyzer(t *testing.T) {
	stream := synthStream(t, 2, 0, []func(*Snapshot){
		func(s *Snapshot) { s.Dirs[0].QueueBytes = 5000 },
		func(s *Snapshot) { s.Dirs[0].QueueBytes = 6000 },
		// Third consecutive rise above the floor -> ramp warning; first
		// drops after a clean window -> onset critical.
		func(s *Snapshot) { s.Dirs[0].QueueBytes = 7000; s.Dirs[0].Drops += 4 },
		// Drops continue: no second onset.
		func(s *Snapshot) { s.Dirs[0].QueueBytes = 2000; s.Dirs[0].Drops += 9 },
	})
	fs, err := Analyze(bytes.NewReader(stream), nil, &CongestionOnset{})
	if err != nil {
		t.Fatal(err)
	}
	crits := bySeverity(fs, "congestion-onset", SevCritical)
	if len(crits) != 1 || crits[0].Window != 2 || crits[0].Value != 4 {
		t.Fatalf("want one onset at window 2 with 4 drops: %v", crits)
	}
	warns := bySeverity(fs, "congestion-onset", SevWarn)
	if len(warns) != 1 || warns[0].Window != 2 {
		t.Fatalf("want one ramp warning at window 2: %v", warns)
	}
	finish := bySeverity(fs, "congestion-onset", SevInfo)
	if len(finish) != 1 || finish[0].Value != 1 {
		t.Fatalf("onset count summary wrong: %v", finish)
	}
}

// TestReachHolesAnalyzer: on a real K=4 Clos, a hole is what the reach
// protocol cannot route once converged over the window's live links. An
// isolated FA and a dead spine are holes, and so are failures that leave
// every device with a live link but cut paths: links 0 (FA0–FE1_0) and
// 20 (FE1_1–FE2_0) leave FE2_0 no way down to FA0, links 16 and 20 cut
// FE2_0 off the four FAs under FE1_0 and FE1_1.
func TestReachHolesAnalyzer(t *testing.T) {
	cl, err := fabric.ClosFor(4)
	if err != nil {
		t.Fatal(err)
	}
	meta := MetaFor(cl)
	var fa0, spine0 []int
	for i, lk := range cl.Links {
		if lk.A == (topo.NodeID{Kind: topo.KindFA, Index: 0}) {
			fa0 = append(fa0, i)
		}
		if lk.B == (topo.NodeID{Kind: topo.KindFE2, Index: 0}) {
			spine0 = append(spine0, i)
		}
	}
	for _, tc := range []struct {
		name  string
		links []int
		n     float64
	}{
		{"isolated FA0", fa0, float64(cl.NumFE2 + 1)},
		{"dead spine FE2_0", spine0, float64(cl.NumFA)},
		{"links 0 and 20", []int{0, 20}, 1},
		{"links 16 and 20", []int{16, 20}, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			set := func(up bool) func(*Snapshot) {
				return func(s *Snapshot) {
					for _, lk := range tc.links {
						s.Dirs[2*lk].Up, s.Dirs[2*lk+1].Up = up, up
					}
				}
			}
			stream := synthStream(t, meta.Dirs, 0, []func(*Snapshot){
				func(s *Snapshot) {},
				set(false),
				func(s *Snapshot) {}, // still down: no repeated finding
				set(true),
			})
			fs, err := Analyze(bytes.NewReader(stream), meta, &ReachHoles{})
			if err != nil {
				t.Fatal(err)
			}
			opened := bySeverity(fs, "reach-holes", SevCritical)
			if len(opened) != 1 || opened[0].Window != 1 || opened[0].Value != tc.n {
				t.Fatalf("want one hole of %v opened at window 1, got %v", tc.n, opened)
			}
			var closed []Finding
			for _, f := range bySeverity(fs, "reach-holes", SevInfo) {
				if strings.Contains(f.Detail, "closed") {
					closed = append(closed, f)
				}
			}
			if len(closed) != 1 || closed[0].Window != 3 {
				t.Fatalf("want the hole closed at window 3, got %v", closed)
			}
		})
	}

	// Without a graph there is no route policy to ask: no findings but
	// the summary.
	stream := synthStream(t, 2, 1, []func(*Snapshot){
		func(s *Snapshot) { s.Dirs[0].Up, s.Dirs[1].Up = false, false },
	})
	fs, err := Analyze(bytes.NewReader(stream), twoUplinkMeta(), &ReachHoles{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 1 || fs[0].Value != 0 {
		t.Fatalf("graphless meta: %v", fs)
	}
}

func TestFAHeatmapFoldsColumns(t *testing.T) {
	var steps []func(*Snapshot)
	const windows = 3*maxCols + 5 // folds twice, the last column partial
	for i := 0; i < windows; i++ {
		steps = append(steps, func(s *Snapshot) {
			s.Sinks[0].Bytes += 100
			s.Sinks[1].Bytes += 300
		})
	}
	hm := &FAHeatmap{}
	stream := synthStream(t, 2, 2, steps)
	fs, err := Analyze(bytes.NewReader(stream), nil, hm)
	if err != nil {
		t.Fatal(err)
	}
	rows := hm.Rows()
	if len(rows) != 2 {
		t.Fatalf("want 2 FA rows, got %d", len(rows))
	}
	if len(rows[0]) > maxCols {
		t.Fatalf("heatmap exceeded %d columns: %d", maxCols, len(rows[0]))
	}
	// Folding must conserve the totals.
	var t0, t1 uint64
	for _, v := range rows[0] {
		t0 += v
	}
	for _, v := range rows[1] {
		t1 += v
	}
	if t0 != 100*windows || t1 != 300*windows {
		t.Fatalf("fold lost bytes: FA0=%d FA1=%d", t0, t1)
	}
	finish := bySeverity(fs, "fa-heatmap", SevInfo)
	if len(finish) != 1 || !strings.Contains(finish[0].Detail, "hottest FA1") {
		t.Fatalf("summary wrong: %v", finish)
	}
}

func TestFindingLogRingAndSince(t *testing.T) {
	l := NewFindingLog(4)
	for i := 0; i < 10; i++ {
		l.Append(Finding{Stage: "s", Window: uint64(i)})
	}
	if l.Total() != 10 {
		t.Fatalf("Total %d, want 10", l.Total())
	}
	// A tailer starting from 0 fell behind: it sees only the retained
	// tail, and the first seq exposes the gap.
	out, next := l.Since(0, 100)
	if len(out) != 4 || out[0].Seq != 6 || out[3].Seq != 9 || next != 10 {
		t.Fatalf("Since(0): %d findings, first seq %d, next %d", len(out), out[0].Seq, next)
	}
	// Resuming from next returns nothing until more findings land.
	out, next2 := l.Since(next, 100)
	if len(out) != 0 || next2 != 10 {
		t.Fatalf("Since(%d): %d findings, next %d", next, len(out), next2)
	}
	// max bounds a page.
	out, next3 := l.Since(6, 2)
	if len(out) != 2 || next3 != 8 {
		t.Fatalf("paged Since: %d findings, next %d", len(out), next3)
	}
}

func TestMetaFromHeader(t *testing.T) {
	// K regenerates the exact wiring.
	m, err := MetaFromHeader(StreamHeader{K: 4, Dirs: 64, FAs: 8})
	if err == nil {
		// Only valid if ClosFor(4) really has 32 links/8 FAs; if the dims
		// disagree the constructor must say so instead.
		if m.Dirs != 64 || m.FAs != 8 || len(m.FAUplinks) != 8 {
			t.Fatalf("meta from K=4 header wrong: %+v", m)
		}
	} else if !strings.Contains(err.Error(), "implies") {
		t.Fatal(err)
	}
	// Mismatched dims are rejected.
	if _, err := MetaFromHeader(StreamHeader{K: 4, Dirs: 2, FAs: 1}); err == nil {
		t.Fatal("dims mismatch accepted")
	}
	// Headerless shape degrades to device-less metadata.
	m, err = MetaFromHeader(StreamHeader{Dirs: 6, FAs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if m.Dirs != 6 || m.FAs != 3 || m.FAUplinks != nil {
		t.Fatalf("device-less meta wrong: %+v", m)
	}
}

func TestDirLabel(t *testing.T) {
	m := twoUplinkMeta()
	if got := dirLabel(m, 1); got != "FA0->FE1_1" {
		t.Fatalf("dirLabel named meta: %q", got)
	}
	if got := dirLabel(nil, 3); got != "dir3" {
		t.Fatalf("dirLabel nil meta: %q", got)
	}
	if got := dirLabel(&Meta{}, 0); got != "dir0" {
		t.Fatalf("dirLabel empty meta: %q", got)
	}
}

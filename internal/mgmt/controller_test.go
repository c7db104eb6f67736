package mgmt

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"stardust/internal/fabric"
	"stardust/internal/parsim"
	"stardust/internal/sim"
	"stardust/internal/telemetry"
	"stardust/internal/topo"
)

// newManagedFabric builds a K=4 fabric run under background load with
// the given scrape period and no chaos. Link state changes go through
// eng.At: they run in barrier context.
func newManagedFabric(t *testing.T, scrape sim.Time) (*parsim.Engine, *fabric.Net, *Controller) {
	t.Helper()
	fr, err := NewFabricRun(FabricRunConfig{K: 4, Load: 0.4, ScrapeEvery: scrape})
	if err != nil {
		t.Fatal(err)
	}
	return fr.Eng, fr.Fab, fr.Ctl
}

func TestControllerScrapesTelemetry(t *testing.T) {
	eng, fab, ctl := newManagedFabric(t, 100*sim.Microsecond)
	eng.Run(sim.Millisecond)
	st := ctl.Stats()
	if st.Scrapes < 9 {
		t.Fatalf("only %d scrapes in 1ms at 100us period", st.Scrapes)
	}
	if st.Injected == 0 || st.Delivered == 0 {
		t.Fatalf("stats did not pick up traffic: %+v", st)
	}
	if st.Links != fab.NumLinks() || st.LinksDown != 0 {
		t.Fatalf("link accounting wrong: %+v", st)
	}
	tel := ctl.Telemetry()
	if len(tel) != 2*fab.NumLinks() {
		t.Fatalf("telemetry rows %d, want %d", len(tel), 2*fab.NumLinks())
	}
	var busy int
	for _, row := range tel {
		if row.RateBps > 0 {
			busy++
		}
		if row.A == "" || row.B == "" {
			t.Fatalf("telemetry row lacks endpoints: %+v", row)
		}
	}
	if busy == 0 {
		t.Fatal("no link shows a positive rate under sustained load")
	}
	series, err := ctl.LinkSeries(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) < 2 {
		t.Fatalf("series too short: %d", len(series))
	}
	if _, err := ctl.LinkSeries(fab.NumLinks(), 0); err == nil {
		t.Fatal("out-of-range link accepted")
	}
}

func TestControllerEventsOnFailureAndRecovery(t *testing.T) {
	eng, fab, ctl := newManagedFabric(t, 100*sim.Microsecond)
	// Fail an FA-FE1 link mid-run, restore it later.
	victim := -1
	for i, lk := range fab.Topo.(*topo.Clos).Links {
		if lk.A.Kind == topo.KindFA {
			victim = i
			break
		}
	}
	eng.At(200*sim.Microsecond, func() { fab.FailLink(victim) })
	eng.At(600*sim.Microsecond, func() { fab.RestoreLink(victim) })
	eng.Run(sim.Millisecond)

	evs := ctl.Bus().Since(0, 0)
	var kinds []string
	for _, e := range evs {
		kinds = append(kinds, string(e.Kind))
	}
	seq := strings.Join(kinds, ",")
	if !strings.Contains(seq, string(EventLinkDown)) {
		t.Fatalf("no link-down event: %s", seq)
	}
	if !strings.Contains(seq, string(EventLinkUp)) {
		t.Fatalf("no link-up event: %s", seq)
	}
	if !strings.Contains(seq, string(EventReachUpdate)) {
		t.Fatalf("no reachability update after an FA-link failure: %s", seq)
	}
	// The withdrawal lands ReachDelay after the failure, before recovery.
	var downAt, reachAt, upAt sim.Time = -1, -1, -1
	for _, e := range evs {
		switch e.Kind {
		case EventLinkDown:
			if downAt < 0 {
				downAt = e.Time
			}
		case EventReachUpdate:
			if reachAt < 0 {
				reachAt = e.Time
			}
		case EventLinkUp:
			if upAt < 0 {
				upAt = e.Time
			}
		}
	}
	if wantReach := downAt + fab.Cfg.ReachDelay; reachAt != wantReach {
		t.Fatalf("withdrawal at %v, want failure (%v) + ReachDelay (%v)", reachAt, downAt, fab.Cfg.ReachDelay)
	}
	if !(downAt < reachAt && reachAt < upAt) {
		t.Fatalf("event order broken: down=%v reach=%v up=%v", downAt, reachAt, upAt)
	}
	st := ctl.Stats()
	if st.LinkFailures != 1 || st.LinkRecovers != 1 || st.LinksDown != 0 {
		t.Fatalf("failure counters wrong: %+v", st)
	}
}

func TestControllerReachabilityHoleAnomaly(t *testing.T) {
	// Isolate FA0 — every uplink down, a hole the §5.9 self-healing
	// cannot repair — or fail links 0 (FA0–FE1_0) and 20 (FE1_1–FE2_0):
	// every device keeps a live link, yet spine FE2_0 has no way down to
	// FA0.
	cl, err := fabric.ClosFor(4)
	if err != nil {
		t.Fatal(err)
	}
	var fa0 []int
	for i, lk := range cl.Links {
		if lk.A.Kind == topo.KindFA && lk.A.Index == 0 {
			fa0 = append(fa0, i)
		}
	}
	for _, tc := range []struct {
		name   string
		links  []int
		detail string
	}{
		{"isolated FA0", fa0, fmt.Sprintf("%d unreachable", cl.NumFE2+1)},
		{"links 0 and 20", []int{0, 20}, "1 unreachable"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fr, err := NewFabricRun(FabricRunConfig{K: 4, Load: 0.4, ScrapeEvery: 100 * sim.Microsecond, Telem: true})
			if err != nil {
				t.Fatal(err)
			}
			eng, fab, ctl := fr.Eng, fr.Fab, fr.Ctl
			set := func(at sim.Time, up bool) {
				eng.At(at, func() {
					for _, lk := range tc.links {
						if up {
							fab.RestoreLink(lk)
						} else {
							fab.FailLink(lk)
						}
					}
				})
			}
			set(200*sim.Microsecond, false)
			eng.Run(sim.Millisecond)
			var holes []Anomaly
			for _, a := range ctl.Anomalies() {
				if a.Kind == AnomalyReachHole {
					holes = append(holes, a)
				}
			}
			if len(holes) != 1 || !strings.Contains(holes[0].Detail, tc.detail) {
				t.Fatalf("want one reachability hole with %q: %v", tc.detail, ctl.Anomalies())
			}
			// The raise must also be on the bus.
			sawRaise := false
			for _, e := range ctl.Bus().Since(0, 0) {
				if e.Kind == EventAnomaly && strings.Contains(e.Detail, AnomalyReachHole) {
					sawRaise = true
				}
			}
			if !sawRaise {
				t.Fatal("anomaly raise not published to the bus")
			}

			// Healing the links clears the anomaly (and publishes the clear).
			set(eng.Now(), true)
			eng.Run(2 * sim.Millisecond)
			for _, a := range ctl.Anomalies() {
				if a.Kind == AnomalyReachHole {
					t.Fatalf("reachability-hole anomaly survived healing: %+v", a)
				}
			}
			sawClear := false
			for _, e := range ctl.Bus().Since(0, 0) {
				if e.Kind == EventAnomalyCleared && e.Detail == AnomalyReachHole {
					sawClear = true
				}
			}
			if !sawClear {
				t.Fatal("anomaly clear not published")
			}

			// The analyzers find the same over the recorded stream offline.
			online, _ := fr.Findings.Since(0, 1<<20)
			offline, err := telemetry.Analyze(bytes.NewReader(fr.TelemBuf.Bytes()), nil, telemetry.DefaultAnalyzers()...)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := reachHoleFindings(offline), reachHoleFindings(online); fmt.Sprint(got) != fmt.Sprint(want) || len(want) != 2 {
				t.Fatalf("offline reach holes %v, online %v", got, want)
			}
		})
	}
}

// reachHoleFindings keeps the per-window reach-hole findings, unstamped.
func reachHoleFindings(fs []telemetry.Finding) []telemetry.Finding {
	var out []telemetry.Finding
	for _, f := range fs {
		if f.Stage == "reach-holes" && f.T > 0 {
			f.Seq = 0
			out = append(out, f)
		}
	}
	return out
}

// TestAnomaliesAreFindings is the chaos run behind the one-detector
// design: K=4 at load 0.3, a link failed every 2 ms and healed after
// 5 ms, 1 ms windows, 300 ms. Every anomaly raised on the bus is a finding
// of the same window in the analyzers' log — one reachability-hole raise
// per "opened" finding, one spray-imbalance raise per device whose
// previous window was clean — and the recorded stream analyzed offline
// opens the same holes.
func TestAnomaliesAreFindings(t *testing.T) {
	fr, err := NewFabricRun(FabricRunConfig{
		K: 4, Load: 0.3, Seed: 1,
		FailEvery: 2 * sim.Millisecond, HealAfter: 5 * sim.Millisecond,
		ScrapeEvery: sim.Millisecond, Telem: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var online []telemetry.Finding
	var cursor uint64
	for i := 0; i < 300; i++ {
		fr.Advance(sim.Millisecond)
		var fs []telemetry.Finding
		fs, cursor = fr.Findings.Since(cursor, 1<<20)
		online = append(online, fs...)
	}
	if uint64(len(online)) != fr.Findings.Total() {
		t.Fatalf("collected %d findings of %d", len(online), fr.Findings.Total())
	}

	type key struct {
		t      sim.Time
		kind   string
		device string
	}
	raisedBy := map[key]bool{}
	opened := 0
	for _, f := range online {
		switch {
		case f.Stage == "spray-imbalance":
			raisedBy[key{f.T, AnomalySprayImbalance, f.Device}] = true
		case f.Stage == "reach-holes" && f.Value > 0:
			raisedBy[key{f.T, AnomalyReachHole, f.Device}] = true
			opened++
		}
	}
	holeRaises := 0
	for _, e := range fr.Ctl.Bus().Since(0, 0) {
		if e.Kind != EventAnomaly {
			continue
		}
		kind, _, _ := strings.Cut(e.Detail, ": ")
		if !raisedBy[key{e.Time, kind, e.Device}] {
			t.Errorf("anomaly raised at %v without a finding of its window: %+v", e.Time, e)
		}
		if kind == AnomalyReachHole {
			holeRaises++
		}
	}
	if opened == 0 || holeRaises != opened {
		t.Fatalf("%d reachability-hole raises on the bus, %d opened findings", holeRaises, opened)
	}
	t.Logf("%d findings, %d holes opened and raised", len(online), opened)

	offline, err := telemetry.Analyze(bytes.NewReader(fr.TelemBuf.Bytes()), nil, telemetry.DefaultAnalyzers()...)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reachHoleFindings(offline), reachHoleFindings(online); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("offline reach holes\n%v\nonline\n%v", got, want)
	}
}

// A spray imbalance is active while its device's latest window carries
// a SprayImbalance finding: windows with the finding raise it once, the
// next without clears it (a healthy spreader cannot be coaxed into
// imbalance from outside, so the finding is fed in white-box).
func TestSprayImbalanceDetector(t *testing.T) {
	_, fab, ctl := newManagedFabric(t, 100*sim.Microsecond)
	snap := &telemetry.Snapshot{Dirs: make([]telemetry.DirSample, 2*fab.NumLinks())}
	window := func(at sim.Time, found ...telemetry.Finding) {
		snap.T = at
		for i := range found {
			found[i].T = at
		}
		ctl.observe(snap, found)
	}
	skew := telemetry.Finding{Stage: "spray-imbalance", Device: "FA0", Detail: "FA0 uplink spray imbalance 1.800"}
	window(100*sim.Microsecond, skew)
	window(200*sim.Microsecond, skew)
	anoms := ctl.Anomalies()
	if len(anoms) != 1 || anoms[0].Kind != AnomalySprayImbalance || anoms[0].Device != "FA0" || anoms[0].Since != 100*sim.Microsecond {
		t.Fatalf("skewed windows did not raise one spray imbalance at FA0 since the first: %v", anoms)
	}

	window(300 * sim.Microsecond) // a clean window
	if anoms := ctl.Anomalies(); len(anoms) != 0 {
		t.Fatalf("clean window did not clear the anomaly: %v", anoms)
	}
	var kinds []EventKind
	for _, e := range ctl.Bus().Since(0, 0) {
		if e.Device == "FA0" {
			kinds = append(kinds, e.Kind)
		}
	}
	if fmt.Sprint(kinds) != fmt.Sprint([]EventKind{EventAnomaly, EventAnomalyCleared}) {
		t.Fatalf("FA0 events %v, want one raise and one clear", kinds)
	}
}

// A healthy balanced fabric must not raise spray-imbalance findings under
// its normal load — the detector's false-positive guard.
func TestNoSprayImbalanceOnHealthyFabric(t *testing.T) {
	eng, _, ctl := newManagedFabric(t, 100*sim.Microsecond)
	eng.Run(2 * sim.Millisecond)
	for _, a := range ctl.Anomalies() {
		if a.Kind == AnomalySprayImbalance {
			t.Fatalf("healthy fabric flagged: %+v", a)
		}
	}
}

func TestFabricRunAdvanceAndChaos(t *testing.T) {
	fr, err := NewFabricRun(FabricRunConfig{
		K: 4, Load: 0.2, FailEvery: 2 * sim.Millisecond, HealAfter: sim.Millisecond,
		ScrapeEvery: 500 * sim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		fr.Advance(sim.Millisecond)
	}
	st := fr.Ctl.Stats()
	if st.Injected == 0 || st.Delivered == 0 {
		t.Fatalf("fabric run carried no traffic: %+v", st)
	}
	if st.LinkFailures == 0 || st.LinkRecovers == 0 {
		t.Fatalf("chaos schedule idle after 10ms: %+v", st)
	}
	if fr.Eng.Now() != 10*sim.Millisecond {
		t.Fatalf("sim at %v after ten 1ms steps", fr.Eng.Now())
	}
}

package mgmt

import (
	"strings"
	"testing"

	"stardust/internal/fabric"
	"stardust/internal/netsim"
	"stardust/internal/sim"
	"stardust/internal/topo"
)

// newManagedFabric builds a K=4 fabric with an attached controller and a
// steady background load.
func newManagedFabric(t *testing.T, cfg Config) (*sim.Simulator, *fabric.Net, *Controller) {
	t.Helper()
	cl, err := fabric.ClosFor(4)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New()
	fab, err := fabric.New(s, fabric.DefaultConfig(10e9, sim.Microsecond, 1), cl)
	if err != nil {
		t.Fatal(err)
	}
	ctl := Attach(fab, cfg)
	// Sustained permutation load: every FA sends a 512B cell every 2us.
	for fa := 0; fa < cl.NumFA; fa++ {
		fa := fa
		var inject func()
		inject = func() {
			c := netsim.NewPacket()
			c.Size = 512
			fab.Inject(c, fa, (fa+1)%cl.NumFA)
			s.After(2*sim.Microsecond, inject)
		}
		s.At(0, inject)
	}
	return s, fab, ctl
}

func TestControllerScrapesTelemetry(t *testing.T) {
	s, fab, ctl := newManagedFabric(t, Config{ScrapeEvery: 100 * sim.Microsecond})
	s.RunUntil(sim.Millisecond)
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
	s, fab, ctl := newManagedFabric(t, Config{ScrapeEvery: 100 * sim.Microsecond})
	// Fail an FA-FE1 link mid-run, restore it later.
	victim := -1
	for i, lk := range fab.Topo.(*topo.Clos).Links {
		if lk.A.Kind == topo.KindFA {
			victim = i
			break
		}
	}
	s.At(200*sim.Microsecond, func() { fab.FailLink(victim) })
	s.At(600*sim.Microsecond, func() { fab.RestoreLink(victim) })
	s.RunUntil(sim.Millisecond)

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
	s, fab, ctl := newManagedFabric(t, Config{ScrapeEvery: 100 * sim.Microsecond})
	// Isolate FA0: every uplink down -> a reachability hole the §5.9
	// self-healing cannot repair.
	for i, lk := range fab.Topo.(*topo.Clos).Links {
		if lk.A.Kind == topo.KindFA && lk.A.Index == 0 {
			s.At(200*sim.Microsecond, func() { fab.FailLink(i) })
		}
	}
	s.RunUntil(sim.Millisecond)
	anoms := ctl.Anomalies()
	found := false
	for _, a := range anoms {
		if a.Kind == AnomalyReachHole {
			found = true
		}
	}
	if !found {
		t.Fatalf("isolated FA did not raise a reachability-hole anomaly: %v", anoms)
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
	for i, lk := range fab.Topo.(*topo.Clos).Links {
		if lk.A.Kind == topo.KindFA && lk.A.Index == 0 {
			fab.RestoreLink(i)
		}
	}
	s.RunUntil(2 * sim.Millisecond)
	for _, a := range ctl.Anomalies() {
		if a.Kind == AnomalyReachHole {
			t.Fatalf("reachability-hole anomaly survived healing: %+v", a)
		}
	}
	sawClear := false
	for _, e := range ctl.Bus().Since(0, 0) {
		if e.Kind == EventAnomalyCleared {
			sawClear = true
		}
	}
	if !sawClear {
		t.Fatal("anomaly clear not published")
	}
}

// The spray-imbalance detector works on per-interval deltas: feed one
// FA's uplink series a synthetic skew and check the finding (a healthy
// spreader cannot be coaxed into imbalance from outside, so the detector
// is tested white-box).
func TestSprayImbalanceDetector(t *testing.T) {
	_, fab, ctl := newManagedFabric(t, Config{
		ScrapeEvery: 100 * sim.Microsecond, SprayThreshold: 0.25, MinSprayBytes: 1000,
	})
	_ = fab
	ups := ctl.faUplinks[0]
	if len(ups) < 2 {
		t.Fatal("FA0 has fewer than 2 uplinks")
	}
	// Interval deltas: uplink 0 carries 10000B, the rest 100B.
	for i, li := range ups {
		var d uint64 = 100
		if i == 0 {
			d = 10000
		}
		ctl.series[li].Push(Sample{T: 0, FwdBytes: 0, Up: true})
		ctl.series[li].Push(Sample{T: 100 * sim.Microsecond, FwdBytes: d, Up: true})
	}
	ctl.detect(100 * sim.Microsecond)
	anoms := ctl.Anomalies()
	var hit *Anomaly
	for i, a := range anoms {
		if a.Kind == AnomalySprayImbalance && a.Device == "FA0" {
			hit = &anoms[i]
		}
	}
	if hit == nil {
		t.Fatalf("skewed uplinks did not raise spray-imbalance: %v", anoms)
	}

	// Balanced deltas below threshold clear it again.
	for _, li := range ups {
		last, _ := ctl.series[li].Last()
		ctl.series[li].Push(Sample{T: last.T + 100*sim.Microsecond, FwdBytes: last.FwdBytes + 5000, Up: true})
	}
	ctl.detect(200 * sim.Microsecond)
	for _, a := range ctl.Anomalies() {
		if a.Kind == AnomalySprayImbalance {
			t.Fatalf("balanced interval did not clear the finding: %+v", a)
		}
	}
}

// A healthy balanced fabric must not raise spray-imbalance findings under
// its normal load — the detector's false-positive guard.
func TestNoSprayImbalanceOnHealthyFabric(t *testing.T) {
	s, _, ctl := newManagedFabric(t, Config{ScrapeEvery: 100 * sim.Microsecond})
	s.RunUntil(2 * sim.Millisecond)
	for _, a := range ctl.Anomalies() {
		if a.Kind == AnomalySprayImbalance {
			t.Fatalf("healthy fabric flagged: %+v", a)
		}
	}
}

func TestFabricRunAdvanceAndChaos(t *testing.T) {
	fr, err := NewFabricRun(FabricRunConfig{
		K: 4, Load: 0.2, FailEvery: 2 * sim.Millisecond, HealAfter: sim.Millisecond,
		Controller: Config{ScrapeEvery: 500 * sim.Microsecond},
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
	if fr.Sim.Now() != 10*sim.Millisecond {
		t.Fatalf("sim at %v after ten 1ms steps", fr.Sim.Now())
	}
}

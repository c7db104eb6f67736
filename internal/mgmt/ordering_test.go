package mgmt

import (
	"math/rand"
	"testing"

	"stardust/internal/sim"
	"stardust/internal/topo"
)

// Multi-link concurrent failure/recovery: interleave failures and
// recoveries across many links — including overlaps inside the
// withdrawal-propagation window — and assert the management event bus
// observes one consistent sequence: strictly increasing seq, causally
// ordered times, a withdrawal exactly ReachDelay after every FA-link
// state change, and link accounting that matches the final fabric state.
func TestConcurrentFailureRecoveryEventOrdering(t *testing.T) {
	s, fab, ctl := newManagedFabric(t, Config{ScrapeEvery: 200 * sim.Microsecond})
	rng := rand.New(rand.NewSource(23))

	// Schedule 12 random failures, each healing after a random delay that
	// straddles ReachDelay (some recoveries land before the withdrawal of
	// their own failure, some after).
	type change struct {
		at   sim.Time
		link int
		up   bool
	}
	var want []change
	used := make(map[int]bool)
	for i := 0; i < 12; i++ {
		link := rng.Intn(fab.NumLinks())
		if used[link] {
			continue
		}
		used[link] = true
		at := sim.Time(rng.Intn(300)) * sim.Microsecond
		heal := at + sim.Time(10+rng.Intn(100))*sim.Microsecond
		want = append(want, change{at, link, false}, change{heal, link, true})
		lk := link
		s.At(at, func() { fab.FailLink(lk) })
		s.At(heal, func() { fab.RestoreLink(lk) })
	}
	s.RunUntil(2 * sim.Millisecond)

	evs := ctl.Bus().Since(0, 0)
	if len(evs) == 0 {
		t.Fatal("no events observed")
	}
	var lastSeq uint64
	var lastTime sim.Time = -1
	downs, ups, reach := 0, 0, 0
	state := make(map[int]bool) // link -> down, per the event stream
	for _, e := range evs {
		if e.Seq <= lastSeq {
			t.Fatalf("seq not strictly increasing: %d after %d", e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		if e.Time < lastTime {
			t.Fatalf("event time went backwards: %v after %v (seq %d)", e.Time, lastTime, e.Seq)
		}
		lastTime = e.Time
		switch e.Kind {
		case EventLinkDown:
			if state[e.Link] {
				t.Fatalf("link %d failed twice without recovery (seq %d)", e.Link, e.Seq)
			}
			state[e.Link] = true
			downs++
		case EventLinkUp:
			if !state[e.Link] {
				t.Fatalf("link %d recovered while up (seq %d)", e.Link, e.Seq)
			}
			state[e.Link] = false
			ups++
		case EventReachUpdate:
			reach++
		}
	}
	if downs != len(want)/2 || ups != len(want)/2 {
		t.Fatalf("saw %d downs / %d ups, want %d each", downs, ups, len(want)/2)
	}
	for link, down := range state {
		if down {
			t.Fatalf("event stream leaves link %d down after all heals", link)
		}
	}

	// Every FA-link state change propagates one withdrawal, exactly
	// ReachDelay later; FE1-FE2 changes update the spine directly.
	faChanges := 0
	pending := make(map[sim.Time]int) // due time -> count
	for _, e := range evs {
		switch e.Kind {
		case EventLinkDown, EventLinkUp:
			if fab.Topo.(*topo.Clos).Links[e.Link].A.Kind == topo.KindFA {
				faChanges++
				pending[e.Time+fab.Cfg.ReachDelay]++
			}
		case EventReachUpdate:
			if pending[e.Time] == 0 {
				t.Fatalf("reach update at %v matches no scheduled withdrawal", e.Time)
			}
			pending[e.Time]--
		}
	}
	if reach != faChanges {
		t.Fatalf("saw %d reach updates for %d FA-link changes", reach, faChanges)
	}

	// The controller's accounting agrees with the stream and the fabric.
	st := ctl.Stats()
	if st.LinkFailures != uint64(downs) || st.LinkRecovers != uint64(ups) {
		t.Fatalf("stats disagree with stream: %+v", st)
	}
	if st.LinksDown != 0 {
		t.Fatalf("LinksDown=%d after all heals", st.LinksDown)
	}
	if st.Unreachable != 0 {
		t.Fatalf("reachability holes after healing: %d", st.Unreachable)
	}
}

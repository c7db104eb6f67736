package sim

import (
	"reflect"
	"testing"
)

// Completed must decide a same-instant tie by lane alone: an explicit-lane
// observer runs before the completion, a default-lane observer after it —
// whenever either was scheduled.
func TestPassedInsideEvents(t *testing.T) {
	s := New()
	const dep = 50 * Nanosecond
	got := map[string]bool{}
	observe := func(name string) ActionFunc {
		return func(uint64) { got[name] = s.Completed(dep) }
	}
	s.AtAction(dep, observe("default, scheduled earlier"), 0)
	s.At(20*Nanosecond, func() {
		s.AtAction(dep, observe("default, scheduled later"), 0)
		s.AtLane(dep, 3, observe("lane"), 0)
		s.AtLane(dep, CompletionLane, observe("another completion"), 0)
		s.AtAction(dep-1, observe("before"), 0)
		s.AtLane(dep+1, 3, observe("lane, after"), 0)
	})
	s.Run()
	want := map[string]bool{
		"before":                     false,
		"lane":                       false,
		"another completion":         false,
		"default, scheduled earlier": true,
		"default, scheduled later":   true,
		"lane, after":                true,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Completed: got %v, want %v", got, want)
	}
}

// Between runs Completed answers from what the last run call executed.
func TestPassedBetweenRuns(t *testing.T) {
	const dep = 50 * Nanosecond
	cases := []struct {
		name string
		run  func(s *Simulator)
		want bool
	}{
		{"RunBefore(dep) leaves the instant unexecuted", func(s *Simulator) { s.RunBefore(dep) }, false},
		{"RunBefore past it", func(s *Simulator) { s.RunBefore(dep + 1) }, true},
		{"RunUntil(dep) is inclusive", func(s *Simulator) { s.RunUntil(dep) }, true},
		{"RunUntil short of it", func(s *Simulator) { s.RunUntil(dep - 1) }, false},
		{"SkipTo(dep) is a window boundary", func(s *Simulator) { s.RunBefore(20 * Nanosecond); s.SkipTo(dep) }, false},
		{"an exhausted Run ends on the instant", func(s *Simulator) {
			s.AtLane(dep, 2, ActionFunc(func(uint64) {}), 0)
			s.Run()
		}, true},
		{"a stopped Run stays at the stopping event", func(s *Simulator) {
			s.AtLane(dep, 2, ActionFunc(func(uint64) { s.Stop() }), 0)
			s.At(dep, func() {})
			s.Run()
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New()
			s.At(10*Nanosecond, func() {})
			tc.run(s)
			if got := s.Completed(dep); got != tc.want {
				t.Fatalf("Completed = %v, want %v (now %d)", got, tc.want, s.Now())
			}
		})
	}
	if New().Completed(0) {
		t.Fatal("a fresh Simulator has executed nothing at time zero")
	}
}

// Elide counts the completion, AtCompletion takes the count back, the real
// event counts itself: Processed and the group meter see every completion
// exactly once whether or not it became an event; Dispatched sees only
// what ran; Pending only what is enqueued.
func TestElidedAccounting(t *testing.T) {
	s := New()
	s.EnsureGroups(4)
	s.SetGroup(2)
	s.At(10, func() {
		s.Elide()
		s.Elide()
	})
	s.RunBefore(20)
	if s.Processed != 3 || s.Dispatched() != 1 || s.GroupProcessed(2) != 3 || s.Pending() != 0 {
		t.Fatalf("after eliding: processed %d dispatched %d group %d pending %d, want 3/1/3/0",
			s.Processed, s.Dispatched(), s.GroupProcessed(2), s.Pending())
	}
	ran := false
	s.AtCompletion(30, ActionFunc(func(uint64) {
		ran = true
		if s.Group() != 2 {
			t.Errorf("completion event runs in group %d, want the eliding event's 2", s.Group())
		}
	}), 0)
	if s.Processed != 2 || s.Dispatched() != 1 || s.GroupProcessed(2) != 2 || s.Pending() != 1 {
		t.Fatalf("after AtCompletion: processed %d dispatched %d group %d pending %d, want 2/1/2/1",
			s.Processed, s.Dispatched(), s.GroupProcessed(2), s.Pending())
	}
	s.Run()
	if !ran || s.Processed != 3 || s.Dispatched() != 2 || s.GroupProcessed(2) != 3 {
		t.Fatalf("at the end: ran %v processed %d dispatched %d group %d, want true/3/2/3",
			ran, s.Processed, s.Dispatched(), s.GroupProcessed(2))
	}
}

// A completion event is an ordinary event of its group: it runs between
// the explicit-lane and the default-lane events of its instant, and
// ExtractGroup / InjectOrdered replay it in the same place on another
// Simulator.
func TestCompletionEventMigrates(t *testing.T) {
	const at = 50 * Nanosecond
	src, dst := New(), New()
	var got []string
	rec := func(name string) ActionFunc { return func(uint64) { got = append(got, name) } }
	src.SetGroup(1)
	src.At(10*Nanosecond, func() {
		src.AtAction(at, rec("a"), 0)
		src.Elide()
		src.AtCompletion(at, rec("completion"), 0)
		src.AtAction(at, rec("b"), 0)
		src.AtLane(at, 4, rec("lane"), 0)
		src.AtAction(at+Microsecond, rec("later"), 0)
	})
	src.SetGroup(0)
	src.At(at, func() { got = append(got, "stays") })
	src.RunBefore(20 * Nanosecond)
	evs := src.ExtractGroup(1)
	if len(evs) != 5 || src.Pending() != 1 {
		t.Fatalf("extracted %d events, %d left; want 5 and 1", len(evs), src.Pending())
	}
	dst.SkipTo(20 * Nanosecond)
	dst.InjectOrdered(evs)
	src.Run()
	dst.Run()
	if want := []string{"stays", "lane", "completion", "a", "b", "later"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}
}

// The horizon is the ladder's: a delivery started within it lands in a
// bucket even after a serialization and a propagation more.
func TestElideHorizonInsideLadder(t *testing.T) {
	if got, want := ElideHorizon, Time(ladderBuckets/2)<<bucketShift; got != want {
		t.Fatalf("ElideHorizon = %d, want half the ladder, %d", got, want)
	}
	s := New()
	s.AtLane(ElideHorizon+4*Microsecond, 1, ActionFunc(func(uint64) {}), 0)
	if s.overflow.len() != 0 {
		t.Fatal("an event 4 µs past the horizon went to the overflow heap")
	}
}

package sim

import (
	"reflect"
	"testing"
)

// reserveAt runs an event at time t that reserves a slot, and returns it:
// the slot a default-lane event scheduled from that event would get.
func reserveAt(s *Simulator, t Time) *Slot {
	var slot Slot
	s.At(t, func() { slot = s.Reserve() })
	return &slot
}

// Passed must decide a same-instant tie the way the event store would:
// an explicit-lane observer runs before the reserved default-lane event, a
// default-lane observer before or after it by scheduling order.
func TestPassedInsideEvents(t *testing.T) {
	s := New()
	const dep = 50 * Nanosecond
	got := map[string]bool{}
	var slot *Slot
	observe := func(name string) ActionFunc {
		return func(uint64) { got[name] = s.Passed(dep, *slot) }
	}
	// Scheduled before the reservation is made: smaller sequence number.
	s.AtAction(dep, observe("default, scheduled earlier"), 0)
	slot = reserveAt(s, 10*Nanosecond)
	s.At(20*Nanosecond, func() {
		// Scheduled after it: larger sequence number.
		s.AtAction(dep, observe("default, scheduled later"), 0)
		s.AtLane(dep, 3, observe("lane"), 0)
		s.AtAction(dep-1, observe("before"), 0)
		s.AtLane(dep+1, 3, observe("lane, after"), 0)
	})
	s.Run()
	want := map[string]bool{
		"before":                     false,
		"lane":                       false,
		"default, scheduled earlier": false,
		"default, scheduled later":   true,
		"lane, after":                true,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Passed: got %v, want %v", got, want)
	}
}

// Between runs Passed compares against what the last run call executed.
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
			slot := reserveAt(s, 10*Nanosecond)
			tc.run(s)
			if got := s.Passed(dep, *slot); got != tc.want {
				t.Fatalf("Passed = %v, want %v (now %d)", got, tc.want, s.Now())
			}
		})
	}
	if New().Passed(0, Slot{}) {
		t.Fatal("a fresh Simulator has executed nothing at time zero")
	}
}

// AtSlot at t == Now() must land behind the running event and in
// reserved-sequence order among the instant's other default-lane events —
// through the young heap, since the instant's bucket is already draining.
func TestAtSlotSameInstant(t *testing.T) {
	s := New()
	const at = 500 * Nanosecond // not in the first event's bucket
	var got []string
	rec := func(name string) ActionFunc { return func(uint64) { got = append(got, name) } }
	var slot Slot
	s.At(10*Nanosecond, func() {
		s.AtAction(at, rec("a"), 0)
		slot = s.Reserve()
		s.AtAction(at, rec("b"), 0)
	})
	// The materialising event runs at `at` on a lane, i.e. before a and b.
	s.AtLane(at, 1, ActionFunc(func(uint64) {
		got = append(got, "lane")
		if s.Passed(at, slot) {
			t.Error("slot passed before the instant's default-lane events ran")
		}
		s.AtSlot(at, slot, rec("slot"), 0)
		if s.young.len() != 1 {
			t.Errorf("materialised slot not in the young heap (%d there)", s.young.len())
		}
	}), 0)
	s.Run()
	if want := []string{"lane", "a", "slot", "b"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}
}

// Reserve counts the event, AtSlot takes the count back, the real event
// counts itself: Processed and the group meter see every reserved event
// exactly once whether or not it was materialised; Dispatched sees only
// what ran; Pending only what is enqueued.
func TestSlotAccounting(t *testing.T) {
	s := New()
	s.EnsureGroups(4)
	var kept, used Slot
	s.SetGroup(2)
	s.At(10, func() {
		kept = s.Reserve()
		used = s.Reserve()
	})
	s.RunBefore(20)
	if s.Processed != 3 || s.Dispatched() != 1 || s.GroupProcessed(2) != 3 || s.Pending() != 0 {
		t.Fatalf("after reserving: processed %d dispatched %d group %d pending %d, want 3/1/3/0",
			s.Processed, s.Dispatched(), s.GroupProcessed(2), s.Pending())
	}
	ran := false
	s.AtSlot(30, used, ActionFunc(func(uint64) {
		ran = true
		if s.Group() != 2 {
			t.Errorf("materialised event runs in group %d, want the reserving event's 2", s.Group())
		}
	}), 0)
	if s.Processed != 2 || s.Dispatched() != 1 || s.GroupProcessed(2) != 2 || s.Pending() != 1 {
		t.Fatalf("after AtSlot: processed %d dispatched %d group %d pending %d, want 2/1/2/1",
			s.Processed, s.Dispatched(), s.GroupProcessed(2), s.Pending())
	}
	s.Run()
	if !ran || s.Processed != 3 || s.Dispatched() != 2 || s.GroupProcessed(2) != 3 {
		t.Fatalf("at the end: ran %v processed %d dispatched %d group %d, want true/3/2/3",
			ran, s.Processed, s.Dispatched(), s.GroupProcessed(2))
	}
	if !s.Passed(30, kept) {
		t.Fatal("the slot that stayed reserved has not passed")
	}
}

// A materialised slot is an ordinary event of its group: ExtractGroup
// lifts it out in (time, lane, seq) order and InjectOrdered replays it in
// the same place on another Simulator.
func TestMaterialisedSlotMigrates(t *testing.T) {
	const at = 50 * Nanosecond
	src, dst := New(), New()
	var got []string
	rec := func(name string) ActionFunc { return func(uint64) { got = append(got, name) } }
	var slot Slot
	src.SetGroup(1)
	src.At(10*Nanosecond, func() {
		src.AtAction(at, rec("a"), 0)
		slot = src.Reserve()
		src.AtAction(at, rec("b"), 0)
		src.AtLane(at, 4, rec("lane"), 0)
		src.AtAction(at+Microsecond, rec("later"), 0)
	})
	src.SetGroup(0)
	src.At(at, func() { got = append(got, "stays") })
	src.RunBefore(20 * Nanosecond)
	// Barrier: materialise, then move group 1.
	src.AtSlot(at, slot, rec("slot"), 0)
	evs := src.ExtractGroup(1)
	if len(evs) != 5 || src.Pending() != 1 {
		t.Fatalf("extracted %d events, %d left; want 5 and 1", len(evs), src.Pending())
	}
	dst.SkipTo(20 * Nanosecond)
	dst.InjectOrdered(evs)
	src.Run()
	dst.Run()
	if want := []string{"stays", "lane", "a", "slot", "b", "later"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}
}

package sim

import "testing"

// A held delivery keeps the simulator pending through every barrier at or
// before its instant and not past it, counts as processed at Hold and is
// never dispatched.
func TestHeldDeliveryKeepsPending(t *testing.T) {
	const at = 50 * Nanosecond
	s := New()
	s.At(10*Nanosecond, func() { s.Hold(at, 3) })
	for _, step := range []struct {
		end     Time
		pending int
	}{
		{20 * Nanosecond, 1},
		{at, 1}, // now == at: the delivery's window has not run
		{at + 1, 0},
	} {
		s.RunBefore(step.end)
		if got := s.Pending(); got != step.pending {
			t.Fatalf("barrier at %d, delivery held at %d: Pending %d, want %d", step.end, at, got, step.pending)
		}
	}
	if s.Processed != 2 || s.Dispatched() != 1 {
		t.Fatalf("processed %d dispatched %d, want 2/1", s.Processed, s.Dispatched())
	}
}

// Between runs a held delivery is due exactly when an event on its key
// would have run, and an exhausted Run ends on its instant as on the
// event's.
func TestHeldDeliveryBetweenRuns(t *testing.T) {
	const at = 50 * Nanosecond
	cases := []struct {
		name    string
		run     func(s *Simulator)
		pending int
		now     Time
	}{
		{"RunUntil short of it", func(s *Simulator) { s.RunUntil(at - 1) }, 1, at - 1},
		{"RunUntil(at) is inclusive", func(s *Simulator) { s.RunUntil(at) }, 0, at},
		{"an exhausted Run ends on the held instant", func(s *Simulator) { s.Run() }, 0, at},
		{"a later event ends the Run", func(s *Simulator) { s.At(2*at, func() {}); s.Run() }, 0, 2 * at},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New()
			s.At(10*Nanosecond, func() { s.Hold(at, 3) })
			tc.run(s)
			if s.Pending() != tc.pending || s.Now() != tc.now {
				t.Fatalf("Pending %d at %d, want %d at %d", s.Pending(), s.Now(), tc.pending, tc.now)
			}
		})
	}
	if New().Pending() != 0 {
		t.Fatal("a fresh Simulator holds nothing")
	}
}

// Inside an event Due orders a held key against the running one by lane,
// whenever either was scheduled.
func TestDueInsideEvents(t *testing.T) {
	s := New()
	const at = 50 * Nanosecond
	got := map[string]bool{}
	observe := func(name string) ActionFunc {
		return func(uint64) { got[name] = s.Due(at, 3) }
	}
	s.AtLane(at, 2, observe("lane below"), 0)
	s.AtLane(at, 4, observe("lane above"), 0)
	s.AtAction(at, observe("default lane"), 0)
	s.AtLane(at-1, 9, observe("before"), 0)
	s.Run()
	want := map[string]bool{"lane below": false, "lane above": true, "default lane": true, "before": false}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("Due(%d, 3) from %s: %v, want %v", at, k, got[k], v)
		}
	}
}

// arrival is an Arrival that takes effect on the spot or not.
type arrival struct {
	counted bool
	ran     *int
}

func (a arrival) Act(uint64)                      { *a.ran++ }
func (a arrival) Arrive(Time, int32, uint64) bool { return a.counted }

// AtArrival holds an Arrival that takes effect and schedules anything
// else, an Arrival that declines included.
func TestAtArrival(t *testing.T) {
	s := New()
	ran := 0
	s.AtArrival(40, 2, arrival{counted: true, ran: &ran}, 0)
	s.AtArrival(40, 3, arrival{counted: false, ran: &ran}, 0)
	s.AtArrival(40, 4, ActionFunc(func(uint64) { ran++ }), 0)
	if s.Pending() != 3 {
		t.Fatalf("Pending %d after three arrivals, want 3 (one held)", s.Pending())
	}
	s.Run()
	if ran != 2 || s.Processed != 3 || s.Dispatched() != 2 || s.Pending() != 0 {
		t.Fatalf("ran %d processed %d dispatched %d pending %d, want 2/3/2/0",
			ran, s.Processed, s.Dispatched(), s.Pending())
	}
}

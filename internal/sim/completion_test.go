package sim

import (
	"reflect"
	"testing"
	"unsafe"
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
// event counts itself: Processed sees every completion exactly once whether
// or not it became an event; Dispatched sees only what ran; Pending only
// what is enqueued.
func TestElidedAccounting(t *testing.T) {
	s := New()
	s.At(10, func() {
		s.Elide()
		s.Elide()
	})
	s.RunBefore(20)
	if s.Processed != 3 || s.Dispatched() != 1 || s.Pending() != 0 {
		t.Fatalf("after eliding: processed %d dispatched %d pending %d, want 3/1/0",
			s.Processed, s.Dispatched(), s.Pending())
	}
	ran := false
	s.AtCompletion(30, ActionFunc(func(uint64) { ran = true }), 0)
	if s.Processed != 2 || s.Dispatched() != 1 || s.Pending() != 1 {
		t.Fatalf("after AtCompletion: processed %d dispatched %d pending %d, want 2/1/1",
			s.Processed, s.Dispatched(), s.Pending())
	}
	s.Run()
	if !ran || s.Processed != 3 || s.Dispatched() != 2 {
		t.Fatalf("at the end: ran %v processed %d dispatched %d, want true/3/2",
			ran, s.Processed, s.Dispatched())
	}
}

// The sizes the package comment quotes: the bucket sort streams one-word
// keys whose fields fill the word, and a body is one Action and an
// argument.
func TestEventLayout(t *testing.T) {
	var b bucket
	if got := unsafe.Sizeof(b.keys[0]); got != 8 {
		t.Errorf("a bucket key is %d bytes, want 8", got)
	}
	if offsetBits+laneBits+indexBits != 64 || offsetBits != bucketShift {
		t.Errorf("key fields %d+%d+%d bits: want a 64-bit word and a bucket's %d-bit offset",
			offsetBits, laneBits, indexBits, bucketShift)
	}
	if DefaultLane != laneMask {
		t.Errorf("DefaultLane %d is not the largest lane a key holds, %d", DefaultLane, laneMask)
	}
	if got := unsafe.Sizeof(eventBody{}); got != 24 {
		t.Errorf("eventBody is %d bytes, want 24", got)
	}
}

// A closure is stored as an Action without an allocation of its own: At,
// After and AtLaneFunc cost what the closure costs, nothing more.
func TestClosureSchedulingAllocatesNothing(t *testing.T) {
	s := New()
	fn := func() {}
	s.At(0, fn)
	s.Run() // warm the bucket pool
	if n := testing.AllocsPerRun(100, func() {
		s.At(s.Now()+Nanosecond, fn)
		s.After(2*Nanosecond, fn)
		s.AtLaneFunc(s.Now()+3*Nanosecond, 1, fn)
		s.Run()
	}); n != 0 {
		t.Fatalf("%v allocs per three closure schedules, want 0", n)
	}
}

// A Simulator fills whole cache lines, so two shards' simulators, allocated
// one after the other, never share one (see CacheLine): a new field goes
// into the padding, not past it.
func TestSimulatorLayout(t *testing.T) {
	if got := unsafe.Sizeof(Simulator{}); got%CacheLine != 0 {
		t.Errorf("Simulator is %d bytes: not whole %d-byte cache lines", got, CacheLine)
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

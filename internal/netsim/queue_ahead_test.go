package netsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"stardust/internal/sim"
)

// The model of admission ahead of the clock (Queue.ReceiveAt), after
// TestQueueLazyMatchesEager: one seeded arrival schedule drives a wire-mode
// queue twice, once with every arrival admitted by its own default-lane
// event, once by a source that admits in one pass every arrival due before
// the end of its window, each as of its own instant — as a
// fabric.Injector's train does. A pass ends before a hand-over event
// pending on the queue, and the queue is read at window boundaries only,
// where both runs have admitted the same arrivals. Everything either run
// lets anybody see must be equal: the far end's arrivals and marks, the
// drops, every counter at every boundary and at the end, and Processed;
// Dispatched falls by exactly the arrival events the passes absorbed.

// aheadArrival is one packet of a schedule.
type aheadArrival struct {
	at   sim.Time
	size int
}

// aheadRec is one line of a run's log: a far-end arrival, or a reading
// of the queue.
type aheadRec struct {
	At          sim.Time
	ID          int64
	CE          bool
	Bytes, Peak int
	Fwd, FwdB   uint64
	Drops, Mark uint64
}

// aheadRig is the queue, its far end and the source.
type aheadRig struct {
	sm     *sim.Simulator
	q      *Queue
	route  []Handler
	arr    []aheadArrival
	next   int      // the first arrival not admitted yet
	window sim.Time // 0: one arrival per event
	far    []aheadRec
	reads  []aheadRec
	drops  []int64 // in admission order: a drop happens as the pass admits
	events uint64  // source events dispatched
	cut    uint64  // passes a pending hand-over event ended
}

func newAheadRig(depth lazyDepth, arr []aheadArrival, window sim.Time) *aheadRig {
	r := &aheadRig{sm: sim.New(), arr: arr, window: window}
	r.q = NewQueue(r.sm, "q", lazyRate, depth.max, depth.ecn)
	r.q.OnDrop = func(p *Packet) {
		r.drops = append(r.drops, p.Seq)
	}
	r.q.Wire = &LanePipe{Sched: r.sm, Delay: lazyDelay, Lane: lazyWireLane}
	r.route = []Handler{HandlerFunc(func(p *Packet) {
		r.far = append(r.far, aheadRec{At: r.sm.Now(), ID: p.Seq, CE: p.CE})
	})}
	return r
}

// Act implements sim.Action: admit the arrival due at the clock, then,
// ahead of it, those due before the window's end and before a pending
// hand-over event, each counted as the event it would have been; then
// reschedule at the next.
func (r *aheadRig) Act(uint64) {
	r.events++
	end := r.sm.Now()
	if r.window > 0 {
		end = (r.sm.Now()/r.window + 1) * r.window
	}
	for first := true; r.next < len(r.arr); first = false {
		a := r.arr[r.next]
		if !first {
			if a.at >= end {
				break
			}
			if at, ok := r.q.HandOver(); ok && at <= a.at {
				r.cut++
				break
			}
			r.sm.Elide()
		}
		p := NewPacket()
		p.Size, p.Seq = a.size, int64(r.next)
		p.SetRoute(r.route)
		r.q.ReceiveAt(p, a.at)
		r.next++
	}
	if r.next < len(r.arr) {
		r.sm.AtAction(r.arr[r.next].at, r, 0)
	}
}

// observe logs every counter.
func (r *aheadRig) observe() {
	q := r.q
	r.reads = append(r.reads, aheadRec{At: r.sm.Now(), Bytes: q.Bytes(), Peak: q.PeakBytes,
		Fwd: q.Forwarded(), FwdB: q.FwdBytes(), Drops: q.Drops, Mark: q.Marks})
}

// run plays the schedule, reading the queue at every boundary of the
// windows every apart, and once more when everything has drained.
func (r *aheadRig) run(every sim.Time) {
	r.sm.AtAction(r.arr[0].at, r, 0)
	for end := every; r.sm.Pending() > 0; end += every {
		r.sm.RunBefore(end)
		r.observe()
	}
	r.observe()
}

// aheadSchedule draws n arrivals on the grid: gaps of 0 to 5 grid units,
// sizes of 64 to 512 bytes, and now and then a burst of up to 40 at one
// instant, which backs a deep queue up past sim.ElideHorizon.
func aheadSchedule(rng *rand.Rand, n int) []aheadArrival {
	var arr []aheadArrival
	at := lazyGrid
	for len(arr) < n {
		at += sim.Time(rng.Intn(6)) * lazyGrid
		size := (rng.Intn(8) + 1) * 64
		burst := 1
		if rng.Intn(16) == 0 {
			burst = 8 + rng.Intn(33)
		}
		for range burst {
			arr = append(arr, aheadArrival{at, size})
		}
	}
	return arr
}

// TestQueueAheadMatchesEvents is the property test: 300 schedules, each on
// a shallow queue (tail drops and marks) and a deep one (hand-over
// events), with windows of 3, 16 and 48 grid units.
func TestQueueAheadMatchesEvents(t *testing.T) {
	var absorbed, cut uint64
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		arr := aheadSchedule(rng, 20+rng.Intn(200))
		window := []sim.Time{3, 16, 48}[seed%3] * lazyGrid
		for _, depth := range []lazyDepth{lazyShallow, lazyDeep} {
			t.Run(fmt.Sprintf("seed=%d/depth=%d", seed, depth.max), func(t *testing.T) {
				events, ahead := newAheadRig(depth, arr, 0), newAheadRig(depth, arr, window)
				events.run(window)
				ahead.run(window)
				for _, log := range []struct {
					what      string
					got, want []aheadRec
				}{{"far end", ahead.far, events.far}, {"reading", ahead.reads, events.reads}} {
					if i := firstDiff(log.got, log.want); i >= 0 {
						t.Fatalf("%s %d: ahead %+v, by events %+v", log.what, i, at(log.got, i), at(log.want, i))
					}
				}
				if !reflect.DeepEqual(ahead.drops, events.drops) {
					t.Fatalf("drops %v ahead, %v by events", ahead.drops, events.drops)
				}
				if ahead.sm.Processed != events.sm.Processed {
					t.Errorf("processed %d ahead, %d by events", ahead.sm.Processed, events.sm.Processed)
				}
				saved := events.sm.Dispatched() - ahead.sm.Dispatched()
				if want := events.events - ahead.events; saved != want || events.events != uint64(len(arr)) {
					t.Errorf("dispatched %d ahead, %d by events: %d saved, want the %d arrival events the passes absorbed",
						ahead.sm.Dispatched(), events.sm.Dispatched(), saved, want)
				}
				absorbed += saved
				cut += ahead.cut
			})
		}
	}
	if absorbed == 0 || cut == 0 {
		t.Fatalf("%d arrival events absorbed, %d passes ended by a hand-over event: a half of the path went untested", absorbed, cut)
	}
}

// firstDiff returns the first index where a and b differ, -1 if nowhere.
func firstDiff(a, b []aheadRec) int {
	for i := range max(len(a), len(b)) {
		if i >= len(a) || i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return -1
}

// at returns log line i, or nothing past the end.
func at(log []aheadRec, i int) any {
	if i < len(log) {
		return log[i]
	}
	return "nothing"
}

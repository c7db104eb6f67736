package parsim

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"stardust/internal/sim"
)

// Everything a shard's goroutine writes inside a window, and every word
// caller and workers meet in, fills whole cache lines: a field added later
// must not silently put two goroutines' state back on one line. (A Go
// allocation of k lines starts on a line boundary: every size class from
// 64 bytes up that a multiple of 64 rounds to is one itself.)
func TestShardLayout(t *testing.T) {
	for name, size := range map[string]uintptr{
		"Shard":   unsafe.Sizeof(Shard{}),
		"outbox":  unsafe.Sizeof(outbox{}),
		"parker":  unsafe.Sizeof(parker{}),
		"workers": unsafe.Sizeof(workers{}),
	} {
		if size%sim.CacheLine != 0 {
			t.Errorf("%s is %d bytes: not whole %d-byte cache lines", name, size, sim.CacheLine)
		}
	}
	var s Shard
	if off := unsafe.Offsetof(s.sent); off%sim.CacheLine != 0 {
		t.Errorf("Shard.sent at offset %d: what a window writes shares a line with what other shards read", off)
	}
	var w workers
	for name, off := range map[string]uintptr{
		"left":   unsafe.Offsetof(w.left),
		"caller": unsafe.Offsetof(w.caller),
	} {
		if off%sim.CacheLine != 0 {
			t.Errorf("workers.%s at offset %d, want a line of its own", name, off)
		}
	}
}

// drive runs the ring until nothing is left of it, through every door of
// the executor in turn: Run over several windows, single StepOwned
// windows, RunUntilQuiet with a bound.
func (r *ring) drive() {
	eng, owned := r.eng, allOwned(r.eng.Shards())
	look := eng.Lookahead()
	for i := 0; !eng.Quiet(); i++ {
		switch i % 3 {
		case 0:
			eng.Run(eng.Now() + 199*look)
		case 1:
			for j := 0; j < 5; j++ {
				eng.StepOwned(owned, nil)
			}
		default:
			eng.RunUntilQuiet(eng.Now() + 97*look)
		}
	}
}

// The hand-off under everything that can go wrong with it: windows of a
// single event (the barrier is all there is), more shards than processors
// and fewer, a spin that never polls and one that does, shards that stall
// past it on the caller's side and on a worker's, the mode flipping every
// epoch, calls of every kind ending and starting pools in between. Every
// run must end — a lost wake-up hangs it — with the digests of one inline
// shard. Over a million shard-windows change goroutines in all.
func TestHandOffStress(t *testing.T) {
	// One token, and every node forwards it hops times: nodes*hops windows.
	const nodes, tokens = 12, 1
	hops := 2000
	if raceEnabled || testing.Short() {
		hops /= 16
	}
	stall := time.Millisecond // an order of magnitude past the spin ...
	if raceEnabled {
		stall *= 20 // ... whose polls the detector slows down as much
	}
	ref := newRing(1, nodes, hops+20, tokens)
	ref.eng.force = forceInline
	ref.drive()
	want := ref.result()

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var handed, parked uint64
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, shards := range []int{2, 3, 4} {
			for _, spin := range []int{0, spinBudget} {
				for _, force := range []execForce{forceFanOut, forceAlternate} {
					name := fmt.Sprintf("procs=%d shards=%d spin=%d force=%d", procs, shards, spin, force)
					r := newRing(shards, nodes, hops+20, tokens)
					r.eng.force, r.eng.spin = force, spin
					if force == forceAlternate && spin > 0 {
						// The first node is on the caller's shard, the last on
						// a worker's.
						for _, n := range []*ringNode{r.nodes[0], r.nodes[nodes-1]} {
							n.stall, n.stallEvery = stall, hops/2
						}
					}
					r.drive()
					got := r.result()
					if !reflect.DeepEqual(got.digests, want.digests) || got.events != want.events {
						t.Errorf("%s: digests %x (%d events), one inline shard %x (%d)",
							name, got.digests, got.events, want.digests, want.events)
					}
					if !r.eng.Quiet() || r.eng.Pending() != 0 {
						t.Errorf("%s: %d pending after the drain", name, r.eng.Pending())
					}
					// Parked counts the waits that polled first, which takes
					// a processor per shard.
					polls := spin > 0 && shards <= r.eng.processors()
					if !polls && got.stats.Parked > 0 {
						t.Errorf("%s: no wait polled and %d outlasted it: %+v", name, got.stats.Parked, got.stats)
					}
					if polls && force == forceAlternate && got.stats.Parked == 0 {
						t.Errorf("%s: shards stalled for %v and nothing parked: %+v", name, stall, got.stats)
					}
					var last uint64
					for _, n := range got.stats.Stragglers {
						last += n
					}
					if last != got.stats.Fanned {
						t.Errorf("%s: %d fanned windows, %v finished last", name, got.stats.Fanned, got.stats.Stragglers)
					}
					handed += got.stats.Fanned * uint64(shards-1)
					parked += got.stats.Parked
				}
			}
		}
	}
	if !raceEnabled && !testing.Short() && handed < 1e6 {
		t.Errorf("%d hand-offs, want a million", handed)
	}
	t.Logf("%d hand-offs, %d parked", handed, parked)
}

// pingPong bounces between two shards, one message per window.
type pingPong struct {
	port [2]sim.LaneScheduler // from shard i to the other
	look sim.Time
	at   int // shard it is on
	hits int
}

func (p *pingPong) Act(arg uint64) {
	p.hits++
	to := p.port[p.at]
	p.at = 1 - p.at
	to.AtLane(to.Now()+p.look, 0, p, arg)
}

// What a fanned call allocates is the call's — its pool, its workers —
// and not the windows': once the double-buffered outboxes have grown to
// the traffic, a call of 200 windows allocates what a call of one does.
func TestHandOffAllocatesPerCallNotPerWindow(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are meaningless")
	}
	eng := New(Config{Shards: 2, Lookahead: sim.Microsecond})
	eng.force = forceFanOut
	pp := &pingPong{port: [2]sim.LaneScheduler{eng.Shard(0).To(1), eng.Shard(1).To(0)}, look: eng.Lookahead()}
	eng.Shard(0).Sim().AtLane(0, 0, pp, 0)
	at := sim.Time(0)
	run := func(windows int) func() {
		return func() { at += sim.Time(windows) * sim.Microsecond; eng.Run(at) }
	}
	run(64)() // warm the outboxes, both parities, and the heaps
	one, many := testing.AllocsPerRun(50, run(1)), testing.AllocsPerRun(50, run(200))
	if many > one+2 { // a worker's goroutine may or may not find a recycled descriptor
		t.Errorf("a fanned Run of 200 windows allocates %v times, one of a single window %v", many, one)
	}
	if st := eng.Stats(); st.Fanned != st.Windows || uint64(pp.hits) != st.Windows || st.Mail != st.Windows {
		t.Errorf("%d hits, %+v: want one hand-off and one message per window", pp.hits, st)
	}
}

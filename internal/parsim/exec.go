package parsim

import (
	"runtime"
	"sync/atomic"
	"time"

	"stardust/internal/sim"
)

// The executor's constants; the package comment's Execution section gives
// the measurements behind them.
const (
	epochWindows = 32      // windows per timed epoch
	switchMargin = 0.10    // a probe must be this much cheaper to take over
	minHold      = 4       // incumbent epochs before the first probe and after a switch
	maxHold      = 256     // cap of the doubling back-off
	smoothing    = 0.25    // weight of the latest epoch in the incumbent's cost
	starvedHold  = 32      // least hold after a probe found fan-out parking, not polling
	spinBudget   = 1 << 16 // polls before a hand-off parks (Engine.spin)
)

// execForce pins the execution mode; tests only. It overrides both the
// governor and the race-build rule, and a forced engine reads no clock.
type execForce uint8

const (
	forceNone      execForce = iota
	forceInline              // the caller runs every shard
	forceFanOut              // every multi-shard window is handed off
	forceAlternate           // flip every epochWindows windows
)

// governor chooses, one epoch at a time, between running a window's
// shards inline on the calling goroutine and fanning them out to workers.
// It holds a few words and no clock: the Engine feeds it spans.
type governor struct {
	fan      bool    // mode of the epoch in progress
	moved    bool    // that epoch is the first in its mode: it pays for the move and is no sample
	probing  bool    // that epoch is a probe of the mode that is not the incumbent
	hold     int     // incumbent epochs between probes
	held     int     // incumbent epochs since the last probe
	cost     float64 // the incumbent's epochs, smoothed, ns per unit ...
	last     float64 // ... and its latest
	probes   uint64
	switches uint64
	parked   uint64 // Engine.parked when the epoch in progress began

	// The epoch in progress. It may span several Run or StepOwned calls:
	// time between the calls' spans is not counted.
	windows int
	nanos   time.Duration
	events  uint64
	t0      time.Time // open span
	p0      uint64
}

// startGovernor is the governor of a fresh engine: inline, and about to
// run the one epoch that pays for everything cold.
func startGovernor() governor { return governor{hold: minHold, moved: true} }

// open starts a span at time t with `processed` events executed so far.
func (g *governor) open(t time.Time, processed uint64) { g.t0, g.p0 = t, processed }

// close ends the open span. Once the epoch holds its epochWindows windows
// it becomes one sample; a shorter one is carried into the next span.
func (g *governor) close(t time.Time, processed uint64) {
	g.nanos += t.Sub(g.t0)
	g.events += processed - g.p0
	if g.windows < epochWindows {
		return
	}
	g.sample(float64(g.nanos) / float64(g.events+uint64(g.windows)))
	g.windows, g.nanos, g.events = 0, 0, 0
}

// sample takes the cost of the epoch just finished — nanoseconds per unit
// of work, a unit being an executed event or a window — and sets the mode
// of the next one. The first epoch after a change of mode moves the
// shards' working sets between the processors' caches and is no measure of
// either mode; the one after it is, and a probe is judged on that one,
// against the incumbent's smoothed cost rather than its latest epoch,
// which is as noisy as the probe.
func (g *governor) sample(cost float64) {
	switch {
	case g.moved:
		g.moved = false
	case !g.probing:
		if g.cost == 0 {
			g.cost = cost
		}
		g.cost += (cost - g.cost) * smoothing
		g.last = cost
		if g.held++; g.held >= g.hold {
			g.probing = true
			g.flip()
			g.probes++
		}
	case cost < min(g.cost, g.last)*(1-switchMargin):
		// The probed mode stays on as the new incumbent.
		g.probing, g.held = false, 0
		g.cost, g.last, g.hold = cost, cost, minHold
		g.switches++
	default:
		g.probing, g.held = false, 0
		g.flip()
		g.hold = min(2*g.hold, maxHold)
	}
}

func (g *governor) flip() { g.fan, g.moved = !g.fan, true }

// starved ends fan-out at once, probe or incumbent: more than a quarter of
// the epoch's windows have outlasted the spin and parked, which is what
// hand-offs do when the shards' threads do not get a processor each
// (another tenant of the host took one, taskset with GOMAXPROCS left
// alone), and then each costs two spins. No measurement is needed to know
// how that compares, and none would be cheap: a K=8 probe of two such
// epochs costs 13 ms. A probe that ends this way has shown nothing for
// fan-out, which stays away for at least starvedHold epochs; an incumbent
// had, so it is tried again as after any switch — what hit it may have
// been a burst.
func (g *governor) starved() {
	if g.probing {
		g.hold = min(max(2*g.hold, starvedHold), maxHold)
	} else {
		g.cost, g.last, g.hold = 0, 0, minHold // inline takes over unmeasured
		g.switches++
	}
	g.probing, g.held = false, 0
	g.flip()
}

// processors is how many of a window's shards can run at the same time,
// asked per call: tests and callers move GOMAXPROCS under a live engine.
func (e *Engine) processors() int {
	if e.procs > 0 {
		return e.procs
	}
	return min(runtime.GOMAXPROCS(0), runtime.NumCPU())
}

// timed reports whether a call executing several shards' windows on procs
// processors is governed: it is when there is a choice to make — a second
// processor to run them on — and nothing has made it already.
func (e *Engine) timed(procs int) bool {
	return procs > 1 && e.force == forceNone && !raceEnabled
}

// tick counts one governed window and laps the clock at an epoch boundary.
func (e *Engine) tick() {
	g := &e.gov
	if g.fan && e.parked.Load()-g.parked > epochWindows/4 {
		g.starved()
	}
	if g.windows++; g.windows == epochWindows {
		t, p := e.clock(), e.Processed()
		g.close(t, p)
		g.open(t, p)
		g.parked = e.parked.Load()
	}
}

// fanOut picks the mode of the next multi-shard window of a call that is
// governed or not.
func (e *Engine) fanOut(timed bool) bool {
	switch e.force {
	case forceInline:
		return false
	case forceFanOut:
		return true
	case forceAlternate:
		return e.now/e.look/epochWindows%2 == 1
	}
	return raceEnabled || timed && e.gov.fan
}

// runWindow executes the window ending at end on the shards in run:
// inline, the calling goroutine runs them one after the other; fanned out,
// it runs the first itself and pool's workers the others. The shards
// cannot observe which mode ran them: they interact only through outboxes
// that change hands at the barrier.
func (e *Engine) runWindow(run []*Shard, end sim.Time, pool *workers, timed bool) {
	e.inWindow = true
	if len(run) > 1 && e.fanOut(timed) {
		e.fanned++
		pool.run(run, end)
	} else {
		for _, s := range run {
			s.window(end)
		}
	}
	e.inWindow = false
}

// parker is where one goroutine waits for a condition another brings
// about: it polls, and when that has not helped it parks on a channel. The
// other side calls unpark after making the condition true, which costs a
// load of a line nobody writes unless the waiter did park.
type parker struct {
	parked atomic.Bool
	wake   chan struct{} // one slot: unpark never blocks
	_      [sim.CacheLine - 16]byte
}

// wait returns once ready reports true, after at most w.spin polls and
// then a park.
func (p *parker) wait(w *workers, ready func() bool) {
	for i := 0; i < w.spin; i++ {
		if ready() {
			return
		}
	}
	if w.spin > 0 {
		w.eng.parked.Add(1)
	}
	p.park(w, ready)
}

// park blocks until ready reports true. A wake-up may be stale (the waker
// of the last round, late), so it only ever leads back here.
func (p *parker) park(w *workers, ready func() bool) {
	for {
		// Announce, then look again: either this sees the condition or the
		// other side, which sets it before it looks here, sees parked.
		p.parked.Store(true)
		if ready() && p.parked.CompareAndSwap(true, false) {
			return
		}
		if <-p.wake; ready() { // whoever reset parked owed this token
			return
		}
	}
}

// unpark wakes the waiter if it parked. The Go scheduler queues a woken
// goroutine on the processor of whoever woke it, and every caller of
// unpark goes on to poll for what that goroutine does next: it would poll
// away the very processor the other is queued on, until some idle one has
// been woken up to steal it (about a whole spin, on the reference VM). So
// it yields: the woken goroutine runs here at once and this one is picked
// up by the next processor to look — only ever after a park, which a run
// that fans out for a reason sees in well under 1 % of its windows.
func (p *parker) unpark() {
	if p.parked.Load() && p.parked.CompareAndSwap(true, false) {
		p.wake <- struct{}{}
		runtime.Gosched()
	}
}

// workers are the goroutines one Run or StepOwned call hands shards to,
// one for every shard but the first, which the caller runs. They are
// spawned at the call's first fanned window, park through inline epochs
// and exit when the call closes the pool. Caller and workers meet in two
// words, each on a cache line of its own: gen, which the caller bumps to
// start a window, and left, which every shard that finishes decrements.
type workers struct {
	gen  atomic.Uint64
	end  sim.Time // the window to run: written before gen, read after it
	stop bool
	spin int // polls before a wait parks
	eng  *Engine
	_    [sim.CacheLine - 40]byte

	left atomic.Int64 // shards still running the window
	_    [sim.CacheLine - 8]byte

	caller parker
	idle   []parker // where worker i waits for the next window
	_      [sim.CacheLine - 24]byte
}

// run executes the window ending at end on shards and returns when all
// have finished. Every call on one pool must pass the same shards.
func (w *workers) run(shards []*Shard, end sim.Time) {
	first := w.idle == nil
	if first {
		w.caller.wake = make(chan struct{}, 1)
		w.idle = make([]parker, len(shards)-1)
		for i := range w.idle {
			w.idle[i].wake = make(chan struct{}, 1)
			go w.serve(&w.idle[i], shards[i+1])
		}
	}
	w.end = end
	w.left.Store(int64(len(shards)))
	w.release()
	shards[0].window(end)
	done := func() bool { return w.left.Load() == 0 }
	switch {
	case w.finish(shards[0]):
	case first:
		// Nothing to poll for yet: a new goroutine runs when this one gets
		// out of its way, or when another processor has woken up to steal
		// it, which takes as long as the whole spin.
		w.caller.park(w, done)
	default:
		w.caller.wait(w, done)
	}
}

// release starts the workers on what the caller has just written.
func (w *workers) release() {
	w.gen.Add(1)
	for i := range w.idle {
		w.idle[i].unpark()
	}
}

// serve is a worker: one window of s per generation, until the pool stops.
func (w *workers) serve(idle *parker, s *Shard) {
	for seen := uint64(0); ; {
		idle.wait(w, func() bool { return w.gen.Load() != seen })
		if seen = w.gen.Load(); w.stop {
			return
		}
		s.window(w.end)
		w.finish(s)
	}
}

// finish reports s done with the window and whether it was the last shard
// to be, in which case it releases the caller.
func (w *workers) finish(s *Shard) bool {
	if w.left.Add(-1) != 0 {
		return false
	}
	s.last.Add(1)
	w.caller.unpark()
	return true
}

func (w *workers) close() {
	w.stop = true
	w.release()
}

// Stats is the engine's account of how it has executed so far: the
// governor's decisions, how the hand-offs went and the mailbox traffic it
// all happened on. It is wall-clock dependent (except Windows, Mail,
// MailLess and ShardEvents) and therefore never part of a deterministic
// output.
type Stats struct {
	Windows     uint64   // windows executed
	Fanned      uint64   // of those, windows whose shards were handed to workers
	Probes      uint64   // epochs run in the other mode to compare costs
	Switches    uint64   // probes that won and changed the mode
	Parked      uint64   // hand-offs that outlasted the spin and parked a goroutine
	Stragglers  []uint64 // per shard: fanned windows it was the last to finish
	Mail        uint64   // cross-shard messages sent, up to the last barrier
	MailLess    uint64   // windows in which none was
	ShardEvents []uint64 // events executed per shard
}

// Stats returns the execution account. Call it between Run calls.
func (e *Engine) Stats() Stats {
	st := Stats{
		Windows:     uint64(e.now / e.look),
		Fanned:      e.fanned,
		Probes:      e.gov.probes,
		Switches:    e.gov.switches,
		Parked:      e.parked.Load(),
		Stragglers:  make([]uint64, len(e.shards)),
		Mail:        e.mail,
		MailLess:    e.mailLess,
		ShardEvents: make([]uint64, len(e.shards)),
	}
	for i, s := range e.shards {
		st.ShardEvents[i] = s.sm.Processed
		st.Stragglers[i] = s.last.Load()
	}
	return st
}

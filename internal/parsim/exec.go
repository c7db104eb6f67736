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
	epochWindows = 32      // windows per epoch of the starvation back-off
	starvedHold  = 32      // epochs inline after fan-out first starved
	maxHold      = 256     // cap of the doubling hold
	spinBudget   = 1 << 16 // polls before a hand-off parks (Engine.spin)
)

// execForce pins the execution mode; tests only. It overrides the rule,
// the back-off and the race build.
type execForce uint8

const (
	forceNone      execForce = iota
	forceInline              // the caller runs every shard
	forceFanOut              // every multi-shard window is handed off
	forceAlternate           // flip every epochWindows windows
)

// backOff is the starvation back-off of the package comment's Execution
// section, counted in windows. It lives in the Engine, so it outlasts the
// many short calls of a testbed or a distributed peer.
type backOff struct {
	inline int    // windows still to run inline
	hold   int    // epochs inline the next starvation costs
	epoch  int    // fanned windows into the epoch in progress
	parked uint64 // Engine.parked when that epoch began
}

// fan reports whether the next window fans out, parked being
// Engine.parked now.
func (b *backOff) fan(parked uint64) bool {
	if b.inline > 0 {
		b.inline--
		return false
	}
	if b.epoch == 0 {
		b.parked = parked
	}
	return true
}

// fanned counts a fanned window at its barrier, parked being Engine.parked
// then.
func (b *backOff) fanned(parked uint64) {
	b.epoch++
	switch n := parked - b.parked; {
	case n > epochWindows/4:
		b.inline, b.epoch = b.hold*epochWindows, 0
		b.hold = min(2*b.hold, maxHold)
	case b.epoch == epochWindows:
		if n == 0 {
			b.hold = starvedHold
		}
		b.epoch = 0
	}
}

// processors is how many of a window's shards can run at the same time,
// asked per call: tests and callers move GOMAXPROCS under a live engine.
func (e *Engine) processors() int {
	if e.procs > 0 {
		return e.procs
	}
	return min(runtime.GOMAXPROCS(0), runtime.NumCPU())
}

// runWindow executes the window ending at end on the shards in run and
// reports whether it fanned them out. Without a pool the calling goroutine
// runs them one after the other (inline); with one it runs the first and
// pool's workers the others, unless the back-off, where it governs the
// call (backs), or forceAlternate holds the window inline. The shards
// cannot observe which mode ran them: they interact only through outboxes
// that change hands at the barrier.
func (e *Engine) runWindow(run []*Shard, end sim.Time, pool *workers, backs bool) bool {
	fan := pool != nil &&
		(e.force != forceAlternate || e.now/e.look/epochWindows%2 == 1) &&
		(!backs || e.back.fan(e.parked.Load()))
	e.inWindow = true
	if fan {
		e.fanned++
		pool.run(run, end)
	} else {
		for _, s := range run {
			s.window(end)
		}
	}
	e.inWindow = false
	return fan
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
// whose shards each have a processor sees in well under 1 % of its windows.
func (p *parker) unpark() {
	if p.parked.Load() && p.parked.CompareAndSwap(true, false) {
		p.wake <- struct{}{}
		runtime.Gosched()
	}
}

// workers are the goroutines one multi-window call hands shards to,
// one for every shard but the first, which the caller runs. Caller and
// workers meet in two words, each on a cache line of its own: gen, which
// the caller bumps to start a window, and left, which every shard that
// finishes decrements.
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
	shards[0].fannedWindow(end)
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
		s.fannedWindow(w.end)
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

// Stats is the engine's account of how it has executed so far: how many
// windows fanned out, how the hand-offs went, what the shards' fanned
// windows cost and the mailbox traffic it all happened on. It is wall-clock
// dependent (except Windows, Mail, MailLess and ShardEvents) and therefore
// never part of a deterministic output.
//
// Busy is the price of splitting a run, per shard: the time its goroutine
// spent inside fanned windows, over the events it executed there
// (BusyEvents). Two clock reads per shard and fanned window pay for it;
// inline windows are not timed. Set against one shard's time per event,
// it is what work costs once it is split across cores: the lines the
// shards share and the caches they leave cold.
type Stats struct {
	Windows     uint64          // windows executed
	Fanned      uint64          // of those, windows whose shards were handed to workers
	Parked      uint64          // hand-offs that outlasted the spin and parked a goroutine
	Stragglers  []uint64        // per shard: fanned windows it was the last to finish
	Busy        []time.Duration // per shard: time spent running fanned windows
	BusyEvents  []uint64        // per shard: events executed in fanned windows
	Mail        uint64          // cross-shard messages sent, up to the last barrier
	MailLess    uint64          // windows in which none was
	ShardEvents []uint64        // events executed per shard
}

// Stats returns the execution account. Call it between Run calls.
func (e *Engine) Stats() Stats {
	st := Stats{
		Windows:     uint64(e.now / e.look),
		Fanned:      e.fanned,
		Parked:      e.parked.Load(),
		Stragglers:  make([]uint64, len(e.shards)),
		Busy:        make([]time.Duration, len(e.shards)),
		BusyEvents:  make([]uint64, len(e.shards)),
		Mail:        e.mail,
		MailLess:    e.mailLess,
		ShardEvents: make([]uint64, len(e.shards)),
	}
	for i, s := range e.shards {
		st.ShardEvents[i] = s.sm.Processed
		st.Stragglers[i] = s.last.Load()
		st.Busy[i], st.BusyEvents[i] = s.busy, s.busyEv
	}
	return st
}

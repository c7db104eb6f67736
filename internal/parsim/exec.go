package parsim

import (
	"sync"
	"time"

	"stardust/internal/sim"
)

// The governor's constants; the package comment's Execution section gives
// the measurements behind them.
const (
	epochWindows = 32   // windows per timed epoch
	switchMargin = 0.10 // a probe must be this much cheaper to take over
	minHold      = 2    // incumbent epochs before the first probe and after a switch
	maxHold      = 256  // cap of the doubling back-off
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
	probing  bool    // that epoch is a probe of the mode that is not the incumbent
	hold     int     // incumbent epochs between probes
	held     int     // incumbent epochs since the last probe
	cost     float64 // the incumbent's latest epoch, ns per unit
	probes   uint64
	switches uint64

	// The epoch in progress. It may span several Run or StepOwned calls:
	// time between the calls' spans is not counted.
	windows int
	nanos   time.Duration
	events  uint64
	t0      time.Time // open span
	p0      uint64
}

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
// of the next one.
func (g *governor) sample(cost float64) {
	if !g.probing {
		g.cost = cost
		if g.held++; g.held >= g.hold {
			g.probing, g.fan = true, !g.fan
			g.probes++
		}
		return
	}
	g.probing, g.held = false, 0
	if cost < g.cost*(1-switchMargin) {
		// The probed mode stays on as the new incumbent.
		g.cost, g.hold = cost, minHold
		g.switches++
		return
	}
	g.fan = !g.fan
	g.hold = min(2*g.hold, maxHold)
}

// timed reports whether a call executing windows on run is governed: it
// is when there is a choice to make and nothing has made it already.
func (e *Engine) timed(run []*Shard) bool {
	return len(run) > 1 && e.force == forceNone && !raceEnabled
}

// tick counts one governed window and laps the clock at an epoch boundary.
func (e *Engine) tick() {
	g := &e.gov
	if g.windows++; g.windows == epochWindows {
		t, p := e.clock(), e.Processed()
		g.close(t, p)
		g.open(t, p)
	}
}

// fanOut picks the mode of the next multi-shard window.
func (e *Engine) fanOut() bool {
	switch e.force {
	case forceInline:
		return false
	case forceFanOut:
		return true
	case forceAlternate:
		return e.now/e.look/epochWindows%2 == 1
	}
	return raceEnabled || e.gov.fan
}

// runWindow executes the window ending at end on the shards in run:
// inline, the calling goroutine runs them one after the other; fanned out,
// it hands each to one of pool's workers and parks until all are done.
// (Letting the caller keep one shard for itself saves a hand-off and
// measured slower: 2.77 s against 2.30 s on a two-shard K=16 Clos, equal
// at K=8.) The shards cannot observe which mode ran them: they interact
// only through mailboxes flushed after the window.
func (e *Engine) runWindow(run []*Shard, end sim.Time, pool *workers) {
	e.inWindow = true
	if len(run) > 1 && e.fanOut() {
		e.fanned++
		pool.run(run, end)
	} else {
		for _, s := range run {
			s.sm.RunBefore(end)
		}
	}
	e.inWindow = false
}

// workers are the goroutines one Run or StepOwned call hands shards to,
// one per shard. They are spawned at the call's first fanned window, park
// on their channels through inline epochs, and exit when the call closes
// the pool.
type workers struct {
	work []chan sim.Time
	wg   sync.WaitGroup
}

// run executes the window ending at end on shards, one worker each, and
// returns when all have finished. Every call on one pool must pass the
// same shards.
func (w *workers) run(shards []*Shard, end sim.Time) {
	if w.work == nil {
		w.work = make([]chan sim.Time, len(shards))
		for i, s := range shards {
			// One slot: the caller posts every hand-off of a window
			// without waiting for a worker to be scheduled.
			ch := make(chan sim.Time, 1)
			w.work[i] = ch
			go func() {
				for end := range ch {
					s.sm.RunBefore(end)
					w.wg.Done()
				}
			}()
		}
	}
	w.wg.Add(len(w.work))
	for _, ch := range w.work {
		ch <- end
	}
	w.wg.Wait()
}

func (w *workers) close() {
	for _, ch := range w.work {
		close(ch)
	}
}

// Stats is the engine's account of how it has executed so far: the
// governor's decisions and the mailbox traffic they were made on. It is
// wall-clock dependent (except Windows, Mail, MailLess and ShardEvents)
// and therefore never part of a deterministic output.
type Stats struct {
	Windows     uint64   // windows executed
	Fanned      uint64   // of those, windows whose shards were handed to workers
	Probes      uint64   // epochs run in the other mode to compare costs
	Switches    uint64   // probes that won and changed the mode
	Mail        uint64   // cross-shard messages moved at barriers
	MailLess    uint64   // windows whose barrier moved none
	ShardEvents []uint64 // events executed per shard
}

// Stats returns the execution account. Call it between Run calls.
func (e *Engine) Stats() Stats {
	st := Stats{
		Windows:     uint64(e.now / e.look),
		Fanned:      e.fanned,
		Probes:      e.gov.probes,
		Switches:    e.gov.switches,
		Mail:        e.mail,
		MailLess:    e.mailLess,
		ShardEvents: make([]uint64, len(e.shards)),
	}
	for i, s := range e.shards {
		st.ShardEvents[i] = s.sm.Processed
	}
	return st
}

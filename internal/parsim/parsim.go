// Package parsim is a conservative-lookahead parallel discrete-event
// engine: it partitions a simulation into shards, each owning a disjoint
// set of model state with its own sim.Simulator event heap, and advances
// all shards in lock-step time windows whose width is the minimum latency
// of any cross-shard interaction (the lookahead). Within a window the
// shards run concurrently and cannot affect each other — every cross-shard
// effect is at least one lookahead in the future — so each shard's window
// is an ordinary sequential simulation. At the window barrier the
// cross-shard mailboxes change hands, to be emptied in a fixed order, and
// the engine runs the registered barrier hooks with every shard quiescent.
//
// Determinism. The engine is byte-deterministic across shard counts, not
// merely across runs: the same model partitioned over 1, 2 or 4 shards
// produces identical state, provided the model orders its same-instant
// events with explicit lanes (sim.AtLane) keyed by stable entities (e.g.
// one lane per directed link) rather than by scheduling order. A shard's
// event heap orders events by (time, lane, local sequence); cross-shard
// messages are inserted before the first event of their window runs, so the
// (time, lane) key alone decides their place and it does not matter
// whether an event arrived through a mailbox or was scheduled locally.
// This is the devolved-controller partitioning argument applied to the
// simulator itself: the serial-link latency is a natural synchronization
// horizon, so a distributed chassis can be simulated by a distributed
// event loop without giving up a single global order of observable events.
//
// Control actions that touch state on several shards at once (link
// failures, chaos injection, telemetry scrapes) run between windows via
// At/OnBarrier, when every shard is quiescent; their times are quantized
// to window boundaries, which are a function of the lookahead only and
// therefore identical for every shard count.
//
// Execution. A window's shards are independent, so the engine may run
// them in any way it likes. One executor (runWindow) serves Run,
// RunUntilQuiet and StepOwned: either the calling goroutine runs the
// shards itself, one after the other (inline), or it runs the first and a
// worker goroutine each of the others (fan-out). Shards that interact only
// across a lookahead should share nothing closer than that, and fan-out is
// built so that they do not:
//
// The hand-off is two words, each on a cache line of its own. The caller
// starts a window by writing its end and bumping a generation counter; a
// worker polls that counter, runs its shard and decrements a count of
// shards still running; whoever brings it to zero was the window's
// straggler (Stats.Stragglers) and the caller, who polls that count after
// its own shard, goes on. Nobody polls for ever: after spinBudget loads a
// waiter parks on a channel — it says so in a flag first, and the other
// side, which looks at the flag only after its own store, wakes exactly the
// waiters that did park (Stats.Parked) — so workers sleep through inline
// epochs, and a host that does not run the shards' threads side by side
// costs spins, never progress. The budget is 2^16 loads, about 100 us on
// the 2.1 GHz reference VM: twice a two-shard K=8 Clos window, because a
// wait is the difference between two shards' windows and 99.5 % of them
// ended within it (14 % did not within a quarter of it), and because waking
// a parked thread of that VM takes as long — a shorter spin parks for
// delays a wake-up cannot beat, and gives up its processor before an idle
// one has come to take the goroutine it waits for. With fewer processors
// than shards to run (GOMAXPROCS, or the CPUs the process may use) nothing
// can be polled for and every wait parks at once, as does the caller's
// first wait for workers it has just spawned; the goroutine that wakes
// another yields to it.
//
// Mail stays on the core that will read it. Outboxes are double-buffered
// by window parity: while a window fills one set, every shard, as the first
// thing in its window and on its own goroutine, inserts what the other set
// holds for it — source shards in index order, send order within — and the
// sets swap at the barrier. The caller touches only the mail that leaves
// the owned set (StepOwned's emit). Mail not yet inserted counts as pending
// (Pending, Quiet, OwnedPending), so a drain cannot end with a message in
// an outbox, and it is counted where it is sent, so Stats.Mail and MailLess
// do not depend on how windows were executed.
//
// What a shard's goroutine writes inside a window fills whole cache lines:
// Shard, its outbox headers, sim.Simulator and the per-shard counters of
// fabric and netsim are padded to multiples of sim.CacheLine (a layout test
// each), because the allocator packs equal-sized objects back to back and a
// 48-byte counter block shared a line with its neighbour's. Each of the
// three is necessary: the sizing prototype's forced fan-out of the
// benchmark's K=8 run stayed at 0.43-0.49 s with any two, against 0.30-0.35
// with all.
//
// Fan-out still buys parallelism at a price — every window ends when its
// slowest shard does — and whether that pays is a property of the host and
// the load, not of the model: the same two-shard K=8 run (6,256 windows of
// ~900 events) takes 0.36-0.37 s inline and 0.27-0.30 s fanned out on two
// idle vCPUs, one shard 0.31 s, and fanned out it takes longer than inline
// when a neighbour holds one of the vCPUs. So the engine measures instead
// of being told: a governor times every epoch of 32 windows (one clock read
// per epoch inside a long Run, two more per call), divides by the events
// and windows executed, and after `hold` epochs probes the other mode for
// two: the first epoch after any change of mode moves the shards' working
// sets between caches (about an epoch's worth at K=8) and is not a sample;
// the second is judged against the smaller of the incumbent's smoothed cost
// and its latest epoch — the average because two identical epochs differ by
// +-8 %, the latest because costs drift and an average lags — and takes
// over only if it is more than 10 % cheaper. Every probe the incumbent wins
// doubles hold, from 4 up to 256, so where inline wins a 6,256-window run
// spends 10 of its 195 epochs probing. Parking is evidence of its own: an
// epoch of fan-out that parks in more than a quarter of its windows means
// the shards' threads are not getting a processor each, and ends fan-out on
// the spot — a probe nine windows in, kept away for 32 epochs or more, an
// incumbent until the next ordinary probe. An epoch cut short by the end of
// a call is carried into the next call, not sampled. The governor's few
// words live in the Engine and so survive the many short Run and
// per-window StepOwned calls of a testbed or a distributed peer. With a
// single shard to execute (a one-shard engine, a distributed peer owning
// one shard, the coordinator owning none) or a single processor to execute
// on there is no choice: runWindow is a direct call, no worker exists and
// no clock is read. There is no knob: Config carries nothing about
// execution.
//
// The choice cannot change results. Within a window a shard reads and
// writes only its own state, the outboxes it fills and the ones it drains;
// mail leaves the owned set, hooks and controls run, after every shard has
// finished, by the caller, in a fixed order. Which goroutine ran a shard,
// and whether two shards' windows overlapped in time, is therefore
// unobservable to the model (tests force each mode, and a mode flip every
// epoch, against the recorded digests; a stress test runs a million
// hand-offs with shards that stall past the spin). Builds with the race
// detector bypass the governor and fan out every multi-shard window, so
// `go test -race` always sees the concurrent path in full, whatever the
// host would have chosen.
//
// Workers are scoped to one call: spawned at the call's first fanned
// window, parked through inline epochs, stopped when it returns.
// Workers that outlived the call would need an explicit Close on the
// Engine, and an abandoned Engine would leak them; the price is that a
// per-window StepOwned call that fans out starts its workers on the
// caller's own processor and runs the window's shards one after the other
// all the same. Stats reports what the governor did, how the hand-offs
// went and the mailbox traffic it all happened on.
package parsim

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"stardust/internal/sim"
)

// Config sizes an Engine.
type Config struct {
	// Shards is the number of event loops (>= 1).
	Shards int
	// Lookahead is the conservative window width: no cross-shard effect
	// may take place less than one lookahead after the action that caused
	// it. It must be positive.
	Lookahead sim.Time
}

// xmsg is one cross-shard event in flight: it is scheduled into the
// destination shard's heap at the window barrier.
type xmsg struct {
	at   sim.Time
	lane int32
	act  sim.Action
	arg  uint64
}

// outbox holds the messages one shard has sent to one other and the
// receiver has not drained yet. The sender appends during one window, the
// receiver empties it at the start of the next: each header has a cache
// line to itself, so neither disturbs the boxes the other is working on.
type outbox struct {
	msgs []xmsg
	_    [sim.CacheLine - 24]byte
}

// Shard is one event loop of the engine, owning a disjoint slice of the
// model. All state reachable from events scheduled on a shard's Simulator
// must be owned by that shard; the only sanctioned ways to touch another
// shard's state are a Port (events at least one lookahead away) and the
// engine's barrier context.
//
// A Shard is written by whichever goroutine runs its window, so it fills
// whole cache lines (TestShardLayout): two shards never share one.
type Shard struct {
	// The first line is read by every shard and written by none.
	id  int
	sm  *sim.Simulator
	eng *Engine
	// out[2*dst+p] is this shard's outbox towards dst for windows of
	// parity p (Engine.par): double-buffered, so dst can drain last
	// window's mail while this shard already sends the current one's.
	out []outbox
	_   [sim.CacheLine - 48]byte

	sent uint64        // messages sent through Ports (Stats.Mail)
	last atomic.Uint64 // fanned windows this shard was the last to finish
	_    [sim.CacheLine - 16]byte
}

// ID returns the shard's index.
func (s *Shard) ID() int { return s.id }

// Sim returns the shard's event heap. Schedule intra-shard work here.
func (s *Shard) Sim() *sim.Simulator { return s.sm }

// To returns a lane scheduler that delivers onto shard dst: the shard's
// own Simulator when dst == s.ID() (direct heap insertion), a cross-shard
// Port otherwise. The two are interchangeable for determinism — the
// (time, lane) key decides execution order either way.
func (s *Shard) To(dst int) sim.LaneScheduler {
	if dst == s.id {
		return s.sm
	}
	return Port{src: s, dst: dst}
}

// Port schedules lane events from one shard onto another through the
// engine's mailboxes. It implements sim.LaneScheduler. Events must respect
// the lookahead: t >= Now()+Lookahead, or the destination shard might
// already have advanced past t.
type Port struct {
	src *Shard
	dst int
}

// Now returns the sending shard's clock.
func (p Port) Now() sim.Time { return p.src.sm.Now() }

// AtLane enqueues a.Act(arg) to run on the destination shard at time t.
func (p Port) AtLane(t sim.Time, lane int32, a sim.Action, arg uint64) {
	if t < p.src.sm.Now()+p.src.eng.look {
		panic(fmt.Sprintf("parsim: cross-shard event at %d violates lookahead (now %d + %d)",
			t, p.src.sm.Now(), p.src.eng.look))
	}
	o := &p.src.out[2*p.dst+p.src.eng.par]
	o.msgs = append(o.msgs, xmsg{at: t, lane: lane, act: a, arg: arg})
	p.src.sent++
}

// window executes the window ending at end on s, on whichever goroutine
// the executor chose: first the mail the other shards sent s during the
// last window (the outboxes not being filled) goes into the heap — source shards
// in index order, messages in send order; same-lane messages can only
// originate from one shard (a lane names one sending entity), so this
// order is itself partition-independent, and across lanes the heap key
// decides and insertion order is irrelevant — then the events before end.
func (s *Shard) window(end sim.Time) {
	par := s.eng.par ^ 1
	for _, src := range s.eng.shards {
		o := &src.out[2*s.id+par]
		if len(o.msgs) == 0 {
			continue
		}
		for _, m := range o.msgs {
			s.sm.AtLane(m.at, m.lane, m.act, m.arg)
		}
		o.msgs = o.msgs[:0]
	}
	s.sm.RunBefore(end)
}

// control is one barrier-context action.
type control struct {
	at  sim.Time
	seq int
	fn  func()
}

// Engine owns the shards and the window loop.
type Engine struct {
	look     sim.Time
	par      int // parity of the outboxes being filled; the others are being drained
	shards   []*Shard
	hooks    []func(now sim.Time)
	ctls     []control
	ctlSeq   int
	now      sim.Time // end of the last completed window
	inWindow bool

	// Execution (see the package comment): the governor's numbers outlive
	// every Run and StepOwned call, workers do not.
	gov      governor
	force    execForce        // tests only: overrides the governor and the race rule
	clock    func() time.Time // the governor's clock; tests inject one
	procs    int              // tests only: overrides what processors() asks the runtime
	spin     int              // polls before a hand-off parks; spinBudget, tests vary it
	run      []*Shard         // StepOwned's scratch list of owned shards
	fanned   uint64           // windows whose shards were handed to workers
	parked   atomic.Uint64    // hand-offs that outlasted the spin and parked
	mail     uint64           // cross-shard messages sent up to the last barrier
	mailLess uint64           // windows in which none was sent
}

// New builds an engine with cfg.Shards fresh simulators, all at time zero.
func New(cfg Config) *Engine {
	if cfg.Shards < 1 {
		panic("parsim: need at least one shard")
	}
	if cfg.Lookahead <= 0 {
		panic("parsim: lookahead must be positive")
	}
	e := &Engine{
		look: cfg.Lookahead, clock: time.Now, gov: startGovernor(), spin: spinBudget,
	}
	e.shards = make([]*Shard, cfg.Shards)
	for i := range e.shards {
		e.shards[i] = &Shard{id: i, sm: sim.New(), eng: e, out: make([]outbox, 2*cfg.Shards)}
	}
	return e
}

// Shards returns the shard count.
func (e *Engine) Shards() int { return len(e.shards) }

// Shard returns shard i.
func (e *Engine) Shard(i int) *Shard { return e.shards[i] }

// Lookahead returns the window width.
func (e *Engine) Lookahead() sim.Time { return e.look }

// Now returns the synchronized time: the end of the last completed window.
// Every shard's clock equals Now between windows.
func (e *Engine) Now() sim.Time { return e.now }

// Processed sums the events executed across all shards — the event-rate
// numerator of the parscale scenario. Call it between Run calls.
func (e *Engine) Processed() uint64 {
	var n uint64
	for _, s := range e.shards {
		n += s.sm.Processed
	}
	return n
}

// Dispatched sums the events the shards' loops executed: Processed
// without the completions that were elided (sim.Simulator.Dispatched).
func (e *Engine) Dispatched() uint64 {
	var n uint64
	for _, s := range e.shards {
		n += s.sm.Dispatched()
	}
	return n
}

// Pending sums the events waiting across all shards: those in the heaps
// and the cross-shard messages their receivers have not drained yet.
func (e *Engine) Pending() int { return e.OwnedPending(nil) }

// Quiet reports whether nothing remains to run: every shard's heap and
// outboxes are empty and no control action is outstanding. Meaningful
// between windows.
func (e *Engine) Quiet() bool {
	if len(e.ctls) != 0 {
		return false
	}
	// Heaps first: while the run lasts the first one answers, and the
	// window loop asks after every window.
	for _, s := range e.shards {
		if s.sm.Pending() != 0 {
			return false
		}
	}
	return e.Pending() == 0
}

// InBarrier reports whether the engine is currently in barrier context
// (controls and barrier hooks, all shards quiescent) or has not started a
// window yet. Multi-shard state such as a fabric link failure may only be
// mutated when this is true.
func (e *Engine) InBarrier() bool { return !e.inWindow }

// ceil rounds t up to a window boundary.
func (e *Engine) ceil(t sim.Time) sim.Time {
	if t <= 0 {
		return 0
	}
	return (t + e.look - 1) / e.look * e.look
}

// At registers fn to run in barrier context at the window boundary at or
// after t — all shards quiescent, clocks at the boundary. Same-boundary
// controls run in registration order. Safe to call before Run and from
// barrier context (controls and hooks may schedule further controls);
// must not be called from shard events.
func (e *Engine) At(t sim.Time, fn func()) {
	if e.inWindow {
		panic("parsim: Engine.At called from a shard event; use a Port or schedule from barrier context")
	}
	e.ctlSeq++
	c := control{at: e.ceil(t), seq: e.ctlSeq, fn: fn}
	i := sort.Search(len(e.ctls), func(i int) bool {
		if e.ctls[i].at != c.at {
			return e.ctls[i].at > c.at
		}
		return e.ctls[i].seq > c.seq
	})
	e.ctls = append(e.ctls, control{})
	copy(e.ctls[i+1:], e.ctls[i:])
	e.ctls[i] = c
}

// OnBarrier registers fn to run after every window with all shards
// quiescent, in registration order, with now = the window's end. This is
// where cross-shard reads (telemetry scrapes, invariant checks) belong.
func (e *Engine) OnBarrier(fn func(now sim.Time)) {
	e.hooks = append(e.hooks, fn)
}

// runControls executes the controls due at the window starting at `start`.
func (e *Engine) runControls(start sim.Time) {
	for len(e.ctls) > 0 && e.ctls[0].at <= start {
		c := e.ctls[0]
		e.ctls = e.ctls[1:]
		c.fn()
	}
}

// exchange is the mailbox half of the barrier. Mail between owned shards
// stays where it is — the receiver inserts it itself at the start of its
// next window (Shard.window) — so all that is left for the caller is what
// leaves the owned set: handed to emit, source shards in index order,
// messages in send order, which includes what barrier context sent since
// the last exchange. Then the outboxes swap roles.
func (e *Engine) exchange(owned []bool, emit func(src, dst int, m Mail)) {
	sent := uint64(0)
	for _, src := range e.shards {
		sent += src.sent
		for dst, own := range owned {
			if own {
				continue
			}
			o := &src.out[2*dst+e.par]
			for _, m := range o.msgs {
				emit(src.id, dst, Mail{At: m.at, Lane: m.lane, Act: m.act, Arg: m.arg})
			}
			o.msgs = o.msgs[:0]
		}
	}
	if sent == e.mail {
		e.mailLess++
	}
	e.mail = sent
	e.par ^= 1
}

// Run advances every shard to the window boundary at or after until.
func (e *Engine) Run(until sim.Time) {
	e.loop(e.shards, nil, nil, e.ceil(until), false)
}

// RunUntilQuiet advances window by window until nothing remains to run or
// the boundary at/after max is reached, and returns the synchronized time.
// Use it to drain a simulation whose drivers have stopped scheduling.
func (e *Engine) RunUntilQuiet(max sim.Time) sim.Time {
	e.loop(e.shards, nil, nil, e.ceil(max), true)
	return e.now
}

// Mail is one cross-shard message in exported form — the unit the
// distributed runtime (internal/distsim) serializes over the wire. Inside
// one process the Act value is a live model object; a distributed peer
// encodes it with a model codec at the barrier and the receiving peer
// decodes it against its own replica of the model.
type Mail struct {
	At   sim.Time
	Lane int32
	Act  sim.Action
	Arg  uint64
}

// OwnedPending counts the events pending on the owned subset of shards
// (nil owns every shard): those in their heaps plus the mail addressed to
// them that they have not drained yet. On a distributed replica only the
// owned shards execute, so the global pending count is the sum of
// OwnedPending over all peers — unowned replicas' heaps hold stale
// build-time events that are executed (and therefore drained) only by
// their owner.
func (e *Engine) OwnedPending(owned []bool) int {
	n := 0
	for i, s := range e.shards {
		if owned != nil && !owned[i] {
			continue
		}
		n += s.sm.Pending()
		for _, src := range e.shards {
			n += len(src.out[2*i].msgs) + len(src.out[2*i+1].msgs)
		}
	}
	return n
}

// ControlsPending returns the number of registered barrier controls that
// have not run yet. Controls are part of the replicated model (every
// distributed replica registers the same schedule), so any replica's count
// is the global count.
func (e *Engine) ControlsPending() int { return len(e.ctls) }

// DeliverMail inserts one cross-shard message into shard dst's heap — the
// receiving half of a distributed mailbox flush. Call it in barrier
// context, before the window the message belongs to begins; the lookahead
// guarantees m.At lies in that window or later, and the (time, lane) key
// orders it exactly as a locally flushed message. Messages on one lane
// must be delivered in their send order (they originate from a single
// sending entity); across lanes the order of DeliverMail calls is
// irrelevant.
func (e *Engine) DeliverMail(dst int, m Mail) {
	if e.inWindow {
		panic("parsim: DeliverMail outside barrier context")
	}
	e.shards[dst].sm.AtLane(m.At, m.Lane, m.Act, m.Arg)
}

// StepOwned advances exactly one window — the distributed counterpart of
// one iteration of Run's loop. It runs the controls due at the window
// start, executes the window on every shard with owned[i] == true
// (inline or fanned out, as in Run), advances unowned shards' clocks
// without executing them, hands the mail leaving the owned set to emit in
// (source shard, send order) — mail inside it waits for its receiver's
// next window and counts as pending until then — and runs the barrier
// hooks. The caller must deliver the mail it receives from other peers
// (DeliverMail) before the next StepOwned, and must not drop a shard from
// the owned set while OwnedPending counts mail for it. Returns the new
// synchronized time.
//
// With every shard owned and emit nil this is bit-identical to one window
// of Run — the property the distributed determinism tests assert.
func (e *Engine) StepOwned(owned []bool, emit func(src, dst int, m Mail)) sim.Time {
	if e.inWindow {
		panic("parsim: StepOwned re-entered from a window")
	}
	if len(owned) != len(e.shards) {
		panic("parsim: StepOwned ownership length does not match shard count")
	}
	e.run = e.run[:0]
	for i, s := range e.shards {
		if owned[i] {
			e.run = append(e.run, s)
		}
	}
	e.loop(e.run, owned, emit, e.now+e.look, false)
	return e.now
}

// loop is the window loop behind Run, RunUntilQuiet and StepOwned: until
// the boundary `until` (or, with stopWhenQuiet, until nothing remains to
// run) it runs the due controls, executes one window on the shards in run
// — every shard when owned is nil, else exactly the owned ones, the
// others' clocks skipping ahead — exchanges the mailboxes and runs the
// barrier hooks.
func (e *Engine) loop(run []*Shard, owned []bool, emit func(src, dst int, m Mail), until sim.Time, stopWhenQuiet bool) {
	if e.now >= until {
		return
	}
	// Call-scoped (see the package comment), and only where there is
	// something to hand off: the pool escapes to its workers, and a
	// one-shard call should not pay an allocation for it.
	var pool *workers
	timed := false
	if len(run) > 1 {
		procs := e.processors()
		pool = &workers{eng: e}
		defer pool.close()
		// Polling pays only while every shard has a processor to itself:
		// with fewer, the goroutine polled for may be waiting for this one
		// to get off its processor, so the hand-off parks at once.
		if len(run) <= procs {
			pool.spin = e.spin
		}
		timed = e.timed(procs)
	}
	if timed {
		e.gov.open(e.clock(), e.Processed())
	}
	for e.now < until {
		e.runControls(e.now)
		if stopWhenQuiet && e.Quiet() {
			break
		}
		end := e.now + e.look
		e.runWindow(run, end, pool, timed)
		for i, own := range owned {
			if !own {
				e.shards[i].sm.SkipTo(end)
			}
		}
		e.exchange(owned, emit)
		e.now = end
		for _, fn := range e.hooks {
			fn(end)
		}
		if timed {
			e.tick()
		}
	}
	if timed {
		e.gov.close(e.clock(), e.Processed())
	}
}

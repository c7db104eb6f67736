// Package parsim is a conservative-lookahead parallel discrete-event
// engine: it partitions a simulation into shards, each owning a disjoint
// set of model state with its own sim.Simulator event heap, and advances
// all shards in lock-step time windows whose width is the minimum latency
// of any cross-shard interaction (the lookahead). Within a window the
// shards run concurrently and cannot affect each other — every cross-shard
// effect is at least one lookahead in the future — so each shard's window
// is an ordinary sequential simulation. At the window barrier the engine
// flushes cross-shard mailboxes in a fixed order and runs the registered
// barrier hooks with every shard quiescent.
//
// Determinism. The engine is byte-deterministic across shard counts, not
// merely across runs: the same model partitioned over 1, 2 or 4 shards
// produces identical state, provided the model orders its same-instant
// events with explicit lanes (sim.AtLane) keyed by stable entities (e.g.
// one lane per directed link) rather than by scheduling order. A shard's
// event heap orders events by (time, lane, local sequence); cross-shard
// messages are inserted at the barrier before their window begins, so the
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
// shards itself, one after the other (inline), or it hands each to a
// worker goroutine and parks until they are done (fan-out). Fan-out buys
// parallelism at the price of a hand-off and a wake-up per worker per
// window; whether that pays is a property of the host and the load, not of
// the model — on a 2-vCPU VM a two-shard K=8 Clos window of ~900 events
// costs 50-68 ns per unit of work inline and 85-125 ns fanned out, while a
// K=16 window of ~8,800 events costs ~200 ns inline and ~155 ns fanned
// out. So the engine measures instead of being told: a governor times
// every epoch of 32 windows (one clock read per epoch inside a long Run,
// two more per call), divides by the events and windows executed, and
// after `hold` epochs runs one probe epoch in the other mode; the probe
// takes over only if it is more than 10 % cheaper — a smaller gap is
// within what two identical epochs differ by — and every probe the
// incumbent wins doubles hold, from 2 up to 256, so a 6,256-window run
// spends 6 of its 195 epochs probing (3 %) and a long one under 0.4 %. An
// epoch cut short by the end of a call is carried into the next call, not
// sampled. The governor's few words live in the Engine and so survive the
// many short Run and per-window StepOwned calls of a testbed or a
// distributed peer. With a single shard to execute (a one-shard engine, a
// distributed peer owning one shard, the coordinator owning none) there is
// no choice: runWindow is a direct call, no worker exists and no clock is
// read. There is no knob: Config carries nothing about execution.
//
// The choice cannot change results. Within a window a shard reads and
// writes only its own state and its own outboxes; mailboxes are flushed,
// hooks and controls run, after every shard has finished, by the caller,
// in a fixed order. Which goroutine ran a shard, and whether two shards'
// windows overlapped in time, is therefore unobservable to the model
// (tests force each mode, and a mode flip every epoch, against the
// recorded digests). Builds with the race detector bypass the governor
// and fan out every multi-shard window, so `go test -race` always sees
// the concurrent path in full, whatever the host would have chosen.
//
// Workers are scoped to one call: spawned at the call's first fanned
// window, parked on their channels through inline epochs, closed on
// return. Workers that outlived the call would need an explicit Close on
// the Engine, and an abandoned Engine would leak them. Stats reports what
// the governor did and the mailbox traffic it did it on.
package parsim

import (
	"fmt"
	"sort"
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

// Shard is one event loop of the engine, owning a disjoint slice of the
// model. All state reachable from events scheduled on a shard's Simulator
// must be owned by that shard; the only sanctioned ways to touch another
// shard's state are a Port (events at least one lookahead away) and the
// engine's barrier context.
type Shard struct {
	id  int
	sm  *sim.Simulator
	eng *Engine
	out [][]xmsg // per destination shard, flushed each barrier
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
	p.src.out[p.dst] = append(p.src.out[p.dst], xmsg{at: t, lane: lane, act: a, arg: arg})
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
	run      []*Shard         // StepOwned's scratch list of owned shards
	fanned   uint64           // windows whose shards were handed to workers
	mail     uint64           // cross-shard messages flushed or emitted
	mailLess uint64           // windows whose flush moved nothing
}

// New builds an engine with cfg.Shards fresh simulators, all at time zero.
func New(cfg Config) *Engine {
	if cfg.Shards < 1 {
		panic("parsim: need at least one shard")
	}
	if cfg.Lookahead <= 0 {
		panic("parsim: lookahead must be positive")
	}
	e := &Engine{look: cfg.Lookahead, clock: time.Now, gov: governor{hold: minHold}}
	e.shards = make([]*Shard, cfg.Shards)
	for i := range e.shards {
		e.shards[i] = &Shard{
			id:  i,
			sm:  sim.New(),
			eng: e,
			out: make([][]xmsg, cfg.Shards),
		}
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

// Pending sums the events waiting across all shards.
func (e *Engine) Pending() int {
	n := 0
	for _, s := range e.shards {
		n += s.sm.Pending()
	}
	return n
}

// Quiet reports whether nothing remains to run: every shard's heap is
// empty and no control action is outstanding. Meaningful between windows.
func (e *Engine) Quiet() bool {
	return e.Pending() == 0 && len(e.ctls) == 0
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

// flush moves every outbox message towards its destination heap, source
// shards in index order, messages in send order: straight into the heap
// when the destination is owned (owned == nil owns every shard), through
// emit otherwise. Same-lane messages can only originate from one shard (a
// lane names one sending entity), so this order is itself
// partition-independent; across lanes the heap key decides and insertion
// order is irrelevant.
func (e *Engine) flush(owned []bool, emit func(src, dst int, m Mail)) {
	moved := 0
	for _, src := range e.shards {
		for dst, msgs := range src.out {
			if len(msgs) == 0 {
				continue
			}
			moved += len(msgs)
			if owned == nil || owned[dst] {
				dsm := e.shards[dst].sm
				for _, m := range msgs {
					dsm.AtLane(m.at, m.lane, m.act, m.arg)
				}
			} else {
				for _, m := range msgs {
					emit(src.id, dst, Mail{At: m.at, Lane: m.lane, Act: m.act, Arg: m.arg})
				}
			}
			src.out[dst] = msgs[:0]
		}
	}
	e.mail += uint64(moved)
	if moved == 0 {
		e.mailLess++
	}
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

// OwnedPending counts the events pending on the owned subset of shards.
// On a distributed replica only the owned shards execute, so the global
// pending count is the sum of OwnedPending over all peers — unowned
// replicas' heaps hold stale build-time events that are executed (and
// therefore drained) only by their owner.
func (e *Engine) OwnedPending(owned []bool) int {
	n := 0
	for i, s := range e.shards {
		if owned[i] {
			n += s.sm.Pending()
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
// without executing them, flushes the mailboxes — pairs inside the owned
// set go straight to the destination heap, mail leaving it is handed to
// emit in (source shard, send order) — and runs the barrier hooks. The
// caller must deliver the mail it receives from other peers (DeliverMail)
// before the next StepOwned. Returns the new synchronized time.
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
// others' clocks skipping ahead — flushes the mailboxes and runs the
// barrier hooks.
func (e *Engine) loop(run []*Shard, owned []bool, emit func(src, dst int, m Mail), until sim.Time, stopWhenQuiet bool) {
	if e.now >= until {
		return
	}
	// Call-scoped (see the package comment), and only where there is
	// something to hand off: the pool escapes to its workers, and a
	// one-shard call should not pay an allocation for it.
	var pool *workers
	if len(run) > 1 {
		pool = new(workers)
		defer pool.close()
	}
	timed := e.timed(run)
	if timed {
		e.gov.open(e.clock(), e.Processed())
	}
	for e.now < until {
		e.runControls(e.now)
		if stopWhenQuiet && e.Quiet() {
			break
		}
		end := e.now + e.look
		e.runWindow(run, end, pool)
		for i, own := range owned {
			if !own {
				e.shards[i].sm.SkipTo(end)
			}
		}
		e.flush(owned, emit)
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

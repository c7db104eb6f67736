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
// than shards to run, which only a race build or a test fans out, nothing
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
// Mail carries an action or a value. An action (Port.AtLane) is a model
// object the sender hands over; a value (Port.AtValue) is a packet's
// fields, and the packet stays with the shard that owns it: the sender
// puts it back on its own free list, and the receiver's lander (OnValue)
// fills one of its own, or, when the value's only effect is to be counted,
// counts it without a packet and holds its instant (sim.Hold) until a
// window has passed it, so the drain still ends where the event would have
// ended it. A fabric cell crosses a cut this way, in process and between
// distributed peers alike: one representation, and no core ever writes a
// packet another core wrote last.
//
// What a shard's goroutine writes inside a window fills whole cache lines:
// Shard, its outbox headers, sim.Simulator, the per-shard counters and free
// lists of fabric and netsim, and the fabric's nodes, edge counters,
// injectors and links (whose receiver-written half starts a line of its
// own) are padded to multiples of sim.CacheLine (a layout test each),
// because the allocator packs equal-sized objects back to back and a
// 48-byte counter block shared a line with its neighbour's. Each of the
// first three was necessary: the sizing prototype's forced fan-out of the
// benchmark's K=8 run stayed at 0.43-0.49 s with any two, against 0.30-0.35
// with all. With cells crossing by value as well (Value), a fanned window
// of that run costs 1.3-1.5x an inline one per event, against 1.7-2.2x
// while cells crossed as pointers (in-process alternation on the 2-vCPU
// reference VM; Stats.Busy).
//
// Fan-out still buys parallelism at a price — every window ends when its
// slowest shard does — and it can pay only while each shard has a
// processor of its own. So the rule is a count, read once per Run,
// RunUntilQuiet or StepOwned call: a call with more than one shard to run,
// for more than one window, fans out when there are at least as many
// processors (GOMAXPROCS or the usable CPUs, whichever is fewer) as
// shards; otherwise it runs inline and allocates no worker pool. The
// benchmark's two-shard K=8 run takes a median 0.150 s this way on the
// 2-vCPU reference VM, and 0.197 s under the opposite rule, inline unless
// a processor is left over. A host can still withhold a processor the
// count promised (another tenant; taskset with GOMAXPROCS left alone), and
// then hand-offs park instead of polling. That is the one signal the
// executor reads, and it is a count too (backOff): when more than a
// quarter of an epoch's 32 fanned windows park, the engine runs inline for
// 32 epochs, twice as long each time fan-out starves again, up to 256,
// until a fanned epoch parks nowhere. One shard to execute (a one-shard
// engine, a distributed peer owning one, the coordinator owning none) is a
// direct call, with no worker, and so is one window (every StepOwned, so
// also a peer owning several shards). There is no knob: Config carries
// nothing about execution, and the one clock the engine reads times fanned
// windows (Stats.Busy).
//
// The choice cannot change results. Within a window a shard reads and
// writes only its own state, the outboxes it fills and the ones it drains;
// mail leaves the owned set, hooks and controls run, after every shard has
// finished, by the caller, in a fixed order. Which goroutine ran a shard,
// and whether two shards' windows overlapped in time, is therefore
// unobservable to the model (tests force each mode, and a mode flip every
// epoch, against the recorded digests; a stress test runs a million
// hand-offs with shards that stall past the spin). Race builds fan out
// every multi-shard window, so `go test -race` sees the concurrent path.
//
// Workers are scoped to one call: spawned at its first fanned window,
// parked through the back-off's inline epochs, stopped when it returns.
// Workers that outlived the call would need an explicit Close on the
// Engine, and an abandoned Engine would leak them; the price is that one
// window runs inline, and one forced to fan out (tests, race builds)
// starts its workers on the caller's processor and runs its shards in turn.
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

// xmsg is one cross-shard message in flight: an action, scheduled into
// the destination shard's heap as its window begins, or a value, handed to
// the engine's lander there (Engine.OnValue). It is half a cache line: the
// receiver reads every line the sender wrote, and on the benchmark's K=8
// Clos a window carries dozens. So what a message refers to — its action,
// a value's Flow — waits beside it in the outbox, at the message's own
// index (acts, flows), and tag says which.
type xmsg struct {
	at   sim.Time
	arg  uint64 // an action's argument, a value's Seq
	lane int32
	dst  int32  // a value's Dst
	size int32  // a value's Size
	tag  uint32 // msgAction, or a value's flags (flagAck ... flagFlow)
}

// A message's tag.
const (
	flagAck = 1 << iota
	flagCE
	flagEcho
	flagDown
	flagFlow // the value's Flow is not nil
	msgAction
)

// valueMsg is the message that carries v, but for its Flow, which waits
// beside it.
func valueMsg(t sim.Time, lane int32, v Value) xmsg {
	m := xmsg{at: t, arg: uint64(v.Seq), lane: lane, dst: v.Dst, size: v.Size}
	if v.Ack {
		m.tag |= flagAck
	}
	if v.CE {
		m.tag |= flagCE
	}
	if v.Echo {
		m.tag |= flagEcho
	}
	if v.Down {
		m.tag |= flagDown
	}
	return m
}

// Value is what a message carries when its sender hands over no object:
// the fields of a packet (netsim.Packet) that a cell needs on its next
// hop. The sending shard copies them out and puts its packet back on its
// own free list; the receiving shard's lander copies them into a packet of
// its own, or counts them without one. So a packet is only ever written by
// the goroutine of the shard that owns it, and a crossing costs the
// receiver no cache line the sender wrote, beyond the outbox it reads
// anyway. Seq is a whole 64-bit word: ECMP's flow ids and the tests'
// unique cell ids ride in it; Size is a cell's, far inside 31 bits. Flow
// is what the packet's endpoints share (the Stardust transport's
// reassembly state, which the transport hands across by itself): the
// value carries the reference, and no endpoint keeps one to the packet.
type Value struct {
	Seq                 int64
	Flow                any
	Size                int32
	Dst                 int32
	Ack, CE, Echo, Down bool
}

// outbox holds the messages one shard has sent to one other and the
// receiver has not drained yet, and what they refer to. The sender appends
// during one window, the receiver empties it at the start of the next:
// each header has cache lines to itself, so neither disturbs the boxes the
// other is working on.
type outbox struct {
	msgs  []xmsg
	acts  []sim.Action // the actions of msgs
	flows []any        // the Flows of msgs' values
	_     [2*sim.CacheLine - 72]byte
}

// refer puts ref at index i of refs, which holds the references of the
// messages before i that have one, and zero values in between.
func refer[T any](refs []T, i int, ref T) []T {
	for len(refs) < i {
		var zero T
		refs = append(refs, zero)
	}
	return append(refs, ref)
}

// value is the value that message i of o carries.
func (o *outbox) value(i int) Value {
	m := &o.msgs[i]
	v := Value{
		Seq: int64(m.arg), Size: m.size, Dst: m.dst,
		Ack: m.tag&flagAck != 0, CE: m.tag&flagCE != 0, Echo: m.tag&flagEcho != 0, Down: m.tag&flagDown != 0,
	}
	if m.tag&flagFlow != 0 {
		v.Flow = o.flows[i]
	}
	return v
}

// mail is message i of o in exported form.
func (o *outbox) mail(i int) Mail {
	m := &o.msgs[i]
	if m.tag&msgAction != 0 {
		return Mail{At: m.at, Lane: m.lane, Act: o.acts[i], Arg: m.arg}
	}
	return Mail{At: m.at, Lane: m.lane, Val: o.value(i)}
}

// reset empties o, references included, so that nothing it held stays
// reachable.
func (o *outbox) reset() {
	clear(o.acts)
	clear(o.flows)
	o.msgs, o.acts, o.flows = o.msgs[:0], o.acts[:0], o.flows[:0]
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

	sent   uint64        // messages sent through Ports (Stats.Mail)
	last   atomic.Uint64 // fanned windows this shard was the last to finish
	busy   time.Duration // wall-clock time spent running fanned windows (Stats.Busy)
	busyEv uint64        // events executed in them
	_      [sim.CacheLine - 32]byte
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
	o := p.outbox(t)
	o.acts = refer(o.acts, len(o.msgs), a)
	o.msgs = append(o.msgs, xmsg{at: t, arg: arg, lane: lane, tag: msgAction})
}

// AtValue enqueues v to be landed on the destination shard at time t, on
// lane, by the engine's lander (OnValue). The lookahead rule of AtLane
// holds.
func (p Port) AtValue(t sim.Time, lane int32, v Value) {
	o := p.outbox(t)
	m := valueMsg(t, lane, v)
	if v.Flow != nil {
		o.flows = refer(o.flows, len(o.msgs), v.Flow)
		m.tag |= flagFlow
	}
	o.msgs = append(o.msgs, m)
}

// outbox checks that a message for time t respects the lookahead, counts
// it, and returns the outbox it goes to.
func (p Port) outbox(t sim.Time) *outbox {
	if t < p.src.sm.Now()+p.src.eng.look {
		panic(fmt.Sprintf("parsim: cross-shard event at %d violates lookahead (now %d + %d)",
			t, p.src.sm.Now(), p.src.eng.look))
	}
	p.src.sent++
	return &p.src.out[2*p.dst+p.src.eng.par]
}

// window executes the window ending at end on s, on whichever goroutine
// the executor chose: first the mail the other shards sent s during the
// last window (the outboxes not being filled) goes into the heap — source shards
// in index order, messages in send order; same-lane messages can only
// originate from one shard (a lane names one sending entity), so this
// order is itself partition-independent, and across lanes the heap key
// decides and insertion order is irrelevant — then the events before end.
// A value goes to the engine's lander, which schedules what it stands for
// or, when its only effect is to be counted, counts it and holds its
// instant (sim.Hold).
func (s *Shard) window(end sim.Time) {
	par := s.eng.par ^ 1
	for _, src := range s.eng.shards {
		o := &src.out[2*s.id+par]
		if len(o.msgs) == 0 {
			continue
		}
		for i := range o.msgs {
			if m := &o.msgs[i]; m.tag&msgAction != 0 {
				s.sm.AtLane(m.at, m.lane, o.acts[i], m.arg)
			} else {
				s.eng.land(m.at, m.lane, o.value(i))
			}
		}
		o.reset()
	}
	s.sm.RunBefore(end)
}

// fannedWindow is window as a fanned-out window runs it, timed: two clock
// reads, which only fan-out pays (Stats.Busy).
func (s *Shard) fannedWindow(end sim.Time) {
	t0, p0 := time.Now(), s.sm.Processed
	s.window(end)
	s.busy += time.Since(t0)
	s.busyEv += s.sm.Processed - p0
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
	land     func(t sim.Time, lane int32, v Value) // OnValue
	ctls     []control
	ctlSeq   int
	now      sim.Time // end of the last completed window
	inWindow bool

	// Execution (see the package comment): the back-off outlives every
	// Run and StepOwned call, workers do not.
	back     backOff
	force    execForce     // tests only: overrides the rule, the back-off and the race build
	procs    int           // tests only: overrides what processors() asks the runtime
	spin     int           // polls before a hand-off parks; spinBudget, tests vary it
	run      []*Shard      // StepOwned's scratch list of owned shards
	fanned   uint64        // windows whose shards were handed to workers
	parked   atomic.Uint64 // hand-offs that outlasted the spin and parked
	mail     uint64        // cross-shard messages sent up to the last barrier
	mailLess uint64        // windows in which none was sent
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
		look: cfg.Lookahead, back: backOff{hold: starvedHold}, spin: spinBudget,
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

// OnValue installs fn as the lander of every message sent by value
// (Port.AtValue, a Mail without an Act). It runs on the receiving shard as
// that shard's window begins, or in barrier context for DeliverMail, and
// must schedule what v stands for at (t, lane) on the shard that lane
// feeds, or count it there and hold its instant (sim.Hold). Install it
// before the first window.
func (e *Engine) OnValue(fn func(t sim.Time, lane int32, v Value)) { e.land = fn }

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
			for i := range o.msgs {
				emit(src.id, dst, o.mail(i))
			}
			o.reset()
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
// distributed runtime (internal/distsim) serializes over the wire. It
// carries an action, Act(Arg), or, with Act nil, a value for the engine's
// lander (Val, see OnValue). Inside one process an Act is a live model
// object; a distributed peer encodes either kind with a model codec at the
// barrier and the receiving peer decodes it against its own replica of the
// model.
type Mail struct {
	At   sim.Time
	Lane int32
	Act  sim.Action
	Arg  uint64
	Val  Value
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
// irrelevant. Like a local flush it hands a value to the lander.
func (e *Engine) DeliverMail(dst int, m Mail) {
	if e.inWindow {
		panic("parsim: DeliverMail outside barrier context")
	}
	if m.Act == nil {
		e.land(m.At, m.Lane, m.Val)
		return
	}
	e.shards[dst].sm.AtLane(m.At, m.Lane, m.Act, m.Arg)
}

// StepOwned advances exactly one window — the distributed counterpart of
// one iteration of Run's loop. It runs the controls due at the window
// start, executes the window on every shard with owned[i] == true (inline,
// as the rule runs one window), advances unowned shards' clocks without
// executing them, hands the mail leaving the owned set to emit in (source
// shard, send order) — mail inside it waits for its receiver's next window
// and counts as pending until then — and runs the barrier hooks. The
// caller must deliver the mail it receives from other peers (DeliverMail)
// before the next StepOwned, and must not drop a shard from the owned set
// while OwnedPending counts mail for it. Returns the new synchronized time.
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
	// The rule (see the package comment), read once per call. Only a call
	// that hands shards off allocates its pool, which escapes to the
	// workers. Its hand-offs poll only while every shard has a processor
	// to itself: with fewer, the goroutine polled for may be waiting for
	// this one to get off its processor.
	var pool *workers
	if len(run) > 1 && e.force != forceInline {
		procs := e.processors()
		if e.force != forceNone || raceEnabled || len(run) <= procs && until-e.now > e.look {
			pool = &workers{eng: e}
			defer pool.close()
			if len(run) <= procs {
				pool.spin = e.spin
			}
		}
	}
	backs := pool != nil && e.force == forceNone && !raceEnabled
	for e.now < until {
		e.runControls(e.now)
		if stopWhenQuiet && e.Quiet() {
			break
		}
		end := e.now + e.look
		fanned := e.runWindow(run, end, pool, backs)
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
		if fanned && backs {
			e.back.fanned(e.parked.Load())
		}
	}
}

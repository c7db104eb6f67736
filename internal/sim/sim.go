// Package sim provides a deterministic discrete-event simulation kernel.
//
// Time is measured in integer picoseconds, which is fine enough to express a
// single byte on a 100 Gbps serial link (80 ps) exactly while still allowing
// simulations that span days of virtual time in an int64.
//
// Events are ordered by (time, lane, sequence-of-scheduling). Ordinary
// scheduling (At/After and friends) uses the default lane, so two events
// scheduled for the same instant fire in the order they were scheduled; this
// makes every simulation in this repository reproducible bit-for-bit.
//
// Lanes exist for sharded (parallel) simulation: the scheduling-order
// tie-break depends on the global interleaving of earlier events, which a
// partitioned simulation cannot reproduce, so shardable components instead
// tag same-instant events with an explicit lane (AtLane) — a small integer
// naming a stable entity such as a directed link. Events on distinct lanes
// at the same instant fire in lane order, and events on one lane are always
// scheduled causally by a single owner, so the total order is a function of
// the simulated system alone, not of how it was partitioned across event
// loops. All explicit lanes sort before the default lane.
//
// The kernel offers two scheduling forms: At/After take an ordinary
// func() closure, while AtAction/AfterAction take a pre-bound Action plus a
// uint64 argument. The Action form exists for hot paths (queues draining,
// packets propagating, timers re-arming): it stores the callback and its
// argument inline in the event, so scheduling allocates nothing. A closure
// is stored as an Action too — a func value is pointer-shaped, so wrapping
// it in one costs no allocation — and the loop has one call form.
//
// # Event store
//
// Events live in a near-future bucket ladder (a calendar queue) instead of
// one big binary heap. The ladder covers a sliding window of ladderBuckets
// buckets of 2^bucketShift picoseconds each; an event scheduled inside the
// window is appended to its bucket in O(1), and a whole bucket is sorted
// once when its turn comes, so draining a window's
// worth of events costs O(1) amortized heap traffic — the run-combining the
// single heap could not do. Two small binary heaps back the ladder up: the
// "young" heap absorbs events scheduled into the bucket currently draining
// (they must interleave with the sorted run), and the "overflow" heap holds
// events beyond the ladder horizon (long timers), migrating into the ladder
// as the window slides. The execution order — and therefore every
// simulation in the repository — is bit-identical to the single-heap
// kernel's (time, lane, seq).
//
// Each bucket stores events as a struct-of-arrays split: a hot array of
// one-word keys, eight to a cache line, that the sort and the drain loop
// touch, and a cold array of 24-byte bodies (Action, argument) read once
// per execution. A key packs, most significant first, the event's offset
// inside its bucket, its lane and its append position (the index of its
// body), so one unsigned compare orders two keys and the bucket number
// restores the time. Inside a bucket append order is sequence order: a
// bucket's overflow events migrate into it, in heap order, in the advance
// that brings it into the window, before it can take a direct schedule,
// and a bucket loaded as the run is never appended to. So (time, lane,
// index) sorts a bucket as (time, lane, seq) would. The young and overflow
// heaps keep seq; a young event was scheduled after the run was loaded,
// so a (time, lane) tie between the two goes to the run. A bucket that
// would outgrow the key's index field keeps the excess, with seq, in a
// spill list that joins young when the bucket is loaded: every spilled
// event was scheduled after every event in the bucket, so losing its
// (time, lane) ties to the run is its place. The oracle
// TestKernelOrderMatchesHeap / FuzzKernelOrder holds the store to a plain
// heap on (time, lane, seq).
//
// # Completions
//
// A fixed-rate serializer knows when a cell will leave the moment the cell
// joins its queue, and the completion's only effects are on the queue's
// own counters. Such an event need not be dispatched if its place in the
// order can be decided without a sequence number, and one rule decides it:
// a serializer completion runs after every explicit-lane event and before
// every default-lane event of its instant. Completed(t) is that rule as a
// question — has a completion due at t taken effect yet? — asked by
// whoever looks at the queue next; CompletionLane is the same rule as a
// lane, for the completion that must be an event after all. Between runs
// the answer follows what the last run call executed: RunBefore(end)
// leaves every event at end unexecuted, RunUntil(d) and an exhausted Run
// leave nothing at or before the clock. The rule has to be free of
// sequence numbers because the number a completion would have drawn is
// taken inside the completion before it, and a chain of elided
// completions never draws any.
//
// Eliding an event is only sound if everything it would have scheduled can
// be scheduled early under a key that does not depend on when that
// happens. A delivery on an explicit lane qualifies when the lane has one
// sender emitting at distinct instants — a directed link: (time, lane)
// alone orders it and the sequence number it happens to get is irrelevant.
// A default-lane delivery does not: its sequence number would be taken
// inside the elided event, between whatever else ran at that instant, and
// cannot be known beforehand. That is why only lane-keyed wires may be
// driven early.
//
// How early is bounded by ElideHorizon, half the ladder's reach: a
// delivery scheduled further ahead than the ladder covers lands in the
// overflow heap and costs more than the completion it saved. A serializer
// with more queued than that hands over a horizon's worth and lets the
// completion of the last cell handed be a real event (AtCompletion) that
// hands over the next.
//
// Processed counts an elided completion once, like any other event: at
// Elide; AtCompletion takes one count back and the real event counts
// itself when it runs (AtHeld does the same for a held delivery). Both
// points are functions of the simulated system, so the total stays
// independent of the partitioning. Dispatched reports what the loop
// actually executed.
//
// The same rule covers a delivery whose only effect is to be counted by
// its receiver — a cell reaching an egress that does nothing but count
// it. Its place is its own (time, lane) key, so the receiver records it
// where it is handed over (Hold) and applies it whenever it is next
// looked at, once Due(time, lane) says the event would have run. A held
// delivery counts as processed at Hold and keeps the simulator pending
// until its instant has passed, so a run drained to quiet ends where it
// would have ended with the event. A mailbox that hands deliveries to the
// loop that runs them (parsim) lets the receiver decide the same way, and
// hold what it counted. A receiver that counts several deliveries toward
// one effect (the cells of one packet) runs that effect as an event after
// all, at the key of the last delivery it counted: AtHeld.
package sim

import (
	"math/bits"
	"slices"
)

// Time is a point in simulated time, in picoseconds.
type Time int64

// Convenient duration constants, all expressed in Time (picoseconds).
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Microseconds converts t to floating-point microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Nanoseconds converts t to floating-point nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Action is a pre-bound event callback. Scheduling an Action avoids the
// per-event closure allocation of At/After; the arg passed to
// AtAction/AfterAction is handed back verbatim, letting one long-lived
// object serve many in-flight events.
type Action interface {
	Act(arg uint64)
}

// ActionFunc adapts a plain function to the Action interface (for cold
// paths where the closure allocation does not matter).
type ActionFunc func(arg uint64)

// Act implements Action.
func (f ActionFunc) Act(arg uint64) { f(arg) }

// funcAction is how At, After and AtLaneFunc store their closure: a func
// value is pointer-shaped, so the conversion to Action allocates nothing.
type funcAction func()

func (f funcAction) Act(uint64) { f() }

// DefaultLane is the lane of events scheduled without an explicit lane
// (At/After/AtAction/AfterAction). Explicit lanes must be smaller than
// CompletionLane, so they always sort before default-lane events at the
// same instant.
const DefaultLane int32 = 1<<31 - 1

// LaneScheduler is the scheduling surface a shardable simulation component
// needs: the current time plus lane-keyed event insertion. *Simulator
// implements it directly for intra-shard work; parsim's cross-shard ports
// implement it with mailboxes that are flushed at the window barrier.
type LaneScheduler interface {
	Now() Time
	AtLane(t Time, lane int32, a Action, arg uint64)
}

// Ladder geometry. A bucket spans 2^bucketShift picoseconds (65.5 ns) and
// the ladder holds ladderBuckets of them — a 16.8 µs horizon, which covers
// the link/control delays and serialization times of every hot simulation
// in this repository; longer timers ride the overflow heap. The width is
// tuned on the transport benchmark: narrower buckets spend their time in
// ladder advances, wider ones in the per-bucket sort. bucketCap is the
// capacity a bucket's arrays start with: the pool ends up holding one pair
// per bucket that is ever occupied at once, and growing each from nil
// would cost it five reallocations.
const (
	bucketShift   = 16
	ladderBuckets = 256
	ladderMask    = ladderBuckets - 1
	bucketCap     = 32
)

// A bucket key is the hot half of a bucket event, one uint64 (see Event
// store): offset<<(laneBits+indexBits) | lane<<indexBits | index.
//   - offsetBits is bucketShift: the offset names every picosecond of the
//     bucket, and the bucket number supplies the rest of the time.
//   - laneBits is 31: every lane an event can have, explicit lanes,
//     CompletionLane and DefaultLane (1<<31 - 1), is a non-negative int32.
//   - indexBits is what is left, 17: up to 131,072 events in one bucket
//     have a key, and only more than that scheduled inside one 65.5 ns
//     span spill (maxBucketKeys).
const (
	offsetBits    = bucketShift
	laneBits      = 31
	indexBits     = 64 - offsetBits - laneBits
	maxBucketKeys = 1 << indexBits

	offsetShift = laneBits + indexBits
	laneMask    = 1<<laneBits - 1
	indexMask   = maxBucketKeys - 1
)

// bucketKey packs an event at time at, on lane lane, appended at index:
// the bucket it is stored in supplies the rest of at.
func bucketKey(at Time, lane int32, index int) uint64 {
	return uint64(at&(1<<offsetBits-1))<<offsetShift | uint64(lane)<<indexBits | uint64(index)
}

// eventBody is the cold half of an event: read once, at execution.
type eventBody struct {
	act Action
	arg uint64
}

// bucket is one ladder slot: parallel key/body arrays, appended in
// scheduling order and sorted by key only when the bucket's turn comes,
// plus the spill list of events past maxBucketKeys (nil but in a bucket
// that big; the run's is always nil). Drained slots hand their arrays back
// to the Simulator's buffer pool rather than keeping them: the set of live
// slots slides with the clock, so per-slot capacity would have to be
// re-grown for every new window position, while a shared LIFO pool
// converges once to the largest bucket load and then never allocates
// again.
type bucket struct {
	keys   []uint64
	bodies []eventBody
	spill  []event
}

// event is the AoS form used by the young/overflow heaps, where events are
// few and cache density does not pay.
type event struct {
	at   Time
	seq  uint64
	lane int32
	act  Action
	arg  uint64
}

// eventHeap is a hand-rolled binary min-heap of events ordered by
// (time, lane, seq) — no interface boxing, no allocation per push.
type eventHeap struct{ ev []event }

func (h *eventHeap) len() int { return len(h.ev) }

func (h *eventHeap) less(i, j int) bool {
	a, b := &h.ev[i], &h.ev[j]
	return a.at < b.at || a.at == b.at && (a.lane < b.lane || a.lane == b.lane && a.seq < b.seq)
}

func (h *eventHeap) push(e event) {
	h.ev = append(h.ev, e)
	i := len(h.ev) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.ev[i], h.ev[parent] = h.ev[parent], h.ev[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	e := h.ev[0]
	n := len(h.ev) - 1
	h.ev[0] = h.ev[n]
	h.ev[n] = event{} // drop callback references for the GC
	h.ev = h.ev[:n]
	h.siftDown(0)
	return e
}

func (h *eventHeap) siftDown(i int) {
	n := len(h.ev)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && h.less(l, min) {
			min = l
		}
		if r < n && h.less(r, min) {
			min = r
		}
		if min == i {
			break
		}
		h.ev[i], h.ev[min] = h.ev[min], h.ev[i]
		i = min
	}
}

// CacheLine is the size in bytes that everything one goroutine of a
// sharded run writes inside a window is rounded up to (this Simulator,
// parsim.Shard and the per-shard counters of fabric and netsim), so the
// allocator cannot put two shards' state on one line and make every update
// on one core invalidate the other's copy. 64 is the coherence unit of
// x86-64 and of most arm64 parts; where lines are wider, neighbours share
// one again and a sharded run is slower, not wrong.
const CacheLine = 64

// Simulator is a single-threaded discrete-event scheduler. The zero value is
// ready to use. Distinct Simulators are fully independent, so many can run
// concurrently (one per goroutine) without sharing state — cache lines
// included: the struct fills whole lines (TestSimulatorLayout).
type Simulator struct {
	now     Time
	seq     uint64
	stopped bool
	holding bool // a delivery was held (Hold); holdAt/holdLane is the latest
	npend   int
	// Processed counts events executed so far, plus the completions that
	// were elided (see Completions in the package comment): the count of a
	// model's events, whether or not the loop had to dispatch them. Useful
	// for budgeting runs.
	Processed uint64
	elided    uint64 // counted without running: Processed - elided ran

	// Where the event order stands: the running event's lane (its time is
	// now), or between runs what the last run call left behind. Completed
	// answers from it.
	curLane  int32
	holdLane int32
	holdAt   Time

	// Bucket ladder: ladder[b&ladderMask] holds the events of absolute
	// bucket b for b in (curB, curB+ladderBuckets). occupied is the
	// nonempty-slot bitmap the advance scan walks with TrailingZeros.
	curB     int64
	ladder   []bucket
	occupied [ladderBuckets / 64]uint64

	// Current sorted run: the events of bucket curB, drained by cursor.
	run    bucket
	runPos int

	// young absorbs events scheduled at or before the draining bucket —
	// they must interleave with the sorted run; overflow holds events
	// beyond the ladder horizon.
	young    eventHeap
	overflow eventHeap

	// Recycled slot buffers (see bucket).
	freeKeys   [][]uint64
	freeBodies [][]eventBody

	// Local is what a layer above the kernel keeps per event loop: only
	// the loop's own events and barrier context may touch it. netsim keeps
	// the loop's free packets here. It fills the last line exactly.
	Local any
}

// New returns a Simulator starting at time zero.
func New() *Simulator { return &Simulator{} }

// Now returns the current simulated time.
func (s *Simulator) Now() Time { return s.now }

// Pending returns the number of events waiting to run, plus one while a
// held delivery (Hold) is not yet due.
func (s *Simulator) Pending() int {
	if s.holding && !s.Due(s.holdAt, s.holdLane) {
		return s.npend + 1
	}
	return s.npend
}

func (s *Simulator) bucketOf(t Time) int64 { return int64(t) >> bucketShift }

func (s *Simulator) markOccupied(b int64) {
	slot := uint64(b) & ladderMask
	s.occupied[slot>>6] |= 1 << (slot & 63)
}

func (s *Simulator) clearOccupied(b int64) {
	slot := uint64(b) & ladderMask
	s.occupied[slot>>6] &^= 1 << (slot & 63)
}

// bucketAdd appends one event to ladder bucket b, pulling recycled arrays
// from the pool when the slot is bare, or to the slot's spill list when
// its keys are all taken.
func (s *Simulator) bucketAdd(b int64, at Time, lane int32, seq uint64, act Action, arg uint64) {
	if s.ladder == nil {
		s.ladder = make([]bucket, ladderBuckets)
	}
	slot := &s.ladder[b&ladderMask]
	if slot.keys == nil {
		if n := len(s.freeKeys); n > 0 {
			slot.keys = s.freeKeys[n-1]
			slot.bodies = s.freeBodies[n-1]
			s.freeKeys = s.freeKeys[:n-1]
			s.freeBodies = s.freeBodies[:n-1]
		} else {
			slot.keys = make([]uint64, 0, bucketCap)
			slot.bodies = make([]eventBody, 0, bucketCap)
		}
	}
	i := len(slot.bodies)
	if i == maxBucketKeys {
		slot.spill = append(slot.spill, event{at: at, seq: seq, lane: lane, act: act, arg: arg})
		return
	}
	slot.keys = append(slot.keys, bucketKey(at, lane, i))
	slot.bodies = append(slot.bodies, eventBody{act: act, arg: arg})
	s.markOccupied(b)
}

func (s *Simulator) schedule(t Time, lane int32, act Action, arg uint64) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	seq := s.seq
	s.npend++
	b := s.bucketOf(t)
	// Single unsigned compare for the common case: b in (curB, curB+NB).
	if uint64(b-s.curB-1) < ladderBuckets-1 {
		s.bucketAdd(b, t, lane, seq, act, arg)
	} else if b <= s.curB {
		s.young.push(event{at: t, seq: seq, lane: lane, act: act, arg: arg})
	} else {
		s.overflow.push(event{at: t, seq: seq, lane: lane, act: act, arg: arg})
	}
}

// CompletionLane is the lane of a serializer completion that has to be a
// real event: above every explicit lane, below DefaultLane (see
// Completions in the package comment).
const CompletionLane = DefaultLane - 1

// ElideHorizon is how far ahead of the clock a serializer may start a
// cell's service without an event: half the ladder, so that the delivery
// it schedules — a serialization and a propagation later — still lands in
// a bucket and not in the overflow heap.
const ElideHorizon Time = (ladderBuckets / 2) << bucketShift

// Due reports whether an event at (t, lane) would have run by now:
// relative to the running event when called from one, relative to what
// the last run call executed otherwise.
func (s *Simulator) Due(t Time, lane int32) bool {
	return t < s.now || t == s.now && lane < s.curLane
}

// Completed reports whether a serializer completion due at t has taken
// effect: Due on CompletionLane.
func (s *Simulator) Completed(t Time) bool { return s.Due(t, CompletionLane) }

// Elide counts one completion as processed without enqueuing it.
func (s *Simulator) Elide() {
	s.Processed++
	s.elided++
}

// AtCompletion turns a completion counted by Elide into the event it
// stands for: the count is taken back, a.Act(arg) runs at t on
// CompletionLane and counts itself then. Allocates nothing.
func (s *Simulator) AtCompletion(t Time, a Action, arg uint64) {
	s.Processed--
	s.elided--
	s.schedule(t, CompletionLane, a, arg)
}

// Dispatched returns the number of events the loop executed: Processed
// without the completions and deliveries that were elided.
func (s *Simulator) Dispatched() uint64 { return s.Processed - s.elided }

// Hold counts a delivery at (t, lane) as processed without enqueuing it:
// its receiver has recorded it and applies it once Due(t, lane). Until
// then the simulator stays pending, as it would with the event queued.
// t must not be in the past.
func (s *Simulator) Hold(t Time, lane int32) {
	s.Processed++
	s.elided++
	if !s.holding || t > s.holdAt || t == s.holdAt && lane > s.holdLane {
		s.holding, s.holdAt, s.holdLane = true, t, lane
	}
}

// AtHeld turns a delivery counted by Hold at (t, lane) into the event it
// stands for: the count is taken back, a.Act(arg) runs at (t, lane) and
// counts itself then. The Hold may come just after the call, in the same
// hand-over. Allocates nothing.
func (s *Simulator) AtHeld(t Time, lane int32, a Action, arg uint64) {
	s.Processed--
	s.elided--
	s.schedule(t, lane, a, arg)
}

// At schedules fn to run at absolute time t. Scheduling in the past (t <
// Now()) runs the event at the current time instead, preserving causality.
func (s *Simulator) At(t Time, fn func()) { s.schedule(t, DefaultLane, funcAction(fn), 0) }

// After schedules fn to run d picoseconds from now.
func (s *Simulator) After(d Time, fn func()) { s.schedule(s.now+d, DefaultLane, funcAction(fn), 0) }

// AtAction schedules a.Act(arg) at absolute time t without allocating.
func (s *Simulator) AtAction(t Time, a Action, arg uint64) { s.schedule(t, DefaultLane, a, arg) }

// AfterAction schedules a.Act(arg) d picoseconds from now without
// allocating.
func (s *Simulator) AfterAction(d Time, a Action, arg uint64) {
	s.schedule(s.now+d, DefaultLane, a, arg)
}

// AtLane schedules a.Act(arg) at absolute time t on an explicit event lane
// (see the package comment: same-instant events fire in lane order, which
// is what makes sharded execution order-independent of the partitioning).
// Lanes must be non-negative and below DefaultLane. Implements
// LaneScheduler; allocates nothing.
func (s *Simulator) AtLane(t Time, lane int32, a Action, arg uint64) {
	s.schedule(t, lane, a, arg)
}

// AtLaneFunc is AtLane for a plain closure (cold paths).
func (s *Simulator) AtLaneFunc(t Time, lane int32, fn func()) {
	s.schedule(t, lane, funcAction(fn), 0)
}

// Stop makes Run return after the currently executing event completes.
func (s *Simulator) Stop() { s.stopped = true }

// nextBucket finds the smallest absolute bucket in (curB, curB+ladderBuckets)
// with pending events, or -1. The occupancy bitmap makes the scan a handful
// of word tests.
func (s *Simulator) nextBucket() int64 {
	for b := s.curB + 1; b < s.curB+ladderBuckets; {
		slot := uint64(b) & ladderMask
		word := s.occupied[slot>>6] >> (slot & 63)
		if word != 0 {
			return b + int64(bits.TrailingZeros64(word))
		}
		// Jump to the next word boundary (still circular in absolute terms).
		b += int64(64 - (slot & 63))
	}
	return -1
}

// sortKeys orders a bucket's keys, and so its events by (time, lane,
// index). Buckets are small — a ladder slot spans tens of ns — and
// appended in near-ascending time order (adaptive: ~O(n)), so an insertion
// sort, one word compare and one word moved per step, beats the generic
// sort; pathological buckets fall back to slices.Sort.
func sortKeys(keys []uint64) {
	if len(keys) > 96 {
		slices.Sort(keys)
		return
	}
	for i := 1; i < len(keys); i++ {
		k, j := keys[i], i
		for ; j > 0 && k < keys[j-1]; j-- {
			keys[j] = keys[j-1]
		}
		keys[j] = k
	}
}

// advance slides the ladder to the next nonempty bucket and loads it as the
// sorted run. Returns false when nothing is pending anywhere.
func (s *Simulator) advance() bool {
	next := s.nextBucket()
	if s.overflow.len() > 0 {
		ob := s.bucketOf(s.overflow.ev[0].at)
		if next < 0 || ob < next {
			next = ob
		}
	}
	if next < 0 {
		return false
	}
	s.curB = next
	// Events parked in overflow may now fall inside the window; migrate
	// them before loading the run so the new bucket is complete.
	horizon := s.curB + ladderBuckets
	for s.overflow.len() > 0 && s.bucketOf(s.overflow.ev[0].at) < horizon {
		e := s.overflow.pop()
		b := s.bucketOf(e.at)
		if b <= s.curB {
			s.young.push(e)
			continue
		}
		s.bucketAdd(b, e.at, e.lane, e.seq, e.act, e.arg)
	}
	// An occupied slot holds events, and a bucket chosen for the overflow
	// head just put that head into young: there is something to run.
	var slot *bucket
	if s.ladder != nil {
		slot = &s.ladder[s.curB&ladderMask]
	}
	if slot != nil && slot.keys != nil {
		// Take the bucket's arrays as the new run and recycle the drained
		// run's arrays through the pool (see bucket). Executed bodies had
		// their callback references dropped in step, so the returned
		// arrays hold nothing for the GC.
		s.freeKeys = append(s.freeKeys, s.run.keys[:0])
		s.freeBodies = append(s.freeBodies, s.run.bodies[:0])
		s.run.keys, s.run.bodies = slot.keys, slot.bodies
		slot.keys, slot.bodies = nil, nil
		s.clearOccupied(s.curB)
		// Spilled events lose their (time, lane) ties to the run, as
		// young events do (see Event store).
		for _, e := range slot.spill {
			s.young.push(e)
		}
		slot.spill = nil
	} else {
		s.run.keys = s.run.keys[:0]
		s.run.bodies = s.run.bodies[:0]
	}
	s.runPos = 0
	if len(s.run.keys) > 1 {
		sortKeys(s.run.keys)
	}
	return true
}

// drain is the one event loop behind Run/RunBefore/RunUntil: it executes
// events in (time, lane, seq) order until the store empties, Stop is
// called, or the next event's time reaches the limit (at >= limit with
// haveLimit; RunUntil passes deadline+1 to make the bound inclusive).
// Fusing the select-next and execute steps keeps the run/young comparison
// and the region bookkeeping to one pass per event — this loop is the
// single hottest code in the repository.
func (s *Simulator) drain(limit Time, haveLimit bool) {
	s.stopped = false
	for !s.stopped {
		if s.runPos >= len(s.run.keys) && s.young.len() == 0 {
			if !s.advance() {
				return
			}
		}
		var at Time
		var lane int32
		var act Action
		var arg uint64
		var k uint64
		useYoung := s.young.len() > 0
		if s.runPos < len(s.run.keys) {
			k = s.run.keys[s.runPos]
			at = Time(s.curB)<<bucketShift | Time(k>>offsetShift)
			lane = int32(k >> indexBits & laneMask)
			if useYoung {
				// Young was scheduled after the run was loaded: on a (time,
				// lane) tie the run goes first, as its smaller seq would.
				y := &s.young.ev[0]
				useYoung = y.at < at || y.at == at && y.lane < lane
			}
		}
		if useYoung {
			e := &s.young.ev[0]
			at = e.at
			if haveLimit && at >= limit {
				return
			}
			lane, act, arg = e.lane, e.act, e.arg
			s.young.pop()
		} else {
			if haveLimit && at >= limit {
				return
			}
			body := &s.run.bodies[k&indexMask]
			act, arg = body.act, body.arg
			body.act = nil // drop the callback reference for the GC
			s.runPos++
		}
		s.now = at
		s.curLane = lane
		s.npend--
		s.Processed++
		act.Act(arg)
	}
}

// beforeAll and afterAll are the between-runs values of curLane: every
// event at the clock's instant is still to run, or none is. After a Stop
// the position stays at the last executed event instead.
const (
	beforeAll int32 = -1
	afterAll        = DefaultLane
)

// ranThrough records that nothing at or before the clock is left to run.
func (s *Simulator) ranThrough() { s.curLane = afterAll }

// Run executes events until the queue is empty or Stop is called. An
// exhausted Run leaves the clock at the latest held delivery if that is
// later than the last event, as the delivery's event would have.
func (s *Simulator) Run() {
	s.drain(0, false)
	if !s.stopped {
		if s.holding && s.holdAt > s.now {
			s.now = s.holdAt
		}
		s.ranThrough()
	}
}

// RunBefore executes every event with a timestamp strictly below end and
// leaves the clock exactly at end. It is the window-stepping primitive of
// conservative parallel simulation: events at end itself belong to the next
// window (they may still be joined by cross-shard arrivals with the same
// timestamp but a smaller lane).
func (s *Simulator) RunBefore(end Time) {
	s.drain(end, true)
	if s.now < end {
		s.now = end
		s.curLane = beforeAll
	}
}

// RunUntil executes events with timestamps <= deadline. The clock is left
// at deadline if it has not passed it; if events remain they stay queued
// for a later Run/RunUntil call.
func (s *Simulator) RunUntil(deadline Time) {
	s.drain(deadline+1, deadline+1 > deadline) // overflow ⇒ unbounded
	if s.now < deadline {
		s.now = deadline
	}
	if !s.stopped && s.now == deadline {
		s.ranThrough()
	}
}

// SkipTo advances the clock to t without executing anything. It exists for
// distributed replicas: a process that owns only some shards of a parsim
// engine keeps its unowned shards' clocks in lock-step (so barrier-context
// code reading Now() behaves identically on every replica) while their
// pending events are executed by the shard's real owner elsewhere. Events
// already queued before t stay queued and are simply never run here.
func (s *Simulator) SkipTo(t Time) {
	if s.now < t {
		s.now = t
		s.curLane = beforeAll
	}
}

// Timer is a cancellable, re-armable timer bound to a Simulator. Arming a
// timer schedules one kernel event tagged with the timer's generation;
// cancelling or re-arming bumps the generation so stale events fall through
// without firing. Arm does not allocate (the Timer itself is the scheduled
// Action), so per-packet retransmission timers are free.
type Timer struct {
	sim     *Simulator
	gen     uint64
	armed   bool
	expires Time
	fn      func()
}

// NewTimer returns an unarmed timer.
func NewTimer(s *Simulator) *Timer { return &Timer{sim: s} }

// Arm (re)schedules fn to fire after d. Any previously armed deadline is
// cancelled. Callers on hot paths should pass the same stored func value on
// every Arm to avoid re-creating a method-value closure.
func (t *Timer) Arm(d Time, fn func()) {
	t.gen++
	t.armed = true
	t.fn = fn
	t.expires = t.sim.Now() + d
	t.sim.AfterAction(d, t, t.gen)
}

// Act implements Action; it fires the timer if the scheduled generation is
// still current.
func (t *Timer) Act(gen uint64) {
	if gen != t.gen || !t.armed {
		return
	}
	t.armed = false
	t.fn()
}

// Cancel disarms the timer. It is safe to call on an unarmed timer.
func (t *Timer) Cancel() { t.armed = false; t.gen++ }

// Armed reports whether the timer is currently armed.
func (t *Timer) Armed() bool { return t.armed }

// Expires returns the absolute deadline of the last Arm call.
func (t *Timer) Expires() Time { return t.expires }

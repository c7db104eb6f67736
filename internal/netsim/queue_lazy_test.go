package netsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"stardust/internal/sim"
)

// The differential harness behind TestQueueLazyMatchesEager and
// FuzzQueueLazyVsEager: one script of arrivals and observations drives
// two rigs, each on its own Simulator. The reference rig is refQueue, a
// serializer that dispatches one completion event per packet, on
// sim.CompletionLane, and sends the packet down the wire from inside it.
// The subject rig is the wire-mode Queue, which hands packets to the wire
// on admission and applies completions lazily. Everything either rig lets
// anybody see must be equal: far-end arrival times and marks, the
// occupancy every arrival finds and leaves, every drop, every counter at
// every observation instant, and the number of events the kernel
// accounts.
//
// Times sit on a grid of one 64-byte serialization time (64 ns at
// 8 Gb/s) and sizes are whole multiples of 64 bytes, so departures land
// on the grid too and same-instant ties between a completion and an
// arrival or observation are the common case, not a lucky one. An
// operation runs in one of four contexts, which is what decides a tie:
// from an event on an explicit lane below or above the wire's (both sort
// before the completion), from a default-lane event (sorts after it —
// the script schedules some of them late, from a spawner event, so a rule
// that looked at sequence numbers would show), or from barrier context
// after RunBefore (nothing at that instant has run). Every script runs on
// a shallow queue, where tail drops and ECN marks are frequent, and on a
// deep one, where a burst queues past sim.ElideHorizon and the hand-over
// event has to fire.

const (
	lazyGrid     = 64 * sim.Nanosecond
	lazyRate     = Bps(8e9)
	lazyDelay    = 3*lazyGrid + 17*sim.Nanosecond
	lazyWireLane = 40 // between the two arrival lanes below
	lazyBurst    = 32 // packets per opBurst
)

// lazyDepth is a queue's capacity and ECN threshold in bytes.
type lazyDepth struct{ max, ecn int }

// The horizon is 131 grid units, i.e. 8.4 KB of queue at one byte per ns.
var (
	lazyShallow = lazyDepth{1024, 512}
	lazyDeep    = lazyDepth{24 << 10, 12 << 10}
)

const (
	opArrive = iota
	opObserve
	opBurst // lazyBurst arrivals of one size at one instant
	opKinds
)

const (
	ctxLaneLow  = iota // explicit lane below the wire's
	ctxLaneHigh        // explicit lane above the wire's
	ctxDefault
	ctxBarrier
	ctxKinds
)

type lazyOp struct {
	at   sim.Time
	kind int
	ctx  int
	size int      // opArrive
	lead sim.Time // ctxDefault: how long before `at` the event is scheduled
}

// lazyRec is one line of a rig's log.
type lazyRec struct {
	What     string
	At       sim.Time
	ID       int64
	CE       bool
	Before   int // Bytes() the arrival found
	After    int // Bytes() it left
	Fwd      uint64
	FwdBytes uint64
}

// refQueue is the oracle: the same FIFO server, one dispatched completion
// per packet.
type refQueue struct {
	sm        *sim.Simulator
	depth     lazyDepth
	wire      *LanePipe
	onDrop    func(*Packet)
	ring      pktRing
	bytes     int
	peak      int
	drops     uint64
	marks     uint64
	forwarded uint64
	fwdBytes  uint64
}

func (q *refQueue) Receive(p *Packet) {
	if q.bytes+p.Size > q.depth.max {
		q.drops++
		q.onDrop(p)
		p.Release()
		return
	}
	if q.bytes >= q.depth.ecn {
		p.CE = true
		q.marks++
	}
	q.bytes += p.Size
	q.peak = max(q.peak, q.bytes)
	q.ring.push(p)
	if q.ring.len() == 1 {
		q.start()
	}
}

func (q *refQueue) start() {
	tx := sim.Time(q.ring.peek().Size/64) * lazyGrid
	q.sm.AtLane(q.sm.Now()+tx, sim.CompletionLane, q, 0)
}

// Act implements sim.Action: the head packet finished serializing.
func (q *refQueue) Act(uint64) {
	p := q.ring.pop()
	q.bytes -= p.Size
	q.forwarded++
	q.fwdBytes += uint64(p.Size)
	q.wire.Receive(p)
	if q.ring.len() > 0 {
		q.start()
	}
}

type lazyRig struct {
	sm    *sim.Simulator
	q     *Queue    // subject rig
	ref   *refQueue // reference rig
	route []Handler
	ops   []lazyOp
	log   []lazyRec
}

func newLazyRig(lazy bool, depth lazyDepth, ops []lazyOp) *lazyRig {
	r := &lazyRig{sm: sim.New(), ops: ops}
	onDrop := func(p *Packet) {
		r.log = append(r.log, lazyRec{What: "drop", At: r.sm.Now(), ID: p.Seq})
	}
	wire := &LanePipe{Sched: r.sm, Delay: lazyDelay, Lane: lazyWireLane}
	sink := HandlerFunc(func(p *Packet) {
		r.log = append(r.log, lazyRec{What: "far", At: r.sm.Now(), ID: p.Seq, CE: p.CE})
		p.Release()
	})
	if lazy {
		r.q = NewQueue(r.sm, "q", lazyRate, depth.max, depth.ecn)
		r.q.OnDrop = onDrop
		r.q.Wire = wire
		r.route = []Handler{r.q, sink}
	} else {
		r.ref = &refQueue{sm: r.sm, depth: depth, wire: wire, onDrop: onDrop}
		r.route = []Handler{r.ref, sink}
	}
	return r
}

// read returns occupancy, packets and bytes forwarded as of now.
func (r *lazyRig) read() (int, uint64, uint64) {
	if r.ref != nil {
		return r.ref.bytes, r.ref.forwarded, r.ref.fwdBytes
	}
	return r.q.Bytes(), r.q.Forwarded(), r.q.FwdBytes()
}

// Act implements sim.Action: arg is an op index, or ^index for the
// spawner that schedules a late default-lane op.
func (r *lazyRig) Act(arg uint64) {
	if i := int64(arg); i < 0 {
		op := &r.ops[^i]
		r.sm.AtAction(op.at, r, uint64(^i))
		return
	}
	r.do(int(arg))
}

func (r *lazyRig) do(i int) {
	op := &r.ops[i]
	switch op.kind {
	case opArrive, opBurst:
		rec := lazyRec{What: "arrive", At: r.sm.Now(), ID: int64(i)}
		rec.Before, _, _ = r.read()
		n := 1
		if op.kind == opBurst {
			n = lazyBurst
		}
		for j := range n {
			p := NewPacket()
			p.Size = op.size
			p.Seq = int64(i*lazyBurst + j)
			p.SetRoute(r.route)
			p.SendOn()
		}
		rec.After, _, _ = r.read()
		r.log = append(r.log, rec)
	case opObserve:
		rec := lazyRec{What: "observe", At: r.sm.Now(), ID: int64(i)}
		rec.After, rec.Fwd, rec.FwdBytes = r.read()
		r.log = append(r.log, rec)
	}
}

// run plays the script and returns the log plus the end-of-run counters.
func (r *lazyRig) run() ([]lazyRec, [7]uint64) {
	var barrier []int
	for i := range r.ops {
		op := &r.ops[i]
		switch op.ctx {
		case ctxLaneLow:
			r.sm.AtLane(op.at, lazyWireLane-30, r, uint64(i))
		case ctxLaneHigh:
			r.sm.AtLane(op.at, lazyWireLane+30, r, uint64(i))
		case ctxDefault:
			if op.lead > 0 && op.at >= op.lead {
				r.sm.AtAction(op.at-op.lead, r, ^uint64(i))
			} else {
				r.sm.AtAction(op.at, r, uint64(i))
			}
		case ctxBarrier:
			barrier = append(barrier, i)
		}
	}
	slices.SortStableFunc(barrier, func(a, b int) int { return int(r.ops[a].at - r.ops[b].at) })
	for _, i := range barrier {
		r.sm.RunBefore(r.ops[i].at)
		r.do(i)
	}
	r.sm.Run()
	bytes, fwd, fwdBytes := r.read()
	if q := r.ref; q != nil {
		return r.log, [7]uint64{fwd, fwdBytes, uint64(bytes), uint64(q.peak), q.drops, q.marks, r.sm.Processed}
	}
	q := r.q
	return r.log, [7]uint64{fwd, fwdBytes, uint64(bytes), uint64(q.PeakBytes), q.Drops, q.Marks, r.sm.Processed}
}

// checkLazyVsEager runs ops on both rigs at both depths and compares
// everything. It returns how many completions the lazy rigs did not have
// to dispatch, and how many hand-over events they did.
func checkLazyVsEager(t *testing.T, ops []lazyOp) (elided, handovers uint64) {
	t.Helper()
	for _, depth := range []lazyDepth{lazyShallow, lazyDeep} {
		e, h := checkLazyVsEagerAt(t, depth, ops)
		elided, handovers = elided+e, handovers+h
	}
	return elided, handovers
}

func checkLazyVsEagerAt(t *testing.T, depth lazyDepth, ops []lazyOp) (elided, handovers uint64) {
	t.Helper()
	eager, lazy := newLazyRig(false, depth, ops), newLazyRig(true, depth, ops)
	wantLog, want := eager.run()
	gotLog, got := lazy.run()
	if got != want {
		t.Errorf("depth %v, end of run fwd/fwdBytes/bytes/peak/drops/marks/events: lazy %v, eager %v", depth, got, want)
	}
	if !reflect.DeepEqual(gotLog, wantLog) {
		for i := range wantLog {
			if i >= len(gotLog) || gotLog[i] != wantLog[i] {
				var g any = "nothing"
				if i < len(gotLog) {
					g = gotLog[i]
				}
				t.Errorf("depth %v, log line %d: lazy %+v, eager %+v", depth, i, g, wantLog[i])
				break
			}
		}
		if len(gotLog) != len(wantLog) {
			t.Errorf("depth %v: lazy logged %d lines, eager %d", depth, len(gotLog), len(wantLog))
		}
	}
	if t.Failed() {
		t.Logf("script: %+v", ops)
	}
	if eager.sm.Dispatched() != eager.sm.Processed {
		t.Errorf("eager rig elided events: dispatched %d of %d", eager.sm.Dispatched(), eager.sm.Processed)
	}
	if q := lazy.q; q.head.size != 0 || q.later.len() != 0 || q.ring.len() != 0 {
		t.Errorf("lazy queue not idle at the end: head=%v later=%d ring=%d", q.head, q.later.len(), q.ring.len())
	}
	// Both rigs dispatch the script and the far-end arrivals; the eager one
	// a completion per forwarded packet on top, the lazy one its hand-overs.
	elided = lazy.sm.Processed - lazy.sm.Dispatched()
	return elided, want[0] - elided
}

// decodeLazyOps turns fuzz bytes into a script, four bytes per op: gap to
// the previous op in grid units (0 repeats the instant), kind and
// context, size in 64-byte units, lead in grid units.
func decodeLazyOps(data []byte) []lazyOp {
	var ops []lazyOp
	var at sim.Time
	for ; len(data) >= 4 && len(ops) < 256; data = data[4:] {
		at += sim.Time(data[0]%6) * lazyGrid
		op := lazyOp{
			at:   at,
			kind: int(data[1]) % opKinds,
			ctx:  int(data[1]>>2) % ctxKinds,
			size: (int(data[2])%8 + 1) * 64,
			lead: sim.Time(data[3]%4) * lazyGrid,
		}
		ops = append(ops, op)
	}
	return ops
}

// The serialization times the grid relies on are exact.
func TestLazyGridIsExact(t *testing.T) {
	q := NewQueue(sim.New(), "q", lazyRate, lazyShallow.max, 0)
	for units := 1; units <= 8; units++ {
		if got, want := q.txTime(units*64), sim.Time(units)*lazyGrid; got != want {
			t.Fatalf("txTime(%d) = %d, want %d", units*64, got, want)
		}
	}
}

// TestQueueLazyMatchesEager is the property test: random scripts dense
// enough to overflow the queue, cross the ECN threshold, queue past the
// horizon and tie with departures in every context.
func TestQueueLazyMatchesEager(t *testing.T) {
	var elided, handovers uint64
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 4*(8+rng.Intn(120)))
		rng.Read(data)
		// Half the scripts are sparse, so that links go idle between cells;
		// the rest are bursts.
		if seed%2 == 0 {
			for i := 0; i < len(data); i += 4 {
				data[i] = byte(2 + rng.Intn(4))
			}
		}
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			e, h := checkLazyVsEager(t, decodeLazyOps(data))
			elided, handovers = elided+e, handovers+h
		})
	}
	if elided == 0 || handovers == 0 {
		t.Fatalf("%d completions elided, %d hand-over events: one half of the wire-mode path was never taken", elided, handovers)
	}
}

// Hand-written ties, one per context and outcome, so a regression names
// its case instead of a seed.
func TestQueueLazyTies(t *testing.T) {
	at := func(units int) sim.Time { return sim.Time(units) * lazyGrid }
	first := lazyOp{at: at(1), kind: opArrive, ctx: ctxLaneLow, size: 128} // departs at grid 3
	// 32 x 512 B at grid 1: the deep queue hands over the 17 packets whose
	// service starts within the horizon (131 grid units) and the completion
	// of the 17th, at grid 1 + 17*8, is an event.
	burst := lazyOp{at: at(1), kind: opBurst, ctx: ctxLaneLow, size: 512}
	const handover = 137
	cases := map[string][]lazyOp{
		"lane arrival at the departure instant finds the wire busy": {
			first, {at: at(3), kind: opArrive, ctx: ctxLaneHigh, size: 64}},
		"early-scheduled default-lane arrival at the departure instant finds it idle": {
			first, {at: at(3), kind: opArrive, ctx: ctxDefault, size: 64}},
		"late-scheduled default-lane arrival at the departure instant finds it idle": {
			first, {at: at(3), kind: opArrive, ctx: ctxDefault, size: 64, lead: at(1)}},
		"barrier arrival at the departure instant finds the wire busy": {
			first, {at: at(3), kind: opArrive, ctx: ctxBarrier, size: 64}},
		"observers at the departure instant": {
			first,
			{at: at(3), kind: opObserve, ctx: ctxLaneLow},
			{at: at(3), kind: opObserve, ctx: ctxLaneHigh},
			{at: at(3), kind: opObserve, ctx: ctxDefault},
			{at: at(3), kind: opObserve, ctx: ctxDefault, lead: at(1)},
			{at: at(3), kind: opObserve, ctx: ctxBarrier},
			{at: at(4), kind: opObserve, ctx: ctxBarrier}},
		"tail drop exactly at capacity, admitted one departure later": {
			{at: at(1), kind: opArrive, ctx: ctxLaneLow, size: 512},
			{at: at(1), kind: opArrive, ctx: ctxLaneLow, size: 512},
			{at: at(1), kind: opArrive, ctx: ctxLaneLow, size: 64},  // 1088 > 1024: dropped
			{at: at(9), kind: opArrive, ctx: ctxLaneLow, size: 512}, // first left at 9 — but a lane event runs before it
			{at: at(9), kind: opArrive, ctx: ctxDefault, size: 512, lead: at(1)}},
		"hand-over event, observed and joined at its own instant from every context": {
			burst,
			{at: at(handover), kind: opObserve, ctx: ctxLaneLow},
			{at: at(handover), kind: opArrive, ctx: ctxLaneHigh, size: 512},
			{at: at(handover), kind: opObserve, ctx: ctxDefault},
			{at: at(handover), kind: opArrive, ctx: ctxDefault, size: 512, lead: at(1)},
			{at: at(handover + 1), kind: opObserve, ctx: ctxBarrier}},
		"barrier arrival and observation at the hand-over instant": {
			burst,
			{at: at(handover), kind: opObserve, ctx: ctxBarrier},
			{at: at(handover), kind: opArrive, ctx: ctxBarrier, size: 512},
			{at: at(handover), kind: opObserve, ctx: ctxBarrier}},
		"barrier mid-burst, then a second burst behind a pending hand-over": {
			burst,
			{at: at(60), kind: opBurst, ctx: ctxBarrier, size: 64},
			{at: at(60), kind: opObserve, ctx: ctxDefault},
			{at: at(handover), kind: opObserve, ctx: ctxLaneHigh}},
		"service starting just inside the horizon is handed over, just outside waits": {
			{at: at(1), kind: opBurst, ctx: ctxLaneLow, size: 256},  // busy until grid 129
			{at: at(1), kind: opArrive, ctx: ctxLaneLow, size: 192}, // starts at 129, 128 units ahead: handed over
			{at: at(1), kind: opArrive, ctx: ctxLaneLow, size: 64},  // starts at 132, 131 ahead: handed over
			{at: at(1), kind: opArrive, ctx: ctxLaneLow, size: 64},  // starts at 133, 132 ahead: waits
			{at: at(133), kind: opObserve, ctx: ctxLaneLow},
			{at: at(133), kind: opObserve, ctx: ctxDefault}},
	}
	for name, ops := range cases {
		t.Run(name, func(t *testing.T) {
			_, handovers := checkLazyVsEager(t, ops)
			if ops[0].kind == opBurst && handovers == 0 {
				t.Error("the burst did not queue past the horizon: no hand-over event")
			}
		})
	}
}

// TestQueueLazyDispatchCount pins the saving as counts that repeat
// exactly: 10,000 cells keep a wire-mode link busy at line rate, once
// paced a serialization time apart and once in bursts 64 deep. Paced, no
// completion is dispatched at all; in bursts, one hand-over per horizon's
// worth (17 cells of 512 B); and in both the kernel accounts the events a
// completion per cell would have been (checked against the eager rig,
// like everything else).
func TestQueueLazyDispatchCount(t *testing.T) {
	const n = 10000
	depth := lazyDepth{64 << 10, 64 << 10}
	var paced, bursts []lazyOp
	for i := range n {
		paced = append(paced, lazyOp{at: sim.Time(1+8*i) * lazyGrid, kind: opArrive, ctx: ctxLaneLow, size: 512})
	}
	for i := range n / lazyBurst { // two bursts per instant, 64 serialization times apart
		bursts = append(bursts, lazyOp{at: sim.Time(1+i/2*8*2*lazyBurst) * lazyGrid, kind: opBurst, ctx: ctxLaneLow, size: 512})
	}
	for range n % lazyBurst {
		bursts = append(bursts, lazyOp{at: bursts[len(bursts)-1].at + 8*2*lazyBurst*lazyGrid, kind: opArrive, ctx: ctxLaneLow, size: 512})
	}
	if elided, handovers := checkLazyVsEagerAt(t, depth, paced); elided != n || handovers != 0 {
		t.Errorf("paced: %d completions elided, %d dispatched; want all %d elided", elided, handovers, n)
	}
	elided, handovers := checkLazyVsEagerAt(t, depth, bursts)
	if elided+handovers != n || handovers == 0 || handovers > n/16 {
		t.Errorf("bursts: %d completions elided, %d dispatched of %d; want at most %d dispatched", elided, handovers, n, n/16)
	}
	t.Logf("bursts: %d hand-over events for %d cells", handovers, n)
}

// FuzzQueueLazyVsEager hunts for a script on which the lazy queue shows
// anything the eager one does not.
func FuzzQueueLazyVsEager(f *testing.F) {
	f.Add([]byte{1, 0, 1, 0, 2, 0, 0, 0})                                       // two lane arrivals, the second at the first's departure
	f.Add([]byte{1, 8, 7, 0, 0, 8, 7, 0, 0, 8, 0, 0, 8, 8, 7, 1})               // fill to capacity, drop, readmit at a departure tie
	f.Add([]byte{1, 0, 3, 0, 4, 9, 0, 2, 0, 13, 0, 0, 0, 2, 0, 0, 0, 12, 0, 0}) // observers and a barrier on one instant
	// A 32 x 512 B burst at grid 1, observed every 5 grid units until the
	// hand-over event at grid 137, which an arrival, an observer and a
	// barrier burst then share.
	deep := []byte{1, 2, 7, 0}
	for range 27 {
		deep = append(deep, 5, 10, 0, 0)
	}
	f.Add(append(deep, 1, 9, 7, 1, 0, 1, 0, 0, 0, 14, 0, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkLazyVsEager(t, decodeLazyOps(data))
	})
}

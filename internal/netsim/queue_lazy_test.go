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
// two rigs, each on its own Simulator. The reference rig is the eager
// configuration — Queue, then a LanePipe as an ordinary route hop, then a
// sink — which dispatches a completion event per packet. The subject rig
// puts the same LanePipe on the queue's Wire, so completions are lazy
// slots. Everything either rig lets anybody see must be equal: far-end
// arrival times and marks, the occupancy every arrival finds and leaves,
// every drop, every counter at every observation instant, and the number
// of events the kernel accounts.
//
// Times sit on a grid of one 64-byte serialization time (64 ns at
// 8 Gb/s) and sizes are whole multiples of 64 bytes, so departures land
// on the grid too and same-instant ties between a completion and an
// arrival or observation are the common case, not a lucky one. An
// operation runs in one of three contexts, which is what decides a tie:
// from an event on an explicit lane (sorts before the completion), from a
// default-lane event (sorts by sequence number — the script schedules
// some of them late, from a spawner event, so both outcomes occur), or
// from barrier context after RunBefore (nothing at that instant has run).

const (
	lazyGrid     = 64 * sim.Nanosecond
	lazyRate     = Bps(8e9)
	lazyDelay    = 3*lazyGrid + 17*sim.Nanosecond
	lazyMaxBytes = 1024
	lazyECN      = 512
	lazyWireLane = 40 // between the two arrival lanes below
)

const (
	opArrive = iota
	opObserve
	opMaterialize // barrier context only; a no-op on the eager rig
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

type lazyRig struct {
	sm    *sim.Simulator
	q     *Queue
	route []Handler
	ops   []lazyOp
	log   []lazyRec
}

func newLazyRig(lazy bool, ops []lazyOp) *lazyRig {
	r := &lazyRig{sm: sim.New(), ops: ops}
	r.q = NewQueue(r.sm, "q", lazyRate, lazyMaxBytes, lazyECN)
	r.q.OnDrop = func(p *Packet) {
		r.log = append(r.log, lazyRec{What: "drop", At: r.sm.Now(), ID: p.Seq})
	}
	wire := &LanePipe{Sched: r.sm, Delay: lazyDelay, Lane: lazyWireLane}
	sink := HandlerFunc(func(p *Packet) {
		r.log = append(r.log, lazyRec{What: "far", At: r.sm.Now(), ID: p.Seq, CE: p.CE})
		p.Release()
	})
	if lazy {
		r.q.Wire = wire
		r.route = []Handler{r.q, sink}
	} else {
		r.route = []Handler{r.q, wire, sink}
	}
	return r
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
	case opArrive:
		p := NewPacket()
		p.Size = op.size
		p.Seq = int64(i)
		p.SetRoute(r.route)
		rec := lazyRec{What: "arrive", At: r.sm.Now(), ID: p.Seq, Before: r.q.Bytes()}
		p.SendOn()
		rec.After = r.q.Bytes()
		r.log = append(r.log, rec)
	case opObserve:
		r.log = append(r.log, lazyRec{What: "observe", At: r.sm.Now(), ID: int64(i),
			After: r.q.Bytes(), Fwd: r.q.Forwarded(), FwdBytes: r.q.FwdBytes()})
	case opMaterialize:
		r.q.Materialize()
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
	q := r.q
	return r.log, [7]uint64{q.Forwarded(), q.FwdBytes(), uint64(q.Bytes()), uint64(q.PeakBytes), q.Drops, q.Marks, r.sm.Processed}
}

// checkLazyVsEager runs ops on both rigs and compares everything. It
// returns how many events the lazy rig did not have to dispatch.
func checkLazyVsEager(t *testing.T, ops []lazyOp) (elided uint64) {
	t.Helper()
	eager, lazy := newLazyRig(false, ops), newLazyRig(true, ops)
	wantLog, want := eager.run()
	gotLog, got := lazy.run()
	if got != want {
		t.Errorf("end of run fwd/fwdBytes/bytes/peak/drops/marks/events: lazy %v, eager %v", got, want)
	}
	if !reflect.DeepEqual(gotLog, wantLog) {
		for i := range wantLog {
			if i >= len(gotLog) || gotLog[i] != wantLog[i] {
				var g any = "nothing"
				if i < len(gotLog) {
					g = gotLog[i]
				}
				t.Errorf("log line %d: lazy %+v, eager %+v", i, g, wantLog[i])
				break
			}
		}
		if len(gotLog) != len(wantLog) {
			t.Errorf("lazy logged %d lines, eager %d", len(gotLog), len(wantLog))
		}
	}
	if t.Failed() {
		t.Logf("script: %+v", ops)
	}
	if eager.sm.Dispatched() != eager.sm.Processed {
		t.Errorf("eager rig reserved slots: dispatched %d of %d", eager.sm.Dispatched(), eager.sm.Processed)
	}
	if lazy.q.lazy || lazy.q.busy || lazy.q.ring.len() != 0 {
		t.Errorf("lazy queue not idle at the end: lazy=%v busy=%v ring=%d", lazy.q.lazy, lazy.q.busy, lazy.q.ring.len())
	}
	return lazy.sm.Processed - lazy.sm.Dispatched()
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
		if op.kind == opMaterialize {
			op.ctx = ctxBarrier
		}
		ops = append(ops, op)
	}
	return ops
}

// The serialization times the grid relies on are exact.
func TestLazyGridIsExact(t *testing.T) {
	q := NewQueue(sim.New(), "q", lazyRate, lazyMaxBytes, 0)
	for units := 1; units <= 8; units++ {
		if got, want := q.txTime(units*64), sim.Time(units)*lazyGrid; got != want {
			t.Fatalf("txTime(%d) = %d, want %d", units*64, got, want)
		}
	}
}

// TestQueueLazyMatchesEager is the property test: random scripts dense
// enough to overflow the queue, cross the ECN threshold and tie with
// departures in every context.
func TestQueueLazyMatchesEager(t *testing.T) {
	var elided uint64
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 4*(8+rng.Intn(120)))
		rng.Read(data)
		// Half the scripts are sparse, so that links go idle between cells
		// and completions stay lazy; the rest are bursts.
		if seed%2 == 0 {
			for i := 0; i < len(data); i += 4 {
				data[i] = byte(2 + rng.Intn(4))
			}
		}
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			elided += checkLazyVsEager(t, decodeLazyOps(data))
		})
	}
	if elided == 0 {
		t.Fatal("no script left a completion lazy: the wire-mode path was never taken")
	}
}

// Hand-written ties, one per context and outcome, so a regression names
// its case instead of a seed.
func TestQueueLazyTies(t *testing.T) {
	at := func(units int) sim.Time { return sim.Time(units) * lazyGrid }
	first := lazyOp{at: at(1), kind: opArrive, ctx: ctxLaneLow, size: 128} // departs at grid 3
	cases := map[string][]lazyOp{
		"lane arrival at the departure instant finds the wire busy": {
			first, {at: at(3), kind: opArrive, ctx: ctxLaneHigh, size: 64}},
		"early-scheduled default-lane arrival at the departure instant runs first": {
			first, {at: at(3), kind: opArrive, ctx: ctxDefault, size: 64}},
		"late-scheduled default-lane arrival at the departure instant runs second": {
			first, {at: at(3), kind: opArrive, ctx: ctxDefault, size: 64, lead: at(1)}},
		"barrier arrival at the departure instant finds the wire busy": {
			first, {at: at(3), kind: opArrive, ctx: ctxBarrier, size: 64}},
		"observers at the departure instant": {
			first,
			{at: at(3), kind: opObserve, ctx: ctxLaneLow},
			{at: at(3), kind: opObserve, ctx: ctxDefault},
			{at: at(3), kind: opObserve, ctx: ctxDefault, lead: at(1)},
			{at: at(3), kind: opObserve, ctx: ctxBarrier},
			{at: at(4), kind: opObserve, ctx: ctxBarrier}},
		"materialised at a barrier mid-serialization, then a second packet": {
			first,
			{at: at(2), kind: opMaterialize, ctx: ctxBarrier},
			{at: at(2), kind: opArrive, ctx: ctxDefault, size: 64}},
		"materialised at the departure instant": {
			first, {at: at(3), kind: opMaterialize, ctx: ctxBarrier}, {at: at(3), kind: opObserve, ctx: ctxDefault}},
		"tail drop exactly at capacity, admitted one departure later": {
			{at: at(1), kind: opArrive, ctx: ctxLaneLow, size: 512},
			{at: at(1), kind: opArrive, ctx: ctxLaneLow, size: 512},
			{at: at(1), kind: opArrive, ctx: ctxLaneLow, size: 64},  // 1088 > 1024: dropped
			{at: at(9), kind: opArrive, ctx: ctxLaneLow, size: 512}, // first left at 9 — but a lane event runs before it
			{at: at(9), kind: opArrive, ctx: ctxDefault, size: 512, lead: at(1)}},
	}
	for name, ops := range cases {
		t.Run(name, func(t *testing.T) { checkLazyVsEager(t, ops) })
	}
}

// FuzzQueueLazyVsEager hunts for a script on which the lazy queue shows
// anything the eager one does not.
func FuzzQueueLazyVsEager(f *testing.F) {
	f.Add([]byte{1, 0, 1, 0, 2, 0, 0, 0})                                       // two lane arrivals, the second at the first's departure
	f.Add([]byte{1, 8, 7, 0, 0, 8, 7, 0, 0, 8, 0, 0, 8, 8, 7, 1})               // fill to capacity, drop, readmit at a departure tie
	f.Add([]byte{1, 0, 3, 0, 4, 9, 0, 2, 0, 13, 0, 0, 0, 2, 0, 0, 0, 12, 0, 0}) // observers and a materialize on one instant
	f.Fuzz(func(t *testing.T, data []byte) {
		checkLazyVsEager(t, decodeLazyOps(data))
	})
}

package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The kernel order oracle behind TestKernelOrderMatchesHeap and
// FuzzKernelOrder: one program drives two kernels, the Simulator and
// refKernel, a plain binary heap on (time, lane, seq) — the order the
// package comment promises. Both must execute the same (time, lane, id)
// sequence, stop at the same clock after every run call, and account the
// same Processed, Dispatched and Pending.
//
// A program is a byte string, read one byte at a time by whoever needs
// the next decision, so a run that diverges also reads different bytes
// from there on and the divergence shows in the trace at once. At top
// level it is a sequence of calls: schedule, RunBefore, RunUntil, Run,
// SkipTo, or a bare Elide. Every executed event reads its own bytes: how
// many events to schedule from inside it (into the bucket draining now
// when the delay is short) and whether to Stop. Scheduling covers At,
// After, AtAction, AfterAction, AtLane and AtLaneFunc on four explicit
// lanes (the largest a caller may use among them) plus the default lane,
// and Elide + AtCompletion. Delays come from a few classes — zero, inside
// one bucket, inside the ladder, past one and past two ladder horizons,
// and into the past — each quantized to a handful of values, so
// same-instant ties are the common case and every region of the store is
// used: a bucket directly, young, overflow, and both migrations out of
// overflow.
//
// Three 0xff bytes at top level are a flood: more events than a bucket
// key can index, into one bucket, so that it spills (see flood). Random
// programs do not contain the run, and keep their meaning.

// Order-oracle scheduling forms.
const (
	ordAt = iota
	ordAfter
	ordAtAction
	ordAfterAction
	ordAtLane
	ordAtLaneFunc
	ordCompletion // Elide + AtCompletion
	ordKinds
)

// ordHorizon is the ladder's reach.
const ordHorizon = Time(ladderBuckets) << bucketShift

// ordMaxEvents bounds the events one program may schedule outside floods,
// and ordMaxFloods the floods it may run.
const (
	ordMaxEvents = 4000
	ordMaxFloods = 2
)

// ordLanes are the explicit lanes a program schedules on: the smallest
// ones, and the largest below CompletionLane, whose key has every lane bit
// but one set.
var ordLanes = [4]int32{0, 1, 2, CompletionLane - 1}

// floodForms are the scheduling forms of a flood, cycled per event: every
// lane kind, and each passes the event's id as its argument, which is how
// simKernel recognizes a spilled event.
var floodForms = [...]struct {
	kind int
	lane int32
}{
	{ordAtAction, DefaultLane},
	{ordAtLane, 0},
	{ordCompletion, CompletionLane},
	{ordAtLane, CompletionLane - 1},
	{ordAfterAction, DefaultLane},
}

// orderKernel is what the interpreter drives.
type orderKernel interface {
	now() Time
	schedule(kind int, t Time, lane int32, id uint64)
	elide()
	stop()
	runBefore(end Time)
	runUntil(deadline Time)
	run()
	skipTo(t Time)
	counts() (processed, dispatched uint64, pending int)
}

// orderStep is one line of a trace: an executed event, or where a run call
// left the clock and the counters.
type orderStep struct {
	At         Time
	Lane       int32
	ID         uint64
	Processed  uint64
	Dispatched uint64
	Pending    int
}

func (s orderStep) String() string {
	if s.ID == 0 {
		return fmt.Sprintf("[run call returns at %d: processed %d dispatched %d pending %d]", s.At, s.Processed, s.Dispatched, s.Pending)
	}
	return fmt.Sprintf("(t=%d lane=%d id=%d)", s.At, s.Lane, s.ID)
}

// orderProg interprets one program on one kernel.
type orderProg struct {
	prog    []byte
	pos     int
	k       orderKernel
	lanes   []int32 // per event id (ids start at 1)
	trace   []orderStep
	floods  int
	flooded int // events scheduled by floods
}

func (p *orderProg) next() (byte, bool) {
	if p.pos >= len(p.prog) {
		return 0, false
	}
	b := p.prog[p.pos]
	p.pos++
	return b, true
}

func (p *orderProg) read() byte { b, _ := p.next(); return b }

// delay decodes one delay class and magnitude, relative to the clock.
func (p *orderProg) delay() Time {
	class, m := p.read(), Time(p.read())
	switch class % 6 {
	case 0:
		return 0
	case 1: // inside one bucket
		return m % 4 * 16000
	case 2: // inside the ladder
		return (m%16 + 1) << 20
	case 3: // past one horizon
		return ordHorizon + m%8<<21
	case 4: // past two horizons
		return 2*ordHorizon + m%8<<22
	default: // into the past: clamped to now
		return -(m%4 + 1) * 1000
	}
}

// scheduleOne decodes and issues one scheduling call.
func (p *orderProg) scheduleOne() {
	if len(p.lanes)-p.flooded >= ordMaxEvents {
		return
	}
	sel := p.read()
	kind := int(sel) % ordKinds
	lane := DefaultLane
	switch kind {
	case ordAtLane, ordAtLaneFunc:
		lane = ordLanes[sel>>4%4]
	case ordCompletion:
		lane = CompletionLane
	}
	t := p.k.now() + p.delay()
	p.lanes = append(p.lanes, lane)
	p.k.schedule(kind, t, lane, uint64(len(p.lanes)))
}

// flood schedules maxBucketKeys events and 1 + 61·b more (b, a byte) into
// the bucket a delay picks — the ladder's, or overflow's past the horizon —
// on three instants of it and every floodForms lane, so the bucket spills
// and its spilled events tie the run on (time, lane).
func (p *orderProg) flood() {
	t0 := (p.k.now() + p.delay()) &^ (1<<bucketShift - 1)
	n := maxBucketKeys + 1 + int(p.read())*61
	if p.floods++; p.floods > ordMaxFloods {
		return
	}
	for i := range n {
		f := floodForms[i%len(floodForms)]
		p.lanes = append(p.lanes, f.lane)
		p.k.schedule(f.kind, t0+Time(i%3)*1000, f.lane, uint64(len(p.lanes)))
	}
	p.flooded += n
}

// floodMarked consumes the rest of a flood's three 0xff bytes after the
// first, if they follow.
func (p *orderProg) floodMarked() bool {
	if p.pos+2 > len(p.prog) || p.prog[p.pos] != 0xff || p.prog[p.pos+1] != 0xff {
		return false
	}
	p.pos += 2
	return true
}

// fire is every event's body: record it, then read what it does.
func (p *orderProg) fire(id uint64) {
	p.trace = append(p.trace, orderStep{At: p.k.now(), Lane: p.lanes[id-1], ID: id})
	c, ok := p.next()
	if !ok {
		return
	}
	for i := 0; i < int(c%4); i++ {
		p.scheduleOne()
	}
	if c >= 0xf0 {
		p.k.stop()
	}
}

// returned records where a run call left the kernel.
func (p *orderProg) returned() {
	processed, dispatched, pending := p.k.counts()
	p.trace = append(p.trace, orderStep{At: p.k.now(), Processed: processed, Dispatched: dispatched, Pending: pending})
}

// exec runs the program's top level, then drains whatever is left.
func (p *orderProg) exec() {
	for {
		op, ok := p.next()
		if !ok {
			break
		}
		if op == 0xff && p.floodMarked() {
			p.flood()
			continue
		}
		switch op % 10 {
		case 0, 1, 2, 3, 4:
			p.scheduleOne()
		case 5:
			p.k.runBefore(p.k.now() + p.delay())
			p.returned()
		case 6:
			p.k.runUntil(p.k.now() + p.delay())
			p.returned()
		case 7:
			p.k.run()
			p.returned()
		case 8:
			p.k.skipTo(p.k.now() + p.delay())
			p.returned()
		default:
			p.k.elide()
		}
	}
	// The bytes are spent, so no event can Stop this Run.
	p.k.run()
	p.returned()
}

// simKernel drives a Simulator through its public scheduling forms.
type simKernel struct {
	s *Simulator
	p *orderProg
	// Coverage: which region each scheduling call landed in, and which
	// way overflow events left.
	direct, young, overflow, toLadder, toYoung int
	viaOverflow                                map[uint64]bool
	// Spill coverage: events seen in a spill list, by id (floods pass it
	// as the argument), and how they got there — scheduled into a full
	// bucket, or migrated into one from overflow. A bucket that overflow
	// fills past maxBucketKeys is watched from its migration to its load.
	spilled                    map[uint64]bool
	spillDirect, spillMigrated int
	overflowIn, watched        map[int64]int
}

func (k *simKernel) now() Time { return k.s.Now() }

func (k *simKernel) Act(arg uint64) { k.fired(arg) }

func (k *simKernel) fired(id uint64) {
	if k.viaOverflow[id] && !k.spilled[id] {
		// A migrated event runs from young only when its bucket was loaded
		// empty (see advance), from the sorted run otherwise.
		if len(k.s.run.keys) == 0 {
			k.toYoung++
		} else {
			k.toLadder++
		}
	}
	k.watchSpills()
	k.p.fire(id)
}

// slotOf returns the ladder slot an event at t goes to, nil when t falls
// outside the ladder's window.
func (k *simKernel) slotOf(t Time) *bucket {
	s := k.s
	b := s.bucketOf(max(t, s.Now()))
	if s.ladder == nil || b <= s.curB || b >= s.curB+ladderBuckets {
		return nil
	}
	return &s.ladder[b&ladderMask]
}

// watchSpills records the events that migration put into the spill lists
// of watched buckets since the last look.
func (k *simKernel) watchSpills() {
	for b, seen := range k.watched {
		slot := k.slotOf(Time(b) << bucketShift)
		if slot == nil || len(slot.spill) == seen {
			continue
		}
		for _, e := range slot.spill[seen:] {
			if e.arg != 0 && !k.spilled[e.arg] {
				k.spilled[e.arg] = true
				k.spillMigrated++
			}
		}
		k.watched[b] = len(slot.spill)
	}
}

func (k *simKernel) schedule(kind int, t Time, lane int32, id uint64) {
	s := k.s
	spill := 0
	if slot := k.slotOf(t); slot != nil {
		spill = len(slot.spill)
	}
	young, overflow := s.young.len(), s.overflow.len()
	fn := func() { k.fired(id) }
	switch kind {
	case ordAt:
		s.At(t, fn)
	case ordAfter:
		s.After(t-s.Now(), fn)
	case ordAtAction:
		s.AtAction(t, k, id)
	case ordAfterAction:
		s.AfterAction(t-s.Now(), k, id)
	case ordAtLane:
		s.AtLane(t, lane, k, id)
	case ordAtLaneFunc:
		s.AtLaneFunc(t, lane, fn)
	case ordCompletion:
		s.Elide()
		s.AtCompletion(t, k, id)
	}
	switch slot := k.slotOf(t); {
	case s.young.len() > young:
		k.young++
	case s.overflow.len() > overflow:
		k.overflow++
		k.viaOverflow[id] = true
		b := s.bucketOf(t)
		if k.overflowIn[b]++; k.overflowIn[b] == maxBucketKeys+1 {
			k.watched[b] = 0 // will spill when it migrates
		}
	case slot != nil && len(slot.spill) > spill:
		k.spillDirect++
		k.spilled[id] = true
	default:
		k.direct++
	}
}

func (k *simKernel) elide()                 { k.s.Elide() }
func (k *simKernel) stop()                  { k.s.Stop() }
func (k *simKernel) runBefore(end Time)     { k.s.RunBefore(end) }
func (k *simKernel) runUntil(deadline Time) { k.s.RunUntil(deadline) }
func (k *simKernel) run()                   { k.s.Run() }
func (k *simKernel) skipTo(t Time)          { k.s.SkipTo(t) }
func (k *simKernel) counts() (uint64, uint64, int) {
	return k.s.Processed, k.s.Dispatched(), k.s.Pending()
}

// refKernel is the specification: one binary heap on (time, lane, seq).
type refKernel struct {
	p         *orderProg
	t         Time
	seq       uint64
	stopped   bool
	heap      []refEvent
	processed uint64
	elided    uint64
}

type refEvent struct {
	at   Time
	lane int32
	seq  uint64
	id   uint64
}

func refLess(a, b refEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.lane != b.lane {
		return a.lane < b.lane
	}
	return a.seq < b.seq
}

func (r *refKernel) push(e refEvent) {
	r.heap = append(r.heap, e)
	for i := len(r.heap) - 1; i > 0; {
		up := (i - 1) / 2
		if !refLess(r.heap[i], r.heap[up]) {
			break
		}
		r.heap[i], r.heap[up] = r.heap[up], r.heap[i]
		i = up
	}
}

func (r *refKernel) pop() refEvent {
	e := r.heap[0]
	n := len(r.heap) - 1
	r.heap[0] = r.heap[n]
	r.heap = r.heap[:n]
	for i := 0; ; {
		min, l, rt := i, 2*i+1, 2*i+2
		if l < n && refLess(r.heap[l], r.heap[min]) {
			min = l
		}
		if rt < n && refLess(r.heap[rt], r.heap[min]) {
			min = rt
		}
		if min == i {
			break
		}
		r.heap[i], r.heap[min] = r.heap[min], r.heap[i]
		i = min
	}
	return e
}

func (r *refKernel) now() Time { return r.t }

func (r *refKernel) schedule(kind int, t Time, lane int32, id uint64) {
	// Elide + AtCompletion: the count AtCompletion takes back is the one
	// Elide made, so a completion counts like any event: when it runs.
	r.seq++
	r.push(refEvent{at: max(t, r.t), lane: lane, seq: r.seq, id: id})
}

func (r *refKernel) elide() { r.processed++; r.elided++ }
func (r *refKernel) stop()  { r.stopped = true }

func (r *refKernel) drain(limit Time, haveLimit bool) {
	r.stopped = false
	for !r.stopped && len(r.heap) > 0 {
		if haveLimit && r.heap[0].at >= limit {
			return
		}
		e := r.pop()
		r.t = e.at
		r.processed++
		r.p.fire(e.id)
	}
}

func (r *refKernel) runBefore(end Time) {
	r.drain(end, true)
	r.t = max(r.t, end)
}

func (r *refKernel) runUntil(deadline Time) {
	r.drain(deadline+1, true)
	r.t = max(r.t, deadline)
}

func (r *refKernel) run()          { r.drain(0, false) }
func (r *refKernel) skipTo(t Time) { r.t = max(r.t, t) }
func (r *refKernel) counts() (uint64, uint64, int) {
	return r.processed, r.processed - r.elided, len(r.heap)
}

// runOrderProgram executes prog on both kernels and reports the first
// divergence. It returns the Simulator side's coverage.
func runOrderProgram(t *testing.T, prog []byte) *simKernel {
	t.Helper()
	ps := &orderProg{prog: prog}
	sk := &simKernel{s: New(), p: ps, viaOverflow: map[uint64]bool{},
		spilled: map[uint64]bool{}, overflowIn: map[int64]int{}, watched: map[int64]int{}}
	ps.k = sk
	pr := &orderProg{prog: prog}
	pr.k = &refKernel{p: pr}
	ps.exec()
	pr.exec()
	for i := range min(len(ps.trace), len(pr.trace)) {
		if ps.trace[i] != pr.trace[i] {
			lo := max(0, i-3)
			t.Fatalf("step %d: Simulator %v, heap %v\n  Simulator ... %v\n  heap      ... %v",
				i, ps.trace[i], pr.trace[i], ps.trace[lo:i+1], pr.trace[lo:i+1])
		}
	}
	if len(ps.trace) != len(pr.trace) {
		t.Fatalf("Simulator traced %d steps, heap %d", len(ps.trace), len(pr.trace))
	}
	return sk
}

// spillTies counts the spilled events that ran right behind an event of
// the run with their (time, lane): the ties the run wins.
func (k *simKernel) spillTies() (n int) {
	tr := k.p.trace
	for i := 1; i < len(tr); i++ {
		a, b := tr[i-1], tr[i]
		if k.spilled[b.ID] && a.ID != 0 && !k.spilled[a.ID] && a.At == b.At && a.Lane == b.Lane {
			n++
		}
	}
	return n
}

// randomOrderProgram draws one program of a few hundred calls.
func randomOrderProgram(rng *rand.Rand) []byte {
	prog := make([]byte, 64+rng.Intn(2048))
	rng.Read(prog)
	return prog
}

// ordSchedule encodes one top-level scheduling call: form kind, on lane
// ordLanes[li] if the form takes one, after a delay of class and m.
func ordSchedule(kind, li int, class, m byte) []byte {
	for sel := 0; ; sel++ {
		if sel%ordKinds == kind && sel>>4%4 == li {
			return []byte{0, byte(sel), class, m}
		}
	}
}

// lanesProgram puts events on the largest explicit lane, CompletionLane
// and DefaultLane at the same instants — now, later in the bucket, in the
// ladder and past its horizon — in several scheduling orders, runs until
// the second instant, then runs the rest.
func lanesProgram() []byte {
	var p []byte
	for _, d := range [][2]byte{{0, 0}, {1, 1}, {2, 0}, {3, 0}} {
		for _, f := range []struct{ kind, li int }{
			{ordAtLane, 3}, {ordCompletion, 0}, {ordAt, 0}, {ordAtLaneFunc, 3},
			{ordAfterAction, 0}, {ordCompletion, 0}, {ordAtLane, 3}, {ordAtAction, 0},
		} {
			p = append(p, ordSchedule(f.kind, f.li, d[0], d[1])...)
		}
	}
	p = append(p, 6, 1, 1)             // RunUntil(now + 16 ns)
	p = append(p, make([]byte, 16)...) // the 16 events it runs schedule nothing
	return append(p, 7)                // Run
}

// floodProgram floods a bucket 4 µs ahead and one past the ladder's
// horizon, runs until the first instant of the first, and hands a random
// tail to the events that run: a bucket that spills at a direct schedule,
// one that spills as it migrates, and the spilled events' ties with the
// run and with young.
func floodProgram(rng *rand.Rand) []byte {
	p := ordSchedule(ordAtLane, 3, 2, 0)
	p = append(p, 0xff, 0xff, 0xff, 2, 3, 1) // into the ladder: 4<<20 ps ahead
	p = append(p, 0xff, 0xff, 0xff, 3, 1, 2) // into overflow: the horizon + 2<<20
	p = append(p, 6, 2, 3)                   // RunUntil(now + 4<<20)
	return append(p, randomOrderProgram(rng)...)
}

func TestKernelOrderMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var direct, young, overflow, toLadder, toYoung, events int
	for i := 0; i < 300; i++ {
		prog := randomOrderProgram(rng)
		sk := runOrderProgram(t, prog)
		direct += sk.direct
		young += sk.young
		overflow += sk.overflow
		toLadder += sk.toLadder
		toYoung += sk.toYoung
		events += len(sk.p.lanes)
	}
	t.Logf("%d events: %d into a bucket, %d into young, %d into overflow (%d left it for a bucket, %d for young)",
		events, direct, young, overflow, toLadder, toYoung)
	// The programs must reach every region and both ways out of overflow,
	// or the agreement above says less than it seems to.
	for _, c := range []struct {
		name string
		n    int
	}{
		{"scheduled into a bucket", direct},
		{"scheduled into young", young},
		{"scheduled into overflow", overflow},
		{"migrated from overflow into a bucket", toLadder},
		{"migrated from overflow into young", toYoung},
	} {
		if c.n == 0 {
			t.Errorf("no event %s (of %d)", c.name, events)
		}
	}

	// More events in one bucket than a key can index: the spill list, filled
	// both ways, must keep the order too, and must have been reached.
	sk := runOrderProgram(t, floodProgram(rand.New(rand.NewSource(3))))
	ties := sk.spillTies()
	t.Logf("flood: %d events, %d spilled at a schedule, %d as they migrated, %d spilled events ran behind a run event of their (time, lane)",
		len(sk.p.lanes), sk.spillDirect, sk.spillMigrated, ties)
	for _, c := range []struct {
		name string
		n    int
	}{
		{"spilled at a schedule into a full bucket", sk.spillDirect},
		{"spilled as it migrated from overflow", sk.spillMigrated},
		{"spilled and tied with the run", ties},
	} {
		if c.n == 0 {
			t.Errorf("flood: no event %s", c.name)
		}
	}
	runOrderProgram(t, lanesProgram())
}

func FuzzKernelOrder(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 8; i++ {
		f.Add(randomOrderProgram(rng))
	}
	// Ties on one instant across every form, then a stopped run.
	f.Add(slices.Repeat([]byte{0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 0, 4, 0x10, 0, 0, 5, 0x20, 1, 0, 6, 0, 0, 7}, 8))
	f.Add(lanesProgram())
	f.Add(floodProgram(rand.New(rand.NewSource(3))))
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 1<<14 {
			return
		}
		runOrderProgram(t, prog)
	})
}

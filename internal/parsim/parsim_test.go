package parsim

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"stardust/internal/sim"
)

// ringNode is a toy sharded model: tokens hop around a ring of nodes, one
// directed lane per edge, and every node folds the arrival order of the
// tokens it sees into a digest. Because arrivals are lane-ordered, the
// digests must be identical for every partitioning of the ring.
type ringNode struct {
	idx    int
	shard  int
	eng    *Engine
	nodes  []*ringNode
	assign []int
	delay  sim.Time
	digest uint64
	seen   int
	ttl    map[uint64]int // per token: remaining hops

	// Every stallEvery-th arrival holds the shard's goroutine up for stall
	// of wall-clock time: whoever waits for this window outlasts its spin.
	stall      time.Duration
	stallEvery int
}

// Act receives token arg and forwards it one step around the ring.
func (n *ringNode) Act(arg uint64) {
	n.seen++
	if n.stall > 0 && n.seen%n.stallEvery == 0 {
		time.Sleep(n.stall)
	}
	n.digest = n.digest*1099511628211 + arg + uint64(n.idx)
	if n.ttl[arg] == 0 {
		return
	}
	n.ttl[arg]--
	next := n.nodes[(n.idx+1)%len(n.nodes)]
	sched := n.eng.Shard(n.shard).To(n.assign[next.idx])
	sched.AtLane(sched.Now()+n.delay, int32(n.idx), next, arg)
}

// ringRun is everything a ring run can observe: the per-node digests and
// the executed-event counts, which must not depend on the partitioning,
// plus the split over shards and the barrier-context call log, which must
// not depend on how a given partitioning's windows were executed.
type ringRun struct {
	digests []uint64
	events  uint64
	calls   []string // hook and control invocations, in order
	stats   Stats    // incl. the per-shard event split
}

// ring is a ringNode model on an engine, ready to run.
type ring struct {
	eng   *Engine
	nodes []*ringNode
	calls []string // hook and control invocations, in order
}

// newRing puts `tokens` tokens on nodeCount ring nodes split across
// shards, each with hops enough for `windows` windows less 20.
func newRing(shards, nodeCount, windows int, tokens uint64) *ring {
	const look = sim.Microsecond
	eng := New(Config{Shards: shards, Lookahead: look})
	assign := make([]int, nodeCount)
	for i := range assign {
		assign[i] = i * shards / nodeCount
	}
	nodes := make([]*ringNode, nodeCount)
	for i := range nodes {
		nodes[i] = &ringNode{
			idx: i, shard: assign[i], eng: eng,
			nodes: nodes, assign: assign, delay: look,
			ttl: make(map[uint64]int), // per-node budget: no cross-shard state
		}
	}
	// Seed tokens at staggered instants; every node holds a per-token hop
	// budget so tokens eventually park without any shared countdown.
	hops := windows - 20
	for tok := uint64(0); tok < tokens; tok++ {
		for i := range nodes {
			nodes[i].ttl[tok] = hops
		}
		start := int(tok) % nodeCount
		nodes[start].eng.Shard(assign[start]).Sim().AtLane(
			sim.Time(tok)*look/3, int32((start+nodeCount-1)%nodeCount), nodes[start], tok)
	}
	r := &ring{eng: eng, nodes: nodes}
	seen := func() (n int) {
		for _, nd := range nodes {
			n += nd.seen
		}
		return n
	}
	eng.OnBarrier(func(now sim.Time) {
		if now%(7*look) == 0 {
			r.calls = append(r.calls, fmt.Sprintf("hook@%d seen=%d", now, seen()))
		}
	})
	for w := 5; w < windows; w += 13 {
		eng.At(sim.Time(w)*look-look/2, func() {
			r.calls = append(r.calls, fmt.Sprintf("ctl@%d seen=%d", eng.Now(), seen()))
		})
	}
	return r
}

func (r *ring) result() ringRun {
	run := ringRun{calls: r.calls, events: r.eng.Processed(), stats: r.eng.Stats()}
	for _, n := range r.nodes {
		run.digests = append(run.digests, n.digest)
	}
	return run
}

func allOwned(shards int) []bool {
	owned := make([]bool, shards)
	for i := range owned {
		owned[i] = true
	}
	return owned
}

// runRing circulates 8 tokens over nodeCount ring nodes split across
// shards for `windows` windows, with the execution mode forced.
func runRing(t *testing.T, shards, nodeCount, windows int, force execForce, step bool) ringRun {
	t.Helper()
	r := newRing(shards, nodeCount, windows, 8)
	r.eng.force = force
	return r.run(windows, step)
}

// run advances the ring by `windows` windows — through Run, or one
// StepOwned per window with every shard owned when step is set.
func (r *ring) run(windows int, step bool) ringRun {
	if step {
		owned := allOwned(r.eng.Shards())
		for w := 0; w < windows; w++ {
			r.eng.StepOwned(owned, nil)
		}
	} else {
		r.eng.Run(r.eng.Now() + sim.Time(windows)*r.eng.Lookahead())
	}
	return r.result()
}

// The flagship property: the same model produces byte-identical state at
// every shard count.
func TestRingDeterministicAcrossShardCounts(t *testing.T) {
	ref := runRing(t, 1, 6, 60, forceNone, false)
	for _, shards := range []int{2, 3, 4, 6} {
		got := runRing(t, shards, 6, 60, forceNone, false)
		if !reflect.DeepEqual(got.digests, ref.digests) || got.events != ref.events {
			t.Fatalf("shards=%d: digests %x (%d events), want %x (%d)",
				shards, got.digests, got.events, ref.digests, ref.events)
		}
		if !reflect.DeepEqual(got.calls, ref.calls) {
			t.Fatalf("shards=%d: barrier calls %v, want %v", shards, got.calls, ref.calls)
		}
	}
}

// How a window's shards are executed — inline, fanned out, or switching
// between the two at epoch boundaries — is invisible to the model, through
// Run and through StepOwned alike. (The same check over the golden
// ledger's digest rows is in modes_test.go.)
func TestExecModesAgreeOnRing(t *testing.T) {
	const windows = 5*epochWindows + 7
	for _, shards := range []int{2, 3, 4} {
		ref := runRing(t, shards, 12, windows, forceInline, false)
		if ref.stats.Fanned != 0 || ref.stats.Mail == 0 {
			t.Fatalf("shards=%d inline: %+v", shards, ref.stats)
		}
		for _, force := range []execForce{forceInline, forceFanOut, forceAlternate} {
			for _, step := range []bool{false, true} {
				if force == forceInline && !step {
					continue // ref
				}
				got := runRing(t, shards, 12, windows, force, step)
				name := fmt.Sprintf("shards=%d force=%d step=%v", shards, force, step)
				if !reflect.DeepEqual(got.digests, ref.digests) || got.events != ref.events ||
					!reflect.DeepEqual(got.stats.ShardEvents, ref.stats.ShardEvents) {
					t.Errorf("%s: digests %x events %d %v, inline %x %d %v", name,
						got.digests, got.events, got.stats.ShardEvents, ref.digests, ref.events, ref.stats.ShardEvents)
				}
				if !reflect.DeepEqual(got.calls, ref.calls) {
					t.Errorf("%s: barrier calls differ from inline:\n%v\n%v", name, got.calls, ref.calls)
				}
				if got.stats.Mail != ref.stats.Mail || got.stats.MailLess != ref.stats.MailLess {
					t.Errorf("%s: mail %d/%d mail-less, inline %d/%d", name,
						got.stats.Mail, got.stats.MailLess, ref.stats.Mail, ref.stats.MailLess)
				}
				wantFanned := uint64(windows)
				switch force {
				case forceInline:
					wantFanned = 0
				case forceAlternate:
					wantFanned = 2*epochWindows + 7 // epochs 1 and 3, and the 7 windows of epoch 5
				}
				if got.stats.Windows != windows || got.stats.Fanned != wantFanned {
					t.Errorf("%s: %d windows, %d fanned, want %d and %d", name,
						got.stats.Windows, got.stats.Fanned, windows, wantFanned)
				}
			}
		}
	}
}

// Under the race detector every multi-shard window takes the concurrent
// path, processors or not, so -race sees it in full.
func TestRaceBuildFansOutEveryWindow(t *testing.T) {
	if !raceEnabled {
		t.Skip("not a race build")
	}
	r := newRing(3, 6, 100, 8)
	r.eng.procs = 1
	if st := r.run(100, false).stats; st.Windows != 100 || st.Fanned != st.Windows {
		t.Fatalf("race build on one processor: %+v, want every window fanned", st)
	}
}

func TestEngineWindowsAndHooks(t *testing.T) {
	eng := New(Config{Shards: 2, Lookahead: 10 * sim.Nanosecond})
	var barriers []sim.Time
	eng.OnBarrier(func(now sim.Time) { barriers = append(barriers, now) })
	eng.Run(35 * sim.Nanosecond) // rounds up to 40: four windows
	if len(barriers) != 4 {
		t.Fatalf("%d barriers, want 4: %v", len(barriers), barriers)
	}
	for i, at := range barriers {
		if want := sim.Time(10*(i+1)) * sim.Nanosecond; at != want {
			t.Fatalf("barrier %d at %d, want %d", i, at, want)
		}
	}
	if eng.Now() != 40*sim.Nanosecond {
		t.Fatalf("Now = %d, want 40ns", eng.Now())
	}
	for i := 0; i < eng.Shards(); i++ {
		if got := eng.Shard(i).Sim().Now(); got != eng.Now() {
			t.Fatalf("shard %d clock %d, want %d", i, got, eng.Now())
		}
	}
}

// Controls run at window boundaries (rounded up), in registration order
// within a boundary, with InBarrier reporting true.
func TestEngineControls(t *testing.T) {
	eng := New(Config{Shards: 2, Lookahead: 10 * sim.Nanosecond})
	var got []string
	eng.At(15*sim.Nanosecond, func() { // rounds to 20
		if !eng.InBarrier() {
			t.Error("control ran outside barrier context")
		}
		got = append(got, "a@20")
		eng.At(eng.Now()+5*sim.Nanosecond, func() { got = append(got, "c@30") })
	})
	eng.At(20*sim.Nanosecond, func() { got = append(got, "b@20") })
	eng.Run(40 * sim.Nanosecond)
	want := []string{"a@20", "b@20", "c@30"}
	if len(got) != len(want) {
		t.Fatalf("controls %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("controls %v, want %v", got, want)
		}
	}
}

func TestRunUntilQuiet(t *testing.T) {
	eng := New(Config{Shards: 2, Lookahead: sim.Microsecond})
	fired := false
	eng.Shard(1).Sim().At(3*sim.Microsecond, func() { fired = true })
	end := eng.RunUntilQuiet(sim.Second)
	if !fired {
		t.Fatal("event did not fire")
	}
	if !eng.Quiet() {
		t.Fatal("engine not quiet after drain")
	}
	if end >= sim.Second/2 {
		t.Fatalf("drain ran to %d — RunUntilQuiet did not stop when quiet", end)
	}
}

// A cross-shard send that violates the lookahead must panic loudly rather
// than corrupt causality.
func TestPortLookaheadViolationPanics(t *testing.T) {
	eng := New(Config{Shards: 2, Lookahead: sim.Microsecond})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on lookahead violation")
		}
	}()
	p := Port{src: eng.Shard(0), dst: 1}
	p.AtLane(sim.Nanosecond, 0, sim.ActionFunc(func(uint64) {}), 0)
}

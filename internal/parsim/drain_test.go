package parsim

import (
	"fmt"
	"reflect"
	"testing"

	"stardust/internal/sim"
)

// Mail waits in its sender's outbox until the receiver's next window, so
// everything that asks "is anything left?" has to count it. Sent from
// barrier context — before the first Run, by a control, by a hook — or by
// the only event of the last busy window, it is pending, it is delivered
// at its instant, and a drain does not end while it is on its way.
func TestMailInFlightIsPending(t *testing.T) {
	const look = sim.Microsecond
	drivers := map[string]func(*Engine){
		"RunUntilQuiet": func(e *Engine) { e.RunUntilQuiet(sim.Second) },
		"Run":           func(e *Engine) { e.Run(12 * look) },
		"StepOwned": func(e *Engine) {
			for !e.Quiet() {
				e.StepOwned([]bool{true, true}, nil)
			}
		},
	}
	for name, drive := range drivers {
		for _, force := range []execForce{forceInline, forceFanOut} {
			eng := New(Config{Shards: 2, Lookahead: look})
			eng.force = force
			var got []string
			note := func(tag string) sim.Action {
				return sim.ActionFunc(func(uint64) {
					got = append(got, fmt.Sprintf("%s@%d", tag, eng.Shard(1).Sim().Now()/sim.Nanosecond))
				})
			}
			port := eng.Shard(0).To(1)
			port.AtLane(look, 0, note("first"), 0)
			if eng.Pending() != 1 || eng.OwnedPending([]bool{false, true}) != 1 || eng.Quiet() {
				t.Fatalf("%s force=%d: mail sent before the first window: pending %d, quiet %v",
					name, force, eng.Pending(), eng.Quiet())
			}
			eng.At(3*look, func() { port.AtLane(eng.Now()+look, 1, note("control"), 0) })
			eng.OnBarrier(func(now sim.Time) {
				if now == 6*look {
					port.AtLane(now+look, 2, note("hook"), 0)
				}
			})
			eng.Shard(0).Sim().At(9*look+look/2, func() {
				port.AtLane(eng.Shard(0).Sim().Now()+look, 3, note("event"), 0)
			})
			drive(eng)
			want := []string{"first@1000", "control@4000", "hook@7000", "event@10500"}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s force=%d: delivered %v, want %v", name, force, got, want)
			}
			if !eng.Quiet() || eng.Pending() != 0 || eng.Now() > 12*look {
				t.Errorf("%s force=%d: pending %d at %d", name, force, eng.Pending(), eng.Now())
			}
			if st := eng.Stats(); st.Mail != 4 {
				t.Errorf("%s force=%d: %d messages counted, want 4", name, force, st.Mail)
			}
		}
	}
}

// A distributed run is quiescent when the replicas' OwnedPending sum to
// zero: at every barrier, once the mail that left each owned set has been
// delivered, that sum is what one engine running every shard calls
// Pending — mail between two shards of one replica included.
func TestOwnedPendingSumsToPending(t *testing.T) {
	const shards, nodes, windows = 4, 12, 3*epochWindows + 5
	one := newRing(shards, nodes, windows, 8)
	type replica struct {
		*ring
		owned []bool
	}
	halves := []replica{
		{newRing(shards, nodes, windows, 8), []bool{true, true, false, false}},
		{newRing(shards, nodes, windows, 8), []bool{false, false, true, true}},
	}
	halves[0].eng.force, halves[1].eng.force = forceFanOut, forceAlternate
	type sent struct {
		dst int
		m   Mail
	}
	for w := 0; w < windows; w++ {
		one.eng.Run(one.eng.Now() + one.eng.Lookahead())
		var mail [2][]sent
		for i, h := range halves {
			h.eng.StepOwned(h.owned, func(src, dst int, m Mail) { mail[1-i] = append(mail[1-i], sent{dst, m}) })
		}
		sum := 0
		for i, h := range halves {
			for _, s := range mail[i] {
				if !h.owned[s.dst] {
					t.Fatalf("window %d: mail for shard %d emitted towards the replica that does not own it", w, s.dst)
				}
				s.m.Act = h.nodes[s.m.Act.(*ringNode).idx] // the receiving replica's copy of the node
				h.eng.DeliverMail(s.dst, s.m)
			}
			sum += h.eng.OwnedPending(h.owned)
		}
		if sum != one.eng.Pending() {
			t.Fatalf("window %d: replicas' OwnedPending sum to %d, one engine has %d pending", w, sum, one.eng.Pending())
		}
	}
	for i, n := range one.nodes {
		if got := halves[n.shard/2].nodes[i].digest; got != n.digest {
			t.Errorf("node %d: digest %x on its replica, %x on one engine", i, got, n.digest)
		}
	}
	if st := one.eng.Stats(); st.Mail == 0 || one.eng.Pending() == 0 {
		t.Fatalf("nothing in flight to count: %+v, %d pending", st, one.eng.Pending())
	}
}

// A message carries an action or a value, and a value its Flow, if any,
// beside it: mixed in one outbox, each reaches its receiver as sent —
// through the receiver's own window, inline or fanned out, and through a
// distributed seam (StepOwned's emit, DeliverMail on another engine) —
// 64-bit Seq and every flag intact. Values land as the window begins, in
// send order; the actions run after them, in lane order.
func TestValuesAndActionsCrossIntact(t *testing.T) {
	const look = sim.Microsecond
	flow := new(int)
	sent := []Mail{
		{At: look, Lane: 1, Val: Value{Seq: -1 << 62, Size: 512, Dst: 3, Ack: true, Down: true}},
		{At: look, Lane: 2, Arg: 7},
		{At: look, Lane: 1, Val: Value{Seq: 1<<40 + 9, Size: 64, Dst: 5, CE: true, Echo: true, Flow: flow}},
		{At: look, Lane: 3, Arg: 8},
		{At: look, Lane: 1, Val: Value{Seq: 3, Size: 1, Dst: 0}},
	}
	newEngine := func(got *[]Mail) *Engine {
		eng := New(Config{Shards: 2, Lookahead: look})
		eng.OnValue(func(at sim.Time, lane int32, v Value) { *got = append(*got, Mail{At: at, Lane: lane, Val: v}) })
		return eng
	}
	// send sends every message from shard 0 of eng to shard 1, whose
	// simulator is sm where the actions run.
	send := func(eng *Engine, got *[]Mail, sm *sim.Simulator) {
		port := eng.Shard(0).To(1).(Port)
		for _, m := range sent {
			if m.Val.Size == 0 {
				port.AtLane(m.At, m.Lane, recorder{got, sm, m.Lane}, m.Arg)
			} else {
				port.AtValue(m.At, m.Lane, m.Val)
			}
		}
	}
	var order []Mail // values first, then actions (their lanes ascend)
	for _, values := range []bool{true, false} {
		for _, m := range sent {
			if (m.Val.Size != 0) == values {
				order = append(order, m)
			}
		}
	}
	want := func(t *testing.T, name string, got []Mail) {
		t.Helper()
		if len(got) != len(order) {
			t.Fatalf("%s: %d messages arrived, %d sent", name, len(got), len(order))
		}
		for i, m := range order {
			if g := got[i]; g != m {
				t.Fatalf("%s: message %d arrived as %+v, want %+v", name, i, g, m)
			}
		}
	}
	for _, force := range []execForce{forceInline, forceFanOut} {
		var got []Mail
		eng := newEngine(&got)
		eng.force = force
		send(eng, &got, eng.Shard(1).Sim())
		eng.Run(2 * look)
		want(t, fmt.Sprintf("force=%d", force), got)
	}

	var got []Mail
	src, dst := newEngine(new([]Mail)), newEngine(&got)
	send(src, &got, dst.Shard(1).Sim())
	var mail []Mail
	src.StepOwned([]bool{true, false}, func(_, to int, m Mail) {
		if to != 1 {
			t.Fatalf("mail for shard %d", to)
		}
		mail = append(mail, m)
	})
	dst.StepOwned([]bool{false, true}, nil)
	for _, m := range mail {
		dst.DeliverMail(1, m)
	}
	dst.StepOwned([]bool{false, true}, nil)
	want(t, "seam", got)
}

// recorder is an action that records the mail it stands for as it runs
// on sm.
type recorder struct {
	got  *[]Mail
	sm   *sim.Simulator
	lane int32
}

func (r recorder) Act(arg uint64) {
	*r.got = append(*r.got, Mail{At: r.sm.Now(), Lane: r.lane, Arg: arg})
}

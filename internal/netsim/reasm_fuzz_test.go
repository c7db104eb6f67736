package netsim

import (
	"testing"

	"stardust/internal/sim"
)

// FuzzReassembly drives the destination adapter's reassembly path with
// adversarial cell schedules: the fuzz input programs, per cell, whether
// it is dropped or how long it is delayed, producing arbitrary arrival
// orders, skews and losses across interleaved flows. The invariants:
//
//   - no duplicate deliveries, and per-VOQ ship order is preserved;
//   - every shipped packet's fate is settled exactly once — delivered or
//     discarded by the reassembly timer (delivered + timeouts == shipped);
//   - cell conservation (delivered + dropped == sent);
//   - nothing leaks: every VOQ and in-order stream drains empty
//     (InFlight) with its credit books balanced (CheckInvariants).

// scriptedFabric implements CellFabric with a byte program: each injected
// cell consumes one op. op ≡ 0 (mod 8) loses the cell; anything else
// delivers it after (op mod 32) · 7µs, so later cells routinely overtake
// earlier ones and whole packets interleave at the destination.
type scriptedFabric struct {
	s         *sim.Simulator
	net       *StardustNet
	prog      []byte
	i         int
	sent      uint64
	delivered uint64
	dropped   uint64
}

func (f *scriptedFabric) Inject(c *Packet, src, dst int) {
	f.sent++
	var op byte
	if len(f.prog) > 0 {
		op = f.prog[f.i%len(f.prog)]
		f.i++
	}
	if op%8 == 0 {
		f.dropped++
		return
	}
	delay := sim.Time(op%32) * 7 * sim.Microsecond
	f.s.After(delay, func() {
		f.delivered++
		f.net.DeliverCell(c)
	})
}

func (f *scriptedFabric) Delivered() uint64 { return f.delivered }

func (f *scriptedFabric) Drops() uint64 { return f.dropped }

func FuzzReassembly(f *testing.F) {
	f.Add([]byte{1})                                 // every cell delivered, fixed small skew
	f.Add([]byte{0})                                 // every cell lost: pure timer-discard path
	f.Add([]byte{0, 9, 31, 2, 17, 8, 5, 255, 64, 3}) // mixed drops and heavy reordering
	f.Add([]byte{9, 1, 25, 1, 9, 1})                 // loss-free, oscillating skew
	f.Fuzz(func(t *testing.T, prog []byte) {
		s := sim.New()
		cfg := DefaultStardust(10e9, 2, sim.Microsecond)
		n, err := NewStardustNet(s, cfg, 4, 2)
		if err != nil {
			t.Fatal(err)
		}
		fab := &scriptedFabric{s: s, net: n, prog: prog}
		n.UseFabric(fab)

		// Interleaved flows, including a same-FA pair, with sizes drawn
		// from the program so fragmentation counts vary.
		flows := [][2]int{{0, 2}, {1, 3}, {3, 0}, {0, 1}}
		sizeAt := func(i int) int {
			op := byte(7)
			if len(prog) > 0 {
				op = prog[(i*13)%len(prog)]
			}
			return 100 + (int(op)*937)%11000
		}
		const perFlow = 12
		type recF struct {
			last      int64
			delivered uint64
		}
		recs := make([]recF, len(flows))
		var shipped int
		for fi, fl := range flows {
			fi := fi
			route := append(n.Route(fl[0], fl[1]), HandlerFunc(func(p *Packet) {
				r := &recs[fi]
				if p.Seq <= r.last {
					t.Errorf("flow %d: seq %d delivered after %d (duplicate or reorder)", fi, p.Seq, r.last)
				}
				r.last = p.Seq
				r.delivered++
			}))
			for i := 0; i < perFlow; i++ {
				i := i
				shipped++
				s.At(sim.Time(i*len(flows)+fi)*3*sim.Microsecond, func() {
					p := NewPacket()
					p.Size = sizeAt(fi*perFlow + i)
					p.Seq = int64(i + 1)
					p.SetRoute(route)
					p.SendOn()
				})
			}
		}

		// Run far past the last injection, the maximum scripted skew
		// (31·7µs) and the reassembly timeout, so every fate settles.
		s.RunUntil(20 * sim.Millisecond)

		var delivered uint64
		for _, r := range recs {
			delivered += r.delivered
		}
		var tc TransportCounters
		n.ReadCounters(&tc)
		if delivered+tc.ReasmTimeouts != uint64(shipped) {
			t.Fatalf("packet fates: %d delivered + %d timed out != %d shipped",
				delivered, tc.ReasmTimeouts, shipped)
		}
		if tc.CellsDelivered+fab.dropped != tc.CellsSent {
			t.Fatalf("cell leak: %d delivered + %d dropped != %d sent",
				tc.CellsDelivered, fab.dropped, tc.CellsSent)
		}
		if fab.sent != tc.CellsSent {
			t.Fatalf("fabric saw %d cells, net sent %d", fab.sent, tc.CellsSent)
		}
		// No leaked reassembly state or queued packet, and no credit leak.
		if got := n.InFlight(); got != 0 {
			t.Fatalf("%d packets still queued in VOQs or flight rings", got)
		}
		if err := n.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

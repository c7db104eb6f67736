package netsim

import (
	"testing"

	"stardust/internal/sim"
)

// blackholeFabric implements CellFabric by losing every cell — the
// worst-case failed-link scenario where no cell of a packet survives.
type blackholeFabric struct{ dropped uint64 }

func (b *blackholeFabric) Inject(c *Packet, src, dst int) {
	b.dropped++
	c.Release()
}

func (b *blackholeFabric) Drops() uint64 { return b.dropped }

// A packet whose cells are ALL lost must still be discarded by the
// reassembly timer even though no later completion ever calls into the
// delivery path: the timer itself has to fire (§4.1).
func TestReasmTimerFiresWithoutLaterCompletions(t *testing.T) {
	s := sim.New()
	cfg := DefaultStardust(10e9, 2, sim.Microsecond)
	n, err := NewStardustNet(s, cfg, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	bh := &blackholeFabric{}
	n.UseFabric(bh)

	var got Counter
	route := append(n.Route(0, 2), &got)
	p := NewPacket()
	p.Size = 9000
	p.SetRoute(route)
	p.SendOn()

	// Let credits flow and the packet ship into the black hole, then run
	// well past the reassembly timeout with NO other traffic.
	s.RunUntil(10*sim.Millisecond + 10*cfg.ReasmTimeout)
	if bh.dropped == 0 {
		t.Fatal("packet never shipped as cells")
	}
	if got.Packets != 0 {
		t.Fatal("a fully-lost packet was delivered")
	}
	if n.ReasmTimeouts() != 1 {
		t.Fatalf("ReasmTimeouts = %d, want 1 (timer-driven discard)", n.ReasmTimeouts())
	}
	if n.FabricDrops() != bh.dropped {
		t.Fatalf("FabricDrops = %d, want %d", n.FabricDrops(), bh.dropped)
	}
}

// With the default fluid trunk nothing is lost and the
// timer must never discard anything.
func TestReasmTimerIdleOnHealthyPath(t *testing.T) {
	s := sim.New()
	cfg := DefaultStardust(10e9, 2, sim.Microsecond)
	n, err := NewStardustNet(s, cfg, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	var got Counter
	route := append(n.Route(0, 2), &got)
	for i := 0; i < 5; i++ {
		p := NewPacket()
		p.Size = 9000
		p.SetRoute(route)
		p.SendOn()
	}
	s.RunUntil(10*sim.Millisecond + 10*cfg.ReasmTimeout)
	if got.Packets != 5 {
		t.Fatalf("delivered %d of 5", got.Packets)
	}
	if n.ReasmTimeouts() != 0 {
		t.Fatalf("healthy path discarded %d packets", n.ReasmTimeouts())
	}
}

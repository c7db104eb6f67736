package netsim

import (
	"testing"
	"unsafe"

	"stardust/internal/sim"
)

// A shard's transport counters fill whole cache lines, so two shards'
// never share one (see sim.CacheLine).
func TestShardCountersLayout(t *testing.T) {
	if got := unsafe.Sizeof(sdShard{}); got%sim.CacheLine != 0 {
		t.Errorf("sdShard is %d bytes: not whole %d-byte cache lines", got, sim.CacheLine)
	}
}

func TestQueueServesAtRate(t *testing.T) {
	s := sim.New()
	q := NewQueue(s, "q", 8e9, 1<<20, 0) // 1 byte/ns
	var c Counter
	for i := 0; i < 10; i++ {
		p := &Packet{Size: 1000}
		p.SetRoute([]Handler{q, &c})
		p.SendOn()
	}
	s.Run()
	if c.Packets != 10 {
		t.Fatalf("delivered %d", c.Packets)
	}
	// 10 x 1000B at 1B/ns = 10us total serialization.
	if got := s.Now(); got != 10*sim.Microsecond {
		t.Fatalf("finished at %v, want 10us", got)
	}
}

func TestQueueTailDrop(t *testing.T) {
	s := sim.New()
	q := NewQueue(s, "q", 1e9, 2500, 0)
	var c Counter
	for i := 0; i < 5; i++ {
		p := &Packet{Size: 1000}
		p.SetRoute([]Handler{q, &c})
		p.SendOn()
	}
	s.Run()
	if q.Drops != 3 || c.Packets != 2 {
		t.Fatalf("drops=%d delivered=%d, want 3/2", q.Drops, c.Packets)
	}
}

func TestQueueECNMarking(t *testing.T) {
	s := sim.New()
	q := NewQueue(s, "q", 1e9, 1<<20, 1500)
	marked := 0
	sink := HandlerFunc(func(p *Packet) {
		if p.CE {
			marked++
		}
	})
	for i := 0; i < 4; i++ {
		p := &Packet{Size: 1000}
		p.SetRoute([]Handler{q, sink})
		p.SendOn()
	}
	s.Run()
	// First packet sees empty queue, second sees 1000B (below 1500), the
	// rest see >= 1500.
	if marked != 2 {
		t.Fatalf("marked %d, want 2", marked)
	}
}

func TestPipeDelay(t *testing.T) {
	s := sim.New()
	p := NewPipe(s, 5*sim.Microsecond)
	var at sim.Time
	pk := &Packet{Size: 100}
	pk.SetRoute([]Handler{p, HandlerFunc(func(*Packet) { at = s.Now() })})
	pk.SendOn()
	s.Run()
	if at != 5*sim.Microsecond {
		t.Fatalf("arrived at %v", at)
	}
}

func TestFatTreeRouteTraversal(t *testing.T) {
	s := sim.New()
	cfg := DefaultFatTree()
	cfg.K = 4
	net, err := NewFatTreeNet(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var c Counter
	// Cross-pod route: 6 queues + 6 pipes.
	route := append(net.Route(0, 15, 0), &c)
	if len(route) != 13 {
		t.Fatalf("route handlers = %d, want 13", len(route))
	}
	p := &Packet{Size: 9000}
	p.SetRoute(route)
	p.SendOn()
	s.Run()
	if c.Packets != 1 {
		t.Fatal("packet lost")
	}
	// Latency: 6 hops x (serialization 7.2us @10G + 1us pipe).
	want := 6 * (sim.Time(float64(9000*8)/10e9*float64(sim.Second)) + cfg.LinkDelay)
	if got := s.Now(); got != want {
		t.Fatalf("latency %v, want %v", got, want)
	}
	if net.TotalDrops() != 0 {
		t.Fatal("unexpected drops")
	}
}

func TestFatTreePathDiversityDistinctQueues(t *testing.T) {
	s := sim.New()
	cfg := DefaultFatTree()
	cfg.K = 4
	net, _ := NewFatTreeNet(s, cfg)
	// The two intra-pod choices must use different aggregation queues.
	r0 := net.Route(0, 2, 0)
	r1 := net.Route(0, 2, 1)
	if r0[2] == r1[2] {
		t.Fatal("ECMP choices share the same aggregation queue")
	}
}

func TestStardustSubstrateDelivers(t *testing.T) {
	s := sim.New()
	cfg := DefaultStardust(10e9, 2, sim.Microsecond)
	net, err := NewStardustNet(s, cfg, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	var c Counter
	route := append(net.Route(0, 5), &c)
	for i := 0; i < 20; i++ {
		p := &Packet{Size: 9000}
		p.SetRoute(route)
		p.SendOn()
	}
	s.RunUntil(5 * sim.Millisecond)
	if c.Packets != 20 {
		t.Fatalf("delivered %d of 20", c.Packets)
	}
	if net.FabricDrops() != 0 {
		t.Fatal("fabric dropped cells")
	}
	if net.CellsSent() == 0 || net.CreditsSent() == 0 {
		t.Fatal("no cells or credits recorded")
	}
	// 9000B packets over 504B payload cells: 18 cells each.
	if net.CellsSent() != 20*18 {
		t.Fatalf("cells sent = %d, want 360", net.CellsSent())
	}
}

func TestStardustSizingValidation(t *testing.T) {
	s := sim.New()
	cfg := DefaultStardust(10e9, 2, sim.Microsecond)
	if _, err := NewStardustNet(s, cfg, 7, 2); err == nil {
		t.Fatal("non-divisible hosts accepted")
	}
	cfg.CellBytes = 4
	if _, err := NewStardustNet(s, cfg, 8, 2); err == nil {
		t.Fatal("tiny cells accepted")
	}
}

// LanePipe must deliver after its delay on its lane: two pipes into one
// endpoint at the same instant hand over in lane order, not send order.
func TestLanePipeLaneOrder(t *testing.T) {
	s := sim.New()
	var got []int64
	sink := HandlerFunc(func(p *Packet) { got = append(got, p.Seq); p.Release() })
	hi := &LanePipe{Sched: s, Delay: sim.Microsecond, Lane: 9}
	lo := &LanePipe{Sched: s, Delay: sim.Microsecond, Lane: 2}
	send := func(lp *LanePipe, seq int64) {
		p := NewPacket()
		p.Size = 100
		p.Seq = seq
		p.SetRoute([]Handler{lp, sink})
		p.SendOn()
	}
	send(hi, 9) // scheduled first, higher lane
	send(lo, 2)
	s.Run()
	if len(got) != 2 || got[0] != 2 || got[1] != 9 {
		t.Fatalf("lane order violated: %v", got)
	}
	if s.Now() != sim.Microsecond {
		t.Fatalf("delivered at %d, want %d", s.Now(), sim.Microsecond)
	}
}

// Queue.OnDrop must observe exactly the tail-dropped packets, before the
// pool reclaims them.
func TestQueueOnDrop(t *testing.T) {
	s := sim.New()
	q := NewQueue(s, "q", 1e9, 1000, 0)
	var dropped []int64
	q.OnDrop = func(p *Packet) { dropped = append(dropped, p.Seq) }
	var c Counter
	for i := 0; i < 3; i++ {
		p := NewPacket()
		p.Size = 600 // second and third overflow the 1000B queue
		p.Seq = int64(i + 1)
		p.SetRoute([]Handler{q, &c})
		p.SendOn()
	}
	s.Run()
	if q.Drops != 2 || len(dropped) != 2 || dropped[0] != 2 || dropped[1] != 3 {
		t.Fatalf("drops=%d hook saw %v, want [2 3]", q.Drops, dropped)
	}
	if c.Packets != 1 {
		t.Fatalf("delivered %d, want 1", c.Packets)
	}
}

package tcp

import (
	"testing"

	"stardust/internal/netsim"
	"stardust/internal/sim"
)

// twoQueuePath builds a simple dumbbell: src -> q1 -> pipe -> sink,
// acks back through a dedicated reverse queue.
func dumbbell(s *sim.Simulator, rate netsim.Bps, bufBytes, ecn int) (fwdQ *netsim.Queue, fwd, rev []netsim.Handler) {
	fwdQ = netsim.NewQueue(s, "fwd", rate, bufBytes, ecn)
	revQ := netsim.NewQueue(s, "rev", rate, bufBytes, 0)
	pipe := netsim.NewPipe(s, 10*sim.Microsecond)
	fwd = []netsim.Handler{fwdQ, pipe}
	rev = []netsim.Handler{revQ, pipe, Ack}
	return
}

func TestSingleFlowCompletes(t *testing.T) {
	s := sim.New()
	cfg := DefaultConfig()
	_, fwd, rev := dumbbell(s, 10e9, 100*9000, 0)
	src := NewSource(s, cfg, "f", 1_000_000, nil)
	sink := NewSink(s, cfg, src, rev)
	src.fwd = append(fwd, sink)
	src.Start()
	s.RunUntil(100 * sim.Millisecond)
	if !src.Done {
		t.Fatalf("flow did not complete: acked %d", src.DeliveredB)
	}
	// 1MB at 10G is 800us minimum plus slow start; anything under 5ms is
	// sane.
	if fct := src.FCT(); fct > 5*sim.Millisecond || fct < 800*sim.Microsecond {
		t.Fatalf("FCT %v implausible", fct.Microseconds())
	}
	if src.Retransmits != 0 || src.Timeouts != 0 {
		t.Fatalf("uncongested flow retransmitted: %d/%d", src.Retransmits, src.Timeouts)
	}
}

func TestSlowStartDoubles(t *testing.T) {
	s := sim.New()
	cfg := DefaultConfig()
	_, fwd, rev := dumbbell(s, 100e9, 1000*9000, 0)
	src := NewSource(s, cfg, "f", 0, nil)
	sink := NewSink(s, cfg, src, rev)
	src.fwd = append(fwd, sink)
	src.Start()
	w0 := src.Cwnd()
	s.RunUntil(200 * sim.Microsecond) // a few RTTs (RTT ~ 20us)
	if src.Cwnd() < 4*w0 {
		t.Fatalf("cwnd did not grow in slow start: %v -> %v", w0, src.Cwnd())
	}
}

func TestLossRecovery(t *testing.T) {
	s := sim.New()
	cfg := DefaultConfig()
	// Tiny buffer forces drops during slow start.
	_, fwd, rev := dumbbell(s, 10e9, 5*9000, 0)
	src := NewSource(s, cfg, "f", 3_000_000, nil)
	sink := NewSink(s, cfg, src, rev)
	src.fwd = append(fwd, sink)
	src.Start()
	s.RunUntil(200 * sim.Millisecond)
	if !src.Done {
		t.Fatalf("flow did not recover from loss: acked %d of 3MB, rtx=%d to=%d",
			src.DeliveredB, src.Retransmits, src.Timeouts)
	}
	if src.Retransmits == 0 {
		t.Fatal("expected retransmissions with a 5-packet buffer")
	}
}

func TestTwoFlowsShareFairly(t *testing.T) {
	s := sim.New()
	cfg := DefaultConfig()
	q, fwdShared, _ := dumbbell(s, 10e9, 100*9000, 0)
	_ = q
	var flows []*Source
	for i := 0; i < 2; i++ {
		revQ := netsim.NewQueue(s, "rev", 10e9, 100*9000, 0)
		pipe := netsim.NewPipe(s, 10*sim.Microsecond)
		rev := []netsim.Handler{revQ, pipe, Ack}
		src := NewSource(s, cfg, "f", 0, nil)
		sink := NewSink(s, cfg, src, rev)
		src.fwd = append(append([]netsim.Handler{}, fwdShared...), sink)
		flows = append(flows, src)
		src.Start()
	}
	s.RunUntil(50 * sim.Millisecond)
	a, b := flows[0].DeliveredB, flows[1].DeliveredB
	if a == 0 || b == 0 {
		t.Fatal("a flow starved")
	}
	ratio := float64(a) / float64(b)
	if ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("unfair split: %d vs %d", a, b)
	}
	total := float64(a+b) * 8 / (50e-3)
	if total < 8e9 {
		t.Fatalf("bottleneck underutilized: %.2f Gbps", total/1e9)
	}
}

// DCTCP keeps the bottleneck queue near the marking threshold instead of
// filling the buffer.
func TestDCTCPKeepsQueueShort(t *testing.T) {
	run := func(dctcp bool) (peak int, goodput float64) {
		s := sim.New()
		cfg := DefaultConfig()
		ecn := 0
		if dctcp {
			cfg.DCTCP = true
			ecn = 10 * 9000
		}
		q, fwd, rev := dumbbell(s, 10e9, 100*9000, ecn)
		src := NewSource(s, cfg, "f", 0, nil)
		sink := NewSink(s, cfg, src, rev)
		src.fwd = append(fwd, sink)
		src.Start()
		s.RunUntil(50 * sim.Millisecond)
		return q.PeakBytes, float64(src.DeliveredB) * 8 / 50e-3
	}
	renoPeak, renoGoodput := run(false)
	dctcpPeak, dctcpGoodput := run(true)
	if dctcpPeak >= renoPeak/2 {
		t.Fatalf("DCTCP queue peak %d not much below Reno %d", dctcpPeak, renoPeak)
	}
	if dctcpGoodput < 0.85*renoGoodput {
		t.Fatalf("DCTCP sacrificed too much goodput: %v vs %v", dctcpGoodput, renoGoodput)
	}
}

func TestMPTCPUsesBothPaths(t *testing.T) {
	s := sim.New()
	cfg := DefaultConfig()
	// Two disjoint 10G paths.
	var fwd [][]netsim.Handler
	var sinks []*netsim.Queue
	m := NewMPTCP(s, cfg, "m", 0, [][]netsim.Handler{nil, nil})
	for i := 0; i < 2; i++ {
		fq := netsim.NewQueue(s, "fwd", 10e9, 100*9000, 0)
		rq := netsim.NewQueue(s, "rev", 10e9, 100*9000, 0)
		pipe := netsim.NewPipe(s, 10*sim.Microsecond)
		rev := []netsim.Handler{rq, pipe, Ack}
		sub := m.Subflows[i]
		sink := NewSink(s, cfg, sub, rev)
		sub.fwd = []netsim.Handler{fq, pipe, sink}
		sinks = append(sinks, fq)
		fwd = append(fwd, sub.fwd)
	}
	m.Start()
	s.RunUntil(50 * sim.Millisecond)
	total := float64(m.DeliveredB()) * 8 / 50e-3
	if total < 15e9 {
		t.Fatalf("MPTCP only reached %.2f Gbps over two 10G paths", total/1e9)
	}
	for i, q := range sinks {
		if q.Forwarded() == 0 {
			t.Fatalf("subflow %d unused", i)
		}
	}
	_ = fwd
}

func TestMPTCPFiniteFlowCompletes(t *testing.T) {
	s := sim.New()
	cfg := DefaultConfig()
	m := NewMPTCP(s, cfg, "m", 1_000_000, [][]netsim.Handler{nil, nil})
	for i := 0; i < 2; i++ {
		fq := netsim.NewQueue(s, "fwd", 10e9, 100*9000, 0)
		rq := netsim.NewQueue(s, "rev", 10e9, 100*9000, 0)
		pipe := netsim.NewPipe(s, 10*sim.Microsecond)
		sub := m.Subflows[i]
		sink := NewSink(s, cfg, sub, []netsim.Handler{rq, pipe, Ack})
		sub.fwd = []netsim.Handler{fq, pipe, sink}
	}
	done := false
	m.OnComplete = func(*MPTCP) { done = true }
	m.Start()
	s.RunUntil(100 * sim.Millisecond)
	if !done || !m.Done {
		t.Fatalf("MPTCP flow incomplete: %d of 1MB", m.DeliveredB())
	}
}

func TestDCQCNReactsToCongestion(t *testing.T) {
	s := sim.New()
	// Two DCQCN flows into one 10G ECN-marking bottleneck.
	bottleneck := netsim.NewQueue(s, "b", 10e9, 300*9000, 5*9000)
	pipe := netsim.NewPipe(s, 10*sim.Microsecond)
	var flows []*DCQCN
	for i := 0; i < 2; i++ {
		rq := netsim.NewQueue(s, "rev", 10e9, 300*9000, 0)
		d := NewDCQCN(s, "d", 9000, 10e9, 0, nil)
		sink := NewDCQCNSink(s, d, []netsim.Handler{rq, pipe, DCQCNAck})
		d.fwd = []netsim.Handler{bottleneck, pipe, sink}
		flows = append(flows, d)
		d.Start()
	}
	s.RunUntil(20 * sim.Millisecond)
	for i, d := range flows {
		if d.CNPs == 0 {
			t.Fatalf("flow %d saw no CNPs at a shared bottleneck", i)
		}
		if d.Rate() >= d.LineRate {
			t.Fatalf("flow %d never reduced rate", i)
		}
		if d.DeliveredB == 0 {
			t.Fatalf("flow %d starved", i)
		}
	}
	// Combined delivery should be near the bottleneck rate.
	total := float64(flows[0].DeliveredB+flows[1].DeliveredB) * 8 / 20e-3
	if total < 6e9 || total > 10.5e9 {
		t.Fatalf("aggregate %.2f Gbps at a 10G bottleneck", total/1e9)
	}
}

func TestDCQCNFiniteFlow(t *testing.T) {
	s := sim.New()
	q := netsim.NewQueue(s, "q", 10e9, 100*9000, 0)
	rq := netsim.NewQueue(s, "rev", 10e9, 100*9000, 0)
	pipe := netsim.NewPipe(s, 10*sim.Microsecond)
	d := NewDCQCN(s, "d", 9000, 10e9, 450_000, nil)
	sink := NewDCQCNSink(s, d, []netsim.Handler{rq, pipe, DCQCNAck})
	d.fwd = []netsim.Handler{q, pipe, sink}
	d.Start()
	s.RunUntil(50 * sim.Millisecond)
	if !d.Done {
		t.Fatalf("DCQCN flow incomplete: %d", d.DeliveredB)
	}
	// 450KB at 10G = 360us + overheads.
	if fct := d.FCT(); fct < 360*sim.Microsecond || fct > 2*sim.Millisecond {
		t.Fatalf("FCT %v", fct.Microseconds())
	}
}

// TCP over the Stardust substrate: scheduled fabric, no fabric loss, high
// goodput.
func TestTCPOverStardust(t *testing.T) {
	s := sim.New()
	sd, err := netsim.NewStardustNet(s, netsim.DefaultStardust(10e9, 2, sim.Microsecond), 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	src := NewSource(s, cfg, "f", 0, nil)
	sink := NewSink(s, cfg, src, append(sd.Route(5, 0), Ack))
	src.fwd = append(sd.Route(0, 5), sink)
	src.Start()
	s.RunUntil(50 * sim.Millisecond)
	goodput := float64(src.DeliveredB) * 8 / 50e-3
	if goodput < 8.5e9 {
		t.Fatalf("TCP over Stardust reached only %.2f Gbps", goodput/1e9)
	}
	if sd.FabricDrops() != 0 {
		t.Fatal("fabric dropped cells")
	}
}

// Incast over Stardust (§5.4): many senders, one port — fabric lossless,
// service fair.
func TestStardustIncastFairAndLossless(t *testing.T) {
	s := sim.New()
	sd, err := netsim.NewStardustNet(s, netsim.DefaultStardust(10e9, 2, sim.Microsecond), 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	var flows []*Source
	for src := 1; src < 16; src++ {
		f := NewSource(s, cfg, "f", 200_000, nil)
		sink := NewSink(s, cfg, f, append(sd.Route(0, src), Ack))
		f.fwd = append(sd.Route(src, 0), sink)
		flows = append(flows, f)
		f.Start()
	}
	s.RunUntil(100 * sim.Millisecond)
	var minB, maxB int64 = 1 << 62, 0
	for _, f := range flows {
		if !f.Done {
			t.Fatalf("incast flow incomplete: %d", f.DeliveredB)
		}
	}
	// Fairness on completion times: egress scheduler round-robins credits.
	var minT, maxT sim.Time = 1 << 62, 0
	for _, f := range flows {
		if f.DoneAt < minT {
			minT = f.DoneAt
		}
		if f.DoneAt > maxT {
			maxT = f.DoneAt
		}
	}
	if float64(minT) < 0.5*float64(maxT) {
		t.Fatalf("incast service unfair: first %v last %v", minT.Microseconds(), maxT.Microseconds())
	}
	if sd.FabricDrops() != 0 {
		t.Fatal("fabric dropped cells during incast")
	}
	_ = minB
	_ = maxB
}

package experiments

import (
	"fmt"
	"testing"

	"stardust/internal/netsim"
	"stardust/internal/sim"
	"stardust/internal/tcp"
	"stardust/internal/workload"
)

// Regression suite for StardustNet.TotalDrops/FabricDrops over the
// per-link fabric: for every fabric=true htsim scenario shape, every packet
// handed to the substrate must be accounted at drain —
//
//	injected == delivered + queue/VOQ drops + reassembly-timeout discards
//
// and every cell the adapters fragmented must be accounted too —
//
//	CellsSent == CellsDelivered + FabricDrops.
//
// Before this suite only the bare fabric asserted conservation; the
// transport's own accounting (the counters TotalDrops and FabricDrops
// aggregate) was unchecked on the end-to-end path.

// pktCounter counts packets passing one route position and forwards them.
type pktCounter struct{ n uint64 }

// Receive implements netsim.Handler.
func (c *pktCounter) Receive(p *netsim.Packet) {
	c.n++
	p.SendOn()
}

// runConservation drives the flow matrix with finite TCP flows over the
// per-link fabric (one shard: the two packet counters are shared by every
// flow), optionally failing links mid-run, and checks the accounting
// identities at drain.
func runConservation(t *testing.T, name string, flows []workload.Flow, flowBytes int64, failLinks []int) {
	t.Helper()
	cfg := QuickHtsim()
	cfg.FullFabric = true
	tb, err := newTestbed(cfg, ProtoStardust)
	if err != nil {
		t.Fatal(err)
	}
	var injected, delivered pktCounter
	var sources []*tcp.Source
	tcfg := tcp.DefaultConfig()
	tcfg.MSS = cfg.MSS
	for i, fl := range flows {
		f := tcp.NewSource(tb.sim(fl.Src), tcfg, fmt.Sprintf("%s-%d", name, i), flowBytes, nil)
		fwd := append([]netsim.Handler{&injected}, tb.route(fl.Src, fl.Dst, 0)...)
		rev := append([]netsim.Handler{&injected}, tb.route(fl.Dst, fl.Src, 0)...)
		sink := tcp.NewSink(tb.sim(fl.Dst), tcfg, f, append(rev, &delivered, tcp.Ack))
		f.SetRoute(append(fwd, &delivered, sink))
		f.StartAt(sim.Time(i) * sim.Microsecond)
		sources = append(sources, f)
	}
	if len(failLinks) > 0 {
		// Fail early enough to land mid-transfer so dead-link cell losses
		// and reassembly discards are part of what is balanced.
		tb.eng.At(300*sim.Microsecond, func() {
			for _, lk := range failLinks {
				tb.fab.FailLink(lk)
			}
		})
		tb.eng.At(1500*sim.Microsecond, func() {
			for _, lk := range failLinks {
				tb.fab.RestoreLink(lk)
			}
		})
	}

	deadline := 400 * sim.Millisecond
	done := func() bool {
		for _, f := range sources {
			if !f.Done {
				return false
			}
		}
		return true
	}
	for tb.now() < deadline && !done() {
		tb.runUntil(tb.now() + 5*sim.Millisecond)
	}
	if !done() {
		t.Fatalf("%s: flows did not complete within the budget", name)
	}
	// Grace: let duplicate ACKs, stragglers and reassembly timers settle so
	// nothing is in flight when the books are balanced.
	tb.runUntil(tb.now() + 5*sim.Millisecond)

	var tc netsim.TransportCounters
	tb.sd.ReadCounters(&tc)
	packetDrops := tb.sd.TotalDrops() - tc.FabricDrops // queue + VOQ tail-drops
	if injected.n != delivered.n+packetDrops+tc.ReasmTimeouts {
		t.Fatalf("%s: packet conservation violated: %d injected != %d delivered + %d dropped + %d discarded",
			name, injected.n, delivered.n, packetDrops, tc.ReasmTimeouts)
	}
	if tc.CellsSent != tc.CellsDelivered+tc.FabricDrops {
		t.Fatalf("%s: cell conservation violated: %d sent != %d delivered + %d fabric drops",
			name, tc.CellsSent, tc.CellsDelivered, tc.FabricDrops)
	}
	if len(failLinks) == 0 {
		if tc.FabricDrops != 0 {
			t.Fatalf("%s: healthy fabric dropped %d cells", name, tc.FabricDrops)
		}
		if tc.ReasmTimeouts != 0 {
			t.Fatalf("%s: healthy run discarded %d packets", name, tc.ReasmTimeouts)
		}
	} else if tc.FabricDrops == 0 {
		// The whole point of the failure case is balancing the books with
		// real losses in them; a painless outage means the schedule missed.
		t.Fatalf("%s: link failures produced no cell losses", name)
	}
	if injected.n == 0 || delivered.n == 0 {
		t.Fatalf("%s: degenerate run (%d injected, %d delivered)", name, injected.n, delivered.n)
	}
}

// pairFlows adapts an (src → dst) permutation slice to workload.Flow.
func pairFlows(perm []int) []workload.Flow {
	var out []workload.Flow
	for src, dst := range perm {
		if src != dst {
			out = append(out, workload.Flow{Src: src, Dst: dst})
		}
	}
	return out
}

func TestFabricTransportConservation(t *testing.T) {
	hosts := 16 // K=4
	rng := newMatrixRNG(7)
	hotFlows, _ := workload.Hotspot(rng, hosts, 2, 0.4)
	incast := workload.NewIncast(rng, hosts, 8, 0)
	var incastFlows []workload.Flow
	for _, b := range incast.Backends {
		incastFlows = append(incastFlows, workload.Flow{Src: b, Dst: incast.Frontend})
	}
	cases := []struct {
		name  string
		flows []workload.Flow
		bytes int64
		fail  []int
	}{
		{"permutation", pairFlows(workload.Permutation(rng, hosts)), 150_000, nil},
		{"hotspot", hotFlows, 100_000, nil},
		{"alltoall", workload.AllToAll(hosts), 30_000, nil},
		{"incast", incastFlows, 150_000, nil},
		{"permutation-failures", pairFlows(workload.Permutation(rng, hosts)), 2_000_000, []int{0, 9, 17}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			runConservation(t, tc.name, tc.flows, tc.bytes, tc.fail)
		})
	}
}

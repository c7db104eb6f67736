// Package experiments contains one entry point per table and figure of the
// paper's evaluation, producing the same rows/series the paper reports.
// The cmd/ tools and the repository-root benchmarks are thin wrappers over
// this package.
package experiments

import (
	"fmt"
	"io"
	"math/rand/v2"

	"stardust/internal/netsim"
	"stardust/internal/sim"
	"stardust/internal/stats"
)

// PushPullResult carries the Fig 7 / Fig 12 outcome: delivered fraction of
// each flow.
type PushPullResult struct {
	WithTC bool // Appendix F variant (A is high priority)

	// Delivered fraction per flow (1.0 = everything offered).
	EthernetA1, EthernetA2, EthernetB float64
	StardustA1, StardustA2, StardustB float64

	// Total egress throughput relative to port capacity (2 ports).
	EthernetTotal float64
	StardustTotal float64
}

// constSource injects fixed-size packets at a constant average rate with a
// few percent of deterministic jitter; without jitter, synchronized
// sources phase-lock against a shared tail-drop queue and the drops land
// on one victim flow instead of spreading (§5.3 discusses the same
// synchronization hazard for cell spraying).
func constSource(s *sim.Simulator, rate netsim.Bps, size int, route []netsim.Handler, tag int, offset, until sim.Time) {
	gap := float64(size*8) / float64(rate) * float64(sim.Second)
	rng := rand.New(stats.Stream(0, "jitter", tag)) // the figure takes no run seed
	free := netsim.FreeListOf(s)
	var emit func()
	emit = func() {
		if s.Now() >= until {
			return
		}
		p := free.Get()
		p.Size = size
		p.Flow = tag
		p.SetRoute(route)
		p.SendOn()
		jitter := 1 + 0.06*(rng.Float64()-0.5)
		s.After(sim.Time(gap*jitter), emit)
	}
	s.After(offset, emit)
}

// PushPull reproduces Fig 7 (withTC=false) and Fig 12 (withTC=true): two
// 100G flows toward port A from different ingress devices and one 100G
// flow toward port B, through a fabric whose egress device is reached over
// 200G of capacity.
//
// The Ethernet fabric pushes everything and drops at the oversubscribed
// egress trunk, so B loses throughput it was entitled to; Stardust's
// egress schedulers pull A at 50G per source and B at 100G, fitting the
// trunk exactly.
func PushPull(withTC bool) PushPullResult {
	const (
		port    = 100e9
		pkt     = 1500
		runFor  = 2 * sim.Millisecond
		bufferB = 150 * 1500
	)
	res := PushPullResult{WithTC: withTC}
	offered := float64(port) * runFor.Seconds() / 8 // bytes per flow

	// ---- Ethernet push fabric ----
	{
		s := sim.New()
		classify := func(p *netsim.Packet) int {
			if !withTC {
				return 0
			}
			if tag, ok := p.Flow.(int); ok && tag == 2 { // flow B is low priority
				return 1
			}
			return 0
		}
		// Egress device reached through a 200G oversubscribed trunk.
		trunk := netsim.NewPriorityQueue(s, "trunk", 2*port, bufferB, classify)
		portA := netsim.NewQueue(s, "A", port, bufferB, 0)
		portB := netsim.NewQueue(s, "B", port, bufferB, 0)
		free := netsim.FreeListOf(s)
		a1, a2, b := netsim.Counter{Free: free}, netsim.Counter{Free: free}, netsim.Counter{Free: free}
		pipe := netsim.NewPipe(s, sim.Microsecond)
		demuxA1 := []netsim.Handler{trunk, pipe, portA, &a1}
		demuxA2 := []netsim.Handler{trunk, pipe, portA, &a2}
		demuxB := []netsim.Handler{trunk, pipe, portB, &b}
		gapSecs := float64(pkt*8) / port
		gap := sim.Time(gapSecs * float64(sim.Second))
		constSource(s, port, pkt, demuxA1, 0, 0, runFor)
		constSource(s, port, pkt, demuxA2, 1, gap/3, runFor)
		constSource(s, port, pkt, demuxB, 2, 2*gap/3, runFor)
		s.RunUntil(runFor + sim.Millisecond)
		res.EthernetA1 = float64(a1.Bytes) / offered
		res.EthernetA2 = float64(a2.Bytes) / offered
		res.EthernetB = float64(b.Bytes) / offered
		res.EthernetTotal = float64(a1.Bytes+a2.Bytes+b.Bytes) / (2 * offered)
	}

	// ---- Stardust pull fabric ----
	{
		s := sim.New()
		// Credits pace each source: A's port scheduler splits 100G between
		// two sources; B's gives its source the full rate. The paced flows
		// share the same 200G trunk without loss.
		trunk := netsim.NewQueue(s, "trunk", 2*port, bufferB, 0)
		portA := netsim.NewQueue(s, "A", port, bufferB, 0)
		portB := netsim.NewQueue(s, "B", port, bufferB, 0)
		free := netsim.FreeListOf(s)
		a1, a2, b := netsim.Counter{Free: free}, netsim.Counter{Free: free}, netsim.Counter{Free: free}
		pipe := netsim.NewPipe(s, sim.Microsecond)
		// The egress schedulers' steady-state credit rates (§5.2).
		gapSecs := float64(pkt*8) / port
		gap := sim.Time(gapSecs * float64(sim.Second))
		constSource(s, port/2, pkt, []netsim.Handler{trunk, pipe, portA, &a1}, 0, 0, runFor)
		constSource(s, port/2, pkt, []netsim.Handler{trunk, pipe, portA, &a2}, 1, gap/3, runFor)
		constSource(s, port, pkt, []netsim.Handler{trunk, pipe, portB, &b}, 2, 2*gap/3, runFor)
		s.RunUntil(runFor + sim.Millisecond)
		// Delivered fraction of the *offered* 100G per flow.
		res.StardustA1 = float64(a1.Bytes) / offered
		res.StardustA2 = float64(a2.Bytes) / offered
		res.StardustB = float64(b.Bytes) / offered
		res.StardustTotal = float64(a1.Bytes+a2.Bytes+b.Bytes) / (2 * offered)
	}
	return res
}

// WritePushPull prints the Fig 7 / Fig 12 comparison.
func WritePushPull(w io.Writer, r PushPullResult) {
	label := "Fig 7 (no traffic classes)"
	if r.WithTC {
		label = "Fig 12 / Appendix F (A high priority, B low)"
	}
	fmt.Fprintf(w, "== Push vs Pull fabric: %s ==\n", label)
	fmt.Fprintf(w, "%-22s %8s %8s %8s %10s\n", "fabric", "A1", "A2", "B", "egress")
	fmt.Fprintf(w, "%-22s %7.0f%% %7.0f%% %7.0f%% %9.0f%%\n", "Ethernet (push)",
		100*r.EthernetA1, 100*r.EthernetA2, 100*r.EthernetB, 100*r.EthernetTotal)
	fmt.Fprintf(w, "%-22s %7.0f%% %7.0f%% %7.0f%% %9.0f%%\n", "Stardust (pull)",
		100*r.StardustA1, 100*r.StardustA2, 100*r.StardustB, 100*r.StardustTotal)
}

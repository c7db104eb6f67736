package mgmt

import (
	"fmt"
	"math/rand/v2"
	"sync"

	"stardust/internal/netsim"
	"stardust/internal/sim"
	"stardust/internal/stats"
	"stardust/internal/tcp"
	"stardust/internal/topo"
	"stardust/internal/workload"
)

// TransportStats is the management plane's snapshot of a sharded Stardust
// transport, taken at the last barrier scrape so HTTP readers never race
// the shard goroutines.
type TransportStats struct {
	Time    sim.Time `json:"sim_ps"`
	Scrapes uint64   `json:"scrapes"`
	Hosts   int      `json:"hosts"`
	netsim.TransportCounters
}

// TransportMonitor holds a StardustNet's counters as the FabricRun's
// barrier scrape last read them — every shard quiescent at a synchronized
// instant — so a live sharded transport is race-free under -race and its
// telemetry is identical at every shard count.
type TransportMonitor struct {
	net *netsim.StardustNet

	mu    sync.RWMutex
	stats TransportStats
}

// scrape runs in barrier context. The recorded instant is the scrape
// period boundary, a function of the period alone, so the series is
// byte-comparable across shard counts.
func (m *TransportMonitor) scrape(at sim.Time) {
	var tc netsim.TransportCounters
	m.net.ReadCounters(&tc)
	m.mu.Lock()
	m.stats.Time = at
	m.stats.Scrapes++
	m.stats.TransportCounters = tc
	m.mu.Unlock()
}

// Stats returns the last barrier snapshot.
func (m *TransportMonitor) Stats() TransportStats {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.stats
}

// buildTransport lays the sharded Stardust transport over the run's
// fabric and drives it with a permutation of long-running TCP flows (one
// per host), replacing the raw cell injectors as the load source. Called
// from NewFabricRun before the engine first advances (barrier context).
func (r *FabricRun) buildTransport(hostsPer int) error {
	// The overlay rides the Clos fabric: its credit scheduler is sized by
	// the uniform per-FA uplink count, and NewFabricRun rejects other
	// topologies before building it.
	fab := r.Fab
	cl, ok := fab.Topo.(*topo.Clos)
	if !ok {
		return fmt.Errorf("mgmt: the transport overlay runs on the clos fabric only (topology %s)", fab.Topo.Spec())
	}
	hosts := cl.NumFA * hostsPer
	sdc := netsim.DefaultStardust(netsim.Bps(10e9), cl.FAUplinks, fab.Cfg.LinkDelay)
	net, err := netsim.NewShardedStardustNet(fab, sdc, hosts, hostsPer)
	if err != nil {
		return err
	}
	r.Net = net
	perm := workload.Permutation(rand.New(stats.Stream(r.Cfg.Seed, "perm")), hosts)
	tcfg := tcp.DefaultConfig()
	for src := 0; src < hosts; src++ {
		dst := perm[src]
		if dst == src {
			continue
		}
		f := tcp.NewSource(net.HostSim(src), tcfg, fmt.Sprintf("mgmt-%d-%d", src, dst), 0, nil)
		sink := tcp.NewSink(net.HostSim(dst), tcfg, f, append(net.Route(dst, src), tcp.Ack))
		f.SetRoute(append(net.Route(src, dst), sink))
		// Stagger starts so the credit schedulers do not see every flow
		// request in the same window.
		f.StartAt(sim.Time(src) * 2 * sim.Microsecond)
	}
	r.Trans = &TransportMonitor{net: net, stats: TransportStats{Hosts: hosts}}
	return nil
}

// Package sched implements the distributed egress credit scheduler of
// §3.3/§4.1: each Fabric Adapter runs one PortScheduler per egress port,
// aware of every requesting ingress VOQ in the network that targets the
// port. It releases credits at slightly above the port rate (compensating
// for propagation and processing delays) and slightly below the fabric
// speed-up, applies QoS across traffic classes (strict priority and
// weighted round-robin) and round-robin across ingress adapters within a
// class, and throttles under Fabric-Congestion-Indication feedback (§4.2).
package sched

import (
	"fmt"

	"stardust/internal/sim"
)

// Requester identifies an ingress VOQ requesting credit from this port.
type Requester struct {
	SrcFA uint16
	TC    uint8
}

// Credit is one credit grant: the addressed ingress VOQ may release
// Bytes of data toward this port.
type Credit struct {
	To    Requester
	Bytes int64
}

// ClassConfig configures one traffic class at an egress port.
type ClassConfig struct {
	Priority int // higher = served strictly first
	Weight   int // WRR weight among classes at the same priority (>=1)
}

// Config parameterizes a PortScheduler.
type Config struct {
	PortRateBps float64 // egress port rate
	CreditBytes int64   // credit quantum (e.g. 4KB; minimum per §4.1)
	// SpeedupFraction sets credit rate = port rate * (1+fraction), "e.g.
	// 2%" (§4.1), keeping the egress buffer busy.
	SpeedupFraction float64
	// Classes maps traffic class -> QoS config. Nil = single best-effort
	// class.
	Classes map[uint8]ClassConfig
	// FCIBeta is the multiplicative throttle applied per FCI-marked cell.
	FCIBeta float64
	// FCIRecover is the additive throttle recovery per credit interval.
	FCIRecover float64
	// MinThrottle bounds the FCI back-off.
	MinThrottle float64
}

// DefaultConfig returns the paper's canonical settings for a port of the
// given rate: 4KB credits, 2% speedup.
func DefaultConfig(rateBps float64) Config {
	return Config{
		PortRateBps:     rateBps,
		CreditBytes:     4096,
		SpeedupFraction: 0.02,
		FCIBeta:         0.05,
		FCIRecover:      0.01,
		MinThrottle:     0.1,
	}
}

type classState struct {
	cfg     ClassConfig
	ring    []Requester // activation order (credit arrival order, §3.3)
	backlog []int64     // per source FA: estimated backlog bytes, -1 while it has not requested
	next    int         // round-robin cursor
	deficit int         // WRR deficit counter
}

// backlogOf returns src's estimated backlog, -1 when it is not in the ring.
func (cs *classState) backlogOf(src uint16) int64 {
	if int(src) >= len(cs.backlog) {
		return -1
	}
	return cs.backlog[src]
}

// setBacklog records src's estimate (-1: absent), growing the table.
func (cs *classState) setBacklog(src uint16, bytes int64) {
	for int(src) >= len(cs.backlog) {
		cs.backlog = append(cs.backlog, -1)
	}
	cs.backlog[src] = bytes
}

// PortScheduler issues credits for one egress port.
type PortScheduler struct {
	cfg      Config
	classes  []*classState // by traffic class; nil where none is configured
	tcOrder  []uint8       // deterministic class iteration order
	prios    []int         // distinct priorities, descending
	throttle float64
	fciPend  bool          // an FCI mark arrived since the last credit tick
	paused   bool          // egress buffer back-pressure (§4.1)
	scratch  []*classState // reused eligible-class buffer: NextCredit allocates nothing

	// Stats
	Issued      uint64
	IssuedBytes uint64
	FCISeen     uint64
	Starved     uint64 // intervals with no eligible requester
}

// New creates a port scheduler.
func New(cfg Config) *PortScheduler {
	if cfg.PortRateBps <= 0 || cfg.CreditBytes <= 0 {
		panic("sched: rate and credit size must be positive")
	}
	if cfg.Classes == nil {
		cfg.Classes = map[uint8]ClassConfig{0: {Priority: 0, Weight: 1}}
	}
	if cfg.MinThrottle <= 0 {
		cfg.MinThrottle = 0.1
	}
	s := &PortScheduler{cfg: cfg, throttle: 1}
	seen := map[int]bool{}
	for tc := 0; tc < 256; tc++ {
		cc, ok := cfg.Classes[uint8(tc)]
		if !ok {
			continue
		}
		if cc.Weight < 1 {
			cc.Weight = 1
		}
		for len(s.classes) <= tc {
			s.classes = append(s.classes, nil)
		}
		s.classes[tc] = &classState{cfg: cc}
		s.tcOrder = append(s.tcOrder, uint8(tc))
		if !seen[cc.Priority] {
			seen[cc.Priority] = true
			s.prios = append(s.prios, cc.Priority)
		}
	}
	// Sort priorities descending (insertion sort; the set is tiny).
	for i := 1; i < len(s.prios); i++ {
		for j := i; j > 0 && s.prios[j] > s.prios[j-1]; j-- {
			s.prios[j], s.prios[j-1] = s.prios[j-1], s.prios[j]
		}
	}
	return s
}

// CreditInterval returns the time between credit grants at full speed:
// creditBytes / (portRate * (1+speedup)), scaled up when FCI throttling is
// active.
func (s *PortScheduler) CreditInterval() sim.Time {
	rate := s.cfg.PortRateBps * (1 + s.cfg.SpeedupFraction) * s.throttle
	secs := float64(s.cfg.CreditBytes*8) / rate
	return sim.Time(secs * float64(sim.Second))
}

// Request records (or refreshes) an ingress VOQ's demand toward this port.
// backlogBytes is the VOQ's current queued byte count; a request with zero
// backlog withdraws the VOQ.
func (s *PortScheduler) Request(r Requester, backlogBytes int64) error {
	var cs *classState
	if int(r.TC) < len(s.classes) {
		cs = s.classes[r.TC]
	}
	if cs == nil {
		return fmt.Errorf("sched: unknown traffic class %d", r.TC)
	}
	present := cs.backlogOf(r.SrcFA) >= 0
	if backlogBytes <= 0 {
		if present {
			cs.backlog[r.SrcFA] = -1
			cs.removeFromRing(r)
		}
		return nil
	}
	cs.setBacklog(r.SrcFA, backlogBytes)
	if !present {
		cs.ring = append(cs.ring, r) // credit-arrival order
	}
	return nil
}

func (cs *classState) removeFromRing(r Requester) {
	for i, x := range cs.ring {
		if x == r {
			cs.ring = append(cs.ring[:i], cs.ring[i+1:]...)
			if cs.next > i {
				cs.next--
			}
			if len(cs.ring) > 0 {
				cs.next %= len(cs.ring)
			} else {
				cs.next = 0
			}
			return
		}
	}
}

// OnFCI records one FCI-marked cell arriving at this port's Fabric
// Adapter. The back-off is applied once per credit tick no matter how many
// cells of the interval were marked — FCI bits are piggybacked on *all*
// cells passing a congested queue (§4.2), so per-cell multiplicative cuts
// would overshoot far below the congestion point.
func (s *PortScheduler) OnFCI() {
	s.FCISeen++
	s.fciPend = true
}

// Pause suspends credit generation (egress buffer close to full, §4.1).
func (s *PortScheduler) Pause() { s.paused = true }

// Resume re-enables credit generation as the egress buffer drains.
func (s *PortScheduler) Resume() { s.paused = false }

// Paused reports whether the scheduler is paused.
func (s *PortScheduler) Paused() bool { return s.paused }

// Throttle returns the current FCI throttle factor in (0,1].
func (s *PortScheduler) Throttle() float64 { return s.throttle }

// NextCredit selects the next VOQ to credit, honoring strict priority
// across classes, WRR among classes of equal priority, and round-robin
// among sources within a class. Returns ok=false when no VOQ is eligible
// or the scheduler is paused.
func (s *PortScheduler) NextCredit() (Credit, bool) {
	// One multiplicative cut per tick when marks arrived; otherwise a
	// small additive recovery (§4.2's control loop).
	if s.fciPend {
		s.fciPend = false
		s.throttle *= 1 - s.cfg.FCIBeta
		if s.throttle < s.cfg.MinThrottle {
			s.throttle = s.cfg.MinThrottle
		}
	} else {
		s.throttle += s.cfg.FCIRecover
		if s.throttle > 1 {
			s.throttle = 1
		}
	}
	if s.paused {
		return Credit{}, false
	}
	for _, prio := range s.prios {
		// Gather classes at this priority with demand, in deterministic
		// traffic-class order.
		eligible := s.scratch[:0]
		for _, tc := range s.tcOrder {
			cs := s.classes[tc]
			if cs.cfg.Priority == prio && len(cs.ring) > 0 {
				eligible = append(eligible, cs)
			}
		}
		s.scratch = eligible // keep the grown backing array for the next tick
		if len(eligible) == 0 {
			continue
		}
		// Weighted selection: pick the class with the highest accumulated
		// deficit, then charge it. Deterministic and strictly
		// work-conserving.
		for _, cs := range eligible {
			cs.deficit += cs.cfg.Weight
		}
		best := eligible[0]
		for _, cs := range eligible[1:] {
			if cs.deficit > best.deficit {
				best = cs
			}
		}
		best.deficit -= totalWeight(eligible)
		r := best.ring[best.next%len(best.ring)]
		best.next = (best.next + 1) % len(best.ring)
		// Charge the estimated backlog, flooring at zero. A requester
		// leaves the ring only on an explicit zero-backlog report: the
		// estimate lags the VOQ by a control round trip, and evicting on
		// the estimate starves backlogged classes during the gap (a few
		// credits to an already-empty VOQ are forfeited harmlessly,
		// mirroring hardware unused-credit handling).
		rem := best.backlog[r.SrcFA] - s.cfg.CreditBytes
		if rem < 0 {
			rem = 0
		}
		best.backlog[r.SrcFA] = rem // r is in the ring, so its entry exists
		s.Issued++
		s.IssuedBytes += uint64(s.cfg.CreditBytes)
		return Credit{To: r, Bytes: s.cfg.CreditBytes}, true
	}
	s.Starved++
	return Credit{}, false
}

func totalWeight(cs []*classState) int {
	w := 0
	for _, c := range cs {
		w += c.cfg.Weight
	}
	return w
}

// Demand returns the number of requesting sources across all classes.
func (s *PortScheduler) Demand() int {
	n := 0
	for _, tc := range s.tcOrder {
		n += len(s.classes[tc].ring)
	}
	return n
}

// MinCreditBytes returns the minimum credit size for a Fabric Adapter of
// the given aggregate bandwidth whose scheduler generates one credit every
// cycles clock cycles at clockHz (§4.1's worked example: 10 Tbps, 1 GHz,
// one credit per two clocks -> 2000 B).
func MinCreditBytes(adapterBps, clockHz float64, cycles float64) int64 {
	return int64(adapterBps / (clockHz / cycles) / 8)
}

package fabric

import (
	"stardust/internal/netsim"
	"stardust/internal/sim"
)

// Injector paces synthetic cells out of one edge device toward rotating
// destinations — the shared traffic source of the parscale/parheal
// scenarios, the managed FabricRun, and the sharded cell-path benchmark.
// Everything it does is a function of (edge, instant) alone: it lives on
// its device's shard and keeps its own rotation counter, so the offered
// traffic is identical at every shard count. The shard is resolved per
// event rather than cached, so the injector follows its edge device
// through adaptive rebalancing migrations.
type Injector struct {
	net   *Net
	fa    int
	numFA int
	gap   sim.Time
	cell  int
	stop  sim.Time // 0 = no time limit
	quota int      // < 0 = no cell limit
	dst   int      // fixed destination; -1 = rotate
	n     int
	sent  uint64
	boost sim.Time // hotspot mode: gap override while Now < boostEnd
	until sim.Time
}

// NewInjector builds an injector for FA fa pacing one cell of cellBytes
// every gap. Injection ends at time stop (0 = unbounded) or after quota
// cells (< 0 = unbounded), whichever comes first. Call Start to schedule
// the first cell.
func (n *Net) NewInjector(fa int, gap sim.Time, cellBytes int, stop sim.Time, quota int) *Injector {
	return &Injector{
		net: n, fa: fa, numFA: n.NumFA(),
		gap: gap, cell: cellBytes, stop: stop, quota: quota, dst: -1,
	}
}

// Boost overrides the pacing gap with `gap` until time until — the
// hotspot knob of the parscale imbalance experiments. Call before Start.
func (j *Injector) Boost(gap, until sim.Time) { j.boost, j.until = gap, until }

// FixDst pins every cell to one destination edge instead of rotating —
// the building block of collective and incast patterns. Call before
// Start.
func (j *Injector) FixDst(dst int) { j.dst = dst }

// Start schedules the first injection at absolute time at — stagger
// starts across FAs so they do not inject in lockstep. In sharded mode
// the event is tagged with the FA's migration group, so the pacing chain
// follows the FA when rebalancing moves it.
func (j *Injector) Start(at sim.Time) {
	sm := j.net.EdgeSim(j.fa)
	if j.net.Sharded() {
		prev := sm.Group()
		sm.SetGroup(j.net.GroupOfFA(j.fa))
		sm.AtAction(at, j, 0)
		sm.SetGroup(prev)
		return
	}
	sm.AtAction(at, j, 0)
}

// Sent returns the number of cells injected so far.
func (j *Injector) Sent() uint64 { return j.sent }

// Act implements sim.Action: inject one cell and reschedule.
func (j *Injector) Act(uint64) {
	sm := j.net.EdgeSim(j.fa)
	if j.stop != 0 && sm.Now() >= j.stop {
		return
	}
	if j.quota == 0 {
		return
	}
	if j.quota > 0 {
		j.quota--
	}
	c := netsim.NewPacket()
	c.Size = j.cell
	j.n++
	dst := j.dst
	if dst < 0 {
		dst = (j.fa + 1 + j.n%(j.numFA-1)) % j.numFA
	}
	j.net.Inject(c, j.fa, dst)
	j.sent++
	gap := j.gap
	if j.boost != 0 && sm.Now() < j.until {
		gap = j.boost
	}
	sm.AfterAction(gap, j, 0)
}

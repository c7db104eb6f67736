package fabric

import (
	"stardust/internal/netsim"
	"stardust/internal/sim"
)

// CellGap returns the pacing gap at which edge device fa, sending cells
// of cellBytes, offers load × its own uplink capacity — uplink counts are
// per device: uniform on a Clos, not on ring-space or server-centric
// graphs, so load 1.0 saturates every edge everywhere. The gap is floored
// at 1 ns. The float expression's operation order is part of the
// determinism contract of everything built on it (distsim.NewModel's
// digests, recorded STREC1 streams).
func (n *Net) CellGap(fa, cellBytes int, load float64) sim.Time {
	d := n.edges[fa]
	uplinks := 0
	for _, l := range d.down {
		if l != nil {
			uplinks++
		}
	}
	for _, l := range d.up {
		if l != nil {
			uplinks++
		}
	}
	perFA := load * float64(uplinks) * float64(n.Cfg.LinkRate)
	gap := sim.Time(float64(cellBytes*8) / perFA * float64(sim.Second))
	if gap < sim.Nanosecond {
		gap = sim.Nanosecond
	}
	return gap
}

// Injector paces synthetic cells out of one edge device toward rotating
// destinations — the shared traffic source of the parscale/parheal
// scenarios, the managed FabricRun, and the sharded cell-path benchmark.
// Everything it does is a function of (edge, instant) alone: it lives on
// its device's shard, takes its cells from that shard's free list and
// keeps its own rotation counter, so the offered traffic is identical at
// every shard count. It fills whole cache lines, like everything a shard
// writes: the injectors of two shards' edges are made one after the other.
type Injector struct {
	net   *Net
	sm    *sim.Simulator   // fa's event loop
	cells *netsim.FreeList // fa's shard's
	fa    int
	numFA int
	gap   sim.Time
	cell  int
	stop  sim.Time // 0 = no time limit
	quota int      // < 0 = no cell limit
	dst   int      // fixed destination; -1 = rotate
	rot   int      // cells sent, modulo numFA-1
	sent  uint64
	_     [2*sim.CacheLine - 96]byte
}

// NewInjector builds an injector for FA fa pacing one cell of cellBytes
// every gap. Injection ends at time stop (0 = unbounded) or after quota
// cells (< 0 = unbounded), whichever comes first. Call Start to schedule
// the first cell.
func (n *Net) NewInjector(fa int, gap sim.Time, cellBytes int, stop sim.Time, quota int) *Injector {
	sh := n.edges[fa].sh
	return &Injector{
		net: n, sm: sh.sm, cells: sh.cells, fa: fa, numFA: n.NumFA(),
		gap: gap, cell: cellBytes, stop: stop, quota: quota, dst: -1,
	}
}

// FixDst pins every cell to one destination edge instead of rotating —
// the building block of collective and incast patterns. Call before
// Start.
func (j *Injector) FixDst(dst int) { j.dst = dst }

// Start schedules the first injection at absolute time at — stagger
// starts across FAs so they do not inject in lockstep.
func (j *Injector) Start(at sim.Time) { j.sm.AtAction(at, j, 0) }

// Sent returns the number of cells injected so far.
func (j *Injector) Sent() uint64 { return j.sent }

// Act implements sim.Action: inject one cell and reschedule.
func (j *Injector) Act(uint64) {
	if j.stop != 0 && j.sm.Now() >= j.stop {
		return
	}
	if j.quota == 0 {
		return
	}
	if j.quota > 0 {
		j.quota--
	}
	c := j.cells.Get()
	c.Size = j.cell
	// The n-th cell goes to (fa+1 + n%(numFA-1)) % numFA: every other edge
	// in turn, counted without a division.
	if j.rot++; j.rot >= j.numFA-1 {
		j.rot = 0
	}
	dst := j.dst
	if dst < 0 {
		if dst = j.fa + 1 + j.rot; dst >= j.numFA {
			dst -= j.numFA
		}
	}
	j.net.Inject(c, j.fa, dst)
	j.sent++
	j.sm.AfterAction(j.gap, j, 0)
}

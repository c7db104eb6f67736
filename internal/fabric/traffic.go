package fabric

import (
	"stardust/internal/netsim"
	"stardust/internal/sim"
	"stardust/internal/topo"
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
//
// Where nothing else can feed its device and the device relays nothing —
// on an engine, at an edge device of a Clos with no endpoint and no other
// Injector — one event injects every cell due before the window's end, a
// train (see the package comment); everywhere else a train is one cell.
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
	train bool // on an engine, at an edge of a Clos
	_     [2*sim.CacheLine - 97]byte
}

// injectorTap, set by tests only, sees every injector event; returning
// true caps the event's train at one cell, the reference trains are held
// to.
var injectorTap func() (oneCell bool)

// NewInjector builds an injector for FA fa pacing one cell of cellBytes
// every gap. Injection ends at time stop (0 = unbounded) or after quota
// cells (< 0 = unbounded), whichever comes first. Call Start to schedule
// the first cell.
func (n *Net) NewInjector(fa int, gap sim.Time, cellBytes int, stop sim.Time, quota int) *Injector {
	sh := n.edges[fa].sh
	_, clos := n.Topo.(*topo.Clos)
	n.sources[fa]++
	return &Injector{
		net: n, sm: sh.sm, cells: sh.cells, fa: fa, numFA: n.NumFA(),
		gap: gap, cell: cellBytes, stop: stop, quota: quota, dst: -1,
		train: clos && n.eng != nil,
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

// Act implements sim.Action: inject the train of cells due before the
// horizon, then reschedule at the next cell.
func (j *Injector) Act(uint64) {
	t, end := j.sm.Now(), j.horizon()
	for {
		if j.stop != 0 && t >= j.stop || j.quota == 0 {
			return
		}
		if j.quota > 0 {
			j.quota--
		}
		c := j.cells.Get()
		c.Size = j.cell
		// The n-th cell goes to (fa+1 + n%(numFA-1)) % numFA: every other
		// edge in turn, counted without a division.
		if j.rot++; j.rot >= j.numFA-1 {
			j.rot = 0
		}
		dst := j.dst
		if dst < 0 {
			if dst = j.fa + 1 + j.rot; dst >= j.numFA {
				dst -= j.numFA
			}
		}
		if l := j.net.inject(c, j.fa, dst, t); l != nil {
			end = l.handOverCap(end)
		}
		j.sent++
		if t += j.gap; t >= end {
			break
		}
		j.sm.Elide() // the event of the cell at t
	}
	j.sm.AtAction(t, j, 0)
}

// horizon returns the instant before which the running event injects:
// the end of the engine's window capped by the hand-over events pending
// on the device's links where a train may run (see Injector), else the
// clock — one cell.
func (j *Injector) horizon() sim.Time {
	d := j.net.edges[j.fa]
	if injectorTap != nil && injectorTap() || !j.train || d.eg.to != nil || j.net.sources[j.fa] > 1 {
		return j.sm.Now()
	}
	end := j.net.eng.Now() + j.net.eng.Lookahead()
	for _, links := range [2][]*link{d.down, d.up} {
		for _, l := range links {
			if l != nil {
				end = l.handOverCap(end)
			}
		}
	}
	return end
}

// handOverCap returns end, or the instant of the hand-over event pending
// on l's queue if that comes first.
func (l *link) handOverCap(end sim.Time) sim.Time {
	if at, ok := l.q.HandOver(); ok && at < end {
		return at
	}
	return end
}

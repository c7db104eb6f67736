// Package distsim runs one sharded fabric simulation across multiple OS
// processes over TCP, preserving the repo's byte-identical-digest
// guarantee: the same seed produces the same bytes whether the shards are
// goroutines in one process or spread over remote peers.
//
// The design is a replicated deterministic model. Go closures cannot
// cross a process boundary, so instead of shipping state, every process —
// the coordinator and each peer — builds the identical fabric model from
// a compact Spec and executes only the shards it owns. Unowned shards'
// event heaps accumulate dead build-time events (harmless: never run) and
// their clocks advance in lock-step via sim.Simulator.SkipTo, so
// barrier-context code reading Now() behaves identically on every
// replica. Barrier controls (link fail/heal schedules) run identically on
// every replica; only the mailbox messages that leave a process's owned
// shard set cross the wire, batched into one frame per neighbour per
// window and sent straight to the peer that owns the destination shard.
//
// The coordinator is a devolved controller in the paper's sense: like the
// fabric's single management point it sits beside the data path, not in
// it. It owns no shards and relays nothing; it brings the peers to a
// common window (join and recovery), accounts the windows they report,
// keeps the mail log and the telemetry stream, and aggregates counters and
// the digest at the end. Its own replica tracks the control schedule and
// administrative state, so it can report control-replicated quantities
// (fabric.Replicated reachability) itself.
package distsim

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"

	"stardust/internal/fabric"
	"stardust/internal/parsim"
	"stardust/internal/sim"
	"stardust/internal/stats"
	"stardust/internal/topo"
	"stardust/internal/workload"
)

// Spec is the complete, JSON-serializable recipe for one fabric
// simulation: every process that builds a Model from an identical Spec
// holds an identical replica. It mirrors the parameters of the
// fabric/parscale and fabric/parheal scenarios.
type Spec struct {
	K int `json:"k"`
	// Topo selects the topology family sized by K ("clos", "sshuffle",
	// "star" — see topo.ByName). Empty means clos, keeping older specs
	// (and recorded streams) valid.
	Topo   string   `json:"topo,omitempty"`
	Seed   int64    `json:"seed"`
	Shards int      `json:"shards"`
	Dur    sim.Time `json:"dur"`
	Load   float64  `json:"load"`
	// Pattern selects the traffic matrix: "" or "rotate" (each edge
	// cycles through every other edge — all-to-all over time),
	// "permutation" (a seed-chosen fixed one-to-one matrix), "incast"
	// (every edge sends to edge 0). Like every Spec field it is part of
	// the replica recipe and the model hash.
	Pattern   string   `json:"pattern,omitempty"`
	CellBytes int      `json:"cell"`
	Hotspot   float64  `json:"hotspot"`
	FailN     int      `json:"failN"`
	FailAt    sim.Time `json:"failAt"`
	HealAt    sim.Time `json:"healAt"`
	// Telem, when positive, turns on telemetry export: one STREC1 window
	// per Telem of simulated time (rounded up to whole lookahead windows
	// so scrape instants land exactly on barriers).
	Telem sim.Time `json:"telem,omitempty"`
	// FailLinks names specific topology links to fail at FailAt (and heal
	// at HealAt when HealAt > FailAt) — the replay what-if knob, as
	// opposed to FailN's seed-random chaos.
	FailLinks []int `json:"failLinks,omitempty"`
}

// modelConfig is the fabric every replica of spec builds.
func modelConfig(spec Spec) fabric.Config {
	return fabric.DefaultConfig(10e9, sim.Microsecond, spec.Seed)
}

// Check refuses a Spec the model cannot simulate, naming the field: a cell
// of no bytes (what a link queue reads as "no completion", so its counters
// would never move) or of more than a link queue holds, a load that is
// not finite and positive (the injection gap divides by it), an injection
// that never starts. NewModel calls it, and so does the Check of every
// scenario that builds a Spec, so each door refuses before anything runs.
func (s Spec) Check() error {
	if lb := modelConfig(s).LinkBytes; s.CellBytes < 1 || s.CellBytes > lb {
		return fmt.Errorf("distsim: cell %d bytes: must be in [1, %d], the link queue", s.CellBytes, lb)
	}
	if !(s.Load > 0) || math.IsInf(s.Load, 1) {
		return fmt.Errorf("distsim: load %v: must be finite and > 0", s.Load)
	}
	if s.Dur <= 0 {
		return fmt.Errorf("distsim: dur %d ps: must be > 0", s.Dur)
	}
	return nil
}

// telemEvery returns the effective scrape period: Telem rounded up to a
// whole number of lookahead windows (0 when telemetry is off). Scrape
// instants must land exactly on barriers so every shard count and
// process placement captures identical state.
func (s Spec) telemEvery(look sim.Time) sim.Time {
	if s.Telem <= 0 {
		return 0
	}
	return (s.Telem + look - 1) / look * look
}

// Model is one process's replica of the simulation: the sharded fabric
// (which counts the cells each edge device receives), its engine, and the
// run horizon.
type Model struct {
	Spec    Spec
	Graph   topo.Graph
	Eng     *parsim.Engine
	Net     *fabric.Net
	Horizon sim.Time
	Drain   sim.Time
}

// NewModel builds the replica deterministically from spec: same spec,
// same replica, on every process. Every random stream is named
// (stats.Stream: "spray" per node and direction, "perm", "chaos"), so the
// order in which they are made is not part of the determinism contract;
// the order of injector scheduling and control registration is — change
// it and remote digests diverge from local ones.
func NewModel(spec Spec) (*Model, error) {
	if err := spec.Check(); err != nil {
		return nil, err
	}
	graph, err := topo.ByName(spec.Topo, spec.K)
	if err != nil {
		return nil, err
	}
	shards, err := fabric.ShardCount(spec.Shards, graph)
	if err != nil {
		return nil, err
	}
	cfg := modelConfig(spec)
	eng := parsim.New(parsim.Config{Shards: shards, Lookahead: cfg.LinkDelay})
	n, err := fabric.NewSharded(eng, cfg, graph, nil)
	if err != nil {
		return nil, err
	}
	numFA := graph.NumEdge()
	hotFAs := 0
	if spec.Hotspot > 1 {
		hotFAs = (numFA + 3) / 4
	}
	var perm []int
	switch spec.Pattern {
	case "", "rotate", "alltoall":
		// The default rotation: every edge cycles through every other edge.
	case "permutation":
		perm = workload.Permutation(rand.New(stats.Stream(spec.Seed, "perm")), numFA)
	case "incast":
		// Everyone converges on edge 0; edge 0 itself stays silent.
	default:
		return nil, fmt.Errorf("distsim: unknown traffic pattern %q (want rotate, permutation, incast or alltoall)", spec.Pattern)
	}
	for fa := 0; fa < numFA; fa++ {
		gap := n.CellGap(fa, spec.CellBytes, spec.Load)
		g := gap
		if fa < hotFAs {
			g = sim.Time(float64(gap) / spec.Hotspot)
			if g < sim.Nanosecond {
				g = sim.Nanosecond
			}
		}
		j := n.NewInjector(fa, g, spec.CellBytes, spec.Dur, -1)
		switch {
		case perm != nil:
			if perm[fa] == fa {
				continue
			}
			j.FixDst(perm[fa])
		case spec.Pattern == "incast":
			if fa == 0 {
				continue
			}
			j.FixDst(0)
		}
		j.Start(sim.Time(fa) * gap / sim.Time(numFA))
	}
	if spec.FailN > 0 {
		rng := rand.New(stats.Stream(spec.Seed, "chaos"))
		for i := 0; i < spec.FailN; i++ {
			lk := rng.IntN(n.NumLinks())
			eng.At(spec.FailAt, func() { n.FailLink(lk) })
			eng.At(spec.HealAt, func() { n.RestoreLink(lk) })
		}
	}
	for _, lk := range spec.FailLinks {
		if lk < 0 || lk >= n.NumLinks() {
			return nil, fmt.Errorf("distsim: fail-link %d out of range (fabric has %d links)", lk, n.NumLinks())
		}
		lk := lk
		eng.At(spec.FailAt, func() { n.FailLink(lk) })
		if spec.HealAt > spec.FailAt {
			eng.At(spec.HealAt, func() { n.RestoreLink(lk) })
		}
	}
	// Drain past the last scheduled action: a heal scheduled beyond the
	// horizon would otherwise silently never run.
	horizon := spec.Dur
	if spec.FailAt > horizon {
		horizon = spec.FailAt
	}
	if spec.HealAt > horizon {
		horizon = spec.HealAt
	}
	drain := 4 * cfg.ReachDelay
	_, isClos := graph.(*topo.Clos)
	if !isClos || spec.Hotspot > 1 || spec.Pattern == "incast" {
		// A hotspot overloads its FAs' uplink queues, incast concentrates
		// load the same way on the victim's downlink, and the irregular
		// graphs carry transit traffic over shared relay links under any
		// matrix — so cells keep draining well past the injection stop:
		// allow every queue on a four-hop path to empty completely at line
		// rate.
		drain += 8 * sim.Time(float64(cfg.LinkBytes*8)/float64(cfg.LinkRate)*float64(sim.Second))
	}
	return &Model{
		Spec:    spec,
		Graph:   graph,
		Eng:     eng,
		Net:     n,
		Horizon: horizon,
		Drain:   drain,
	}, nil
}

// Outcome is the deterministic result of one run — a pure function of the
// Spec, identical however the shards were placed.
type Outcome struct {
	Injected    uint64
	Delivered   uint64
	Drops       uint64
	Events      uint64
	Unreachable int
	Digest      uint64
	ShardEvents []uint64
	Cut         CutTraffic
}

// CutTraffic is what crossed a run's shard cut: Links counts the topology
// links, CutLinks those whose ends lie on different shards, and Cells the
// cells forwarded over them — every cross-shard message of a run that
// fails no link (parsim.Stats.Mail adds the reach updates a failure
// sends). Like ShardEvents, it depends on the shard count but not on where
// the shards ran.
type CutTraffic struct {
	Links, CutLinks int
	Cells           uint64
}

// cutTraffic reads the cut of the fabric n off its directed link counters
// dirs.
func cutTraffic(n *fabric.Net, dirs [][3]uint64) CutTraffic {
	c := CutTraffic{Links: n.NumLinks()}
	for i := range c.Links {
		if n.OwnerOfLinkDir(2*i) != n.OwnerOfLinkDir(2*i+1) {
			c.CutLinks++
			c.Cells += dirs[2*i][1] + dirs[2*i+1][1]
		}
	}
	return c
}

// foldDigest computes the canonical fabric digest: per-FA sink counters
// followed by both directions of every topology link's forwarding
// counters, each folded little-endian into FNV-64a. dirs[d] is
// {FwdBytes, FwdCells, Drops} of directed link d.
func foldDigest(sinkCells, sinkBytes []uint64, dirs [][3]uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w := func(v uint64) {
		buf[0] = byte(v)
		buf[1] = byte(v >> 8)
		buf[2] = byte(v >> 16)
		buf[3] = byte(v >> 24)
		buf[4] = byte(v >> 32)
		buf[5] = byte(v >> 40)
		buf[6] = byte(v >> 48)
		buf[7] = byte(v >> 56)
		h.Write(buf[:])
	}
	for i := range sinkCells {
		w(sinkCells[i])
		w(sinkBytes[i])
	}
	for _, d := range dirs {
		w(d[0])
		w(d[1])
		w(d[2])
	}
	return h.Sum64()
}

// gather snapshots the digest inputs from this replica. Quiescent /
// barrier context only; in a distributed run each index is only valid on
// its owner.
func (m *Model) gather() (sinkCells, sinkBytes []uint64, dirs [][3]uint64) {
	numFA := m.Graph.NumEdge()
	sinkCells = make([]uint64, numFA)
	sinkBytes = make([]uint64, numFA)
	for fa := range numFA {
		sinkCells[fa], sinkBytes[fa] = m.Net.DeliveredTo(fa)
	}
	dirs = make([][3]uint64, 2*m.Net.NumLinks())
	for d := range dirs {
		b, c, dr := m.Net.DirCounters(d)
		dirs[d] = [3]uint64{b, c, dr}
	}
	return sinkCells, sinkBytes, dirs
}

// RunLocal executes the whole model in this process (the classic
// goroutine-sharded path) and returns the canonical outcome.
func (m *Model) RunLocal() (Outcome, error) {
	m.Eng.RunUntilQuiet(m.Horizon + m.Drain)
	if !m.Eng.Quiet() {
		return Outcome{}, fmt.Errorf("fabric did not drain: work still pending past t=%d (%d heap events)",
			m.Horizon+m.Drain, m.Eng.Pending())
	}
	sinkCells, sinkBytes, dirs := m.gather()
	return Outcome{
		Injected:    m.Net.Injected(),
		Delivered:   m.Net.Delivered(),
		Drops:       m.Net.Drops(),
		Events:      m.Eng.Processed(),
		Unreachable: m.Net.UnreachablePairs(),
		Digest:      foldDigest(sinkCells, sinkBytes, dirs),
		ShardEvents: m.Eng.Stats().ShardEvents,
		Cut:         cutTraffic(m.Net, dirs),
	}, nil
}

// OwnersFor partitions spec.Shards shards over npeers peers in contiguous
// blocks, so two runs with the same (spec, npeers) always place shards
// identically. fabric.Partition keeps such blocks low-cut: no block of
// shards is cut from the rest by more links than under per-tier index
// blocks, and a Clos cut into four shards over two peers gives each peer
// one pod whole.
func OwnersFor(shards, npeers int) []int {
	owners := make([]int, shards)
	for s := range owners {
		owners[s] = s * npeers / shards
	}
	return owners
}

// modelHash fingerprints everything the peers must agree on before the
// first window: the spec, the partition map — which peer owns each shard
// (owners) and which shard owns each node (cut, fabric.Net.Cut) — and the
// replica's derived topology: the canonical topology spec string plus the
// graph and lane dimensions. Two peers that sized different graphs from
// the same flags, or cut the same graph differently, fail the READY
// handshake instead of misrouting mail or diverging digests half an hour
// into a run.
func modelHash(spec Spec, owners, cut []int, m *Model) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v/%v/%v/%s/%d/%d/%d", spec, owners, cut, m.Graph.Spec(), m.Graph.NumNodes(), m.Graph.NumEdge(), m.Net.Lanes())
	return h.Sum64()
}

// Adaptive shard rebalancing: migrate edge devices (with everything
// pinned to them — egress endpoints, host transports layered above, their
// pending events) between parsim shards at window barriers, steered by
// deterministic per-group executed-event counts.
//
// The contiguous per-tier blocks of NewSharded are the right cut for
// uniform traffic, but a hotspot (incast toward one edge, a few hot
// sources) piles several busy devices onto one shard while others idle.
// Rebalancing meters how many events each edge's device group executed
// per window — simulated state, never wall-clock, so the measurement is
// identical at every shard count and on every machine — and when the
// heaviest shard exceeds the lightest by a configured ratio, moves the
// hottest movable group over, greedily and deterministically.
//
// Migration preserves byte-determinism by construction. An edge's group
// is the closure of state only its own events touch: the node, its
// outbound serialization queues, its egress endpoint, and (via
// OnMigrateFA) the transport state of the hosts behind it. All of the
// group's pending events are tagged — lane-keyed deliveries through the
// kernel's lane-group table (a lane belongs to its receiving node),
// causal work by group inheritance — so sim.ExtractGroup can lift them
// out of the old shard's event store in (time, lane, seq) order and
// sim.InjectOrdered can replay them into the new shard's with their
// relative order intact. Events of different groups at the same instant on
// the default lane may interleave differently after a move, but such
// events touch disjoint state and emit only lane-keyed messages (the same
// commutativity argument that makes shard-count independence hold), so
// every observable outcome is unchanged. Pure transit nodes (the Clos's
// FEs, a star graph's switches) are the fabric's shared core and never
// move (group 0).
package fabric

import (
	"fmt"

	"stardust/internal/netsim"
	"stardust/internal/sim"
)

// GroupOfFA returns the kernel event-group id of edge device fa's group
// (its node, its egress, and any transport state pinned to it). Group 0
// is the immovable remainder (transit nodes and the links they own).
func (n *Net) GroupOfFA(fa int) int32 { return int32(fa) + 1 }

// LaneGroups returns the lane→group table installed on every shard's
// Simulator: tbl[lane] is the group owning deliveries on that lane. A
// transport layered on the fabric extends this table with its own lanes
// and re-installs it (sim.SetLaneGroups) on every shard.
func (n *Net) LaneGroups() []int32 { return n.laneGroups }

// OnMigrateFA registers fn to run whenever MigrateFA moves an adapter,
// after the fabric's own state is re-pinned but within the same barrier.
// A transport layered on the fabric uses this to move the hosts behind
// the adapter along with it.
func (n *Net) OnMigrateFA(fn func(fa, from, to int)) {
	n.migrateHooks = append(n.migrateHooks, fn)
}

// Migrations counts completed MigrateFA moves (telemetry; barrier context).
func (n *Net) Migrations() uint64 { return n.migrations }

// MigrateFA moves edge device fa's group to shard `to`: its
// pending events (fabric and any registered transport's alike — they share
// the group id) are lifted from the old shard's event store and replayed
// into the new one in order, and every queue, propagation hop and counter
// home of the group is re-pinned. Barrier context only, sharded mode only.
func (n *Net) MigrateFA(fa, to int) error {
	if n.eng == nil {
		return fmt.Errorf("fabric: MigrateFA needs a sharded fabric")
	}
	if !n.eng.InBarrier() {
		return fmt.Errorf("fabric: MigrateFA outside barrier context")
	}
	if to < 0 || to >= n.eng.Shards() {
		return fmt.Errorf("fabric: shard %d out of range [0,%d)", to, n.eng.Shards())
	}
	d := n.edges[fa]
	from := d.sh.id
	if from == to {
		return nil
	}
	// Move the group's pending events first: the barrier has already
	// flushed every mailbox, so the old shard's store holds all of them.
	// The lazy completions of the node's outbound queues are times, not
	// events, and move with the queues.
	evs := n.shards[from].sm.ExtractGroup(n.GroupOfFA(fa))
	n.shards[to].sm.InjectOrdered(evs)

	sh := n.shards[to]
	d.sh = sh
	d.eg.sh = sh
	// Re-pin the links incident to the node: a queue serializes on its
	// sender's shard, the propagation hop runs from there to the
	// receiver's, and the arrival gate counts on the receiver's.
	for li, lk := range n.wiring {
		if lk.A != d.id && lk.B != d.id {
			continue
		}
		for dir, ends := range [2][2]int{{lk.A, lk.B}, {lk.B, lk.A}} {
			l := n.links[2*li+dir]
			src, dst := n.nodes[ends[0]].sh, n.nodes[ends[1]].sh
			l.q.Sim = src.sm
			l.sh = dst
			l.q.Wire.Sched = n.eng.Shard(src.id).To(dst.id)
		}
	}
	n.hairpin[fa][0].(*netsim.LanePipe).Sched = sh.sm
	n.migrations++
	for _, fn := range n.migrateHooks {
		fn(fa, from, to)
	}
	return nil
}

// RebalanceConfig tunes the adaptive planner.
type RebalanceConfig struct {
	// Interval is the number of windows between planning decisions.
	Interval int
	// Ratio triggers a move when the heaviest shard's per-interval event
	// count exceeds the lightest's by this factor (> 1).
	Ratio float64
	// MaxMoves bounds migrations per decision (hysteresis against
	// thrashing).
	MaxMoves int
}

// DefaultRebalance returns the planner configuration used by the
// scenarios: decide every 8 windows, act on a 4:3 imbalance, move at most
// two groups per decision.
func DefaultRebalance() RebalanceConfig {
	return RebalanceConfig{Interval: 8, Ratio: 4.0 / 3.0, MaxMoves: 2}
}

// EnableRebalancing installs the adaptive planner as a barrier hook: every
// cfg.Interval windows it meters per-group executed-event counts (via the
// kernel's group meters — deterministic simulated state), and while the
// heaviest shard exceeds the lightest by cfg.Ratio, migrates the hottest
// group whose move strictly improves the balance. All tie-breaks are by
// lowest index, so the decision sequence is a pure function of the
// simulated traffic: the same seed gives the same migrations, and a
// single-shard engine never moves anything — which is how rebalanced runs
// stay byte-identical across shard counts.
func (n *Net) EnableRebalancing(cfg RebalanceConfig) error {
	if n.eng == nil {
		return fmt.Errorf("fabric: rebalancing needs a sharded fabric")
	}
	if cfg.Interval < 1 || cfg.Ratio <= 1 || cfg.MaxMoves < 1 {
		return fmt.Errorf("fabric: bad rebalance config %+v", cfg)
	}
	numFA := n.NumFA()
	numG := numFA + 1
	lastGroup := make([]uint64, numG) // per group, summed across shards
	lastProc := make([]uint64, n.eng.Shards())
	windows := 0
	n.eng.OnBarrier(func(now sim.Time) {
		windows++
		if windows%cfg.Interval != 0 || n.eng.Shards() < 2 {
			return
		}
		// Per-group and per-shard event counts over the interval. A group
		// sits on one shard between decisions, so summing its meter across
		// shards attributes the whole delta to its current home.
		groupDelta := make([]uint64, numG)
		load := make([]uint64, n.eng.Shards())
		for si, sh := range n.shards {
			load[si] = sh.sm.Processed - lastProc[si]
			lastProc[si] = sh.sm.Processed
		}
		for g := 1; g < numG; g++ {
			var total uint64
			for _, sh := range n.shards {
				total += sh.sm.GroupProcessed(int32(g))
			}
			groupDelta[g] = total - lastGroup[g]
			lastGroup[g] = total
		}
		for move := 0; move < cfg.MaxMoves; move++ {
			heavy, light := 0, 0
			for si := range load {
				if load[si] > load[heavy] {
					heavy = si
				}
				if load[si] < load[light] {
					light = si
				}
			}
			if float64(load[heavy]) <= cfg.Ratio*float64(load[light]) {
				return
			}
			// Hottest group on the heavy shard whose move strictly improves
			// the pair; first (lowest edge index) wins ties.
			best := -1
			for fa := 0; fa < numFA; fa++ {
				if n.ShardOfFA(fa) != heavy {
					continue
				}
				d := groupDelta[fa+1]
				if d == 0 || load[light]+d >= load[heavy] {
					continue
				}
				if best < 0 || d > groupDelta[best+1] {
					best = fa
				}
			}
			if best < 0 {
				return
			}
			if err := n.MigrateFA(best, light); err != nil {
				panic(err) // barrier context with validated shards; unreachable
			}
			load[heavy] -= groupDelta[best+1]
			load[light] += groupDelta[best+1]
		}
	})
	return nil
}

// ShardEvents returns the cumulative executed-event count of every shard's
// event loop — the imbalance evidence the parscale scenario reports.
// Barrier context only.
func (n *Net) ShardEvents() []uint64 {
	out := make([]uint64, len(n.shards))
	for i, sh := range n.shards {
		out[i] = sh.sm.Processed
	}
	return out
}

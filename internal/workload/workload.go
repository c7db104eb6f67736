// Package workload provides the traffic generators used across the
// evaluation: the packet-size mixes of the production traces the paper
// references [74] (Fig 8b), the Web flow-size distribution (Fig 10b), the
// permutation traffic matrix (Fig 10a) and the incast pattern (Fig 10c).
//
// The production traces themselves are proprietary; the distributions here
// are synthetic equivalents matching the published shapes (see DESIGN.md's
// substitution table): Hadoop traffic is dominated by MTU-size packets,
// Web traffic by small packets, and Cache/DB traffic is bimodal.
package workload

import (
	"math/rand/v2"

	"stardust/internal/stats"
)

// TraceName identifies one of the Fig 8(b) packet-size mixes.
type TraceName string

// The three production workloads of Fig 8(b).
const (
	TraceDB     TraceName = "DB"
	TraceWeb    TraceName = "Web"
	TraceHadoop TraceName = "Hadoop"
)

// PacketMix returns the packet-size distribution for a trace: values are
// packet sizes in bytes, weights are relative frequencies.
func PacketMix(name TraceName) (sizes []int, weights []float64) {
	switch name {
	case TraceDB:
		// Cache/DB: bimodal — small requests/ACKs and medium objects
		// (median well under MTU).
		return []int{64, 128, 350, 575, 1460}, []float64{0.30, 0.10, 0.25, 0.20, 0.15}
	case TraceWeb:
		// Web: dominated by small packets; a quarter full-size.
		return []int{64, 128, 256, 512, 1460}, []float64{0.45, 0.20, 0.12, 0.08, 0.15}
	case TraceHadoop:
		// Hadoop: bulk transfer, overwhelmingly MTU-size.
		return []int{64, 256, 512, 1460}, []float64{0.08, 0.05, 0.07, 0.80}
	}
	panic("workload: unknown trace " + string(name))
}

// Traces lists the Fig 8(b) workloads in the paper's order.
var Traces = []TraceName{TraceDB, TraceWeb, TraceHadoop}

// PacketSampler draws packet sizes from a trace mix.
func PacketSampler(name TraceName) *stats.Discrete {
	sizes, weights := PacketMix(name)
	return stats.NewDiscrete(sizes, weights)
}

// WebFlowSizes is the Fig 10(b) flow-size distribution: the Facebook Web
// workload's published CDF shape — most flows are a few kilobytes with a
// heavy tail to ~10MB.
func WebFlowSizes() *stats.EmpiricalCDF {
	return stats.NewEmpiricalCDF(
		[]float64{300, 1e3, 2e3, 5e3, 1e4, 3e4, 1e5, 3e5, 1e6, 1e7},
		[]float64{0.00, 0.15, 0.30, 0.50, 0.65, 0.80, 0.90, 0.95, 0.98, 1.00},
	)
}

// Permutation builds the Fig 10(a) traffic matrix: every node sends to
// exactly one other node and receives from exactly one (a derangement).
func Permutation(rng *rand.Rand, nodes int) []int {
	return stats.Permutation(rng, nodes)
}

// Incast describes one Fig 10(c) run: a frontend fans a request out to
// Backends servers, each of which replies with ResponseBytes.
type Incast struct {
	Frontend      int
	Backends      []int
	ResponseBytes int64
}

// NewIncast picks the frontend and n distinct backends among the nodes.
func NewIncast(rng *rand.Rand, nodes, n int, responseBytes int64) Incast {
	if n >= nodes {
		n = nodes - 1
	}
	perm := rng.Perm(nodes)
	return Incast{
		Frontend:      perm[0],
		Backends:      append([]int(nil), perm[1:n+1]...),
		ResponseBytes: responseBytes,
	}
}

// Flow is one source->destination demand of a traffic matrix.
type Flow struct {
	Src, Dst int
}

// Permutation flows, hotspot flows and all-to-all flows are the scenario
// diversity axis of the evaluation: permutation fully loads the fabric
// with zero fan-in, hotspot concentrates fan-in on a few egress ports
// (the pattern that separates a scheduled fabric from ECMP), and
// all-to-all exercises every path simultaneously.

// Hotspot builds a hotspot matrix over nodes: every node sends one
// long-running flow; a hotFraction of the senders redirect theirs at one
// of `hotspots` randomly chosen hot destinations (egress fan-in), the
// rest keep a permutation pattern. Returns the flows and the hot nodes.
func Hotspot(rng *rand.Rand, nodes, hotspots int, hotFraction float64) ([]Flow, []int) {
	if hotspots < 1 {
		hotspots = 1
	}
	if hotspots >= nodes {
		hotspots = nodes - 1
	}
	perm := stats.Permutation(rng, nodes)
	hot := append([]int(nil), rng.Perm(nodes)[:hotspots]...)
	flows := make([]Flow, 0, nodes)
	for src := 0; src < nodes; src++ {
		dst := perm[src]
		if rng.Float64() < hotFraction {
			if h := hot[rng.IntN(len(hot))]; h != src {
				dst = h
			}
		}
		flows = append(flows, Flow{Src: src, Dst: dst})
	}
	return flows, hot
}

// AllToAll builds the complete matrix: every ordered pair of distinct
// nodes exchanges one flow (n*(n-1) flows).
func AllToAll(nodes int) []Flow {
	flows := make([]Flow, 0, nodes*(nodes-1))
	for src := 0; src < nodes; src++ {
		for dst := 0; dst < nodes; dst++ {
			if dst != src {
				flows = append(flows, Flow{Src: src, Dst: dst})
			}
		}
	}
	return flows
}

// MTU is the conventional Ethernet payload ceiling used by the htsim
// experiments (§6.3 uses 9000B jumbo frames for the TCP variants and 512B
// cells for Stardust).
const MTU = 1500

// SplitFlow chops a flow of size bytes into packets of at most mtu bytes;
// the final packet carries the remainder.
func SplitFlow(bytes int64, mtu int) []int {
	if bytes <= 0 {
		return nil
	}
	n := int((bytes + int64(mtu) - 1) / int64(mtu))
	out := make([]int, n)
	for i := 0; i < n-1; i++ {
		out[i] = mtu
	}
	last := int(bytes - int64(mtu)*int64(n-1))
	out[n-1] = last
	return out
}

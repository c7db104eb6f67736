package workload

import (
	"math"
	"math/rand/v2"

	"stardust/internal/stats"
)

// ML-collective and storage workloads: the traffic families that stress a
// cell fabric differently from the paper's Fig 10 matrices. Collectives
// are phase-synchronized neighbor exchanges (every rank busy, but along a
// fixed sparse pattern), storage traffic mixes tiny metadata operations
// with multi-megabyte chunk transfers, and diurnal open-loop arrivals
// modulate the offered load through a daily cycle. All generators are
// deterministic functions of their arguments (plus an explicit rng where
// randomness is wanted), so they compose with the byte-identical
// digest discipline of the sharded engine.

// CollectiveFlow is one src->dst transfer of a collective phase.
type CollectiveFlow struct {
	Src, Dst int
	Bytes    int64
}

// RingAllReduce returns the phase schedule of a ring all-reduce over
// nodes ranks carrying a total payload of bytes: 2*(nodes-1) phases
// (reduce-scatter then all-gather), each phase sending one chunk of
// bytes/nodes from every rank to its ring successor. The per-phase flow
// list is the classic bandwidth-optimal pattern: every link of the ring
// carries exactly one chunk per phase.
func RingAllReduce(nodes int, bytes int64) [][]CollectiveFlow {
	if nodes < 2 || bytes <= 0 {
		return nil
	}
	chunk := bytes / int64(nodes)
	if chunk < 1 {
		chunk = 1
	}
	phases := make([][]CollectiveFlow, 0, 2*(nodes-1))
	for p := 0; p < 2*(nodes-1); p++ {
		flows := make([]CollectiveFlow, 0, nodes)
		for src := 0; src < nodes; src++ {
			flows = append(flows, CollectiveFlow{Src: src, Dst: (src + 1) % nodes, Bytes: chunk})
		}
		phases = append(phases, flows)
	}
	return phases
}

// TreeAllReduce returns the phase schedule of a binomial-tree all-reduce
// rooted at rank 0: ceil(log2 nodes) reduce phases where the upper half
// of each active range sends its full payload to the lower half, then the
// mirror-image broadcast phases. Latency-optimal (2*log2 n phases) but
// with fan-in at the root — the incast-like counterpart to the ring.
func TreeAllReduce(nodes int, bytes int64) [][]CollectiveFlow {
	if nodes < 2 || bytes <= 0 {
		return nil
	}
	var reduce [][]CollectiveFlow
	for stride := 1; stride < nodes; stride *= 2 {
		var flows []CollectiveFlow
		for dst := 0; dst+stride < nodes; dst += 2 * stride {
			flows = append(flows, CollectiveFlow{Src: dst + stride, Dst: dst, Bytes: bytes})
		}
		reduce = append(reduce, flows)
	}
	phases := append([][]CollectiveFlow(nil), reduce...)
	for i := len(reduce) - 1; i >= 0; i-- {
		bcast := make([]CollectiveFlow, 0, len(reduce[i]))
		for _, f := range reduce[i] {
			bcast = append(bcast, CollectiveFlow{Src: f.Dst, Dst: f.Src, Bytes: f.Bytes})
		}
		phases = append(phases, bcast)
	}
	return phases
}

// StorageFlowSizes is a storage-style mixed-size flow distribution:
// dominated by small metadata and key-value operations (hundreds of bytes
// to a few KB) with a fat tail of chunk reads/writes up to 64MB — the
// bimodal shape that makes storage backends hard on fabrics tuned for
// either mice or elephants alone.
func StorageFlowSizes() *stats.EmpiricalCDF {
	return stats.NewEmpiricalCDF(
		[]float64{256, 1e3, 4e3, 16e3, 64e3, 512e3, 4e6, 16e6, 64e6},
		[]float64{0.00, 0.25, 0.50, 0.62, 0.72, 0.80, 0.90, 0.96, 1.00},
	)
}

// DiurnalArrivals precomputes an open-loop arrival process over [0, dur)
// seconds whose instantaneous rate follows a daily cycle: a sinusoid
// between peakRate and peakRate*trough (trough in [0,1]) with the given
// period in seconds. The process is a Poisson stream thinned against the
// modulation, so burstiness survives; the returned times are strictly
// increasing. Deterministic for a fixed rng state.
func DiurnalArrivals(rng *rand.Rand, peakRate, trough, periodSec, dur float64) []float64 {
	if peakRate <= 0 || dur <= 0 || periodSec <= 0 {
		return nil
	}
	if trough < 0 {
		trough = 0
	}
	if trough > 1 {
		trough = 1
	}
	var out []float64
	t := 0.0
	mean := 1 / peakRate
	for {
		// Candidate from the peak-rate Poisson process, then thin by the
		// instantaneous modulation m(t) in [trough, 1].
		t += stats.Exp(rng, mean)
		if t >= dur {
			return out
		}
		m := trough + (1-trough)*(0.5+0.5*math.Sin(2*math.Pi*t/periodSec))
		if rng.Float64() < m {
			out = append(out, t)
		}
	}
}

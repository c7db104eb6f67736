// Package scenarios registers every experiment of the paper's evaluation
// with the scenario engine. Importing this package (usually for side
// effects from a cmd binary) populates the engine registry:
//
//	htsim/permutation  htsim/fct  htsim/incast      (§6.3, Fig 10a-c)
//	htsim/hotspot  htsim/alltoall                   (traffic-matrix sweeps)
//	fabric/fig9  fabric/pushpull  fabric/recovery   (§6.2 Fig 9, Fig 7/12, App E)
//	fabric/linkload  fabric/failures                (§5.3 balance, §5.9 healing)
//	fabric/parscale  fabric/parheal                 (sharded parallel engine)
//	trace/record  trace/replay                     (telemetry stream + digital twin)
//	system/arista                                   (§6.1.2)
//	pack/fig8a  pack/fig8b                          (§6.1.1, Fig 8)
//	scaling/fig2  scaling/table2  scaling/fig3
//	scaling/fig10d  scaling/fig11  scaling/appendixE
//
// The computation lives in internal/experiments and friends; this package
// only declares parameters, sweep expansion and result shaping.
package scenarios

import (
	"strings"

	"stardust/internal/sim"
)

// msTime converts an integer millisecond parameter to sim.Time.
func msTime(n int) sim.Time { return sim.Time(n) * sim.Millisecond }

// usTime converts an integer microsecond parameter to sim.Time.
func usTime(n int) sim.Time { return sim.Time(n) * sim.Microsecond }

// splitList splits a comma-separated parameter, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// splitTopos is splitList for a topology sweep: a full spec string brings
// commas of its own (sshuffle:n=32,s=2,seed=1), so a key=value item
// continues the spec before it.
func splitTopos(s string) []string {
	var out []string
	for _, item := range splitList(s) {
		if n := len(out); n > 0 && strings.Contains(out[n-1], ":") &&
			strings.Contains(item, "=") && !strings.Contains(item, ":") {
			out[n-1] += "," + item
			continue
		}
		out = append(out, item)
	}
	return out
}

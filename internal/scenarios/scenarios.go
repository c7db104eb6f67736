// Package scenarios registers every experiment of the paper's evaluation
// with the scenario engine. Importing this package (usually for side
// effects from a cmd binary) populates the engine registry:
//
//	htsim/permutation  htsim/fct  htsim/incast      (§6.3, Fig 10a-c)
//	htsim/hotspot  htsim/alltoall  htsim/parperm    (traffic matrices; sharded transport)
//	fabric/fig9  fabric/pushpull  fabric/recovery   (§6.2 Fig 9, Fig 7/12, App E)
//	fabric/linkload  fabric/failures                (§5.3 balance, §5.9 healing)
//	fabric/graphload  fabric/collective  fabric/openloop  (pluggable topologies)
//	fabric/parscale  fabric/parheal  fabric/distscale     (sharded and distributed engine)
//	trace/record  trace/replay                      (telemetry stream + digital twin)
//	system/arista                                   (§6.1.2)
//	pack/fig8a  pack/fig8b                          (§6.1.1, Fig 8)
//	scaling/fig2  scaling/table2  scaling/fig3
//	scaling/fig10d  scaling/fig11  scaling/appendixE
//
// The computation lives in internal/experiments and friends; this package
// only declares parameters — the engine expands a list declared with Each
// into one instance per element — and shapes results. A scenario's report
// is rendered only for text output (engine.Result.Text).
package scenarios

import (
	"io"

	"stardust/internal/engine"
	"stardust/internal/sim"
)

// report is the engine.Render of a report writer that cannot fail (the
// experiments Write* functions): called only for text output.
func report(write func(io.Writer)) engine.Render {
	return func(w io.Writer) error {
		write(w)
		return nil
	}
}

// msTime converts an integer millisecond parameter to sim.Time.
func msTime(n int) sim.Time { return sim.Time(n) * sim.Millisecond }

// usTime converts an integer microsecond parameter to sim.Time.
func usTime(n int) sim.Time { return sim.Time(n) * sim.Microsecond }

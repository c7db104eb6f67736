package scenarios

import (
	"fmt"
	"io"
	"strings"

	"stardust/internal/device"
	"stardust/internal/engine"
	"stardust/internal/experiments"
	"stardust/internal/workload"
)

// clockParam declares the one parameter of the Fig 8 scenarios.
var clockParam = []engine.Param{engine.Float("clock_hz", "150000000", "NetFPGA datapath clock in Hz").Above(0)}

func init() {
	engine.Register(engine.Scenario{
		Name:   "pack/fig8a",
		Desc:   "Fig 8(a) NetFPGA packing throughput vs packet size, four designs",
		Params: clockParam,
		Run: func(c engine.Context) (engine.Result, error) {
			clock := c.Params.Float("clock_hz")
			var res engine.Result
			for _, row := range device.Fig8a(clock, nil) {
				for _, d := range device.AllDesigns {
					res.Add(fmt.Sprintf("gbps_%s_%dB", sanitize(fmt.Sprint(d)), row.PacketBytes), row.Gbps[d], "Gbps")
				}
			}
			res.Text = report(func(w io.Writer) { experiments.WriteFig8a(w, clock, nil) })
			return res, nil
		},
	})

	engine.Register(engine.Scenario{
		Name:   "pack/fig8b",
		Desc:   "Fig 8(b) production-trace throughput mixes",
		Params: clockParam,
		Run: func(c engine.Context) (engine.Result, error) {
			clock := c.Params.Float("clock_hz")
			var res engine.Result
			for _, tr := range workload.Traces {
				sizes, weights := workload.PacketMix(tr)
				res.Add(fmt.Sprintf("switch_pct_%s", sanitize(string(tr))),
					100*device.NetFPGA(device.Reference, clock).MixThroughput(sizes, weights), "%")
				res.Add(fmt.Sprintf("cell_pct_%s", sanitize(string(tr))),
					100*device.NetFPGA(device.Cells, clock).MixThroughput(sizes, weights), "%")
				res.Add(fmt.Sprintf("stardust_pct_%s", sanitize(string(tr))),
					100*device.NetFPGA(device.Packed, clock).MixThroughput(sizes, weights), "%")
			}
			res.Text = report(func(w io.Writer) { experiments.WriteFig8b(w, clock) })
			return res, nil
		},
	})
}

// sanitize lowercases a label and folds non-alphanumerics to '_' so it
// can serve as a metric-name component.
func sanitize(s string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

package scenarios

import (
	"fmt"
	"io"

	"stardust/internal/analytic"
	"stardust/internal/engine"
	"stardust/internal/experiments"
	"stardust/internal/topo"
)

func init() {
	engine.Register(engine.Scenario{
		Name: "scaling/fig2",
		Desc: "Fig 2 scalability: max hosts vs tiers, devices and serial links vs host count",
		Run: func(c engine.Context) (engine.Result, error) {
			var res engine.Result
			for _, dev := range topo.Fig2Devices {
				p := topo.Plan(dev, 1_000_000)
				res.Add(fmt.Sprintf("devices_1m_%s", sanitize(dev.Name)), float64(p.Devices), "")
				res.Add(fmt.Sprintf("links_1m_%s", sanitize(dev.Name)), float64(p.SerialLinks), "")
			}
			res.Text = report(experiments.WriteFig2)
			return res, nil
		},
	})

	engine.Register(engine.Scenario{
		Name: "scaling/table2",
		Desc: "Table 2 element counts for (k, t, l)",
		Params: []engine.Param{
			engine.Int("k", "8", "FE radix factor k of Table 2").Min(1),
			engine.Int("t", "4", "ToR downlinks per FA").Min(1),
			engine.Int("l", "2", "FA fabric links").Min(1),
		},
		Run: func(c engine.Context) (engine.Result, error) {
			p := topo.Params{K: c.Params.Int("k"), T: c.Params.Int("t"), L: c.Params.Int("l")}
			var res engine.Result
			for n := 1; n <= 4; n++ {
				ec := topo.Table2(p, n)
				res.Add(fmt.Sprintf("max_tors_%dtier", n), ec.MaxToRs, "")
				res.Add(fmt.Sprintf("max_switches_%dtier", n), ec.MaxSwitches, "")
			}
			res.Text = report(func(w io.Writer) { experiments.WriteTable2(w, p) })
			return res, nil
		},
	})

	engine.Register(engine.Scenario{
		Name: "scaling/fig3",
		Desc: "Fig 3 required parallel processing, standard vs Stardust",
		Run: func(c engine.Context) (engine.Result, error) {
			var res engine.Result
			for _, r := range analytic.Fig3(analytic.DefaultSwitch, []int{64, 1500}) {
				res.Add(fmt.Sprintf("standard_%dB", r.PacketBytes), r.Standard, "")
				res.Add(fmt.Sprintf("stardust_%dB", r.PacketBytes), r.Stardust, "")
			}
			res.Text = report(func(w io.Writer) { experiments.WriteFig3(w, nil) })
			return res, nil
		},
	})

	engine.Register(engine.Scenario{
		Name: "scaling/fig10d",
		Desc: "Fig 10(d) silicon area of a Fabric Element vs a standard switch",
		Run: func(c engine.Context) (engine.Result, error) {
			var res engine.Result
			r := analytic.PaperAreaRatios
			res.Add("rel_area_per_tbps_pct", 100*r.RelAreaPerTbps, "%")
			res.Add("rel_power_per_tbps_pct", 100*r.RelPowerPerTbps, "%")
			res.Add("model_area_per_tbps_pct", 100*analytic.DefaultAreaBreakdown.RelativeAreaPerTbps(r), "%")
			res.Text = report(experiments.WriteFig10d)
			return res, nil
		},
	})

	engine.Register(engine.Scenario{
		Name: "scaling/fig11",
		Desc: "Fig 11 relative DCN cost and power vs fat-tree",
		Run: func(c engine.Context) (engine.Result, error) {
			var res engine.Result
			res.Add("fabric_power_saving_10k_pct",
				analytic.FabricPowerSaving(topo.FT400Gx32, 10000), "%")
			// WriteFig11 fails only for host counts it is not given here.
			res.Text = func(w io.Writer) error { return experiments.WriteFig11(w, nil) }
			return res, nil
		},
	})

	engine.Register(engine.Scenario{
		Name: "scaling/appendixE",
		Desc: "Appendix E reachability-driven failure recovery model",
		Run: func(c engine.Context) (engine.Result, error) {
			p := analytic.DefaultResilience
			var res engine.Result
			res.Add("recovery_us", p.RecoveryTime().Microseconds(), "us")
			res.Add("propagation_us", p.PropagationTime().Microseconds(), "us")
			res.Add("bandwidth_overhead_pct", 100*p.BandwidthOverhead(), "%")
			res.Text = report(experiments.WriteAppendixE)
			return res, nil
		},
	})
}

package scenarios

import (
	"fmt"
	"io"

	"stardust/internal/engine"
	"stardust/internal/experiments"
	"stardust/internal/fabricsim"
	"stardust/internal/queueing"
)

func init() {
	engine.Register(engine.Scenario{
		Name: "fabric/fig9",
		Desc: "Fig 9 two-tier cell fabric: latency and queue distributions vs utilization",
		Params: []engine.Param{
			engine.Int("scale", "4", "linear downscale of the Fig 9 topology (1 = paper size)").Min(1),
			engine.Floats("utils", "0.66,0.8,0.92,0.95,1.2", "comma list of offered utilizations (one instance each)").Above(0).Each("util"),
			engine.Bool("dist", "false", "also emit the full latency and queue-size distributions"),
		},
		Run: func(c engine.Context) (engine.Result, error) {
			util := c.Params.Float("util")
			scale := c.Params.Int("scale")
			var cfg fabricsim.Config
			if scale <= 1 {
				cfg = fabricsim.Fig9Config(util)
			} else {
				cfg = fabricsim.Scaled(util, scale)
			}
			cfg.Seed = c.Seed
			r, err := fabricsim.Run(cfg)
			if err != nil {
				return engine.Result{}, err
			}
			var res engine.Result
			res.Add("lat_p50_us", r.Latency.Quantile(0.5), "us")
			res.Add("lat_p99_us", r.Latency.Quantile(0.99), "us")
			res.Add("lat_p999_us", r.Latency.Quantile(0.999), "us")
			res.Add("queue_p99_cells", r.QueueHist.Quantile(0.99), "cells")
			res.Add("mean_queue_cells", r.MeanQueue, "cells")
			res.Add("effective_util_pct", 100*r.EffectiveUtil, "%")
			res.Add("cells_dropped", float64(r.CellsDropped), "")
			md1 := "-"
			if util < 1 {
				if m, err := queueing.NewMD1(util); err == nil {
					md1 = fmt.Sprintf("%.2f", m.MeanQueue())
					res.Add("md1_mean_queue_cells", m.MeanQueue(), "cells")
				}
			}
			dist := c.Params.Bool("dist")
			res.Text = report(func(w io.Writer) {
				fmt.Fprintf(w, "util %4.2f (scale 1/%d): lat p50=%.2fus p99=%.2fus p999=%.2fus  maxQ p99=%.0f  meanQ=%.2f  eff-util=%.1f%%  M/D/1 meanQ=%s\n",
					util, scale,
					r.Latency.Quantile(0.5), r.Latency.Quantile(0.99), r.Latency.Quantile(0.999),
					r.QueueHist.Quantile(0.99), r.MeanQueue, 100*r.EffectiveUtil, md1)
				if dist {
					io.WriteString(w, "# latency distribution (us, probability)\n")
					r.Latency.WriteTSV(w)
					io.WriteString(w, "# queue-size distribution (cells, probability)\n")
					r.QueueHist.WriteTSV(w)
				}
			})
			return res, nil
		},
	})

	engine.Register(engine.Scenario{
		Name: "fabric/pushpull",
		Desc: "Fig 7 / Fig 12 push-vs-pull fabric: congested ports must not steal throughput",
		Params: []engine.Param{
			engine.Enums("tc", "both", "both", "traffic classes on the congested port: true, false, or both", "false", "true").Each("tc"),
		},
		Run: func(c engine.Context) (engine.Result, error) {
			r := experiments.PushPull(c.Params.Str("tc") == "true")
			var res engine.Result
			res.Add("ethernet_a1_pct", 100*r.EthernetA1, "%")
			res.Add("ethernet_a2_pct", 100*r.EthernetA2, "%")
			res.Add("ethernet_b_pct", 100*r.EthernetB, "%")
			res.Add("ethernet_egress_pct", 100*r.EthernetTotal, "%")
			res.Add("stardust_a1_pct", 100*r.StardustA1, "%")
			res.Add("stardust_a2_pct", 100*r.StardustA2, "%")
			res.Add("stardust_b_pct", 100*r.StardustB, "%")
			res.Add("stardust_egress_pct", 100*r.StardustTotal, "%")
			res.Text = report(func(w io.Writer) { experiments.WritePushPull(w, r) })
			return res, nil
		},
	})

	engine.Register(engine.Scenario{
		Name: "fabric/recovery",
		Desc: "Appendix E self-healing: measured link-failure withdrawal vs the closed form",
		Run: func(c engine.Context) (engine.Result, error) {
			r, err := experiments.Recovery()
			if err != nil {
				return engine.Result{}, err
			}
			var res engine.Result
			res.Add("local_us", r.LocalUs, "us")
			res.Add("propagated_us", r.PropagatedUs, "us")
			res.Add("analytic_us", r.AnalyticUs, "us")
			res.Add("detect_bound_us", r.DetectUs, "us")
			res.Text = report(func(w io.Writer) { experiments.WriteRecovery(w, r) })
			return res, nil
		},
	})
}

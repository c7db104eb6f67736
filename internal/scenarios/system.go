package scenarios

import (
	"stardust/internal/engine"
	"stardust/internal/experiments"
)

func init() {
	engine.Register(engine.Scenario{
		Name: "system/arista",
		Desc: "§6.1.2 single-tier system: line rate and latency vs packet size",
		Params: []engine.Param{
			engine.Int("fa", "6", "Fabric Adapters in the single-tier system"),
			engine.Int("ports", "16", "front-panel ports per FA"),
			engine.Bool("packing", "false", "enable cell packing on the FA ingress"),
			engine.Int("dur_us", "300", "measurement window in us"),
			engine.Ints("sizes", "64,128,256,384,512,1024,1518", "comma list of packet sizes in bytes (one instance each)").Min(1).Each("size"),
		},
		Run: func(c engine.Context) (engine.Result, error) {
			cfg := experiments.ScaledArista()
			cfg.NumFA = c.Params.Int("fa")
			cfg.PortsPerFA = c.Params.Int("ports")
			cfg.Packing = c.Params.Bool("packing")
			cfg.Duration = usTime(c.Params.Int("dur_us"))
			cfg.Seed = c.Seed
			rows, err := experiments.Arista(cfg, []int{c.Params.Int("size")})
			if err != nil {
				return engine.Result{}, err
			}
			r := rows[0]
			var res engine.Result
			res.Add("line_rate_pct", r.LineRatePct, "%")
			res.Add("lat_min_us", r.MinUs, "us")
			res.Add("lat_avg_us", r.AvgUs, "us")
			res.Add("lat_max_us", r.MaxUs, "us")
			res.Add("jitter_ns", r.JitterNs, "ns")
			res.Text = engine.Textf("%8d B: line-rate=%5.1f%%  lat min/avg/max=%.2f/%.2f/%.2f us  jitter=%.0f ns\n",
				r.PacketBytes, r.LineRatePct, r.MinUs, r.AvgUs, r.MaxUs, r.JitterNs)
			return res, nil
		},
	})
}

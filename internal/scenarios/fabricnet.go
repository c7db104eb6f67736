package scenarios

import (
	"io"

	"stardust/internal/engine"
	"stardust/internal/experiments"
)

// Scenarios over the topology-faithful per-link cell fabric
// (internal/fabric) and the new traffic matrices: per-link load balance
// (spraying vs ECMP), goodput through link failures, hotspot fan-in and
// all-to-all.

func init() {
	engine.Register(engine.Scenario{
		Name: "fabric/linkload",
		Desc: "per-uplink byte counts under a permutation: cell spraying vs per-flow ECMP (§5.3)",
		Params: append(htsimParams("8", "10", "5"),
			engine.Enums("mode", "both", "both", "spray (Stardust cells), ecmp (per-flow hashing), or both", "spray", "ecmp").Each("mode")),
		Run: func(c engine.Context) (engine.Result, error) {
			r, err := experiments.LinkLoad(htsimConfig(c), c.Params.Str("mode"))
			if err != nil {
				return engine.Result{}, err
			}
			var res engine.Result
			res.Add("links", float64(r.Links), "")
			res.Add("mean_bytes", r.MeanBytes, "B")
			res.Add("dev_spread_pct", r.DevSpreadPct, "%")
			res.Add("spread_pct", r.SpreadPct, "%")
			res.Add("cov_pct", r.CoVPct, "%")
			res.Add("min_bytes", r.MinBytes, "B")
			res.Add("max_bytes", r.MaxBytes, "B")
			res.Add("mean_util_pct", r.MeanUtilPct, "%")
			res.Text = report(func(w io.Writer) { experiments.WriteLinkLoad(w, r) })
			return res, nil
		},
	})

	engine.Register(engine.Scenario{
		Name: "fabric/failures",
		Desc: "kill N random fabric links mid-run: goodput dip and self-healing recovery (§5.9, App E)",
		Params: append(htsimParams("8", "30", "10"),
			engine.Int("fail", "4", "random fabric links to kill mid-run").Min(0),
			engine.Int("fail_ms", "10", "failure instant relative to end of warmup, in ms"),
			engine.Int("bin_ms", "1", "goodput aggregation bin, in ms").Min(1)),
		Run: func(c engine.Context) (engine.Result, error) {
			r, err := experiments.FabricFailures(htsimConfig(c),
				c.Params.Int("fail"), msTime(c.Params.Int("fail_ms")), msTime(c.Params.Int("bin_ms")))
			if err != nil {
				return engine.Result{}, err
			}
			var res engine.Result
			res.Add("failed_links", float64(r.FailedLinks), "")
			res.Add("pre_gbps", r.PreGbps, "Gbps")
			res.Add("dip_gbps", r.DipGbps, "Gbps")
			res.Add("recovered_gbps", r.RecoveredGbps, "Gbps")
			res.Add("unreachable_pairs", float64(r.Unreachable), "")
			res.Add("fabric_drops", float64(r.FabricDrops), "")
			res.Add("reasm_timeouts", float64(r.ReasmTimeouts), "")
			res.Text = report(func(w io.Writer) { experiments.WriteFailures(w, r) })
			return res, nil
		},
	})

	engine.Register(engine.Scenario{
		Name: "htsim/hotspot",
		Desc: "hotspot fan-in matrix: aggregate goodput into hot egress ports vs the rest, per protocol",
		Params: protoParams("8",
			engine.Int("hot", "2", "number of hot destination hosts"),
			engine.Float("frac", "0.4", "fraction of senders aimed at a hot destination")),
		Run: func(c engine.Context) (engine.Result, error) {
			cfg, proto := protoConfig(c)
			r, hot, err := experiments.HotspotRun(cfg, proto, c.Params.Int("hot"), c.Params.Float("frac"))
			if err != nil {
				return engine.Result{}, err
			}
			var res engine.Result
			n := len(r.Gbps)
			res.Add("flows", float64(r.Flows), "")
			res.Add("hotspots", float64(len(hot)), "")
			res.Add("hot_agg_gbps", r.HotGbps, "Gbps")
			res.Add("cold_mean_gbps", r.ColdMeanGps, "Gbps")
			res.Add("mean_util_pct", r.MeanUtilPct, "%")
			res.Add("p5_gbps", r.Gbps[n/20], "Gbps")
			res.Add("median_gbps", r.Gbps[n/2], "Gbps")
			res.Text = report(func(w io.Writer) { experiments.WriteMatrix(w, "hotspot", r) })
			return res, nil
		},
	})

	engine.Register(engine.Scenario{
		Name:   "htsim/alltoall",
		Desc:   "all-to-all matrix (n*(n-1) flows): per-flow goodput distribution, per protocol",
		Params: protoParams("4"),
		Run: func(c engine.Context) (engine.Result, error) {
			r, err := experiments.AllToAllRun(protoConfig(c))
			if err != nil {
				return engine.Result{}, err
			}
			var res engine.Result
			n := len(r.Gbps)
			res.Add("flows", float64(r.Flows), "")
			res.Add("mean_util_pct", r.MeanUtilPct, "%")
			res.Add("p5_gbps", r.Gbps[n/20], "Gbps")
			res.Add("median_gbps", r.Gbps[n/2], "Gbps")
			res.Add("min_gbps", r.Gbps[0], "Gbps")
			res.Text = report(func(w io.Writer) { experiments.WriteMatrix(w, "alltoall", r) })
			return res, nil
		},
	})
}

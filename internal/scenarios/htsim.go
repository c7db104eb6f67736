package scenarios

import (
	"io"
	"slices"

	"stardust/internal/engine"
	"stardust/internal/experiments"
)

// htsimParams declares the htsimConfig knobs at a scenario's defaults.
func htsimParams(k, dur, warmup string) []engine.Param {
	return []engine.Param{
		engine.Int("k", k, "fat-tree K (12 = the paper's 432 hosts)").Min(4).Even(),
		engine.Int("dur_ms", dur, "measurement window in ms, after warmup").Min(1),
		engine.Int("warmup_ms", warmup, "warmup before measurement starts, in ms"),
	}
}

func htsimConfig(c engine.Context) experiments.HtsimConfig {
	cfg := experiments.DefaultHtsim()
	cfg.K = c.Params.Int("k")
	cfg.Duration = msTime(c.Params.Int("dur_ms"))
	cfg.Warmup = msTime(c.Params.Int("warmup_ms"))
	cfg.Seed = c.Seed
	return cfg
}

// protoParams declares the knobs of a scenario run once per protocol: the
// htsimConfig knobs at K=k, the proto list and the fabric switch, then
// more.
func protoParams(k string, more ...engine.Param) []engine.Param {
	return slices.Concat(htsimParams(k, "20", "10"), []engine.Param{
		engine.Enums("proto", "all", "all", "protocols to run (one instance each)", experiments.Protocols...).Each("proto"),
		engine.Bool("fabric", "false", "run Stardust over the per-link cell fabric instead of the fluid trunk; honors -shards (sharded transport, byte-identical at any shard count)"),
	}, more)
}

// protoConfig is htsimConfig for one instance of a protocol sweep, and
// its protocol. Every fabric=true run goes through the sharded transport
// so the -shards flag scales it across cores; the result stream is
// byte-identical at any shard count for the same seed.
func protoConfig(c engine.Context) (experiments.HtsimConfig, experiments.Protocol) {
	cfg := htsimConfig(c)
	if cfg.FullFabric = c.Params.Bool("fabric"); cfg.FullFabric {
		cfg.Shards = c.Shards
	}
	return cfg, experiments.Protocol(c.Params.Str("proto"))
}

func init() {
	engine.Register(engine.Scenario{
		Name:   "htsim/permutation",
		Desc:   "Fig 10(a) permutation throughput on a K-ary fat-tree, per protocol",
		Params: protoParams("8"),
		Run: func(c engine.Context) (engine.Result, error) {
			r, err := experiments.Permutation(protoConfig(c))
			if err != nil {
				return engine.Result{}, err
			}
			var res engine.Result
			n := len(r.Gbps)
			res.Add("mean_util_pct", r.MeanUtilPct, "%")
			res.Add("p5_gbps", r.Gbps[n/20], "Gbps")
			res.Add("median_gbps", r.Gbps[n/2], "Gbps")
			res.Add("min_gbps", r.Gbps[0], "Gbps")
			res.Add("max_gbps", r.Gbps[n-1], "Gbps")
			res.Add("fabric_drops", float64(r.FabricDrops), "")
			res.Text = report(func(w io.Writer) { experiments.WritePermutation(w, r) })
			return res, nil
		},
	})

	engine.Register(engine.Scenario{
		Name: "htsim/fct",
		Desc: "Fig 10(b) Web-workload flow completion times under background load, per protocol",
		Params: protoParams("8",
			engine.Int("flows", "100", "Web-workload flows to measure on the clean pair")),
		Run: func(c engine.Context) (engine.Result, error) {
			cfg, proto := protoConfig(c)
			r, err := experiments.FCT(cfg, proto, c.Params.Int("flows"))
			if err != nil {
				return engine.Result{}, err
			}
			var res engine.Result
			res.Add("flows", float64(r.Ms.N()), "")
			res.Add("p50_ms", r.Ms.Quantile(0.5), "ms")
			res.Add("p90_ms", r.Ms.Quantile(0.9), "ms")
			res.Add("p99_ms", r.Ms.Quantile(0.99), "ms")
			res.Add("max_ms", r.Ms.Max(), "ms")
			res.Text = report(func(w io.Writer) { experiments.WriteFCT(w, r) })
			return res, nil
		},
	})

	engine.Register(engine.Scenario{
		Name: "htsim/incast",
		Desc: "Fig 10(c) incast completion (first/last backend), per protocol and fan-in",
		Params: protoParams("8",
			engine.Ints("n", "4,8,16,32", "comma list of backend counts (one instance per fan-in)").Min(1).Each("n"),
			engine.Int("response_bytes", "450000", "bytes each backend sends to the frontend")),
		Run: func(c engine.Context) (engine.Result, error) {
			cfg, proto := protoConfig(c)
			r, err := experiments.Incast(cfg, proto, c.Params.Int("n"), int64(c.Params.Int("response_bytes")))
			if err != nil && r == nil {
				return engine.Result{}, err
			}
			// A partial incast (some backends unfinished inside the budget)
			// is still a Fig 10(c) data point; the completed count is
			// reported alongside.
			var res engine.Result
			res.Add("backends_done", float64(r.Backends), "")
			res.Add("first_ms", r.FirstMs, "ms")
			res.Add("last_ms", r.LastMs, "ms")
			if r.FirstMs > 0 {
				res.Add("spread", r.LastMs/r.FirstMs, "x")
			}
			res.Text = report(func(w io.Writer) { experiments.WriteIncast(w, r) })
			return res, nil
		},
	})
}

package scenarios

import (
	"fmt"
	"io"
	"slices"

	"stardust/internal/engine"
	"stardust/internal/experiments"
)

func htsimConfig(c engine.Context) experiments.HtsimConfig {
	cfg := experiments.DefaultHtsim()
	cfg.K = c.Params.Int("k", cfg.K)
	cfg.Duration = msTime(c.Params.Int("dur_ms", 20))
	cfg.Warmup = msTime(c.Params.Int("warmup_ms", 10))
	cfg.FullFabric = c.Params.Bool("fabric", false)
	if cfg.FullFabric {
		// Every fabric=true run goes through the sharded transport so the
		// -shards flag scales it across cores; the result stream is
		// byte-identical at any shard count for the same seed.
		cfg.Shards = effectiveShards(c)
	}
	cfg.Seed = c.Seed
	return cfg
}

// protoList resolves the "proto" parameter (a comma list of protocols, in
// which "all" stands for the Fig 10 contenders in the paper's legend
// order).
func protoList(p engine.Params) []experiments.Protocol {
	var out []experiments.Protocol
	for _, s := range splitList(p.Str("proto", "all")) {
		if s == "all" {
			out = append(out, experiments.Protocols...)
		} else {
			out = append(out, experiments.Protocol(s))
		}
	}
	return out
}

// checkProto is the Check of every scenario with a proto list: it refuses
// an element that is neither all nor a Fig 10 contender, which no testbed
// could run.
func checkProto(c engine.Context) error {
	for _, pr := range protoList(c.Params) {
		if !slices.Contains(experiments.Protocols, pr) {
			return fmt.Errorf("proto %q: want all, or a comma list of %v", pr, experiments.Protocols)
		}
	}
	return nil
}

// protoVariants expands one instance per selected protocol.
func protoVariants(p engine.Params) []engine.Params {
	var out []engine.Params
	for _, pr := range protoList(p) {
		out = append(out, p.With("proto", string(pr)))
	}
	return out
}

// Shared parameter docs for the htsim family (the htsimConfig knobs).
var htsimDocs = map[string]string{
	"k":         "fat-tree K (12 = the paper's 432 hosts)",
	"dur_ms":    "measurement window in ms, after warmup",
	"warmup_ms": "warmup before measurement starts, in ms",
	"proto":     "protocols to run: all, or a comma list of MPTCP,DCTCP,DCQCN,Stardust",
	"fabric":    "run Stardust over the per-link cell fabric instead of the fluid trunk; honors -shards (sharded transport, byte-identical at any shard count)",
}

// withDocs merges extra entries over a copy of base.
func withDocs(base map[string]string, extra map[string]string) map[string]string {
	out := make(map[string]string, len(base)+len(extra))
	for k, v := range base {
		out[k] = v
	}
	for k, v := range extra {
		out[k] = v
	}
	return out
}

// pickDocs selects keys from htsimDocs and merges extra entries, for
// scenarios that accept only a subset of the shared htsim knobs.
func pickDocs(keys []string, extra map[string]string) map[string]string {
	out := make(map[string]string, len(keys)+len(extra))
	for _, k := range keys {
		out[k] = htsimDocs[k]
	}
	for k, v := range extra {
		out[k] = v
	}
	return out
}

func init() {
	engine.Register(engine.Scenario{
		Name: "htsim/permutation",
		Desc: "Fig 10(a) permutation throughput on a K-ary fat-tree, per protocol",
		Defaults: engine.Params{
			"k": "8", "dur_ms": "20", "warmup_ms": "10", "proto": "all", "fabric": "false",
		},
		Docs:     htsimDocs,
		Variants: protoVariants,
		Check:    checkProto,
		Run: func(c engine.Context) (engine.Result, error) {
			cfg := htsimConfig(c)
			proto := experiments.Protocol(c.Params.Str("proto", string(experiments.ProtoStardust)))
			r, err := experiments.Permutation(cfg, proto)
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
		Defaults: engine.Params{
			"k": "8", "dur_ms": "20", "warmup_ms": "10", "proto": "all", "flows": "100", "fabric": "false",
		},
		Docs: withDocs(htsimDocs, map[string]string{
			"flows": "Web-workload flows to measure on the clean pair",
		}),
		Variants: protoVariants,
		Check:    checkProto,
		Run: func(c engine.Context) (engine.Result, error) {
			cfg := htsimConfig(c)
			proto := experiments.Protocol(c.Params.Str("proto", string(experiments.ProtoStardust)))
			r, err := experiments.FCT(cfg, proto, c.Params.Int("flows", 100))
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
		Defaults: engine.Params{
			"k": "8", "dur_ms": "20", "warmup_ms": "10", "proto": "all",
			"n": "4,8,16,32", "response_bytes": "450000", "fabric": "false",
		},
		Docs: withDocs(htsimDocs, map[string]string{
			"n":              "comma list of backend counts (one instance per fan-in)",
			"response_bytes": "bytes each backend sends to the frontend",
		}),
		Variants: func(p engine.Params) []engine.Params {
			var out []engine.Params
			for _, pr := range protoList(p) {
				for _, n := range p.Ints("n", []int{8}) {
					out = append(out, p.Merge(engine.Params{
						"proto": string(pr), "n": fmt.Sprint(n),
					}))
				}
			}
			return out
		},
		Check: checkProto,
		Run: func(c engine.Context) (engine.Result, error) {
			cfg := htsimConfig(c)
			proto := experiments.Protocol(c.Params.Str("proto", string(experiments.ProtoStardust)))
			backends := c.Params.Int("n", 8)
			r, err := experiments.Incast(cfg, proto, backends, c.Params.Int64("response_bytes", 450_000))
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

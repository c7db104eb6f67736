package scenarios

import (
	"fmt"
	"hash/fnv"
	"strings"

	"stardust/internal/engine"
	"stardust/internal/experiments"
)

// htsim/parperm: the sharded end-to-end counterpart of fabric/parscale —
// a shards×K sweep of the Fig 10(a) permutation with unmodified TCP over
// the sharded Stardust transport, emitting a digest of the full per-flow
// delivered-byte vector and transport counters. The digest is a
// deterministic function of (seed, K) alone, so the CI matrix diffs it
// across {workers}×{shards}, and check=true re-runs the instance at one
// shard and refuses to emit a result whose digest diverged.

// permDigest folds a permutation result's observable transport state.
func permDigest(r *experiments.PermutationResult) uint64 {
	h := fnv.New64a()
	w := func(v uint64) { digest64(h, v) }
	for _, d := range r.Delivered {
		w(uint64(d))
	}
	w(r.CellsSent)
	w(r.CreditsSent)
	w(r.VOQDrops)
	w(r.ReasmTimeouts)
	w(r.FabricDrops)
	return h.Sum64()
}

func init() {
	engine.Register(engine.Scenario{
		Name: "htsim/parperm",
		Desc: "sharded-transport permutation sweep: TCP over the sharded Stardust substrate, shards×K, deterministic transport digest",
		Defaults: engine.Params{
			"k": "4", "shards": "0", "dur_ms": "5", "warmup_ms": "2", "check": "false",
		},
		Docs: map[string]string{
			"k":         "fat-tree K sizing hosts and the Clos (comma list sweeps)",
			"shards":    "event-loop shards; 0 = the -shards flag (comma list sweeps)",
			"dur_ms":    "measurement window in ms, after warmup",
			"warmup_ms": "warmup before measurement starts, in ms",
			"check":     "true re-runs at one shard and fails unless the digests are byte-identical",
		},
		Variants: parVariants,
		Check:    checkShards(closOnly),
		Run: func(c engine.Context) (engine.Result, error) {
			k := c.Params.Int("k", 4)
			shards := effectiveShards(c)
			cfg := experiments.DefaultHtsim()
			cfg.K = k
			cfg.Duration = msTime(c.Params.Int("dur_ms", 5))
			cfg.Warmup = msTime(c.Params.Int("warmup_ms", 2))
			cfg.FullFabric = true
			cfg.Shards = shards
			cfg.Seed = c.Seed
			r, err := experiments.Permutation(cfg, experiments.ProtoStardust)
			if err != nil {
				return engine.Result{}, err
			}
			digest := permDigest(r)
			if c.Params.Bool("check", false) && shards != 1 {
				ref := cfg
				ref.Shards = 1
				rr, err := experiments.Permutation(ref, experiments.ProtoStardust)
				if err != nil {
					return engine.Result{}, err
				}
				if got := permDigest(rr); got != digest {
					return engine.Result{}, fmt.Errorf("parperm: shards=%d digest %016x diverged from shards=1 %016x",
						shards, digest, got)
				}
			}
			var res engine.Result
			res.Add("k", float64(k), "")
			if sp := c.Params.Int("shards", 0); sp != 0 {
				res.Add("shards", float64(sp), "")
			}
			n := len(r.Gbps)
			res.Add("mean_util_pct", r.MeanUtilPct, "%")
			res.Add("p5_gbps", r.Gbps[n/20], "Gbps")
			res.Add("median_gbps", r.Gbps[n/2], "Gbps")
			res.Add("cells_sent", float64(r.CellsSent), "")
			res.Add("credits_sent", float64(r.CreditsSent), "")
			res.Add("voq_drops", float64(r.VOQDrops), "")
			res.Add("reasm_timeouts", float64(r.ReasmTimeouts), "")
			res.Add("fabric_drops", float64(r.FabricDrops), "")
			res.Add("digest_lo", float64(uint32(digest)), "")
			res.Add("digest_hi", float64(digest>>32), "")
			var b strings.Builder
			fmt.Fprintf(&b, "parperm K=%d%s: util %.1f%%, %d cells, %d credits, %d drops, digest %016x\n",
				k, shardLabel(c), r.MeanUtilPct, r.CellsSent, r.CreditsSent,
				r.VOQDrops+r.ReasmTimeouts+r.FabricDrops, digest)
			experiments.WritePermutation(&b, r)
			res.Text = b.String()
			return res, nil
		},
	})
}

package scenarios

import (
	"fmt"
	"hash/fnv"
	"io"

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
		Params: []engine.Param{
			engine.Ints("k", "4", "fat-tree K sizing hosts and the Clos (comma list sweeps)").Each("k"),
			engine.Ints("shards", "0", "event-loop shards; 0 = the -shards flag (comma list sweeps)").Each("shards"),
			engine.Int("dur_ms", "5", "measurement window in ms, after warmup").Min(1),
			engine.Int("warmup_ms", "2", "warmup before measurement starts, in ms"),
			engine.Bool("check", "false", "true re-runs at one shard and fails unless the digests are byte-identical"),
		},
		Check: func(c engine.Context) error { return checkShards(c, closOnly) },
		Run: func(c engine.Context) (engine.Result, error) {
			cfg := htsimConfig(c)
			k, shards := cfg.K, effectiveShards(c)
			cfg.FullFabric = true
			cfg.Shards = shards
			r, err := experiments.Permutation(cfg, experiments.ProtoStardust)
			if err != nil {
				return engine.Result{}, err
			}
			digest := permDigest(r)
			if c.Params.Bool("check") && shards != 1 {
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
			if sp := c.Params.Int("shards"); sp != 0 {
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
			res.Text = report(func(w io.Writer) {
				fmt.Fprintf(w, "parperm K=%d%s: util %.1f%%, %d cells, %d credits, %d drops, digest %016x\n",
					k, shardLabel(c), r.MeanUtilPct, r.CellsSent, r.CreditsSent,
					r.VOQDrops+r.ReasmTimeouts+r.FabricDrops, digest)
				experiments.WritePermutation(w, r)
			})
			return res, nil
		},
	})
}

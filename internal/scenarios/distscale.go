package scenarios

import (
	"fmt"
	"strconv"
	"strings"

	"stardust/internal/distsim"
	"stardust/internal/distsim/devnet"
	"stardust/internal/engine"
)

// fabric/distscale is the distributed-runtime acceptance sweep: it runs
// one spec with in-process goroutine shards, then re-runs it against real
// forked peer processes at each requested peer count, and fails unless
// every distributed outcome — digest included — is byte-identical to the
// in-process one. The scenario forks the current binary, so the hosting
// main() (or TestMain) must call distsim.MaybeRunPeer first; engine.Main
// documents the same requirement.

// distOne serves spec to npeers forked peers and returns the outcome.
func distOne(spec distsim.Spec, npeers int) (distsim.Outcome, error) {
	l, err := distsim.Listen("127.0.0.1:0")
	if err != nil {
		return distsim.Outcome{}, fmt.Errorf("distscale: loopback listen: %w", err)
	}
	addr := l.Addr().String()
	peers := make([]*devnet.Peer, 0, npeers)
	defer func() {
		for _, p := range peers {
			p.Kill()
			p.Wait()
		}
	}()
	for i := 0; i < npeers; i++ {
		p, err := devnet.Spawn(addr)
		if err != nil {
			l.Close()
			return distsim.Outcome{}, err
		}
		peers = append(peers, p)
	}
	out, err := distsim.Serve(l, distsim.CoordConfig{Spec: spec, Peers: npeers})
	if err != nil {
		return distsim.Outcome{}, err
	}
	for _, p := range peers {
		if werr := p.Wait(); werr != nil {
			return distsim.Outcome{}, fmt.Errorf("distscale: peer exited uncleanly: %w", werr)
		}
	}
	peers = nil
	return out, nil
}

// distscaleSpec assembles the sweep's Spec from its parameters. Its shard
// count is its own parameter, never the -shards flag.
func distscaleSpec(c engine.Context) distsim.Spec {
	spec := paramSpec(c, msTime(c.Params.Int("dur_ms", 1)), 0.5)
	spec.Shards = c.Params.Int("shards", 4)
	return spec
}

func init() {
	engine.Register(engine.Scenario{
		Name: "fabric/distscale",
		Desc: "distributed runtime sweep: forks real peer processes and requires byte-identical outcomes vs in-process shards",
		Defaults: engine.Params{
			"k": "4", "shards": "4", "topo": "", "dur_ms": "1", "load": "0.5", "cell": "512", "peers": "2,4",
		},
		Docs: map[string]string{
			"k":      "fat-tree K sizing the Clos",
			"shards": "event-loop shards to partition over the peers (must be >= every peer count)",
			"topo":   "topology family sized by k: clos, sshuffle, star, or a full spec string; empty = the -topo flag",
			"dur_ms": "injection duration in ms",
			"load":   "offered load per FA as a fraction of its uplink capacity",
			"cell":   "cell size in bytes",
			"peers":  "comma list of peer-process counts to verify against the in-process run",
		},
		Check: checkSpec(distscaleSpec),
		Run: func(c engine.Context) (engine.Result, error) {
			spec := distscaleSpec(c)
			k, shards := spec.K, spec.Shards
			m, err := distsim.NewModel(spec)
			if err != nil {
				return engine.Result{}, err
			}
			want, err := m.RunLocal()
			if err != nil {
				return engine.Result{}, err
			}
			var res engine.Result
			res.Add("k", float64(k), "")
			res.Add("shards", float64(shards), "")
			res.Add("injected_cells", float64(want.Injected), "")
			res.Add("delivered_cells", float64(want.Delivered), "")
			res.Add("events", float64(want.Events), "")
			res.Add("digest_lo", float64(uint32(want.Digest)), "")
			res.Add("digest_hi", float64(want.Digest>>32), "")
			var b strings.Builder
			fmt.Fprintf(&b, "distscale K=%d shards=%d: local digest %016x (%d cells, %d events)\n",
				k, shards, want.Digest, want.Delivered, want.Events)
			for _, ps := range splitList(c.Params.Str("peers", "2,4")) {
				np, aerr := strconv.Atoi(ps)
				if aerr != nil || np < 1 || np > shards {
					return engine.Result{}, fmt.Errorf("distscale: peer count %q must be in [1, shards=%d]", ps, shards)
				}
				got, err := distOne(spec, np)
				if err != nil {
					return engine.Result{}, err
				}
				if got.Digest != want.Digest || got.Injected != want.Injected ||
					got.Delivered != want.Delivered || got.Drops != want.Drops ||
					got.Events != want.Events || got.Unreachable != want.Unreachable {
					return engine.Result{}, fmt.Errorf("distscale: %d-peer outcome diverged: digest %016x vs local %016x (delivered %d vs %d, events %d vs %d)",
						np, got.Digest, want.Digest, got.Delivered, want.Delivered, got.Events, want.Events)
				}
				res.Add(fmt.Sprintf("match_%dpeers", np), 1, "")
				fmt.Fprintf(&b, "  %d peer processes: byte-identical\n", np)
			}
			res.Text = engine.Textf("%s", b.String())
			return res, nil
		},
	})
}

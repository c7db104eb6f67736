package scenarios

import (
	"bytes"
	"fmt"
	"os"
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

// forkServe serves spec to npeers peer processes it forks on loopback
// (the devnet seam: the hosting main or TestMain must call
// distsim.MaybeRunPeer) and returns the outcome and the telemetry stream
// the coordinator emitted, empty unless spec records one.
func forkServe(spec distsim.Spec, npeers int) (distsim.Outcome, []byte, error) {
	l, err := distsim.Listen("127.0.0.1:0")
	if err != nil {
		return distsim.Outcome{}, nil, fmt.Errorf("loopback listen: %w", err)
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
			return distsim.Outcome{}, nil, err
		}
		peers = append(peers, p)
	}
	var buf bytes.Buffer
	out, err := distsim.Serve(l, distsim.CoordConfig{Spec: spec, Peers: npeers, Stream: &buf})
	if err != nil {
		return distsim.Outcome{}, nil, err
	}
	for _, p := range peers {
		if werr := p.Wait(); werr != nil {
			return distsim.Outcome{}, nil, fmt.Errorf("peer exited uncleanly: %w", werr)
		}
	}
	peers = nil
	return out, buf.Bytes(), nil
}

// serveDist serves cfg as the coordinator of a run started with -peers:
// it listens on c.DistListen and waits for c.DistPeers peer processes
// (started with -join or devnet), letting a lost one rejoin. The outcome
// and stream are byte-identical to the in-process run's — the equivalence
// the distributed CI job diffs.
func serveDist(c engine.Context, cfg distsim.CoordConfig) (distsim.Outcome, error) {
	l, err := distsim.Listen(c.DistListen)
	if err != nil {
		return distsim.Outcome{}, err
	}
	// The resolved address goes to stderr: with -listen :0 the peers need
	// it, and stdout must stay byte-identical to the in-process run.
	fmt.Fprintf(os.Stderr, "distsim: coordinator listening on %s for %d peer(s)\n", l.Addr(), c.DistPeers)
	cfg.Peers, cfg.Rejoin = c.DistPeers, true
	return distsim.Serve(l, cfg)
}

// distscaleSpec assembles the sweep's Spec from its parameters. Its shard
// count is its own parameter, never the -shards flag.
func distscaleSpec(c engine.Context) distsim.Spec {
	spec := paramSpec(c, msTime(c.Params.Int("dur_ms")))
	spec.Shards = c.Params.Int("shards")
	return spec
}

func init() {
	engine.Register(engine.Scenario{
		Name: "fabric/distscale",
		Desc: "distributed runtime sweep: forks real peer processes and requires byte-identical outcomes vs in-process shards",
		Params: append(specParams("0.5"),
			engine.Int("k", "4", "fat-tree K sizing the Clos"),
			engine.Int("shards", "4", "event-loop shards to partition over the peers (must be >= every peer count)"),
			engine.String("topo", "", "topology family sized by k: clos, sshuffle, star, or a full spec string; empty = the -topo flag"),
			engine.Int("dur_ms", "1", "injection duration in ms"),
			engine.Ints("peers", "2,4", "comma list of peer-process counts to verify against the in-process run")),
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
			for _, np := range c.Params.Ints("peers") {
				if np < 1 || np > shards {
					return engine.Result{}, fmt.Errorf("distscale: peer count %d must be in [1, shards=%d]", np, shards)
				}
				got, _, err := forkServe(spec, np)
				if err != nil {
					return engine.Result{}, fmt.Errorf("distscale: %d peers: %w", np, err)
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

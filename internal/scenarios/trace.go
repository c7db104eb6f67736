package scenarios

// Digital-twin scenarios over the STREC1 telemetry pipeline: trace/record
// executes a fabric run while exporting its canonical telemetry stream
// (in-process at any shard count, or distributed with -peers — the bytes
// are identical either way, which is what the CI telemetry job diffs);
// trace/replay ingests a recorded stream, re-drives the fabric from the
// embedded spec with optional what-if overrides (fail a link, change K,
// seed, load), and reports the divergence between recorded and replayed
// counters. An unchanged replay is byte-identical — zero divergence.

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"strconv"
	"strings"

	"stardust/internal/distsim"
	"stardust/internal/distsim/devnet"
	"stardust/internal/engine"
	"stardust/internal/telemetry"
)

// traceSpec assembles the recording spec from the scenario parameters.
func traceSpec(c engine.Context) distsim.Spec {
	spec := paramSpec(c, usTime(c.Params.Int("dur_us", 200)), 0.5)
	spec.FailN = c.Params.Int("fail", 0)
	spec.FailAt, spec.HealAt = usTime(c.Params.Int("fail_us", 0)), usTime(c.Params.Int("heal_us", 0))
	spec.Telem = usTime(c.Params.Int("telem_us", 20))
	return spec
}

// runRecord produces the stream for spec: in-process goroutine shards, or
// a distributed coordinator when the run was started with -peers. Both
// paths emit through the same telemetry.Emitter, so the bytes agree.
func runRecord(spec distsim.Spec, c engine.Context) ([]byte, distsim.Outcome, error) {
	var buf bytes.Buffer
	if c.DistPeers > 0 {
		l, err := distsim.Listen(c.DistListen)
		if err != nil {
			return nil, distsim.Outcome{}, err
		}
		fmt.Fprintf(os.Stderr, "distsim: coordinator listening on %s for %d peer(s)\n", l.Addr(), c.DistPeers)
		out, err := distsim.Serve(l, distsim.CoordConfig{
			Spec:   spec,
			Peers:  c.DistPeers,
			Rejoin: true,
			Stream: &buf,
		})
		return buf.Bytes(), out, err
	}
	out, err := distsim.Record(spec, &buf)
	return buf.Bytes(), out, err
}

// distRecord serves spec to npeers forked peer processes (the same
// devnet seam fabric/distscale uses; the hosting main or TestMain must
// call distsim.MaybeRunPeer) and returns the stream the coordinator
// emitted.
func distRecord(spec distsim.Spec, npeers int) ([]byte, error) {
	l, err := distsim.Listen("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("trace/record: loopback listen: %w", err)
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
			return nil, err
		}
		peers = append(peers, p)
	}
	var buf bytes.Buffer
	if _, err := distsim.Serve(l, distsim.CoordConfig{Spec: spec, Peers: npeers, Stream: &buf}); err != nil {
		return nil, err
	}
	for _, p := range peers {
		if werr := p.Wait(); werr != nil {
			return nil, fmt.Errorf("trace/record: peer exited uncleanly: %w", werr)
		}
	}
	peers = nil
	return buf.Bytes(), nil
}

// streamDigest fingerprints a stream for the deterministic text report.
func streamDigest(stream []byte) uint64 {
	h := fnv.New64a()
	h.Write(stream)
	return h.Sum64()
}

// streamShape counts the records in a stream for the report.
func streamShape(stream []byte) (windows, events int, err error) {
	r := telemetry.NewReader(bytes.NewReader(stream))
	for {
		w, e, rerr := r.Next()
		if rerr != nil {
			if errors.Is(rerr, io.EOF) {
				return windows, events, nil
			}
			return windows, events, rerr
		}
		if w != nil {
			windows++
		}
		if e != nil {
			events++
		}
	}
}

// addStreamMetrics emits the deterministic stream identity: shape, size
// and content digest — the values the CI determinism matrix diffs across
// {workers}×{shards} and against the 2-peer distributed run — and returns
// the shape for the report.
func addStreamMetrics(res *engine.Result, stream []byte) (windows, events int, err error) {
	if windows, events, err = streamShape(stream); err != nil {
		return 0, 0, fmt.Errorf("recorded stream does not parse: %w", err)
	}
	d := streamDigest(stream)
	res.Add("stream_bytes", float64(len(stream)), "B")
	res.Add("stream_windows", float64(windows), "")
	res.Add("stream_events", float64(events), "")
	res.Add("stream_digest_lo", float64(uint32(d)), "")
	res.Add("stream_digest_hi", float64(d>>32), "")
	return windows, events, nil
}

// replayOverrides assembles the what-if knobs from scenario parameters.
// All default to "keep the recorded value".
func traceOverrides(c engine.Context) (distsim.Overrides, error) {
	ov := distsim.Overrides{
		Shards:  c.Params.Int("replay_shards", 0),
		K:       c.Params.Int("new_k", 0),
		Seed:    int64(c.Params.Int("new_seed", 0)),
		Load:    c.Params.Float("new_load", 0),
		Hotspot: c.Params.Float("new_hotspot", 0),
		FailAt:  usTime(c.Params.Int("fail_at_us", 0)),
		HealAt:  usTime(c.Params.Int("heal_at_us", 0)),
	}
	for _, ls := range splitList(c.Params.Str("fail_link", "")) {
		var lk int
		if _, err := fmt.Sscanf(ls, "%d", &lk); err != nil {
			return ov, fmt.Errorf("bad fail_link %q", ls)
		}
		ov.FailLinks = append(ov.FailLinks, lk)
	}
	return ov, nil
}

func init() {
	engine.Register(engine.Scenario{
		Name: "trace/record",
		Desc: "record a fabric run as a durable STREC1 telemetry stream (byte-identical at any shard/worker/peer count) and run the offline analyzers over it",
		Defaults: engine.Params{
			"k": "4", "shards": "0", "topo": "", "dur_us": "200", "load": "0.5", "cell": "512",
			"hotspot": "1", "fail": "0", "fail_us": "0", "heal_us": "0",
			"telem_us": "20", "out": "", "peers": "",
		},
		Docs: map[string]string{
			"k":        "fat-tree K sizing the Clos",
			"shards":   "event-loop shards; 0 = the -shards flag. Never changes the stream bytes",
			"topo":     "topology family sized by k: clos, sshuffle, star, or a full spec string; empty = the -topo flag",
			"dur_us":   "injection duration in µs",
			"load":     "offered load per FA as a fraction of its uplink capacity",
			"cell":     "cell size in bytes",
			"hotspot":  "boost factor for the first quarter of the FAs (>1 = skewed matrix)",
			"fail":     "seed-chosen links to fail at fail_us (healed at heal_us)",
			"fail_us":  "failure instant in µs",
			"heal_us":  "heal instant in µs",
			"telem_us": "scrape period in µs (rounded up to whole lookahead windows)",
			"out":      "file to write the stream to (empty = in-memory only)",
			"peers":    "comma list of peer-process counts to fork and verify stream byte-identity against (each must be <= the shard count)",
		},
		Check: checkSpec(traceSpec),
		Run: func(c engine.Context) (engine.Result, error) {
			spec := traceSpec(c)
			stream, outc, err := runRecord(spec, c)
			if err != nil {
				return engine.Result{}, err
			}
			var res engine.Result
			res.Add("k", float64(spec.K), "")
			res.Add("injected_cells", float64(outc.Injected), "")
			res.Add("delivered_cells", float64(outc.Delivered), "")
			res.Add("dropped_cells", float64(outc.Drops), "")
			windows, events, err := addStreamMetrics(&res, stream)
			if err != nil {
				return engine.Result{}, err
			}
			// Offline analytics over the just-recorded stream: the same
			// Analyzer stages the live daemon runs online.
			findings, err := telemetry.Analyze(bytes.NewReader(stream), nil, telemetry.DefaultAnalyzers()...)
			if err != nil {
				return engine.Result{}, fmt.Errorf("trace/record: offline analysis: %w", err)
			}
			critical := 0
			for _, f := range findings {
				if f.Severity == telemetry.SevCritical {
					critical++
				}
			}
			res.Add("findings", float64(len(findings)), "")
			res.Add("findings_critical", float64(critical), "")
			if out := c.Params.Str("out", ""); out != "" {
				if err := os.WriteFile(out, stream, 0o644); err != nil {
					return engine.Result{}, err
				}
			}
			var b strings.Builder
			fmt.Fprintf(&b, "trace/record K=%d%s%s: %d windows, %d link events, %d bytes, digest %016x\n",
				spec.K, topoLabel(c), shardLabel(c), windows, events, len(stream), streamDigest(stream))
			fmt.Fprintf(&b, "  %d cells injected, %d delivered, %d dropped; %d analyzer findings (%d critical)\n",
				outc.Injected, outc.Delivered, outc.Drops, len(findings), critical)
			for _, ps := range splitList(c.Params.Str("peers", "")) {
				np, aerr := strconv.Atoi(ps)
				if aerr != nil || np < 1 || np > spec.Shards {
					return engine.Result{}, fmt.Errorf("trace/record: peer count %q must be in [1, shards=%d]", ps, spec.Shards)
				}
				dstream, err := distRecord(spec, np)
				if err != nil {
					return engine.Result{}, err
				}
				if !bytes.Equal(dstream, stream) {
					return engine.Result{}, fmt.Errorf("trace/record: %d-peer stream diverged from in-process: %d vs %d bytes, digest %016x vs %016x",
						np, len(dstream), len(stream), streamDigest(dstream), streamDigest(stream))
				}
				res.Add(fmt.Sprintf("stream_match_%dpeers", np), 1, "")
				fmt.Fprintf(&b, "  %d peer processes: stream byte-identical\n", np)
			}
			res.Text = engine.Textf("%s", b.String())
			return res, nil
		},
	})

	engine.Register(engine.Scenario{
		Name: "trace/replay",
		Desc: "digital-twin replay: re-drive the fabric from a recorded stream (unchanged = zero divergence) with optional what-if overrides, and report the divergence",
		Defaults: engine.Params{
			"in": "", "expect_zero": "false", "replay_shards": "0",
			"fail_link": "", "fail_at_us": "0", "heal_at_us": "0",
			"new_k": "0", "new_seed": "0", "new_load": "0", "new_hotspot": "0",
			// Inline-record parameters, used when in is empty:
			"k": "4", "shards": "0", "topo": "", "dur_us": "200", "load": "0.5", "cell": "512",
			"hotspot": "1", "fail": "0", "fail_us": "0", "heal_us": "0", "telem_us": "20",
		},
		Docs: map[string]string{
			"topo":          "inline record: topology family sized by k (clos, sshuffle, star, or a full spec); empty = the -topo flag",
			"in":            "recorded stream file (empty = record one inline with the k/dur_us/... parameters)",
			"expect_zero":   "true fails the run unless the replay reports zero divergence",
			"replay_shards": "shard count for the replay execution (0 = recorded); never affects the divergence",
			"fail_link":     "topology links to fail during the replay (comma list) — the what-if knob",
			"fail_at_us":    "what-if failure instant in µs (0 = a quarter into the run)",
			"heal_at_us":    "what-if heal instant in µs (0 = never)",
			"new_k":         "override the fabric K (0 = recorded)",
			"new_seed":      "override the traffic seed (0 = recorded)",
			"new_load":      "override the offered load (0 = recorded)",
			"new_hotspot":   "override the hotspot factor (0 = recorded)",
			"k":             "inline record: fat-tree K",
			"shards":        "inline record: event-loop shards; 0 = the -shards flag",
			"dur_us":        "inline record: injection duration in µs",
			"load":          "inline record: offered load",
			"cell":          "inline record: cell size in bytes",
			"hotspot":       "inline record: hotspot factor",
			"fail":          "inline record: seed-chosen links to fail",
			"fail_us":       "inline record: failure instant in µs",
			"heal_us":       "inline record: heal instant in µs",
			"telem_us":      "inline record: scrape period in µs",
		},
		Check: func(c engine.Context) error {
			if c.Params.Str("in", "") != "" {
				// The Spec is in the recorded stream; Replay's NewModel checks it.
				return checkShards(effectiveTopo)(c)
			}
			return checkSpec(traceSpec)(c)
		},
		Run: func(c engine.Context) (engine.Result, error) {
			var stream []byte
			if in := c.Params.Str("in", ""); in != "" {
				var err error
				if stream, err = os.ReadFile(in); err != nil {
					return engine.Result{}, err
				}
			} else {
				var err error
				if stream, _, err = runRecord(traceSpec(c), c); err != nil {
					return engine.Result{}, err
				}
			}
			ov, err := traceOverrides(c)
			if err != nil {
				return engine.Result{}, err
			}
			div, outc, _, err := distsim.Replay(stream, ov)
			if err != nil {
				return engine.Result{}, err
			}
			if c.Params.Bool("expect_zero", false) && !div.Zero {
				return engine.Result{}, fmt.Errorf("trace/replay: expected zero divergence, got: %s", div)
			}
			var res engine.Result
			zero := 0.0
			if div.Zero {
				zero = 1
			}
			ident := 0.0
			if div.ByteIdentical {
				ident = 1
			}
			res.Add("zero_divergence", zero, "")
			res.Add("byte_identical", ident, "")
			res.Add("recorded_windows", float64(div.RecordedWindows), "")
			res.Add("replayed_windows", float64(div.ReplayedWindows), "")
			res.Add("divergent_windows", float64(div.DivergentWindows), "")
			res.Add("first_divergent_window", float64(div.FirstDivergentWindow), "")
			res.Add("max_cell_delta", float64(div.MaxCellDelta), "")
			res.Add("max_drop_delta", float64(div.MaxDropDelta), "")
			res.Add("replayed_delivered_cells", float64(outc.Delivered), "")
			res.Text = engine.Textf("trace/replay: %s\n", div)
			return res, nil
		},
	})
}

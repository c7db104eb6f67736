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
	"slices"
	"strings"

	"stardust/internal/distsim"
	"stardust/internal/engine"
	"stardust/internal/telemetry"
)

// traceSpec assembles the recording spec from the scenario parameters.
func traceSpec(c engine.Context) distsim.Spec {
	spec := paramSpec(c, usTime(c.Params.Int("dur_us")))
	spec.Hotspot, spec.FailN = c.Params.Float("hotspot"), c.Params.Int("fail")
	spec.FailAt, spec.HealAt = usTime(c.Params.Int("fail_us")), usTime(c.Params.Int("heal_us"))
	spec.Telem = usTime(c.Params.Int("telem_us"))
	return spec
}

// runRecord produces the stream for spec: in-process goroutine shards, or
// a distributed coordinator when the run was started with -peers. Both
// paths emit through the same telemetry.Emitter, so the bytes agree.
func runRecord(spec distsim.Spec, c engine.Context) ([]byte, distsim.Outcome, error) {
	var buf bytes.Buffer
	var out distsim.Outcome
	var err error
	if c.DistPeers > 0 {
		out, err = serveDist(c, distsim.CoordConfig{Spec: spec, Stream: &buf})
	} else {
		out, err = distsim.Record(spec, &buf)
	}
	return buf.Bytes(), out, err
}

// streamDigest fingerprints a stream for the deterministic text report.
func streamDigest(stream []byte) uint64 {
	h := fnv.New64a()
	h.Write(stream)
	return h.Sum64()
}

// addStreamMetrics emits the deterministic stream identity: shape (its
// records counted), size and content digest — the values the CI
// determinism matrix diffs across {workers}×{shards} and against the
// 2-peer distributed run — and returns the shape for the report.
func addStreamMetrics(res *engine.Result, stream []byte) (windows, events int, err error) {
	r := telemetry.NewReader(bytes.NewReader(stream))
	for {
		w, e, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return 0, 0, fmt.Errorf("recorded stream does not parse: %w", err)
		}
		if w != nil {
			windows++
		}
		if e != nil {
			events++
		}
	}
	d := streamDigest(stream)
	res.Add("stream_bytes", float64(len(stream)), "B")
	res.Add("stream_windows", float64(windows), "")
	res.Add("stream_events", float64(events), "")
	res.Add("stream_digest_lo", float64(uint32(d)), "")
	res.Add("stream_digest_hi", float64(d>>32), "")
	return windows, events, nil
}

// checkPeers is checkSpec, and refuses a count in the peers list above
// the Spec's shards: every peer owns one at least.
func checkPeers(spec func(engine.Context) distsim.Spec) func(engine.Context) error {
	return func(c engine.Context) error {
		np, shards := slices.Max(append([]int{0}, c.Params.Ints("peers")...)), spec(c).Shards
		if err := checkSpec(spec)(c); err != nil || np <= shards {
			return err
		}
		return fmt.Errorf("parameter peers: %d: want <= shards (%d)", np, shards)
	}
}

// traceOverrides assembles the what-if knobs from scenario parameters.
// All default to "keep the recorded value".
func traceOverrides(c engine.Context) distsim.Overrides {
	return distsim.Overrides{
		Shards:    c.Params.Int("replay_shards"),
		K:         c.Params.Int("new_k"),
		Seed:      int64(c.Params.Int("new_seed")),
		Load:      c.Params.Float("new_load"),
		Hotspot:   c.Params.Float("new_hotspot"),
		FailAt:    usTime(c.Params.Int("fail_at_us")),
		HealAt:    usTime(c.Params.Int("heal_at_us")),
		FailLinks: c.Params.Ints("fail_link"),
	}
}

// recordParams declares the recording parameters trace/record and an
// inline trace/replay share.
var recordParams = append(fabricParams("0.5"),
	engine.Int("dur_us", "200", "injection duration in µs"),
	engine.Float("hotspot", "1", "boost factor for the first quarter of the FAs (>1 = skewed matrix)"),
	engine.Int("fail", "0", "seed-chosen links to fail at fail_us (healed at heal_us)"),
	engine.Int("fail_us", "0", "failure instant in µs"),
	engine.Int("heal_us", "0", "heal instant in µs"),
	engine.Int("telem_us", "20", "scrape period in µs (rounded up to whole lookahead windows)"))

func init() {
	engine.Register(engine.Scenario{
		Name: "trace/record",
		Desc: "record a fabric run as a durable STREC1 telemetry stream (byte-identical at any shard/worker/peer count) and run the offline analyzers over it",
		Params: append(slices.Clone(recordParams),
			engine.Path("out", "", "file to write the stream to (empty = in-memory only)"),
			engine.Ints("peers", "", "comma list of peer-process counts to fork and verify stream byte-identity against (each must be <= the shard count)").Min(1)),
		Check: checkPeers(traceSpec),
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
			if out := c.Params.Str("out"); out != "" {
				if err := os.WriteFile(out, stream, 0o644); err != nil {
					return engine.Result{}, err
				}
			}
			var b strings.Builder
			fmt.Fprintf(&b, "trace/record K=%d%s%s: %d windows, %d link events, %d bytes, digest %016x\n",
				spec.K, topoLabel(c), shardLabel(c), windows, events, len(stream), streamDigest(stream))
			fmt.Fprintf(&b, "  %d cells injected, %d delivered, %d dropped; %d analyzer findings (%d critical)\n",
				outc.Injected, outc.Delivered, outc.Drops, len(findings), critical)
			for _, np := range c.Params.Ints("peers") {
				_, dstream, err := forkServe(spec, np)
				if err != nil {
					return engine.Result{}, fmt.Errorf("trace/record: %d peers: %w", np, err)
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
		Params: append(slices.Clone(recordParams),
			engine.Path("in", "", "recorded stream file (empty = record one inline with the k/dur_us/... parameters)"),
			engine.Bool("expect_zero", "false", "true fails the run unless the replay reports zero divergence"),
			engine.Int("replay_shards", "0", "shard count for the replay execution (0 = recorded); never affects the divergence"),
			engine.Ints("fail_link", "", "topology links to fail during the replay (comma list) — the what-if knob"),
			engine.Int("fail_at_us", "0", "what-if failure instant in µs (0 = a quarter into the run)"),
			engine.Int("heal_at_us", "0", "what-if heal instant in µs (0 = never)"),
			engine.Int("new_k", "0", "override the fabric K (0 = recorded)"),
			engine.Int("new_seed", "0", "override the traffic seed (0 = recorded)"),
			engine.Float("new_load", "0", "override the offered load (0 = recorded)"),
			engine.Float("new_hotspot", "0", "override the hotspot factor (0 = recorded)")),
		Check: func(c engine.Context) error {
			if c.Params.Str("in") != "" {
				// The Spec is in the recorded stream; Replay's NewModel checks it.
				return checkShards(c, effectiveTopo)
			}
			return checkSpec(traceSpec)(c)
		},
		Run: func(c engine.Context) (engine.Result, error) {
			var stream []byte
			if in := c.Params.Str("in"); in != "" {
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
			div, outc, _, err := distsim.Replay(stream, traceOverrides(c))
			if err != nil {
				return engine.Result{}, err
			}
			if c.Params.Bool("expect_zero") && !div.Zero {
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

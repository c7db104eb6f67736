package scenarios

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"stardust/internal/distsim"
	"stardust/internal/engine"
)

// TestMain routes forked peer children into the peer loop: the
// fabric/distscale scenario re-executes the current binary — this test
// binary, when run under go test — with STARDUST_PEER_JOIN set.
func TestMain(m *testing.M) {
	distsim.MaybeRunPeer()
	os.Exit(m.Run())
}

// The scenario set the README's command lines and CI rely on.
var wantScenarios = []string{
	"htsim/permutation", "htsim/fct", "htsim/incast", "htsim/parperm",
	"fabric/fig9", "fabric/pushpull", "fabric/recovery",
	"fabric/linkload", "fabric/failures",
	"fabric/parscale", "fabric/parheal", "fabric/distscale",
	"trace/record", "trace/replay",
	"system/arista",
	"pack/fig8a", "pack/fig8b",
	"scaling/fig2", "scaling/table2", "scaling/fig3",
	"scaling/fig10d", "scaling/fig11", "scaling/appendixE",
}

func TestRegistryComplete(t *testing.T) {
	for _, name := range wantScenarios {
		sc, err := engine.Lookup(name)
		if err != nil {
			t.Errorf("missing scenario %s: %v", name, err)
			continue
		}
		if sc.Desc == "" {
			t.Errorf("%s has no description", name)
		}
	}
}

func runBytes(t *testing.T, opts engine.Options, jobs []engine.Job) []byte {
	t.Helper()
	var buf bytes.Buffer
	opts.Out = &buf
	if _, err := engine.Run(opts, jobs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The acceptance-critical guarantee: running the same scenarios with the
// same seed twice — and at different worker counts — yields byte-identical
// output, even though instances share the global packet free list.
func TestScenarioDeterminism(t *testing.T) {
	jobs := []engine.Job{
		{Scenario: "fabric/pushpull"},
		{Scenario: "htsim/permutation", Params: engine.Params{"k": "4", "dur_ms": "3", "warmup_ms": "2"}},
		{Scenario: "scaling/appendixE"},
	}
	for _, format := range []string{"text", "json", "csv"} {
		a := runBytes(t, engine.Options{Workers: 1, Seed: 1, Format: format}, jobs)
		b := runBytes(t, engine.Options{Workers: 4, Seed: 1, Format: format}, jobs)
		if !bytes.Equal(a, b) {
			t.Fatalf("format %s: workers=1 vs workers=4 outputs differ:\n%s\n----\n%s", format, a, b)
		}
		c := runBytes(t, engine.Options{Workers: 4, Seed: 1, Format: format}, jobs)
		if !bytes.Equal(b, c) {
			t.Fatalf("format %s: repeated run differs", format)
		}
	}
}

// The sharded-engine acceptance criterion: the same seed must produce a
// byte-identical result stream for shards ∈ {1, 2, 4}, at any worker
// count, across every output format. The parscale/parheal digests cover
// the full per-link counter state, so this is not merely an aggregate
// comparison.
func TestShardedScenarioDeterminism(t *testing.T) {
	jobs := []engine.Job{
		{Scenario: "fabric/parscale", Params: engine.Params{"k": "4", "dur_ms": "2"}},
		// fail at 1ms, heal at 2ms: the outage must span real windows so
		// the dead-link/withdrawal paths are part of what is compared.
		{Scenario: "fabric/parheal", Params: engine.Params{"k": "4", "dur_ms": "3", "fail_ms": "1", "heal_ms": "2"}},
	}
	for _, format := range []string{"text", "json", "csv"} {
		ref := runBytes(t, engine.Options{Workers: 1, Shards: 1, Seed: 1, Format: format}, jobs)
		for _, workers := range []int{1, 4} {
			for _, shards := range []int{1, 2, 4} {
				got := runBytes(t, engine.Options{Workers: workers, Shards: shards, Seed: 1, Format: format}, jobs)
				if !bytes.Equal(got, ref) {
					t.Fatalf("workers=%d shards=%d format=%s diverged from the 1x1 reference:\n%s\n----\n%s",
						workers, shards, format, got, ref)
				}
			}
		}
	}

	// The end-to-end transport jobs are an order of magnitude heavier
	// (full TCP flows), so they cover the same workers×shards grid in one
	// format — the per-format emission machinery is already exercised
	// above, and CI's determinism matrix diffs the CLI output too.
	tjobs := []engine.Job{
		// TCP over the sharded Stardust substrate, full digest of the
		// delivered-byte vector.
		{Scenario: "htsim/parperm", Params: engine.Params{"k": "4", "dur_ms": "3", "warmup_ms": "1"}},
		// And the regular Fig 10(a) scenario in fabric=true mode, which
		// routes through the same sharded transport under the -shards flag.
		{Scenario: "htsim/permutation", Params: engine.Params{
			"k": "4", "dur_ms": "3", "warmup_ms": "2", "proto": "Stardust", "fabric": "true"}},
	}
	ref := runBytes(t, engine.Options{Workers: 1, Shards: 1, Seed: 1, Format: "json"}, tjobs)
	for _, workers := range []int{1, 4} {
		for _, shards := range []int{1, 2, 4} {
			if workers == 1 && shards == 1 {
				continue
			}
			got := runBytes(t, engine.Options{Workers: workers, Shards: shards, Seed: 1, Format: "json"}, tjobs)
			if !bytes.Equal(got, ref) {
				t.Fatalf("transport workers=%d shards=%d diverged from the 1x1 reference:\n%s\n----\n%s",
					workers, shards, got, ref)
			}
		}
	}
}

// The telemetry-pipeline acceptance criteria at the scenario layer: the
// recorded stream (identified by its digest in the output) must be
// byte-identical across {workers}×{shards}, and an unchanged replay must
// report zero divergence — expect_zero=true makes the scenario itself
// fail otherwise.
func TestTraceScenarioDeterminism(t *testing.T) {
	jobs := []engine.Job{
		{Scenario: "trace/record", Params: engine.Params{
			"dur_us": "150", "fail": "1", "fail_us": "60", "heal_us": "100"}},
		{Scenario: "trace/replay", Params: engine.Params{
			"dur_us": "150", "expect_zero": "true"}},
	}
	ref := runBytes(t, engine.Options{Workers: 1, Shards: 1, Seed: 1, Format: "json"}, jobs)
	for _, workers := range []int{1, 4} {
		for _, shards := range []int{1, 2, 4} {
			if workers == 1 && shards == 1 {
				continue
			}
			got := runBytes(t, engine.Options{Workers: workers, Shards: shards, Seed: 1, Format: "json"}, jobs)
			if !bytes.Equal(got, ref) {
				t.Fatalf("trace workers=%d shards=%d diverged from the 1x1 reference:\n%s\n----\n%s",
					workers, shards, got, ref)
			}
		}
	}
}

// Record to a file, replay it unchanged (zero divergence required), then
// replay with a what-if link failure and require real divergence.
func TestTraceReplayWhatIf(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.strec")
	if _, err := engine.Run(engine.Options{Seed: 3}, []engine.Job{{
		Scenario: "trace/record",
		Params:   engine.Params{"dur_us": "200", "out": out},
	}}); err != nil {
		t.Fatal(err)
	}
	metric := func(rs []engine.RunResult, name string) float64 {
		t.Helper()
		for _, m := range rs[0].Result.Metrics {
			if m.Name == name {
				return m.Value
			}
		}
		t.Fatalf("metric %s missing", name)
		return 0
	}
	rs, err := engine.Run(engine.Options{Seed: 3}, []engine.Job{{
		Scenario: "trace/replay",
		Params:   engine.Params{"in": out, "expect_zero": "true"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if metric(rs, "byte_identical") != 1 {
		t.Fatalf("unchanged replay not byte-identical: %s", rs[0].Result.Text)
	}
	rs, err = engine.Run(engine.Options{Seed: 3}, []engine.Job{{
		Scenario: "trace/replay",
		Params:   engine.Params{"in": out, "fail_link": "0", "fail_at_us": "50"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if metric(rs, "zero_divergence") != 0 || metric(rs, "divergent_windows") == 0 {
		t.Fatalf("what-if link failure reported no divergence: %s", rs[0].Result.Text)
	}
}

// The 2-peer distributed recording must produce the same stream bytes as
// the in-process run — asserted inside trace/record via the peers param,
// which forks real peer processes.
func TestTraceDistRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: forks peer processes")
	}
	got := runBytes(t, engine.Options{Seed: 7, Format: "text"}, []engine.Job{{
		Scenario: "trace/record",
		Params:   engine.Params{"shards": "2", "dur_us": "150", "peers": "2"},
	}})
	if !strings.Contains(string(got), "2 peer processes: stream byte-identical") {
		t.Fatalf("trace/record missing 2-peer verification line:\n%s", got)
	}
}

// A different seed must actually change a randomized experiment.
func TestScenarioSeedMatters(t *testing.T) {
	jobs := []engine.Job{{Scenario: "htsim/permutation",
		Params: engine.Params{"k": "4", "dur_ms": "3", "warmup_ms": "2", "proto": "Stardust"}}}
	a := runBytes(t, engine.Options{Seed: 1, Format: "json"}, jobs)
	b := runBytes(t, engine.Options{Seed: 2, Format: "json"}, jobs)
	if bytes.Equal(a, b) {
		t.Fatal("seeds 1 and 2 produced identical permutation results")
	}
}

// Analytic scenarios are cheap; exercise every one end to end.
func TestAnalyticScenariosRun(t *testing.T) {
	jobs := []engine.Job{
		{Scenario: "scaling/fig2"},
		{Scenario: "scaling/table2"},
		{Scenario: "scaling/fig3"},
		{Scenario: "scaling/fig10d"},
		{Scenario: "scaling/fig11"},
		{Scenario: "scaling/appendixE"},
		{Scenario: "pack/fig8a"},
		{Scenario: "pack/fig8b"},
	}
	results, err := engine.Run(engine.Options{Workers: 2}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Result.Text == "" {
			t.Errorf("%s produced no text", r.Name)
		}
	}
}

func TestFabricFig9Variants(t *testing.T) {
	results, err := engine.Run(engine.Options{Workers: 2}, []engine.Job{{
		Scenario: "fabric/fig9",
		Params:   engine.Params{"scale": "8", "utils": "0.66,0.8"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d instances, want 2 (one per utilization)", len(results))
	}
	for _, r := range results {
		if r.Result.Metrics[0].Name != "lat_p50_us" {
			t.Fatalf("unexpected first metric %q", r.Result.Metrics[0].Name)
		}
	}
}

func TestSystemAristaVariant(t *testing.T) {
	results, err := engine.Run(engine.Options{}, []engine.Job{{
		Scenario: "system/arista",
		Params:   engine.Params{"sizes": "384", "dur_us": "50"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("got %d instances", len(results))
	}
	var lineRate float64
	for _, m := range results[0].Result.Metrics {
		if m.Name == "line_rate_pct" {
			lineRate = m.Value
		}
	}
	if lineRate < 90 {
		t.Fatalf("384B below line rate: %v", lineRate)
	}
}

// Every registered scenario must document every parameter it accepts:
// the -list output and the stardustd scenario API both promise a full
// table, so an undocumented knob is a regression.
// TestDistscaleScenario exercises the full distributed path from the
// scenario layer: fork two real peer processes, serve the run over TCP,
// and require the byte-identical verdict in the report.
func TestDistscaleScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: forks peer processes")
	}
	out := runBytes(t, engine.Options{Seed: 7, Format: "text"}, []engine.Job{{
		Scenario: "fabric/distscale",
		Params:   engine.Params{"peers": "2", "dur_ms": "1"},
	}})
	if !strings.Contains(string(out), "2 peer processes: byte-identical") {
		t.Fatalf("distscale report missing verification line:\n%s", out)
	}
}

func TestAllParamsDocumented(t *testing.T) {
	for _, sc := range engine.List() {
		if strings.HasPrefix(sc.Name, "test/") {
			continue
		}
		for _, d := range sc.ParamDocs() {
			if d.Desc == "" {
				t.Errorf("%s: parameter %q (default %q) has no doc string", sc.Name, d.Key, d.Default)
			}
		}
	}
}

// A parameter must never again exist without being reachable: for every
// registered scenario, its name followed by key=default for each declared
// key parses into one job that requests exactly the defaults and that
// the engine accepts.
func TestEveryParamReachableFromCommandLine(t *testing.T) {
	params := 0
	for _, sc := range engine.List() {
		args := []string{sc.Name}
		for _, d := range sc.ParamDocs() {
			args = append(args, d.Key+"="+d.Default)
		}
		jobs, err := engine.ParseArgs(args)
		if err != nil || len(jobs) != 1 || jobs[0].Scenario != sc.Name {
			t.Errorf("%v: jobs %v, err %v", args, jobs, err)
			continue
		}
		got := jobs[0].Params
		if _, err := engine.Resolve(sc.Name, got); err != nil {
			t.Errorf("%v: %v", args, err)
		}
		if len(got) != len(sc.Defaults) {
			t.Errorf("%s: %d of %d parameters parsed", sc.Name, len(got), len(sc.Defaults))
		}
		for k, v := range sc.Defaults {
			if g, ok := got[k]; !ok || g != v {
				t.Errorf("%s: %s parsed as %q (present %v), want %q", sc.Name, k, g, ok, v)
			}
		}
		params += len(sc.Defaults)
	}
	t.Logf("%d scenarios, %d parameters", len(engine.List()), params)
}

// A topology sweep may mix family names with full spec strings, whose own
// commas must not split them.
func TestSplitTopos(t *testing.T) {
	for in, want := range map[string][]string{
		"":                                   nil,
		"clos, star":                         {"clos", "star"},
		"sshuffle:n=32,s=2,seed=1":           {"sshuffle:n=32,s=2,seed=1"},
		"clos,sshuffle:n=32,s=2,seed=1,star": {"clos", "sshuffle:n=32,s=2,seed=1", "star"},
		"clos:k=4,clos:k=8":                  {"clos:k=4", "clos:k=8"},
	} {
		if got := splitTopos(in); !reflect.DeepEqual(got, want) {
			t.Errorf("splitTopos(%q) = %q, want %q", in, got, want)
		}
	}
}

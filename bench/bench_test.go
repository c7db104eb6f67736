package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"stardust/internal/distsim"
	"stardust/internal/mgmt"
	"stardust/internal/telemetry"
)

var tinyPasses = map[string]Result{}

// tinyPass runs one pass of a workload at test scale (two timed
// repetitions, no time budget), once per test binary.
func tinyPass(name string, trace bool) Result {
	key := fmt.Sprint(name, trace)
	if res, ok := tinyPasses[key]; ok {
		return res
	}
	res := runPass(passConfig{
		workload: name, trace: trace, started: time.Now(), reps: 2, probeRuns: 1,
		build: func() (workload, error) { return newWorkload(name, tinySizes, 1) },
	})
	tinyPasses[key] = res
	return res
}

func metricNames(defs []MetricDef) map[string]bool {
	names := make(map[string]bool, len(defs))
	for _, d := range defs {
		names[d.Name] = true
	}
	return names
}

// Every workload passes its own correctness checks at a tiny scale, and
// each pass emits exactly the metric names BENCHMARK.json lists for it.
func TestWorkloadsPassTheirChecks(t *testing.T) {
	for _, def := range workloadDefs {
		for _, trace := range []bool{false, true} {
			res := tinyPass(def.Name, trace)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d errors=%v",
					def.Name, trace, res.Correct, res.Attempted, res.Failed, res.Errors)
				continue
			}
			want := metricNames(endToEndDefs)
			if trace {
				want = metricNames(perLayerDefs)
			}
			for name := range res.Metrics {
				if !want[name] {
					t.Errorf("%s trace=%v emits %q, which BENCHMARK.json does not list", def.Name, trace, name)
				}
				delete(want, name)
			}
			for name := range want {
				t.Errorf("%s trace=%v does not emit %q", def.Name, trace, name)
			}
			if !trace {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", def.Name, name, m.Value)
					}
				}
			}
		}
	}
}

// The layers the workloads are meant to separate do separate.
func TestWorkloadsSeparateLayers(t *testing.T) {
	solo, sharded := tinyPass("clos_solo", true), tinyPass("clos_sharded", true)
	if a, b := solo.Metrics["sim.events"].Value, sharded.Metrics["sim.events"].Value; a != b || a == 0 {
		t.Errorf("sim.events: clos_solo %v, clos_sharded %v; want equal and non-zero", a, b)
	}
	if solo.Digest != sharded.Digest {
		t.Errorf("digest: clos_solo %s, clos_sharded %s", solo.Digest, sharded.Digest)
	}
	if v := solo.Metrics["parsim.overhead_share"].Value; v != 0 {
		t.Errorf("clos_solo reports parsim.overhead_share = %v", v)
	}
	graph := tinyPass("graph_record_replay", true)
	if graph.Metrics["telemetry.windows"].Value == 0 || solo.Metrics["telemetry.windows"].Value != 0 {
		t.Errorf("telemetry.windows: graph_record_replay %v, clos_solo %v",
			graph.Metrics["telemetry.windows"].Value, solo.Metrics["telemetry.windows"].Value)
	}
	for _, r := range []Result{solo, graph} {
		if r.Metrics["fabric.ns_per_cell_hop"].Value <= 0 {
			t.Errorf("%s does not report fabric.ns_per_cell_hop", r.Workload)
		}
	}
	hit := tinyPass("serve_ring_hit", true)
	if v := hit.Metrics["cluster.forwards"].Value; v != 0 {
		t.Errorf("serve_ring_hit forwarded %v requests", v)
	}
	if v := tinyPass("serve_ring_submit", true).Metrics["cluster.forwards"].Value; v == 0 {
		t.Error("serve_ring_submit forwarded nothing")
	}
}

// stubWorkload repeats canned repetitions.
type stubWorkload struct {
	reps      []rep
	next      int
	verifyErr error
}

func (s *stubWorkload) Rep(*Recorder, int) rep {
	r := s.reps[min(s.next, len(s.reps)-1)]
	s.next++
	return r
}
func (s *stubWorkload) Verify(rep) error { return s.verifyErr }
func (s *stubWorkload) Layers(*Recorder, []rep) (map[string]float64, error) {
	return map[string]float64{}, nil
}
func (s *stubWorkload) Close() {}

func stubPass(s *stubWorkload) Result {
	return runPass(passConfig{workload: "stub", started: time.Now(), reps: 3, probeRuns: 1,
		build: func() (workload, error) { return s, nil }})
}

func TestWrongDigestFailsTheRun(t *testing.T) {
	good := rep{Wall: 1, Units: 1, Ops: 1, Digest: 7}
	if res := stubPass(&stubWorkload{reps: []rep{good}}); !res.Correct {
		t.Fatalf("identical digests rejected: %v", res.Errors)
	}
	bad := good
	bad.Digest = 8
	res := stubPass(&stubWorkload{reps: []rep{good, good, good, bad}}) // warm-up, 1, 2, then the odd one
	if res.Correct || res.Failed == 0 {
		t.Fatalf("a repetition with a different digest passed: %+v", res)
	}
	if !strings.Contains(strings.Join(res.Errors, "\n"), "digest") {
		t.Errorf("errors do not name the digest: %v", res.Errors)
	}
}

func TestFailedReferenceCheckFailsTheRun(t *testing.T) {
	good := rep{Wall: 1, Units: 1, Ops: 1, Digest: 7}
	res := stubPass(&stubWorkload{reps: []rep{good}, verifyErr: os.ErrInvalid})
	if res.Correct || res.Failed != 1 {
		t.Fatalf("failed Verify did not fail the run: %+v", res)
	}
}

func TestOutcomeChecks(t *testing.T) {
	r := rep{Ops: 1}
	checkOutcome(&r, "ok", distsim.Outcome{Injected: 10, Delivered: 10})
	if r.Failed != 0 {
		t.Fatalf("conserving outcome rejected: %v", r.Err)
	}
	for name, out := range map[string]distsim.Outcome{
		"leak":  {Injected: 10, Delivered: 9},
		"drops": {Injected: 10, Delivered: 9, Drops: 1},
		"empty": {},
	} {
		r := rep{Ops: 1}
		checkOutcome(&r, name, out)
		if r.Failed != 1 || r.Err == nil {
			t.Errorf("%s: outcome %+v passed", name, out)
		}
	}
}

func TestNonIdenticalReplayFails(t *testing.T) {
	w := newGraphWorkload(tinySizes, 1)
	var stream bytes.Buffer
	if _, err := distsim.Record(w.spec, &stream); err != nil {
		t.Fatal(err)
	}
	div, _, twin, err := distsim.Replay(stream.Bytes(), distsim.Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	r := rep{Ops: 1}
	checkReplay(&r, stream.Bytes(), twin, div)
	if r.Failed != 0 {
		t.Fatalf("unchanged replay rejected: %v", r.Err)
	}
	tampered := append([]byte(nil), twin...)
	tampered[len(tampered)-1] ^= 0xff
	r = rep{Ops: 1}
	checkReplay(&r, stream.Bytes(), tampered, div)
	if r.Failed != 1 {
		t.Error("replayed stream with a flipped byte passed")
	}
	r = rep{Ops: 1}
	checkReplay(&r, stream.Bytes(), twin, &telemetry.Divergence{DivergentWindows: 1, FirstDivergentWindow: 3})
	if r.Failed != 1 {
		t.Error("divergent replay passed")
	}
}

func TestNon2xxResponseFails(t *testing.T) {
	rg, err := newRing()
	if err != nil {
		t.Fatal(err)
	}
	defer rg.Close()
	if o := rg.submit(nil, 0, 0, 1, mgmt.RunRequest{Scenario: serveScenario, Seed: 5}); o.err != nil || o.bad != 0 {
		t.Fatalf("good submission failed: %+v", o)
	}
	o := rg.submit(nil, 0, 0, 1, mgmt.RunRequest{Scenario: "no/such-scenario", Seed: 5})
	if o.err == nil || o.bad != 1 {
		t.Fatalf("a 400 answer was not counted as a failed operation: %+v", o)
	}
	if err := rg.checkEverywhere(mgmt.RunRequest{Scenario: serveScenario, Seed: 6}); err == nil {
		t.Error("a key no node holds passed the every-node byte check")
	}
}

func TestSelfTime(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "rep", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "build", StartNs: 10, EndNs: 30},
		{ID: 3, Parent: 1, Name: "client0", StartNs: 40, EndNs: 70},
		{ID: 4, Parent: 1, Name: "client1", StartNs: 60, EndNs: 90}, // overlaps client0
		{ID: 5, Parent: 3, Name: "request", StartNs: 45, EndNs: 50}, // grandchild: not rep's
		{ID: 6, Parent: 1, Name: "late", StartNs: 95, EndNs: 120},   // runs past its parent
		{ID: 7, Parent: 1, Name: "inside", StartNs: 65, EndNs: 68},  // wholly covered already
		{ID: 8, Name: "probe", StartNs: 200, EndNs: 260},            // another root
		{ID: 9, Parent: 8, Name: "exact", StartNs: 200, EndNs: 260}, // covers its parent entirely
		{ID: 10, Parent: 2, Name: "before", StartNs: 0, EndNs: 15},  // starts before its parent
		{ID: 11, Parent: 2, Name: "disjoint", StartNs: 20, EndNs: 25},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{
		1:  100 - (20 + 50 + 5), // build 20, clients' union [40,90] 50, late clipped to [95,100] 5
		2:  20 - (5 + 5),        // [10,15] of "before", [20,25]
		3:  30 - 5,
		4:  30,
		8:  0,
		9:  60,
		11: 5,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestQuantiles(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	if m := median(v); m != 3 {
		t.Errorf("median = %v", m)
	}
	if m := median([]float64{1, 2, 3, 4}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if q := quantile(v, 1); q != 5 {
		t.Errorf("max = %v", q)
	}
	if v[0] != 5 {
		t.Error("quantile reordered its input")
	}
	if s := summarize(v, "s"); s.Value != 3 || s.Min != 1 || s.Max != 5 || s.N != 5 {
		t.Errorf("summarize = %+v", s)
	}
}

var (
	namePat = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitPat = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// The committed BENCHMARK.json is the one spec.go generates, and stays
// inside the limits the benchmark driver enforces.
func TestBenchmarkJSON(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from `go run ./bench -spec`; regenerate it")
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(got))
	}
	var doc struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []WorkloadDef `json:"workloads"`
		EndToEnd   []MetricDef   `json:"end_to_end"`
		PerLayer   []MetricDef   `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(got))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if n := len(doc.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(doc.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(doc.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	// 4 + 22 x workloads runs, each with its set-up, inside 3420 s.
	runs := 4 + 22*len(doc.Workloads)
	if perRun := 3420 / float64(runs); perRun < float64(doc.RunSeconds)+8 {
		t.Errorf("%d runs of %d s leave %.1f s per run for set-up, checks and the builds", runs, doc.RunSeconds, perRun-float64(doc.RunSeconds))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !namePat.MatchString(n) {
			t.Errorf("name %q is not made of at most 64 letters, digits, _ . -", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range doc.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range append(append([]MetricDef(nil), doc.EndToEnd...), doc.PerLayer...) {
		name(m.Name)
		if !unitPat.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != lower && m.Better != higher {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	for _, m := range doc.EndToEnd {
		if m.Bound <= 0 {
			t.Errorf("end-to-end metric %s has no bound", m.Name)
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

func TestCompare(t *testing.T) {
	mk := func(scale float64, failed int) *File {
		f := &File{Host: Host{NumCPU: 2, CPUModel: "test", GoVersion: "go"}}
		for _, w := range workloadDefs {
			m := map[string]Summary{}
			for _, d := range endToEndDefs {
				v := 100.0
				if d.Name == "wall_s" {
					v *= scale
				}
				if d.Name == "work_per_s" {
					v /= scale
				}
				m[d.Name] = Summary{Value: v, Unit: d.Unit}
			}
			f.Results = append(f.Results, Result{Workload: w.Name, Correct: failed == 0, Attempted: 10, Failed: failed, Metrics: m})
			f.Results = append(f.Results, Result{Workload: w.Name, Trace: true, Correct: true, Attempted: 10,
				Metrics: map[string]Summary{"sim.events": {Value: 1000 * scale, Unit: "count"}}})
		}
		return f
	}
	dir := t.TempDir()
	write := func(name string, f *File) string {
		blob, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", mk(1, 0))
	for _, tc := range []struct {
		name  string
		f     *File
		ok    bool
		wants []string
	}{
		{"same", mk(1, 0), true, nil},
		{"within", mk(1.05, 0), true, []string{"count sim.events differs"}},
		{"faster", mk(0.5, 0), true, nil},
		{"slower", mk(1.5, 0), false, []string{"wall_s", "OUT OF BOUND"}},
		{"failing", mk(1, 1), false, []string{"ops_failed rose"}},
	} {
		var out bytes.Buffer
		ok, err := compareFiles(&out, base, write(tc.name+".json", tc.f))
		if err != nil {
			t.Fatal(err)
		}
		if ok != tc.ok {
			t.Errorf("%s: ok = %v, want %v\n%s", tc.name, ok, tc.ok, out.String())
		}
		for _, want := range tc.wants {
			if !strings.Contains(out.String(), want) {
				t.Errorf("%s: output lacks %q\n%s", tc.name, want, out.String())
			}
		}
	}
}

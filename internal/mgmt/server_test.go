package mgmt

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"stardust/internal/engine"
	_ "stardust/internal/scenarios" // the real registry: fabric/parscale in TestSubmitRejectsUndeclaredParam
	"stardust/internal/sim"
)

func init() {
	// A tiny deterministic scenario for daemon tests: fast, seeded, with
	// a sweep so progress has multiple instances to report.
	engine.Register(engine.Scenario{
		Name: "mgmttest/echo",
		Desc: "daemon test scenario",
		Params: []engine.Param{
			engine.Int("x", "1", "the echoed value"),
			engine.Ints("points", "0,1", "sweep points, one instance each").Each("point"),
		},
		Run: func(c engine.Context) (engine.Result, error) {
			// Any int arrives here (FuzzRunBodies); a negative x panics,
			// which the engine has to turn into a failed job.
			if c.Params.Int("x") < 0 {
				panic("mgmttest/echo: negative x")
			}
			var r engine.Result
			point := c.Params.Int("point")
			r.Add("x", float64(c.Params.Int("x")), "")
			r.Add("point", float64(point), "")
			r.Add("seed", float64(c.Seed), "")
			r.Text = engine.Textf("x=%d point=%d seed=%d\n", c.Params.Int("x"), point, c.Seed)
			return r, nil
		},
	})
	engine.Register(engine.Scenario{
		Name: "mgmttest/fail",
		Desc: "always fails",
		Run: func(c engine.Context) (engine.Result, error) {
			return engine.Result{}, fmt.Errorf("boom")
		},
	})
}

func newTestDaemon(t *testing.T, withFabric bool) (*httptest.Server, *RunQueue, *FabricRun) {
	t.Helper()
	q := NewRunQueue(8, 2, 1)
	t.Cleanup(q.Shutdown)
	var fr *FabricRun
	if withFabric {
		var err error
		fr, err = NewFabricRun(FabricRunConfig{
			K: 4, Load: 0.2, FailEvery: 2 * sim.Millisecond, HealAfter: sim.Millisecond,
			ScrapeEvery: 500 * sim.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(NewServer(q, fr))
	t.Cleanup(ts.Close)
	return ts, q, fr
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp
}

func postJSON(t *testing.T, url string, body any, v any) *http.Response {
	t.Helper()
	blob, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("POST %s: %v", url, err)
		}
	}
	return resp
}

func fetchResult(t *testing.T, ts *httptest.Server, q *RunQueue, id string) []byte {
	t.Helper()
	if j, ok := q.Wait(id, 10*time.Second); !ok || j.State != JobDone {
		t.Fatalf("job %s did not finish: %+v", id, j)
	}
	resp, err := http.Get(ts.URL + "/api/v1/runs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status %d", resp.StatusCode)
	}
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// The acceptance test: the same scenario submitted twice concurrently
// over HTTP coalesces onto one job through the content-addressed cache,
// and both submissions observe byte-identical result bytes.
func TestConcurrentDuplicateSubmitServedFromCache(t *testing.T) {
	ts, q, _ := newTestDaemon(t, false)
	req := RunRequest{Scenario: "mgmttest/echo", Params: engine.Params{"x": "42", "points": "0,1,2"}, Seed: 7}

	var wg sync.WaitGroup
	jobs := make([]Job, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			postJSON(t, ts.URL+"/api/v1/runs", req, &jobs[i])
		}()
	}
	wg.Wait()

	if jobs[0].ID != jobs[1].ID {
		t.Fatalf("concurrent identical submissions got different jobs: %s vs %s", jobs[0].ID, jobs[1].ID)
	}
	if jobs[0].Cached == jobs[1].Cached {
		t.Fatalf("exactly one submission should be the cache hit: %v vs %v", jobs[0].Cached, jobs[1].Cached)
	}
	out1 := fetchResult(t, ts, q, jobs[0].ID)
	out2 := fetchResult(t, ts, q, jobs[1].ID)
	if !bytes.Equal(out1, out2) {
		t.Fatal("cached result bytes differ")
	}
	if len(out1) == 0 || !strings.Contains(string(out1), "mgmttest/echo") {
		t.Fatalf("result looks wrong: %q", out1)
	}
	if hits := q.Stats().CacheHits; hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}

	// A later identical submission hits the cache too — and its result is
	// still byte-identical.
	var again Job
	resp := postJSON(t, ts.URL+"/api/v1/runs", req, &again)
	if resp.StatusCode != http.StatusOK || !again.Cached || again.ID != jobs[0].ID {
		t.Fatalf("sequential duplicate not served from cache: %d %+v", resp.StatusCode, again)
	}
	if !bytes.Equal(fetchResult(t, ts, q, again.ID), out1) {
		t.Fatal("sequential duplicate bytes differ")
	}
	// A different seed is a different address.
	other := req
	other.Seed = 8
	var fresh Job
	postJSON(t, ts.URL+"/api/v1/runs", other, &fresh)
	if fresh.Cached || fresh.ID == jobs[0].ID {
		t.Fatalf("different seed coalesced: %+v", fresh)
	}
}

func TestSubmitValidationAndBoundedQueue(t *testing.T) {
	ts, _, _ := newTestDaemon(t, false)
	resp := postJSON(t, ts.URL+"/api/v1/runs", RunRequest{Scenario: "no/such"}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown scenario gave %d", resp.StatusCode)
	}

	// Saturate a tiny queue directly (no HTTP, to control capacity).
	q2 := NewRunQueue(1, 1, 1)
	defer q2.Shutdown()
	// Occupy the single worker and the single queue slot with distinct
	// requests (different seeds -> different cache keys).
	for i := 0; ; i++ {
		_, _, err := q2.Submit(RunRequest{Scenario: "mgmttest/echo", Seed: int64(i + 100)}, "test")
		if errors.Is(err, ErrQueueFull) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if i > 16 {
			t.Fatal("queue never filled")
		}
	}
	if q2.Stats().Rejected == 0 {
		t.Fatal("rejections not counted")
	}
}

// untouchedRing is a Cluster that fails the test when the server
// consults it.
type untouchedRing struct{ t *testing.T }

func (c untouchedRing) Owner(string) (string, bool) {
	c.t.Error("ring owner looked up")
	return "", true
}

func (c untouchedRing) ForwardSubmit(context.Context, RunRequest, string) (*ForwardResult, error) {
	c.t.Error("submission forwarded")
	return nil, ErrPlaceLocal
}

func (c untouchedRing) FetchResult(context.Context, string) ([]byte, string, error) {
	c.t.Error("result fetched")
	return nil, "", errors.New("untouchedRing")
}

func (c untouchedRing) Info() any { return nil }

// A parameter the scenario does not declare used to run the defaults (the
// typed accessors fall back), answer 202 and cache the bytes under a
// second content address. It is a 400 naming the accepted keys, and it
// leaves no job, no cache key and no ring forward behind.
func TestSubmitRejectsUndeclaredParam(t *testing.T) {
	q := NewRunQueue(8, 1, 1)
	defer q.Shutdown()
	s := NewServer(q, nil)
	s.SetCluster(untouchedRing{t})
	ts := httptest.NewServer(s)
	defer ts.Close()

	for _, tc := range []struct {
		req          RunRequest
		key, accepts string
	}{
		{RunRequest{Scenario: "mgmttest/echo", Params: engine.Params{"xx": "8"}}, `"xx"`, "accepts points, x"},
		// A parameter that was removed (PR 23) is undeclared like any other.
		{RunRequest{Scenario: "fabric/parscale", Params: engine.Params{"rebalance": "true"}}, `"rebalance"`, "hotspot, k, load"},
		// A declared parameter with a value no run could accept is refused
		// the same way: this one used to get the daemon killed.
		{RunRequest{Scenario: "fabric/parscale", Params: engine.Params{"k": "4", "shards": "100000"}}, "100000 shards", "must be in [1, 16]"},
		{RunRequest{Scenario: "htsim/parperm", Params: engine.Params{"k": "4", "shards": "-1"}}, "-1 shards", "must be in [1, 16]"},
		// So is a Spec the model cannot simulate: a 0-byte cell used to run
		// with link counters that never moved.
		{RunRequest{Scenario: "fabric/parscale", Params: engine.Params{"k": "4", "cell": "0"}}, "cell 0 bytes", "must be in [1, 262144]"},
		// And a value that does not parse as its key's kind: k=abc used to
		// run, and cache, the K=4 default.
		{RunRequest{Scenario: "fabric/parscale", Params: engine.Params{"k": "abc"}}, "parameter k=abc", "want an int"},
	} {
		var body map[string]string
		resp := postJSON(t, ts.URL+"/api/v1/runs", tc.req, &body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%v: refused parameter gave %d", tc.req.Params, resp.StatusCode)
		}
		if msg := body["error"]; !strings.Contains(msg, tc.key) || !strings.Contains(msg, tc.accepts) {
			t.Fatalf("error does not name the key and what is accepted: %q", msg)
		}
		if _, _, err := q.Submit(tc.req, "test"); err == nil {
			t.Fatal("RunQueue.Submit accepted a refused parameter")
		}
		if st := q.Stats(); st.Submitted != 0 || len(q.List(10)) != 0 {
			t.Fatalf("refused requests left state behind: %+v, %d jobs", st, len(q.List(10)))
		}
		if _, ok := q.Cached(tc.req.CacheKey()); ok {
			t.Fatal("refused request has a cache entry")
		}
	}
}

func TestFailedJobDoesNotPoisonCache(t *testing.T) {
	_, q, _ := newTestDaemon(t, false)
	// A Run that panics fails its job like a Run that errors, and the
	// worker it ran on lives to take the next job.
	for _, req := range []RunRequest{
		{Scenario: "mgmttest/echo", Params: engine.Params{"x": "-1"}},
		{Scenario: "mgmttest/fail"},
	} {
		j, cached, err := q.Submit(req, "test")
		if err != nil || cached {
			t.Fatalf("submit: %v cached=%v", err, cached)
		}
		done, _ := q.Wait(j.ID, 10*time.Second)
		if done.State != JobFailed || done.Error == "" {
			t.Fatalf("want failed state with error, got %+v", done)
		}
		// Resubmitting after failure re-runs instead of serving the failure.
		j2, cached, err := q.Submit(req, "test")
		if err != nil || cached || j2.ID == j.ID {
			t.Fatalf("failed job pinned the cache: %v cached=%v id=%s", err, cached, j2.ID)
		}
	}
}

func TestScenarioMetadataEndpoint(t *testing.T) {
	ts, _, _ := newTestDaemon(t, false)
	var infos []scenarioInfo
	getJSON(t, ts.URL+"/api/v1/scenarios", &infos)
	byName := make(map[string]scenarioInfo)
	for _, in := range infos {
		byName[in.Name] = in
	}
	in, ok := byName["mgmttest/echo"]
	if !ok {
		t.Fatal("registry endpoint misses mgmttest/echo")
	}
	var sawDoc bool
	for _, p := range in.Params {
		if p.Key == "x" && p.Desc == "the echoed value" && p.Default == "1" && p.Kind == "int" {
			sawDoc = true
		}
	}
	if !sawDoc {
		t.Fatalf("param docs not served: %+v", in.Params)
	}
	// The kind, choices and range come from the one declaration.
	want := map[string]engine.ParamDoc{
		"k":     {Key: "k", Kind: "int", Default: "8", Desc: "fat-tree K (12 = the paper's 432 hosts)", Range: ">= 4, even"},
		"proto": {Key: "proto", Kind: "enum list", Default: "all", Choices: []string{"all", "MPTCP", "DCTCP", "DCQCN", "Stardust"}},
	}
	for _, p := range byName["htsim/permutation"].Params {
		if w, ok := want[p.Key]; ok {
			if p.Kind != w.Kind || p.Default != w.Default || p.Range != w.Range || !slices.Equal(p.Choices, w.Choices) {
				t.Errorf("htsim/permutation serves %+v, want %+v", p, w)
			}
			delete(want, p.Key)
		}
	}
	if len(want) > 0 {
		t.Errorf("htsim/permutation does not serve %v", want)
	}
}

func TestRunProgressStream(t *testing.T) {
	ts, _, _ := newTestDaemon(t, false)
	var job Job
	postJSON(t, ts.URL+"/api/v1/runs", RunRequest{Scenario: "mgmttest/echo", Seed: 11}, &job)
	resp, err := http.Get(ts.URL + "/api/v1/runs/" + job.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body) // stream ends when the job does
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(blob), []byte("\n"))
	if len(lines) < 3 { // running + >=1 instance + done + final snapshot
		t.Fatalf("stream too short: %s", blob)
	}
	var final Job
	if err := json.Unmarshal(lines[len(lines)-1], &final); err != nil {
		t.Fatalf("last stream line is not the job snapshot: %v", err)
	}
	if final.State != JobDone {
		t.Fatalf("stream ended with state %s", final.State)
	}
}

// A live fabric run must expose telemetry, and chaos failures/recoveries
// must show up both on /metrics and on the event API.
func TestFabricEndpointsAndMetrics(t *testing.T) {
	ts, _, fr := newTestDaemon(t, true)
	for i := 0; i < 10; i++ {
		fr.Advance(sim.Millisecond)
	}

	var tel []LinkTelemetry
	getJSON(t, ts.URL+"/api/v1/fabric/telemetry", &tel)
	if len(tel) == 0 {
		t.Fatal("no telemetry rows")
	}
	busy := 0
	for _, row := range tel {
		if row.Last.FwdBytes > 0 {
			busy++
		}
	}
	if busy == 0 {
		t.Fatal("live fabric shows no forwarded bytes")
	}

	var events struct {
		LastSeq uint64  `json:"last_seq"`
		Events  []Event `json:"events"`
	}
	getJSON(t, ts.URL+"/api/v1/fabric/events?since=0", &events)
	var sawDown, sawUp, sawReach bool
	var lastSeq uint64
	for _, e := range events.Events {
		if e.Seq <= lastSeq {
			t.Fatalf("event seq not strictly increasing: %d after %d", e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		switch e.Kind {
		case EventLinkDown:
			sawDown = true
		case EventLinkUp:
			sawUp = true
		case EventReachUpdate:
			sawReach = true
		}
	}
	if !sawDown || !sawUp {
		t.Fatalf("chaos failure/recovery missing from event API (down=%v up=%v)", sawDown, sawUp)
	}
	_ = sawReach // FE1-FE2 chaos picks need no spine withdrawal; FA links publish one

	// Per-link series endpoint.
	var series struct {
		Series []Sample `json:"series"`
	}
	getJSON(t, ts.URL+"/api/v1/fabric/telemetry?link=0&dir=1", &series)
	if len(series.Series) < 2 {
		t.Fatalf("series endpoint returned %d samples", len(series.Series))
	}

	// Inventory endpoint.
	var info struct {
		Inventory Inventory   `json:"inventory"`
		Stats     FabricStats `json:"stats"`
	}
	getJSON(t, ts.URL+"/api/v1/fabric", &info)
	if len(info.Inventory.Devices) == 0 || len(info.Inventory.Links) == 0 {
		t.Fatal("inventory endpoint empty")
	}
	if info.Stats.Scrapes == 0 {
		t.Fatal("stats endpoint shows no scrapes")
	}

	// /metrics carries the failure/recovery counters with nonzero values.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, _ := io.ReadAll(resp.Body)
	metrics := string(blob)
	for _, want := range []string{
		"stardust_fabric_cells_injected_total",
		"stardust_fabric_link_failures_total",
		"stardust_fabric_link_recoveries_total",
		"stardustd_runs_submitted_total",
		"stardust_mgmt_scrapes_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics misses %s:\n%s", want, metrics)
		}
	}
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, "stardust_fabric_link_failures_total ") {
			if strings.HasSuffix(line, " 0") {
				t.Fatalf("chaos ran but failure counter is zero: %q", line)
			}
		}
	}

	// Without a fabric run, the fabric API 404s cleanly.
	ts2, _, _ := newTestDaemon(t, false)
	if resp := getJSON(t, ts2.URL+"/api/v1/fabric", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("fabricless daemon served fabric API: %d", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	ts, _, _ := newTestDaemon(t, false)
	var h map[string]any
	resp := getJSON(t, ts.URL+"/healthz", &h)
	if resp.StatusCode != http.StatusOK || h["status"] != "ok" {
		t.Fatalf("healthz: %d %v", resp.StatusCode, h)
	}
}

// Retention is bounded: finished jobs beyond the cap are evicted along
// with their cached results, while the bounded queue itself stays the
// only limit on live work.
func TestFinishedJobEviction(t *testing.T) {
	q := NewRunQueue(8, 1, 1)
	defer q.Shutdown()
	q.maxRetained = 3
	var ids []string
	for i := 0; i < 6; i++ {
		j, _, err := q.Submit(RunRequest{Scenario: "mgmttest/echo", Seed: int64(i + 1)}, "test")
		if err != nil {
			t.Fatal(err)
		}
		if done, _ := q.Wait(j.ID, 10*time.Second); done.State != JobDone {
			t.Fatalf("job %s: %+v", j.ID, done)
		}
		ids = append(ids, j.ID)
	}
	if _, ok := q.Get(ids[0]); ok {
		t.Fatal("oldest finished job survived eviction")
	}
	if _, ok := q.Get(ids[5]); !ok {
		t.Fatal("newest job evicted")
	}
	if got := len(q.List(0)); got > 3+1 { // cap + the in-flight slack
		t.Fatalf("retained %d jobs, cap 3", got)
	}
	// An evicted key re-runs instead of serving a dangling cache entry.
	j, cached, err := q.Submit(RunRequest{Scenario: "mgmttest/echo", Seed: 1}, "test")
	if err != nil || cached {
		t.Fatalf("evicted key still cached: %v %v", err, cached)
	}
	if done, _ := q.Wait(j.ID, 10*time.Second); done.State != JobDone {
		t.Fatalf("re-run failed: %+v", done)
	}
}

// retainRule is the retention rule as evictLocked applied it by scanning
// the whole history on every install: while more than max jobs are
// retained, the first finished one in submission order goes.
func retainRule(history []*Job, max int) []*Job {
	excess := len(history) - max
	var kept []*Job
	for _, j := range history {
		if excess > 0 && j.finished() {
			excess--
			continue
		}
		kept = append(kept, j)
	}
	return kept
}

// Eviction stopped scanning the retained jobs, not applying the rule: a
// mixed queued / running / done / failed history keeps exactly the jobs it
// kept, pinned once by hand and then step by step against retainRule.
func TestEvictionKeepsTheRule(t *testing.T) {
	newQueue := func(max int) *RunQueue {
		q := NewRunQueue(8, 1, 1)
		q.Shutdown() // nothing runs: the test sets every state
		q.maxRetained = max
		return q
	}
	install := func(q *RunQueue, seed int) *Job {
		req := RunRequest{Scenario: "mgmttest/echo", Seed: int64(seed)}
		q.mu.Lock()
		defer q.mu.Unlock()
		return q.installLocked(req, req.CacheKey())
	}
	retained := func(q *RunQueue) []string { // oldest first
		var ids []string
		for _, j := range slices.Backward(q.List(0)) {
			ids = append(ids, j.ID)
		}
		return ids
	}

	// Each job is installed queued, then given its state; Set changes an
	// earlier one.
	q := newQueue(4)
	jobs := map[int]*Job{}
	for _, step := range []struct {
		install int
		state   JobState
		set     map[int]JobState
	}{
		{install: 1, state: JobDone},
		{install: 2, state: JobRunning},
		{install: 3, state: JobFailed},
		{install: 4, state: JobQueued},
		{install: 5, state: JobDone},                                                     // 1 goes
		{install: 6, state: JobQueued},                                                   // 3 goes: 2 is running
		{install: 7, state: JobDone, set: map[int]JobState{2: JobDone}},                  // 5 goes
		{install: 8, state: JobQueued},                                                   // 2 goes, done at the front
		{install: 9, state: JobQueued},                                                   // 7 goes
		{install: 10, state: JobQueued, set: map[int]JobState{9: JobDone, 4: JobFailed}}, // all live: none goes
		{install: 11, state: JobQueued},                                                  // 4 and 9 go
	} {
		jobs[step.install] = install(q, step.install)
		jobs[step.install].State = step.state
		for n, st := range step.set {
			jobs[n].State = st
		}
	}
	want := []string{"run-000006", "run-000008", "run-000010", "run-000011"}
	if got := retained(q); !slices.Equal(got, want) {
		t.Fatalf("retained %v, want %v", got, want)
	}

	rng := rand.New(rand.NewSource(1))
	q = newQueue(6)
	var history, live []*Job
	for step := 1; step <= 5000; step++ {
		if len(live) > 0 && (len(live) >= 12 || rng.Intn(2) == 0) {
			i := rng.Intn(len(live))
			j := live[i]
			switch rng.Intn(3) {
			case 0:
				j.State = JobRunning
				continue
			case 1:
				j.State = JobDone
			case 2:
				j.State = JobFailed
			}
			live = slices.Delete(live, i, i+1)
			continue
		}
		j := install(q, step)
		history = retainRule(append(history, j), q.maxRetained)
		if rng.Intn(4) == 0 {
			j.State = JobDone // a remote hit is installed finished
		} else {
			live = append(live, j)
		}
		var want []string
		for _, j := range history {
			want = append(want, j.ID)
		}
		if got := retained(q); !slices.Equal(got, want) || len(q.jobs) != len(want) {
			t.Fatalf("step %d: retained %v (%d tracked), the rule keeps %v", step, got, len(q.jobs), want)
		}
	}
}

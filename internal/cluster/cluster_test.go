package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stardust/internal/engine"
	"stardust/internal/mgmt"
	_ "stardust/internal/scenarios" // registers scaling/fig2
)

func init() {
	engine.Register(engine.Scenario{
		Name:   "clustertest/echo",
		Desc:   "fast deterministic scenario for cluster tests",
		Params: []engine.Param{engine.Int("x", "1", "the echoed value")},
		Run: func(c engine.Context) (engine.Result, error) {
			var r engine.Result
			r.Add("x", float64(c.Params.Int("x")), "")
			r.Add("seed", float64(c.Seed), "")
			r.Text = engine.Textf("x=%d seed=%d\n", c.Params.Int("x"), c.Seed)
			return r, nil
		},
	})
	engine.Register(engine.Scenario{
		Name:   "clustertest/slow",
		Desc:   "sleeps ms then echoes the seed",
		Params: []engine.Param{engine.Int("ms", "100", "wall sleep in milliseconds")},
		Run: func(c engine.Context) (engine.Result, error) {
			time.Sleep(time.Duration(c.Params.Int("ms")) * time.Millisecond)
			var r engine.Result
			r.Add("seed", float64(c.Seed), "")
			r.Text = engine.Textf("slept seed=%d\n", c.Seed)
			return r, nil
		},
	})
}

// lateHandler lets httptest servers start before the handlers exist:
// peer URLs are only known once every listener is up, and each node's
// ring needs the full URL list.
type lateHandler struct{ h atomic.Value }

func (l *lateHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h, _ := l.h.Load().(http.Handler)
	if h == nil {
		http.Error(w, "node not wired yet", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// testNode is one in-process stardustd: queue + HTTP API + cluster face.
// url is the node's ring identity, a fixed name; the test's own requests
// go to ts.URL.
type testNode struct {
	url  string
	q    *mgmt.RunQueue
	ts   *httptest.Server
	node *Node
}

// newTestCluster brings up n fully-wired in-process nodes sharing one
// ring. The nodes know each other by fixed names that the peer client's
// dialer resolves to the httptest listeners: ring placement hashes the
// member URLs, and with the kernel's ports in them some port triples
// leave seedFor without any key of the wanted ring order.
func newTestCluster(t *testing.T, n, depth int) []*testNode {
	t.Helper()
	nodes := make([]*testNode, n)
	urls := make([]string, n)
	lhs := make([]*lateHandler, n)
	real := make(map[string]string, n) // fixed host:port -> listener address
	for i := range nodes {
		lhs[i] = &lateHandler{}
		ts := httptest.NewServer(lhs[i])
		urls[i] = fmt.Sprintf("http://node%d.cluster-test", i)
		real[fmt.Sprintf("node%d.cluster-test:80", i)] = ts.Listener.Addr().String()
		nodes[i] = &testNode{url: urls[i], ts: ts}
	}
	var dialer net.Dialer
	transport := &http.Transport{
		MaxIdleConnsPerHost: 16,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			return dialer.DialContext(ctx, network, real[addr])
		},
	}
	peers := &http.Client{Timeout: 30 * time.Second, Transport: transport}
	for i, tn := range nodes {
		q := mgmt.NewRunQueue(depth, 1, 1)
		s := mgmt.NewServer(q, nil)
		node, err := New(Config{Self: urls[i], Peers: urls, Attempts: 2, Backoff: 10 * time.Millisecond, Client: peers})
		if err != nil {
			t.Fatal(err)
		}
		s.SetCluster(node)
		lhs[i].h.Store(http.Handler(s))
		tn.q, tn.node = q, node
	}
	t.Cleanup(func() {
		transport.CloseIdleConnections()
		for _, tn := range nodes {
			tn.ts.Close()
			tn.q.Shutdown()
		}
	})
	return nodes
}

// seedFor scans seeds until the request's cache key produces a ring
// order the test wants (e.g. owned by a specific node).
func seedFor(t *testing.T, r *Ring, scenario string, params engine.Params, want func(order []string) bool) mgmt.RunRequest {
	t.Helper()
	for seed := int64(1); seed < 100000; seed++ {
		req := mgmt.RunRequest{Scenario: scenario, Params: params, Seed: seed}
		if want(r.Order(req.CacheKey())) {
			return req
		}
	}
	t.Fatal("no seed produced the wanted placement")
	return mgmt.RunRequest{}
}

// submitTo POSTs a run to one node, optionally as a named client.
func submitTo(t *testing.T, url string, req mgmt.RunRequest, client string) (*http.Response, mgmt.Job) {
	t.Helper()
	blob, _ := json.Marshal(req)
	hr, _ := http.NewRequest("POST", url+"/api/v1/runs", bytes.NewReader(blob))
	hr.Header.Set("Content-Type", "application/json")
	if client != "" {
		hr.Header.Set("X-Stardust-Client", client)
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var job mgmt.Job
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &job); err != nil {
			t.Fatalf("submit answer %d is not a job: %v %s", resp.StatusCode, err, body)
		}
	}
	return resp, job
}

// fetchCache GETs a result by content address from one node until it is
// available, returning the bytes and the X-Stardust-Cache header.
func fetchCache(t *testing.T, url, key string, timeout time.Duration) ([]byte, string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(url + "/api/v1/cache/" + key)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return body, resp.Header.Get("X-Stardust-Cache")
		}
		if time.Now().After(deadline) {
			t.Fatalf("result %s never appeared at %s (last status %d)", key, url, resp.StatusCode)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Submissions of one key from two non-owner nodes are both forwarded to
// the ring owner, coalesce onto a single run there, and every node then
// serves byte-identical result bytes by content address.
func TestClusterForwardCoalesceAndServeEverywhere(t *testing.T) {
	nodes := newTestCluster(t, 3, 8)
	ring := nodes[0].node.Ring()
	owner := nodes[1]
	req := seedFor(t, ring, "clustertest/echo", engine.Params{"x": "7"}, func(order []string) bool {
		return order[0] == owner.url
	})
	key := req.CacheKey()

	// Concurrent submissions from both non-owner nodes.
	var wg sync.WaitGroup
	jobs := make([]mgmt.Job, 2)
	served := make([]string, 2)
	for i, from := range []*testNode{nodes[0], nodes[2]} {
		wg.Add(1)
		go func(i int, from *testNode) {
			defer wg.Done()
			resp, job := submitTo(t, from.ts.URL, req, "")
			jobs[i], served[i] = job, resp.Header.Get("X-Stardust-Served-By")
		}(i, from)
	}
	wg.Wait()
	for i := range jobs {
		if served[i] != owner.url {
			t.Fatalf("submission %d served by %q, want owner %s", i, served[i], owner.url)
		}
		if jobs[i].Key != key {
			t.Fatalf("submission %d got key %s, want %s", i, jobs[i].Key, key)
		}
	}
	if jobs[0].ID != jobs[1].ID {
		t.Fatalf("submissions did not coalesce: %s vs %s", jobs[0].ID, jobs[1].ID)
	}

	// The job lives on the owner only.
	if resp, err := http.Get(owner.ts.URL + "/api/v1/runs/" + jobs[0].ID); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("job missing on owner: %v %v", err, resp.Status)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if resp, err := http.Get(nodes[0].ts.URL + "/api/v1/runs/" + jobs[0].ID); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("forwarded job unexpectedly present on non-owner: %v %v", err, resp.Status)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	// Every node serves the result; non-owners fetch it from the peer
	// once, then serve from their local store.
	want, hdr := fetchCache(t, owner.ts.URL, key, 10*time.Second)
	if hdr != "hit" {
		t.Fatalf("owner cache header %q", hdr)
	}
	for _, other := range []*testNode{nodes[0], nodes[2]} {
		got, hdr := fetchCache(t, other.ts.URL, key, 10*time.Second)
		if !bytes.Equal(got, want) {
			t.Fatalf("node %s served %d bytes, owner served %d — not byte-identical", other.url, len(got), len(want))
		}
		if hdr != "peer "+owner.url {
			t.Fatalf("first fetch header %q, want peer %s", hdr, owner.url)
		}
		got2, hdr2 := fetchCache(t, other.ts.URL, key, time.Second)
		if !bytes.Equal(got2, want) || hdr2 != "hit" {
			t.Fatalf("second fetch: header %q, %d bytes", hdr2, len(got2))
		}
	}

	// Exactly one run executed, on the owner.
	if st := owner.q.Stats(); st.Completed != 1 {
		t.Fatalf("owner completed %d runs, want 1", st.Completed)
	}
	for _, other := range []*testNode{nodes[0], nodes[2]} {
		if st := other.q.Stats(); st.Completed != 0 {
			t.Fatalf("non-owner %s ran %d jobs", other.url, st.Completed)
		}
	}
}

// A result this node fetched from the owner is a key it serves: submitting
// it here again is answered here — 200, cached, a remote hit — and costs no
// forward back to the owner.
func TestResubmitOfFetchedResultIsAnsweredLocally(t *testing.T) {
	nodes := newTestCluster(t, 2, 8)
	here, owner := nodes[0], nodes[1]
	req := seedFor(t, here.node.Ring(), "clustertest/echo", engine.Params{"x": "3"}, func(order []string) bool {
		return order[0] == owner.url
	})
	key := req.CacheKey()
	if resp, _ := submitTo(t, here.ts.URL, req, ""); resp.StatusCode != http.StatusAccepted || resp.Header.Get("X-Stardust-Served-By") != owner.url {
		t.Fatalf("first submit: %d served by %q", resp.StatusCode, resp.Header.Get("X-Stardust-Served-By"))
	}
	want, hdr := fetchCache(t, here.ts.URL, key, 10*time.Second)
	if hdr != "peer "+owner.url {
		t.Fatalf("fetch header %q, want the owner's bytes", hdr)
	}

	forwards := here.node.Stats().Forwards
	resp, job := submitTo(t, here.ts.URL, req, "")
	if resp.StatusCode != http.StatusOK || !job.Cached || job.State != mgmt.JobDone {
		t.Fatalf("resubmit: %d, job %+v", resp.StatusCode, job)
	}
	if by := resp.Header.Get("X-Stardust-Served-By"); by != "" {
		t.Fatalf("resubmit served by %q, not here", by)
	}
	if got := here.node.Stats().Forwards; got != forwards {
		t.Fatalf("resubmit forwarded: %d forwards, was %d", got, forwards)
	}
	if st := here.q.Stats(); st.RemoteHits != 1 {
		t.Fatalf("remote hits %d, want 1", st.RemoteHits)
	}
	if got, _, _ := here.q.Result(job.ID); !bytes.Equal(got, want) {
		t.Fatalf("resubmitted job serves %q, the owner's bytes are %q", got, want)
	}
}

// A node's memory does not grow with the history it has served. Three
// times MaxRetained distinct scaling/fig2 runs are each submitted through a
// node that does not own them and read there and at the third node; every
// node then holds at most MaxRetained peer results, and the newest runs
// still read byte-identical everywhere.
func TestPeerResultsBoundedByRetention(t *testing.T) {
	nodes := newTestCluster(t, 3, 8)
	byURL := make(map[string]*testNode, len(nodes))
	for _, tn := range nodes {
		byURL[tn.url] = tn
	}
	var keys []string
	for seed := int64(1); seed <= 3*mgmt.MaxRetained; seed++ {
		req := mgmt.RunRequest{Scenario: "scaling/fig2", Seed: seed}
		order := nodes[0].node.Ring().Order(req.CacheKey())
		owner, via, other := byURL[order[0]], byURL[order[1]], byURL[order[2]]
		resp, job := submitTo(t, via.ts.URL, req, "")
		if resp.StatusCode != http.StatusAccepted || resp.Header.Get("X-Stardust-Served-By") != owner.url {
			t.Fatalf("seed %d: submit answered %d, served by %q", seed, resp.StatusCode, resp.Header.Get("X-Stardust-Served-By"))
		}
		if done, _ := owner.q.Wait(job.ID, 10*time.Second); done.State != mgmt.JobDone {
			t.Fatalf("seed %d: %+v", seed, done)
		}
		fetchCache(t, via.ts.URL, job.Key, time.Second)
		fetchCache(t, other.ts.URL, job.Key, time.Second)
		keys = append(keys, job.Key)
	}
	for _, tn := range nodes {
		if fetched := tn.node.Stats().PeerFetches; fetched <= mgmt.MaxRetained {
			t.Fatalf("node %s fetched %d results: the store was never full", tn.url, fetched)
		}
		if held := tn.q.Stats().RemoteResults; held > mgmt.MaxRetained {
			t.Fatalf("node %s holds %d peer results, more than %d", tn.url, held, mgmt.MaxRetained)
		}
	}
	for _, key := range keys[len(keys)-10:] {
		want, _ := fetchCache(t, nodes[0].ts.URL, key, time.Second)
		for _, tn := range nodes[1:] {
			if got, _ := fetchCache(t, tn.ts.URL, key, time.Second); !bytes.Equal(got, want) {
				t.Fatalf("%s: node %s serves %d bytes, node %s %d", key, tn.url, len(got), nodes[0].url, len(want))
			}
		}
	}
}

// A peer that answers with a body over MaxBodyBytes is a failed fetch, not
// a result: the read stops one byte past the cap, the key is a miss, and
// nothing reaches the local store.
func TestOversizedPeerResultRefused(t *testing.T) {
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		chunk := make([]byte, 64<<10)
		for left := mgmt.MaxBodyBytes + 1; left > 0; left -= len(chunk) {
			if _, err := w.Write(chunk[:min(left, len(chunk))]); err != nil {
				return
			}
		}
	}))
	defer peer.Close()
	self := "http://self.cluster-test"
	node, err := New(Config{Self: self, Peers: []string{self, peer.URL}, Attempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	q := mgmt.NewRunQueue(4, 1, 1)
	defer q.Shutdown()
	s := mgmt.NewServer(q, nil)
	s.SetCluster(node)
	key := mgmt.RunRequest{Scenario: "clustertest/echo", Seed: 1}.CacheKey()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/cache/"+key, nil))
	if rec.Code != http.StatusNotFound || !strings.Contains(rec.Body.String(), "too large") {
		t.Fatalf("oversized peer body: %d %s", rec.Code, rec.Body)
	}
	if st := node.Stats(); st.PeerFetches != 0 || st.PeerFetchMiss != 1 {
		t.Fatalf("oversized peer body counted as a fetch: %+v", st)
	}
	if st := q.Stats(); st.RemoteResults != 0 || st.RemoteBytes != 0 {
		t.Fatalf("oversized peer body reached the store: %+v", st)
	}
}

// Killing the owner mid-run must not strand the key: a resubmission
// from any node walks the ring and lands on the owner's successor.
func TestClusterOwnerFailover(t *testing.T) {
	nodes := newTestCluster(t, 3, 8)
	ring := nodes[0].node.Ring()
	// A key owned by node 1 whose ring successor is node 2 — so the
	// failover target is a remote peer, not the submitting node itself.
	req := seedFor(t, ring, "clustertest/slow", engine.Params{"ms": "200"}, func(order []string) bool {
		return order[0] == nodes[1].url && order[1] == nodes[2].url
	})
	key := req.CacheKey()

	resp, _ := submitTo(t, nodes[0].ts.URL, req, "")
	if resp.StatusCode != http.StatusAccepted || resp.Header.Get("X-Stardust-Served-By") != nodes[1].url {
		t.Fatalf("initial submit: %d served by %q", resp.StatusCode, resp.Header.Get("X-Stardust-Served-By"))
	}

	// Owner dies mid-run.
	nodes[1].ts.Close()

	// Resubmission from node 0 must land on the ring successor, node 2.
	resp, job := submitTo(t, nodes[0].ts.URL, req, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit after owner death: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Stardust-Served-By"); got != nodes[2].url {
		t.Fatalf("resubmission served by %q, want ring successor %s", got, nodes[2].url)
	}
	if resp, err := http.Get(nodes[2].ts.URL + "/api/v1/runs/" + job.ID); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("job missing on successor: %v %v", err, resp.Status)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	// And the result is reachable from the submitting node.
	if out, _ := fetchCache(t, nodes[0].ts.URL, key, 10*time.Second); len(out) == 0 {
		t.Fatal("empty result after failover")
	}
	if st := nodes[0].node.Stats(); st.Fallbacks == 0 {
		t.Fatalf("failover did not count a fallback: %+v", st)
	}
}

// Fair-share admission holds on the clustered submission path: with a
// greedy client at its share, the next greedy submission is refused
// with Retry-After while a second client is still admitted.
func TestClusterGreedyClientCannotStarve(t *testing.T) {
	nodes := newTestCluster(t, 3, 8)
	ring := nodes[0].node.Ring()
	local := func(order []string) bool { return order[0] == nodes[0].url }
	slowReq := func() mgmt.RunRequest {
		// Each call needs a distinct key owned by node 0; vary params so
		// seedFor's scan restarts cheaply.
		return mgmt.RunRequest{Scenario: "clustertest/slow", Params: engine.Params{"ms": "500"}}
	}
	var reqs []mgmt.RunRequest
	for seed := int64(1); seed < 100000 && len(reqs) < 9; seed++ {
		r := slowReq()
		r.Seed = seed
		if local(ring.Order(r.CacheKey())) {
			reqs = append(reqs, r)
		}
	}
	if len(reqs) < 9 {
		t.Fatal("not enough node-0-owned keys")
	}

	// Greedy takes 4 of 8 slots, then a fair client takes one.
	for i := 0; i < 4; i++ {
		if resp, _ := submitTo(t, nodes[0].ts.URL, reqs[i], "greedy"); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("greedy submit %d: %d", i, resp.StatusCode)
		}
	}
	if resp, _ := submitTo(t, nodes[0].ts.URL, reqs[4], "fair"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fair submit: %d", resp.StatusCode)
	}
	// Greedy is at its share (ceil(8/2)=4): refused despite free slots.
	resp, _ := submitTo(t, nodes[0].ts.URL, reqs[5], "greedy")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-share greedy submit: %d, want 429", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("429 without usable Retry-After: %q", resp.Header.Get("Retry-After"))
	}
	// The fair client still gets its remaining share.
	for i := 6; i < 9; i++ {
		if resp, _ := submitTo(t, nodes[0].ts.URL, reqs[i], "fair"); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("fair submit %d: %d, greedy starved it", i, resp.StatusCode)
		}
	}
	if st := nodes[0].q.Stats(); st.RejectedFair != 1 || st.ActiveClients != 2 {
		t.Fatalf("fairness stats: %+v", st)
	}
}

// The cluster info endpoint reports membership, shares and counters.
func TestClusterInfoEndpoint(t *testing.T) {
	nodes := newTestCluster(t, 3, 4)
	resp, err := http.Get(nodes[0].ts.URL + "/api/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info struct {
		Self   string             `json:"self"`
		Peers  []string           `json:"peers"`
		VNodes int                `json:"vnodes"`
		Shares map[string]float64 `json:"shares"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Self != nodes[0].url || len(info.Peers) != 3 || info.VNodes != DefaultVNodes || len(info.Shares) != 3 {
		t.Fatalf("cluster info: %+v", info)
	}
}

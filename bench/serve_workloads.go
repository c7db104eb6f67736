package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"stardust/internal/cluster"
	"stardust/internal/engine"
	"stardust/internal/loadgen"
	"stardust/internal/mgmt"
	_ "stardust/internal/scenarios" // registers scaling/fig2
)

const serveScenario = "scaling/fig2"

// ringNode is one in-process stardustd: run queue, HTTP API and cluster
// face on a real loopback listener.
type ringNode struct {
	url  string // http://127.0.0.1:port, what the benchmark's clients dial
	q    *mgmt.RunQueue
	srv  *mgmt.Server
	node *cluster.Node
	http *http.Server
}

// ring is the serving tier under test. The nodes know each other by
// fixed names (resolved to the loopback listeners by the peer client's
// dialer), so ring placement — and with it every forward count — is the
// same on every run, whatever ports the kernel hands out.
type ring struct {
	nodes  []*ringNode
	client *http.Client // the benchmark's own keep-alive client
	peers  *http.Client // shared by the nodes' cluster faces
	served sync.WaitGroup
}

func newRing() (*ring, error) {
	names := make([]string, ringNodes)
	for i := range names {
		names[i] = fmt.Sprintf("http://node%d.stardust-bench", i)
	}
	real := make(map[string]string, ringNodes) // fixed host:port -> loopback address
	var dialer net.Dialer
	rg := &ring{
		client: &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 2 * benchClients},
		},
		peers: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 16,
				DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
					return dialer.DialContext(ctx, network, real[addr])
				},
			},
		},
	}
	for i, name := range names {
		node, err := cluster.New(cluster.Config{Self: name, Peers: names, Client: rg.peers})
		if err != nil {
			rg.Close()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			rg.Close()
			return nil, fmt.Errorf("listening: %w", err)
		}
		real[fmt.Sprintf("node%d.stardust-bench:80", i)] = ln.Addr().String()
		// stardustd's defaults: queue depth 64, 2 queue workers, engine
		// workers = all CPUs.
		q := mgmt.NewRunQueue(64, 2, 0)
		srv := mgmt.NewServer(q, nil)
		srv.SetCluster(node)
		hs := mgmt.NewHTTPServer("", srv, mgmt.HTTPTimeouts{})
		rg.nodes = append(rg.nodes, &ringNode{url: "http://" + ln.Addr().String(), q: q, srv: srv, node: node, http: hs})
		rg.served.Add(1)
		go func() {
			defer rg.served.Done()
			hs.Serve(ln) // returns http.ErrServerClosed on Close
		}()
	}
	return rg, nil
}

// Close stops every node started so far: listeners, serve loops, run
// queues.
func (rg *ring) Close() {
	for _, n := range rg.nodes {
		n.http.Close()
	}
	rg.served.Wait()
	for _, n := range rg.nodes {
		n.q.Shutdown()
	}
	rg.client.CloseIdleConnections()
	rg.peers.CloseIdleConnections()
}

// ringStats sums the counters the serving tier keeps, over all nodes.
type ringStats struct {
	cacheHits, remoteHits, rejected     uint64
	forwards, fallbacks, forwardRetries uint64
	peerFetches                         uint64
}

func (rg *ring) stats() ringStats {
	var s ringStats
	for _, n := range rg.nodes {
		qs, cs := n.q.Stats(), n.node.Stats()
		s.cacheHits += qs.CacheHits
		s.remoteHits += qs.RemoteHits
		s.rejected += qs.Rejected
		s.forwards += cs.Forwards
		s.fallbacks += cs.Fallbacks + cs.LocalFallbacks
		s.forwardRetries += cs.ForwardRetries
		s.peerFetches += cs.PeerFetches
	}
	return s
}

// shareMax returns the largest arc share of the ring any node owns.
func (rg *ring) shareMax() float64 {
	var most float64
	for _, share := range rg.nodes[0].node.Ring().Shares() {
		most = max(most, share)
	}
	return most
}

// get fetches path from node and returns status and body.
func (rg *ring) get(node int, path string) (int, []byte, error) {
	resp, err := rg.client.Get(rg.nodes[node].url + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// submitOutcome is what one submit-until-readable operation observed.
type submitOutcome struct {
	ready    time.Duration // POST sent -> result bytes read back
	requests int           // HTTP requests sent
	bad      int           // responses that were neither 2xx nor a "not ready yet" 404
	err      error
}

// submit posts one run to node and then polls that node's cache until
// the result is readable, the way a stardustd caller waits for its
// reply. Every HTTP request is a span under parent.
func (rg *ring) submit(tr *Recorder, parent, repIdx, node int, req mgmt.RunRequest) (o submitOutcome) {
	blob, err := json.Marshal(req)
	if err != nil {
		o.err = err
		return o
	}
	t0 := time.Now()
	id := tr.Start("POST /api/v1/runs", parent, repIdx)
	resp, err := rg.client.Post(rg.nodes[node].url+"/api/v1/runs", "application/json", bytes.NewReader(blob))
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	tr.End(id)
	o.requests++
	if err != nil {
		o.bad, o.err = 1, fmt.Errorf("submit to node %d: %w", node, err)
		return o
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		o.bad, o.err = 1, fmt.Errorf("submit to node %d: %s", node, resp.Status)
		return o
	}
	path := "/api/v1/cache/" + req.CacheKey()
	for deadline := t0.Add(10 * time.Second); ; {
		id := tr.Start("GET /api/v1/cache", parent, repIdx)
		status, _, err := rg.get(node, path)
		tr.End(id)
		o.requests++
		switch {
		case err != nil:
			o.bad, o.err = o.bad+1, fmt.Errorf("polling node %d: %w", node, err)
			return o
		case status == http.StatusOK:
			o.ready = time.Since(t0)
			return o
		case status != http.StatusNotFound:
			o.bad, o.err = o.bad+1, fmt.Errorf("polling node %d: status %d", node, status)
			return o
		case time.Now().After(deadline):
			o.bad, o.err = o.bad+1, fmt.Errorf("result of seed %d never became readable on node %d", req.Seed, node)
			return o
		}
		time.Sleep(time.Millisecond)
	}
}

// directRun is the reference: the same request through engine.Run with
// no serving tier in between, rendered the way the run queue renders it.
func directRun(req mgmt.RunRequest) ([]byte, error) {
	var out bytes.Buffer
	_, err := engine.Run(engine.Options{Seed: req.Seed, Format: "json", Out: &out},
		[]engine.Job{{Scenario: req.Scenario, Params: req.Params, Seed: req.Seed}})
	return out.Bytes(), err
}

// checkEverywhere demands that every node serves, for req's key, exactly
// the bytes a direct engine run produces.
func (rg *ring) checkEverywhere(req mgmt.RunRequest) error {
	want, err := directRun(req)
	if err != nil {
		return fmt.Errorf("direct engine run: %w", err)
	}
	for i := range rg.nodes {
		status, got, err := rg.get(i, "/api/v1/cache/"+req.CacheKey())
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("node %d answered %d for seed %d", i, status, req.Seed)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("node %d serves %d bytes for seed %d that differ from the direct engine run (%d bytes)",
				i, len(got), req.Seed, len(want))
		}
	}
	return nil
}

// submitWorkload is serve_ring_submit.
type submitWorkload struct {
	sz   sizes
	rg   *ring
	next int64 // next unused request seed; every submission is distinct
	last []mgmt.RunRequest
}

func newSubmitWorkload(sz sizes, seed int64) (*submitWorkload, error) {
	rg, err := newRing()
	if err != nil {
		return nil, err
	}
	return &submitWorkload{sz: sz, rg: rg, next: seed * 1_000_000}, nil
}

func (w *submitWorkload) Rep(tr *Recorder, i int) rep {
	reqs := make([]mgmt.RunRequest, w.sz.submitN)
	for j := range reqs {
		reqs[j] = mgmt.RunRequest{Scenario: serveScenario, Seed: w.next}
		w.next++
	}
	w.last = reqs
	before := w.rg.stats()
	outcomes := make([]submitOutcome, len(reqs))
	root := tr.Start("submit phase", 0, i)
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < benchClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := c; j < len(reqs); j += benchClients {
				outcomes[j] = w.rg.submit(tr, root, i, j%ringNodes, reqs[j])
			}
		}()
	}
	wg.Wait()
	r := rep{Units: float64(len(reqs))}
	r.Wall = time.Since(t0).Seconds()
	tr.End(root)
	ready := make([]float64, 0, len(outcomes))
	for _, o := range outcomes {
		r.Ops += o.requests
		r.Failed += o.bad
		if o.err != nil && r.Err == nil {
			r.Err = o.err
		}
		ready = append(ready, float64(o.ready.Microseconds()))
	}
	after := w.rg.stats()
	if rejected := after.rejected - before.rejected; rejected != 0 {
		r.Failed += int(rejected)
		if r.Err == nil {
			r.Err = fmt.Errorf("%d submissions rejected by admission control", rejected)
		}
	}
	if tr != nil {
		r.Layer = map[string]float64{
			"mgmt.submit_p50_us":     quantile(ready, 0.50),
			"mgmt.submit_p99_us":     quantile(ready, 0.99),
			"mgmt.cache_hits":        float64(after.cacheHits - before.cacheHits),
			"mgmt.remote_hits":       float64(after.remoteHits - before.remoteHits),
			"mgmt.rejected":          float64(after.rejected - before.rejected),
			"mgmt.http_errors":       float64(r.Failed),
			"cluster.forwards":       float64(after.forwards - before.forwards),
			"cluster.fallbacks":      float64(after.fallbacks - before.fallbacks),
			"cluster.retries":        float64(after.forwardRetries - before.forwardRetries),
			"cluster.forward_share":  float64(after.forwards-before.forwards) / float64(len(reqs)),
			"cluster.ring_share_max": w.rg.shareMax(),
		}
	}
	return r
}

// Verify reads a sample of the last repetition's results back from all
// three nodes and holds them to direct engine runs. The sample is the
// newest submissions: a run queue retains only its latest 256 results.
func (w *submitWorkload) Verify(rep) error {
	for _, req := range w.last[max(0, len(w.last)-10):] {
		if err := w.rg.checkEverywhere(req); err != nil {
			return err
		}
	}
	return nil
}

func (w *submitWorkload) Layers(tr *Recorder, reps []rep) (map[string]float64, error) {
	l := reps[0].Layer
	medianOver(reps, l, "mgmt.submit_p50_us", "mgmt.submit_p99_us")
	if err := probeEngine(tr, w.sz, l); err != nil {
		return nil, err
	}
	if err := probeQueue(tr, w.sz, l); err != nil {
		return nil, err
	}
	if err := probeCluster(tr, w.sz, w.rg, w.next, l); err != nil {
		return nil, err
	}
	return l, nil
}

func (w *submitWorkload) Close() { w.rg.Close() }

// hitWorkload is serve_ring_hit: one key, already on every node.
type hitWorkload struct {
	sz  sizes
	rg  *ring
	req mgmt.RunRequest
}

func newHitWorkload(sz sizes, seed int64) (*hitWorkload, error) {
	rg, err := newRing()
	if err != nil {
		return nil, err
	}
	w := &hitWorkload{sz: sz, rg: rg, req: mgmt.RunRequest{Scenario: serveScenario, Seed: seed}}
	// Prime: run once, then read from every node so each holds the bytes
	// locally and no later read touches the cluster layer.
	if o := rg.submit(nil, 0, 0, 0, w.req); o.err != nil {
		rg.Close()
		return nil, o.err
	}
	if err := rg.checkEverywhere(w.req); err != nil {
		rg.Close()
		return nil, err
	}
	return w, nil
}

// warmUp is the untimed repetition 0: a fixed number of hits rather than
// a load slice, so that setup_s measures work and not a fixed wait.
func (w *hitWorkload) warmUp() rep {
	r := rep{Units: float64(w.sz.hitWarm)}
	path := "/api/v1/cache/" + w.req.CacheKey()
	t0 := time.Now()
	for j := 0; j < w.sz.hitWarm; j++ {
		status, _, err := w.rg.get(j%ringNodes, path)
		r.Ops++
		if err != nil || status != http.StatusOK {
			r.Failed++
			r.Err = fmt.Errorf("warm-up hit %d on node %d: status %d, %v", j, j%ringNodes, status, err)
			break
		}
	}
	r.Wall = time.Since(t0).Seconds()
	return r
}

func (w *hitWorkload) Rep(tr *Recorder, i int) rep {
	if i == 0 {
		return w.warmUp()
	}
	// loadgen hands client c the target c mod len(targets): rotate the
	// list so that over the slices every node serves.
	targets := make([]string, ringNodes)
	for j := range targets {
		targets[j] = w.rg.nodes[(i+j)%ringNodes].url
	}
	before := w.rg.stats()
	id := tr.Start("loadgen.Run", 0, i)
	report, err := loadgen.Run(context.Background(), loadgen.Config{
		Targets:     targets,
		Path:        "/api/v1/cache/" + w.req.CacheKey(),
		Clients:     benchClients,
		Duration:    w.sz.hitSlice,
		DialStagger: time.Nanosecond, // two clients need no SYN spreading
	})
	tr.End(id)
	r := rep{Ops: int(report.Requests + report.Errors + report.DialErrors), Failed: int(report.Errors + report.DialErrors)}
	if err != nil {
		r.Ops, r.Failed, r.Err = 1, 1, err
		return r
	}
	if report.Requests == 0 {
		r.Ops, r.Failed, r.Err = 1, 1, fmt.Errorf("load slice completed no request")
		return r
	}
	if r.Failed != 0 {
		r.Err = fmt.Errorf("%d of %d cache hits failed", r.Failed, r.Ops)
	}
	// A slice has a fixed length, not a fixed request count: report the
	// time hitSliceRequests would have taken at the slice's rate.
	r.Units = hitSliceRequests
	r.Wall = hitSliceRequests / report.Throughput
	after := w.rg.stats()
	if after.forwards != before.forwards || after.peerFetches != before.peerFetches {
		r.fail("cache hits reached the cluster layer: forwards %d -> %d, peer fetches %d -> %d",
			before.forwards, after.forwards, before.peerFetches, after.peerFetches)
	}
	if tr != nil {
		r.Layer = map[string]float64{
			"mgmt.hit_p50_us":        report.P50ms * 1e3,
			"mgmt.hit_p99_us":        report.P99ms * 1e3,
			"mgmt.hit_p999_us":       report.P999ms * 1e3,
			"mgmt.hit_max_ms":        report.MaxMs,
			"mgmt.http_errors":       float64(r.Failed),
			"cluster.forwards":       float64(after.forwards - before.forwards),
			"cluster.ring_share_max": w.rg.shareMax(),
		}
	}
	return r
}

func (w *hitWorkload) Verify(rep) error { return w.rg.checkEverywhere(w.req) }

func (w *hitWorkload) Layers(tr *Recorder, reps []rep) (map[string]float64, error) {
	l := reps[0].Layer
	medianOver(reps, l, "mgmt.hit_p50_us", "mgmt.hit_p99_us", "mgmt.hit_p999_us", "mgmt.hit_max_ms")
	probeHit(tr, w.sz, w.rg.nodes[0], w.req, l)
	var err error
	if l["loadgen.client_self_us"], err = probeLoadgen(tr, w.sz); err != nil {
		return nil, err
	}
	return l, nil
}

func (w *hitWorkload) Close() { w.rg.Close() }

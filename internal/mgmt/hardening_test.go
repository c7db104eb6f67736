package mgmt

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"stardust/internal/engine"
)

func init() {
	// A scenario that takes real wall time, for queue-occupancy and
	// streaming-timeout tests.
	engine.Register(engine.Scenario{
		Name:   "mgmttest/sleep",
		Desc:   "sleeps ms then echoes",
		Params: []engine.Param{engine.Int("ms", "100", "wall sleep in milliseconds")},
		Run: func(c engine.Context) (engine.Result, error) {
			time.Sleep(time.Duration(c.Params.Int("ms")) * time.Millisecond)
			var r engine.Result
			r.Add("seed", float64(c.Seed), "")
			r.Text = engine.Textf("slept ms=%d seed=%d\n", c.Params.Int("ms"), c.Seed)
			return r, nil
		},
	})
}

// POST /api/v1/runs with a body over the cap must be refused with 413
// and a JSON error, not read to completion.
func TestOversizedSubmitBodyRejected(t *testing.T) {
	ts, _, _ := newTestDaemon(t, false)
	big := append([]byte(`{"scenario":"`), bytes.Repeat([]byte("a"), MaxBodyBytes+1024)...)
	big = append(big, []byte(`"}`)...)
	resp, err := http.Post(ts.URL+"/api/v1/runs", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit gave %d, want 413", resp.StatusCode)
	}
	var e map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e["error"] == "" {
		t.Fatalf("413 body is not a JSON error: %v %v", err, e)
	}
}

// The replay endpoint has the same cap and the same 413 shape.
func TestOversizedReplayBodyRejected(t *testing.T) {
	ts, _, _ := newTestDaemon(t, false)
	resp, err := http.Post(ts.URL+"/api/v1/replay", "application/octet-stream",
		bytes.NewReader(make([]byte, MaxBodyBytes+1)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized replay gave %d, want 413", resp.StatusCode)
	}
	var e map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e["error"] == "" {
		t.Fatalf("413 body is not a JSON error: %v %v", err, e)
	}
}

// ReadBody hands back exactly the bytes sent, in a buffer of their size,
// for about twice a large body's size in allocations; one byte over the
// limit is the *http.MaxBytesError the replay endpoint answers with 413
// (TestOversizedReplayBodyRejected), and a reader's own error is passed on.
func TestReadBody(t *testing.T) {
	for _, n := range []int{0, 1, 511, 512, 513, 749, 256<<10 + 1, 3<<20 + 5} {
		body := make([]byte, n)
		for i := range body {
			body[i] = byte(i * 7)
		}
		got, err := ReadBody(bytes.NewReader(body), int64(n))
		if err != nil || !bytes.Equal(got, body) || cap(got) != n {
			t.Fatalf("%d-byte body at its limit: %v, %d bytes back, cap %d", n, err, len(got), cap(got))
		}
		var tooBig *http.MaxBytesError
		if _, err := ReadBody(bytes.NewReader(append(body, 1)), int64(n)); !errors.As(err, &tooBig) || tooBig.Limit != int64(n) {
			t.Fatalf("%d-byte body over a limit of %d: %v", n+1, n, err)
		}
	}
	boom := errors.New("boom")
	if _, err := ReadBody(io.MultiReader(bytes.NewReader(make([]byte, 5000)), iotest.ErrReader(boom)), MaxBodyBytes); !errors.Is(err, boom) {
		t.Fatalf("reader error: %v", err)
	}

	// Other goroutines' allocations can only add to a measurement: the
	// smallest of three is the reader's.
	const size = 8 << 20
	body := make([]byte, size)
	alloc := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := ReadBody(bytes.NewReader(body), MaxBodyBytes)
		runtime.ReadMemStats(&after)
		if err != nil || len(got) != size {
			t.Fatalf("8 MiB body: %v, %d bytes back", err, len(got))
		}
		alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
	}
	if alloc > size*5/2 {
		t.Fatalf("reading an 8 MiB body allocated %d bytes, %.2fx the body", alloc, float64(alloc)/size)
	}
}

// Fair-share admission, deterministically: with the worker pinned by a
// slow job, a client over its share is rejected with a fairness (not
// global) OverloadError while the queue still has room, and a full
// queue rejects globally with errors.Is(..., ErrQueueFull). Both carry
// Retry-After estimates.
func TestFairShareAdmission(t *testing.T) {
	q := NewRunQueue(8, 1, 1)
	defer q.Shutdown()
	slow := func(seed int64) RunRequest {
		return RunRequest{Scenario: "mgmttest/sleep", Params: engine.Params{"ms": "200"}, Seed: seed}
	}
	// Greedy takes 4 of 8 slots (1 running + 3 queued).
	for i := int64(1); i <= 4; i++ {
		if _, _, err := q.Submit(slow(i), "greedy"); err != nil {
			t.Fatalf("greedy submit %d: %v", i, err)
		}
	}
	// A second client activates fairness: share = ceil(8/2) = 4.
	if _, _, err := q.Submit(slow(100), "fair"); err != nil {
		t.Fatalf("fair submit: %v", err)
	}
	// Greedy is now at its share: rejected even though the queue has room.
	_, _, err := q.Submit(slow(5), "greedy")
	var ov *OverloadError
	if !errors.As(err, &ov) || ov.Global || ov.Share != 4 {
		t.Fatalf("over-share submit: want fairness OverloadError share=4, got %v", err)
	}
	if errors.Is(err, ErrQueueFull) {
		t.Fatal("fairness rejection must not read as a global queue-full")
	}
	if ov.RetryAfter < time.Second {
		t.Fatalf("Retry-After estimate too small: %v", ov.RetryAfter)
	}
	// Fair fills its share; the 9th pending submission is a global full.
	for i := int64(101); i <= 103; i++ {
		if _, _, err := q.Submit(slow(i), "fair"); err != nil {
			t.Fatalf("fair submit %d: %v", i, err)
		}
	}
	_, _, err = q.Submit(slow(104), "fair")
	if !errors.As(err, &ov) || !ov.Global || !errors.Is(err, ErrQueueFull) {
		t.Fatalf("full queue: want global OverloadError, got %v", err)
	}
	st := q.Stats()
	if st.RejectedFair != 1 || st.Rejected != 2 || st.ActiveClients != 2 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Depth != st.Capacity-st.Running {
		t.Fatalf("depth %d inconsistent with capacity %d running %d", st.Depth, st.Capacity, st.Running)
	}
}

// Over HTTP: a greedy client saturating the queue cannot starve a
// second client — as slots drain, the greedy's resubmissions bounce off
// the fair-share ceiling and the fair client is admitted. 429s carry
// Retry-After.
func TestGreedyClientCannotStarve(t *testing.T) {
	q := NewRunQueue(4, 1, 1)
	t.Cleanup(q.Shutdown)
	ts := httptest.NewServer(NewServer(q, nil))
	t.Cleanup(ts.Close)

	tryPost := func(client string, seed int64) (*http.Response, error) {
		blob, _ := json.Marshal(RunRequest{
			Scenario: "mgmttest/sleep", Params: engine.Params{"ms": "50"}, Seed: seed,
		})
		req, _ := http.NewRequest("POST", ts.URL+"/api/v1/runs", bytes.NewReader(blob))
		req.Header.Set("X-Stardust-Client", client)
		return http.DefaultClient.Do(req)
	}
	post := func(client string, seed int64) *http.Response { // test goroutine only
		resp, err := tryPost(client, seed)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	// Greedy floods until the queue rejects it.
	seed := int64(1)
	saw429 := false
	for ; seed < 64; seed++ {
		resp := post("greedy", seed)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
				t.Fatalf("429 without a usable Retry-After: %q", resp.Header.Get("Retry-After"))
			}
			saw429 = true
			break
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("greedy submit %d: %d", seed, resp.StatusCode)
		}
	}
	if !saw429 {
		t.Fatal("greedy never hit backpressure")
	}
	// The fair client keeps retrying while greedy keeps flooding; it must
	// be admitted well before the greedy backlog would have drained.
	// The flooder is joined before the test returns: t.Cleanup closes the
	// server, and a POST still in flight then fails with a refused or reset
	// connection.
	stop, flooded := make(chan struct{}), make(chan struct{})
	defer func() { close(stop); <-flooded }()
	go func() {
		defer close(flooded)
		for gs := int64(1000); ; gs++ {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := tryPost("greedy", gs)
			if err != nil {
				select {
				case <-stop: // the test is over; nothing left to flood
				default:
					t.Error(err)
				}
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			time.Sleep(5 * time.Millisecond)
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for fs := int64(5000); ; fs++ {
		if time.Now().After(deadline) {
			t.Fatal("fair client starved by greedy client")
		}
		resp := post("fair", fs)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusAccepted {
			return // admitted: no starvation
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// startTimeoutServer serves h on a real TCP listener through
// NewHTTPServer, so connection timeouts are live.
func startTimeoutServer(t *testing.T, h http.Handler, tmo HTTPTimeouts) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewHTTPServer("", h, tmo)
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return l.Addr().String()
}

// A client that stalls mid-headers must be disconnected by
// ReadHeaderTimeout — it cannot hold the connection forever.
func TestStalledClientDisconnected(t *testing.T) {
	q := NewRunQueue(4, 1, 1)
	t.Cleanup(q.Shutdown)
	addr := startTimeoutServer(t, NewServer(q, nil), HTTPTimeouts{
		ReadHeader: 200 * time.Millisecond,
		Read:       500 * time.Millisecond,
		Write:      time.Second,
		Idle:       time.Second,
	})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Half a request line, then silence.
	if _, err := conn.Write([]byte("GET /healthz HTT")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	// The server may answer with a 4xx before closing; what matters is
	// that the connection reaches EOF quickly instead of hanging. A
	// deadline error here means it was never closed.
	blob, err := io.ReadAll(conn)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("stalled connection still open after %v", time.Since(start))
	}
	if err != nil {
		t.Fatalf("reading from stalled connection: %v", err)
	}
	if held := time.Since(start); held > 3*time.Second {
		t.Fatalf("connection held %v before close", held)
	}
	if len(blob) > 0 && !bytes.HasPrefix(blob, []byte("HTTP/1.1 4")) {
		t.Fatalf("unexpected server answer to stalled request: %q", blob[:min(len(blob), 40)])
	}
}

// The NDJSON progress stream must outlive a server WriteTimeout shorter
// than the run: the handler extends its own write deadline each poll
// tick via http.ResponseController.
func TestStreamOutlivesWriteTimeout(t *testing.T) {
	q := NewRunQueue(4, 1, 1)
	t.Cleanup(q.Shutdown)
	addr := startTimeoutServer(t, NewServer(q, nil), HTTPTimeouts{
		ReadHeader: time.Second,
		Read:       time.Second,
		Write:      300 * time.Millisecond, // far shorter than the run below
		Idle:       time.Second,
	})
	j, _, err := q.Submit(RunRequest{
		Scenario: "mgmttest/sleep", Params: engine.Params{"ms": "1200"}, Seed: 42,
	}, "test")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/api/v1/runs/" + j.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("stream died before the run finished (WriteTimeout not extended): %v", err)
	}
	lines := bytes.Split(bytes.TrimSpace(blob), []byte("\n"))
	var final Job
	if err := json.Unmarshal(lines[len(lines)-1], &final); err != nil || final.State != JobDone {
		t.Fatalf("stream did not end with the done snapshot: %v %s", err, blob)
	}
}

// The cache endpoint serves local results by content address as pure
// bytes, 404s unknown keys, and rejects malformed keys.
func TestCacheEndpointLocal(t *testing.T) {
	ts, q, _ := newTestDaemon(t, false)
	req := RunRequest{Scenario: "mgmttest/echo", Params: engine.Params{"x": "9"}, Seed: 3}
	j, _, err := q.Submit(req, "test")
	if err != nil {
		t.Fatal(err)
	}
	want := fetchResult(t, ts, q, j.ID)
	resp, err := http.Get(ts.URL + "/api/v1/cache/" + req.CacheKey())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("cache endpoint: %d, %d vs %d bytes", resp.StatusCode, len(got), len(want))
	}
	if resp.Header.Get("X-Stardust-Cache") != "hit" {
		t.Fatalf("cache header %q", resp.Header.Get("X-Stardust-Cache"))
	}
	if cl, _ := strconv.Atoi(resp.Header.Get("Content-Length")); cl != len(want) {
		t.Fatalf("Content-Length %d, want %d", cl, len(want))
	}
	for _, bad := range []string{strings.Repeat("0", 64), "nothex", strings.Repeat("a", 63)} {
		resp, err := http.Get(ts.URL + "/api/v1/cache/" + bad)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Fatalf("bogus key %q served", bad)
		}
	}
}

// cacheKeyPat is the content-address shape isCacheKey checks by hand, kept
// here as the oracle the table and the handler fuzz test hold it to.
var cacheKeyPat = regexp.MustCompile(`^[0-9a-f]{64}$`)

func TestIsCacheKey(t *testing.T) {
	key := RunRequest{Scenario: "mgmttest/echo", Seed: 3}.CacheKey()
	for _, tc := range []struct {
		name, key string
		want      bool
	}{
		{"valid", key, true},
		{"every hex digit", strings.Repeat("0123456789abcdef", 4), true},
		{"63 chars", key[:63], false},
		{"65 chars", key + "0", false},
		{"upper-case hex", strings.ToUpper(key), false},
		{"one upper-case digit", "A" + key[1:], false},
		{"non-ASCII", key[:62] + "é", false},
		{"non-ASCII of 64 bytes", strings.Repeat("é", 32), false},
		{"just before the digits", key[:63] + "/", false},
		{"just past the digits", key[:63] + ":", false},
		{"just before the letters", key[:63] + "`", false},
		{"just past the letters", key[:63] + "g", false},
		{"trailing newline", key[:63] + "\n", false},
		{"empty", "", false},
	} {
		if got := isCacheKey(tc.key); got != tc.want || got != cacheKeyPat.MatchString(tc.key) {
			t.Errorf("%s: isCacheKey(%q) = %v, want %v (regexp %v)", tc.name, tc.key, got, tc.want, cacheKeyPat.MatchString(tc.key))
		}
	}
}

// A peer-fetched result installed by PutRemote serves identical bytes
// and coalesces later submissions of the same key as cache hits.
func TestRemoteResultStore(t *testing.T) {
	q := NewRunQueue(4, 1, 1)
	defer q.Shutdown()
	req := RunRequest{Scenario: "mgmttest/echo", Seed: 77}
	key := req.CacheKey()
	out := []byte(`{"fake":"peer result"}`)
	q.PutRemote(key, out)
	got, ok := q.ResultByKey(key)
	if !ok || !bytes.Equal(got, out) {
		t.Fatalf("remote store miss: %v %q", ok, got)
	}
	j, cached, err := q.Submit(req, "test")
	if err != nil || !cached {
		t.Fatalf("submission of peer-held key did not coalesce: %v %v", err, cached)
	}
	res, state, ok := q.Result(j.ID)
	if !ok || state != JobDone || !bytes.Equal(res, out) {
		t.Fatalf("remote-backed job result: ok=%v state=%s %q", ok, state, res)
	}
	if st := q.Stats(); st.RemoteHits != 1 || st.RemoteResults != 1 || st.RemoteBytes != len(out) {
		t.Fatalf("remote stats: %+v", st)
	}
	// The store keeps the newest maxRetained results and evicts the
	// oldest first. (The evicted key's bytes remain reachable through the
	// done job it coalesced into — only the peer-fetched copy is dropped.)
	q.maxRetained = 1
	q.PutRemote(strings.Repeat("b", 64), []byte("12345"))
	if st := q.Stats(); st.RemoteResults != 1 || st.RemoteBytes != 5 {
		t.Fatalf("FIFO eviction did not drop the oldest remote result: %+v", st)
	}
	if got, ok := q.ResultByKey(key); !ok || !bytes.Equal(got, out) {
		t.Fatalf("evicted key no longer served through its job: %v %q", ok, got)
	}
}

// The peer-result store keeps the rule the job store keeps: the newest
// maxRetained results, the oldest out first. Random PutRemote / Submit /
// ResultByKey sequences are held step by step to a model of both stores:
// the node keeps exactly the model's peer keys in their order, serves what
// the model serves, and its remote gauges read the model's.
func TestRemoteStoreKeepsTheRule(t *testing.T) {
	const retained = 3
	q := NewRunQueue(4096, 1, 1)
	q.Shutdown() // nothing runs: the test finishes each queued job itself
	q.maxRetained = retained
	type result struct {
		key string
		out []byte
	}
	var peer, local []result // the newest retained of each, oldest first
	find := func(rs []result, key string) ([]byte, bool) {
		for _, r := range rs {
			if r.key == key {
				return r.out, true
			}
		}
		return nil, false
	}
	keep := func(rs []result, r result) []result {
		if rs = append(rs, r); len(rs) > retained {
			rs = rs[1:]
		}
		return rs
	}
	var remoteHits uint64
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 3000; step++ {
		req := RunRequest{Scenario: "mgmttest/echo", Seed: int64(1 + rng.Intn(8))}
		key := req.CacheKey()
		switch rng.Intn(3) {
		case 0:
			out := []byte(fmt.Sprintf("peer %d %s", step, strings.Repeat("x", rng.Intn(9))))
			if rng.Intn(8) == 0 {
				out = nil // an empty result is not kept
			}
			q.PutRemote(key, out)
			if _, held := find(peer, key); len(out) > 0 && !held {
				peer = keep(peer, result{key, out})
			}
		case 1:
			snap, cached, err := q.Submit(req, "test")
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			_, isLocal := find(local, key)
			out, isPeer := find(peer, key)
			if cached != (isLocal || isPeer) {
				t.Fatalf("step %d: submit cached=%v, the model holds it locally %v, from a peer %v", step, cached, isLocal, isPeer)
			}
			switch {
			case isLocal: // coalesced onto the retained job: nothing installed
			case isPeer:
				remoteHits++
				local = keep(local, result{key, out})
			default: // the run the queue would have made
				out = []byte(fmt.Sprintf("local %d", step))
				q.mu.Lock()
				q.jobs[snap.ID].State, q.jobs[snap.ID].output = JobDone, out
				q.mu.Unlock()
				local = keep(local, result{key, out})
			}
		case 2:
			got, ok := q.ResultByKey(key)
			want, held := find(local, key)
			if !held {
				want, held = find(peer, key)
			}
			if ok != held || !bytes.Equal(got, want) {
				t.Fatalf("step %d: ResultByKey = %v %q, the model serves %v %q", step, ok, got, held, want)
			}
		}
		var keys []string
		bytesHeld := 0
		for _, r := range peer {
			keys = append(keys, r.key)
			bytesHeld += len(r.out)
		}
		if !slices.Equal(q.remoteOrder, keys) || len(q.remote) != len(keys) {
			t.Fatalf("step %d: the store holds %d keys in the order %v, the model %v", step, len(q.remote), q.remoteOrder, keys)
		}
		if st := q.Stats(); st.RemoteResults != len(peer) || st.RemoteBytes != bytesHeld || st.RemoteHits != remoteHits {
			t.Fatalf("step %d: remote gauges %d results, %d bytes, %d hits; the model %d, %d, %d",
				step, st.RemoteResults, st.RemoteBytes, st.RemoteHits, len(peer), bytesHeld, remoteHits)
		}
	}
}

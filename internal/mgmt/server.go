package mgmt

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"regexp"
	"strconv"
	"time"

	"stardust/internal/distsim"
	"stardust/internal/engine"
	"stardust/internal/sim"
	"stardust/internal/telemetry"
)

// maxBodyBytes caps every body-decoding endpoint (run submission, twin
// replay). Oversized bodies get 413 with a JSON error instead of an
// unbounded read.
const maxBodyBytes = 64 << 20

// Cluster is the peer-ring view the server consults when stardustd runs
// as part of a multi-node serving tier (implemented by
// internal/cluster; nil for a solo daemon).
type Cluster interface {
	// Owner maps a cache key to its ring owner and reports whether that
	// owner is this node.
	Owner(key string) (addr string, local bool)
	// ForwardSubmit relays a submission toward the key's owner, walking
	// ring successors with bounded retry/backoff on failure. It returns
	// the answering peer's response. ErrPlaceLocal means placement fell
	// through to this node (owner and every earlier successor
	// unreachable, or this node is next in ring order): the caller must
	// submit locally.
	ForwardSubmit(ctx context.Context, req RunRequest, client string) (*ForwardResult, error)
	// FetchResult retrieves the result bytes for a cache key from the
	// first peer (in ring order) that has them.
	FetchResult(ctx context.Context, key string) (out []byte, from string, err error)
	// Info describes ring membership and forwarding counters.
	Info() any
}

// ErrPlaceLocal is returned by Cluster.ForwardSubmit when ring
// placement lands on the local node.
var ErrPlaceLocal = errors.New("cluster: placement is local")

// ForwardResult is the answering peer's response to a forwarded
// submission, proxied back to the client verbatim.
type ForwardResult struct {
	Status     int
	Body       []byte
	Served     string // address of the peer that answered
	RetryAfter string // peer's Retry-After header on 429 backpressure
}

// Server is stardustd's HTTP face: scenario metadata, run submission
// over the bounded queue, run progress streaming, live fabric telemetry
// and events, and a Prometheus-style /metrics endpoint. The fabric run
// is optional (nil when the daemon serves scenario runs only).
type Server struct {
	mux     *http.ServeMux
	q       *RunQueue
	run     *FabricRun
	cluster Cluster
	started time.Time
}

// NewServer wires the routes. fr may be nil.
func NewServer(q *RunQueue, fr *FabricRun) *Server {
	s := &Server{mux: http.NewServeMux(), q: q, run: fr, started: time.Now()}
	s.mux.HandleFunc("GET /healthz", s.health)
	s.mux.HandleFunc("GET /api/v1/scenarios", s.scenarios)
	s.mux.HandleFunc("POST /api/v1/runs", s.submit)
	s.mux.HandleFunc("GET /api/v1/runs", s.listRuns)
	s.mux.HandleFunc("GET /api/v1/runs/{id}", s.getRun)
	s.mux.HandleFunc("GET /api/v1/runs/{id}/result", s.getResult)
	s.mux.HandleFunc("GET /api/v1/runs/{id}/stream", s.streamRun)
	s.mux.HandleFunc("GET /api/v1/cache/{key}", s.cacheGet)
	s.mux.HandleFunc("GET /api/v1/cluster", s.clusterInfo)
	s.mux.HandleFunc("GET /api/v1/fabric", s.fabricInfo)
	s.mux.HandleFunc("GET /api/v1/fabric/telemetry", s.telemetry)
	s.mux.HandleFunc("GET /api/v1/fabric/events", s.events)
	s.mux.HandleFunc("GET /api/v1/fabric/anomalies", s.anomalies)
	s.mux.HandleFunc("GET /api/v1/transport", s.transport)
	s.mux.HandleFunc("GET /api/v1/telemetry/stream", s.telemetryStream)
	s.mux.HandleFunc("GET /api/v1/telemetry/findings", s.telemetryFindings)
	s.mux.HandleFunc("POST /api/v1/replay", s.replay)
	s.mux.HandleFunc("GET /api/v1/distsim", s.distsimStats)
	s.mux.HandleFunc("GET /metrics", s.metrics)
	// Live profiling of the daemon (the server uses its own mux, so the
	// net/http/pprof handlers are wired explicitly rather than relying on
	// that package's DefaultServeMux side effect):
	//
	//	go tool pprof http://localhost:8080/debug/pprof/profile?seconds=10
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) health(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"uptime": time.Since(s.started).Round(time.Millisecond).String(),
		"fabric": s.run != nil,
	})
}

// scenarioInfo is the API face of one registry entry — the same
// metadata engine's -list prints, structured.
type scenarioInfo struct {
	Name   string            `json:"name"`
	Desc   string            `json:"desc"`
	Params []engine.ParamDoc `json:"params,omitempty"`
}

func (s *Server) scenarios(w http.ResponseWriter, r *http.Request) {
	var out []scenarioInfo
	for _, sc := range engine.List() {
		out = append(out, scenarioInfo{Name: sc.Name, Desc: sc.Desc, Params: sc.ParamDocs()})
	}
	writeJSON(w, http.StatusOK, out)
}

// SetCluster attaches the peer-ring view. Call before serving.
func (s *Server) SetCluster(c Cluster) { s.cluster = c }

// headerClient identifies the submitting client for fair-share
// accounting: the X-Stardust-Client header when present (preserved
// across peer forwarding), otherwise the remote host.
func headerClient(r *http.Request) string {
	if c := r.Header.Get("X-Stardust-Client"); c != "" {
		return c
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// decodeBody JSON-decodes a capped request body, distinguishing an
// oversized body (413) from malformed JSON (400).
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	err := json.NewDecoder(r.Body).Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooBig):
		writeErr(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
	default:
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	return false
}

func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if !decodeBody(w, r, &req) {
		return
	}
	// Refuse an unknown scenario or an undeclared parameter before the
	// request is keyed: it must leave no job, no cache entry and no ring
	// forward behind.
	if _, err := engine.Resolve(req.Scenario, req.Params); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	client := headerClient(r)
	// Clustered placement: a submission for a key owned by a peer is
	// forwarded there (unless already cached here, or it arrived via a
	// peer — forwarded submissions always execute locally, so placement
	// cannot loop). Owner failure walks ring successors; if every
	// candidate peer is unreachable this node is the fallback.
	if s.cluster != nil && r.Header.Get("X-Stardust-Forwarded") == "" {
		key := req.CacheKey()
		if _, cached := s.q.Cached(key); !cached {
			if _, local := s.cluster.Owner(key); !local {
				fwd, err := s.cluster.ForwardSubmit(r.Context(), req, client)
				if err == nil {
					w.Header().Set("Content-Type", "application/json")
					w.Header().Set("X-Stardust-Served-By", fwd.Served)
					if fwd.RetryAfter != "" {
						w.Header().Set("Retry-After", fwd.RetryAfter)
					}
					w.WriteHeader(fwd.Status)
					w.Write(fwd.Body)
					return
				}
				if !errors.Is(err, ErrPlaceLocal) {
					writeErr(w, http.StatusServiceUnavailable, "forwarding to ring owner failed: %v", err)
					return
				}
			}
		}
	}
	job, cached, err := s.q.Submit(req, client)
	var ov *OverloadError
	switch {
	case errors.As(err, &ov):
		w.Header().Set("Retry-After", strconv.Itoa(int(ov.RetryAfter.Round(time.Second)/time.Second)))
		writeErr(w, http.StatusTooManyRequests, "%v", err)
		return
	case err != nil:
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	code := http.StatusAccepted
	if cached {
		code = http.StatusOK
	}
	writeJSON(w, code, job)
}

// cacheKeyPat is the shape of a content address: 64 hex chars.
var cacheKeyPat = regexp.MustCompile(`^[0-9a-f]{64}$`)

// cacheGet serves result bytes by content address. A local hit — a run
// completed here or a result already fetched from a peer — is pure
// byte-serving. On a miss, a clustered node fetches the bytes from the
// ring (owner first) and installs them in its local store, so the next
// read of the same key is a local hit; ?local=1 disables the peer fetch
// (that is what peers themselves ask for, so fetches cannot loop).
func (s *Server) cacheGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !cacheKeyPat.MatchString(key) {
		writeErr(w, http.StatusBadRequest, "bad cache key %q (want 64 hex chars)", key)
		return
	}
	if out, ok := s.q.ResultByKey(key); ok {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(out)))
		w.Header().Set("X-Stardust-Cache", "hit")
		w.Write(out)
		return
	}
	if s.cluster == nil || r.URL.Query().Get("local") == "1" {
		writeErr(w, http.StatusNotFound, "no cached result for %s", key)
		return
	}
	out, from, err := s.cluster.FetchResult(r.Context(), key)
	if err != nil {
		writeErr(w, http.StatusNotFound, "no node holds a result for %s: %v", key, err)
		return
	}
	s.q.PutRemote(key, out)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(out)))
	w.Header().Set("X-Stardust-Cache", "peer "+from)
	w.Write(out)
}

// clusterInfo describes ring membership and forwarding counters.
func (s *Server) clusterInfo(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		writeErr(w, http.StatusNotFound, "not clustered (start stardustd with -cluster-peers)")
		return
	}
	writeJSON(w, http.StatusOK, s.cluster.Info())
}

func (s *Server) listRuns(w http.ResponseWriter, r *http.Request) {
	max, _ := strconv.Atoi(r.URL.Query().Get("max"))
	writeJSON(w, http.StatusOK, s.q.List(max))
}

func (s *Server) getRun(w http.ResponseWriter, r *http.Request) {
	job, ok := s.q.Get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no run %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (s *Server) getResult(w http.ResponseWriter, r *http.Request) {
	out, state, ok := s.q.Result(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no run %q", r.PathValue("id"))
		return
	}
	if state != JobDone {
		writeErr(w, http.StatusConflict, "run %s is %s", r.PathValue("id"), state)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(out)
}

// streamRun emits the job's progress as NDJSON, following the job until
// it finishes (or the client goes away). Each line is one ProgressEvent;
// the final line is the job snapshot.
func (s *Server) streamRun(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.q.Get(id); !ok {
		writeErr(w, http.StatusNotFound, "no run %q", id)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	sent := 0
	tick := newPollTimer()
	defer tick.Stop()
	for {
		extendWriteDeadline(w)
		job, ok := s.q.Get(id)
		if !ok {
			return
		}
		for _, p := range job.Progress[sent:] {
			enc.Encode(p)
			sent++
		}
		if job.State == JobDone || job.State == JobFailed {
			enc.Encode(job)
			if fl != nil {
				fl.Flush()
			}
			return
		}
		if fl != nil {
			fl.Flush()
		}
		select {
		case <-r.Context().Done():
			return
		case <-tick.wait(50 * time.Millisecond):
		}
	}
}

// pollTimer is a reused timer for the NDJSON polling loops — one
// allocation for the whole stream instead of a fresh time.After timer
// every tick.
type pollTimer struct{ t *time.Timer }

func newPollTimer() pollTimer {
	t := time.NewTimer(time.Hour)
	if !t.Stop() {
		<-t.C
	}
	return pollTimer{t}
}

// wait re-arms the timer; the caller must consume the returned channel
// (or return, after which Stop cleans up).
func (p pollTimer) wait(d time.Duration) <-chan time.Time {
	p.t.Reset(d)
	return p.t.C
}

func (p pollTimer) Stop() { p.t.Stop() }

// extendWriteDeadline pushes the connection's write deadline out for
// one more polling interval, so long-lived streaming responses (run
// progress, finding tails) keep flowing under a server-wide
// WriteTimeout while a genuinely stalled client still times out.
func extendWriteDeadline(w http.ResponseWriter) {
	// Errors ignored: httptest recorders and exotic wrappers don't
	// support deadlines, and a failure here only means the server-wide
	// timeout stays in force.
	http.NewResponseController(w).SetWriteDeadline(time.Now().Add(30 * time.Second))
}

func (s *Server) needFabric(w http.ResponseWriter) bool {
	if s.run == nil {
		writeErr(w, http.StatusNotFound, "no fabric run attached (start stardustd with -fabric-k)")
		return false
	}
	return true
}

func (s *Server) fabricInfo(w http.ResponseWriter, r *http.Request) {
	if !s.needFabric(w) {
		return
	}
	info := map[string]any{
		"config":    s.run.Cfg,
		"inventory": s.run.Ctl.Inventory(),
		"stats":     s.run.Ctl.Stats(),
	}
	if s.run.Rec != nil {
		info["telemetry_stream"] = s.run.Rec.Stats()
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) telemetry(w http.ResponseWriter, r *http.Request) {
	if !s.needFabric(w) {
		return
	}
	qs := r.URL.Query()
	if ls := qs.Get("link"); ls != "" {
		link, err := strconv.Atoi(ls)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad link %q", ls)
			return
		}
		dir, _ := strconv.Atoi(qs.Get("dir"))
		series, err := s.run.Ctl.LinkSeries(link, dir)
		if err != nil {
			writeErr(w, http.StatusNotFound, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"link": link, "dir": dir, "series": series})
		return
	}
	writeJSON(w, http.StatusOK, s.run.Ctl.Telemetry())
}

func (s *Server) events(w http.ResponseWriter, r *http.Request) {
	if !s.needFabric(w) {
		return
	}
	since, _ := strconv.ParseUint(r.URL.Query().Get("since"), 10, 64)
	max, _ := strconv.Atoi(r.URL.Query().Get("max"))
	bus := s.run.Ctl.Bus()
	evs := bus.Since(since, max)
	writeJSON(w, http.StatusOK, map[string]any{
		"last_seq": bus.LastSeq(),
		"events":   evs,
		"bus":      bus.Stats(),
	})
}

func (s *Server) needRecorder(w http.ResponseWriter) bool {
	if s.run == nil || s.run.Rec == nil {
		writeErr(w, http.StatusNotFound, "no telemetry recorder attached (start stardustd with -fabric-telem)")
		return false
	}
	return true
}

// telemetryStream downloads the recorded STREC1 stream as captured so
// far — a consistent prefix of the durable trace, replayable offline.
func (s *Server) telemetryStream(w http.ResponseWriter, r *http.Request) {
	if !s.needRecorder(w) {
		return
	}
	data := s.run.TelemBuf.Bytes()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", "attachment; filename=\"fabric.strec\"")
	if s.run.TelemBuf.Truncated() {
		w.Header().Set("X-Stardust-Stream-Truncated", "true")
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.Write(data)
}

// telemetryFindings serves the online analyzers' findings: a JSON page
// by default, or an NDJSON live tail with ?follow=1 (one finding per
// line as the analyzers emit them, until the client disconnects).
func (s *Server) telemetryFindings(w http.ResponseWriter, r *http.Request) {
	if !s.needRecorder(w) {
		return
	}
	log := s.run.Findings
	since, _ := strconv.ParseUint(r.URL.Query().Get("since"), 10, 64)
	max, _ := strconv.Atoi(r.URL.Query().Get("max"))
	if max <= 0 {
		max = 256
	}
	if r.URL.Query().Get("follow") == "" {
		fs, next := log.Since(since, max)
		writeJSON(w, http.StatusOK, map[string]any{
			"total":    log.Total(),
			"next":     next,
			"findings": fs,
		})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	cursor := since
	tick := newPollTimer()
	defer tick.Stop()
	for {
		extendWriteDeadline(w)
		fs, next := log.Since(cursor, max)
		for i := range fs {
			enc.Encode(&fs[i])
		}
		if len(fs) > 0 && fl != nil {
			fl.Flush()
		}
		cursor = next
		select {
		case <-r.Context().Done():
			return
		case <-tick.wait(100 * time.Millisecond):
		}
	}
}

// replayOverrides parses the what-if knobs off a replay request's query
// string into distsim overrides.
func replayOverrides(r *http.Request) (distsim.Overrides, error) {
	var ov distsim.Overrides
	q := r.URL.Query()
	var err error
	geti := func(key string) int {
		if err != nil || q.Get(key) == "" {
			return 0
		}
		var v int
		if v, err = strconv.Atoi(q.Get(key)); err != nil {
			err = fmt.Errorf("bad %s %q", key, q.Get(key))
		}
		return v
	}
	getf := func(key string) float64 {
		if err != nil || q.Get(key) == "" {
			return 0
		}
		var v float64
		if v, err = strconv.ParseFloat(q.Get(key), 64); err != nil {
			err = fmt.Errorf("bad %s %q", key, q.Get(key))
		}
		return v
	}
	ov.Shards = geti("shards")
	ov.K = geti("k")
	ov.Seed = int64(geti("seed"))
	ov.Load = getf("load")
	ov.Hotspot = getf("hotspot")
	ov.FailAt = sim.Time(geti("fail_at_ps"))
	ov.HealAt = sim.Time(geti("heal_at_ps"))
	for _, ls := range q["fail_link"] {
		lk, cerr := strconv.Atoi(ls)
		if cerr != nil {
			return ov, fmt.Errorf("bad fail_link %q", ls)
		}
		ov.FailLinks = append(ov.FailLinks, lk)
	}
	return ov, err
}

// replay is the digital-twin endpoint: POST a recorded STREC1 stream
// (the body), optionally with what-if overrides as query parameters
// (fail_link, k, seed, shards, load, hotspot, fail_at_ps, heal_at_ps),
// and the daemon re-drives the fabric from the stream's embedded spec
// and returns the divergence report. An unchanged replay of a recorded
// run reports zero divergence; anything else is exactly the effect of
// the overrides.
func (s *Server) replay(w http.ResponseWriter, r *http.Request) {
	stream, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, http.StatusRequestEntityTooLarge, "stream body exceeds %d bytes", tooBig.Limit)
			return
		}
		writeErr(w, http.StatusBadRequest, "reading stream body: %v", err)
		return
	}
	if len(stream) == 0 {
		writeErr(w, http.StatusBadRequest,
			"empty body: POST a recorded STREC1 stream (record one with the trace/record scenario)")
		return
	}
	ov, err := replayOverrides(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	div, outc, replayed, err := distsim.Replay(stream, ov)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "replay failed: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"divergence":     div,
		"summary":        div.String(),
		"overrides":      ov,
		"outcome":        outc,
		"replayed_bytes": len(replayed),
	})
}

// distsimStats serves the distributed runtime's metrics as JSON (the same
// counters /metrics renders in Prometheus form): the coordinator's window
// counts and, under "coord.peers", where each peer's wall time went.
func (s *Server) distsimStats(w http.ResponseWriter, r *http.Request) {
	snap := distsim.DefaultStats.Snapshot()
	writeJSON(w, http.StatusOK, map[string]any{
		"coord":             snap,
		"barrier_seconds":   snap.BarrierLatency,
		"window_mail_bytes": snap.WindowMailBytes,
	})
}

func (s *Server) anomalies(w http.ResponseWriter, r *http.Request) {
	if !s.needFabric(w) {
		return
	}
	writeJSON(w, http.StatusOK, s.run.Ctl.Anomalies())
}

// transport serves the barrier-scraped counters of the sharded Stardust
// transport overlay.
func (s *Server) transport(w http.ResponseWriter, r *http.Request) {
	if s.run == nil || s.run.Trans == nil {
		writeErr(w, http.StatusNotFound, "no transport overlay attached (start stardustd with -transport-hosts-per)")
		return
	}
	writeJSON(w, http.StatusOK, s.run.Trans.Stats())
}

// metrics is the Prometheus text exposition: queue and cache counters,
// and — when a fabric run is attached — the chassis aggregates including
// the failure/recovery event counters.
func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	qs := s.q.Stats()
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %g\n", name, help, name, name, v)
	}
	counter("stardustd_runs_submitted_total", "scenario-run submissions", float64(qs.Submitted))
	counter("stardustd_runs_cache_hits_total", "submissions served from the content-addressed result cache", float64(qs.CacheHits))
	counter("stardustd_runs_completed_total", "scenario runs completed", float64(qs.Completed))
	counter("stardustd_runs_failed_total", "scenario runs failed", float64(qs.Failed))
	counter("stardustd_runs_rejected_total", "submissions rejected by admission control", float64(qs.Rejected))
	counter("stardustd_runs_rejected_fair_total", "submissions rejected by the per-client fair-share policy", float64(qs.RejectedFair))
	counter("stardustd_runs_remote_hits_total", "submissions served from peer-fetched results", float64(qs.RemoteHits))
	gauge("stardustd_runs_queued", "jobs waiting in the bounded queue", float64(qs.Depth))
	gauge("stardustd_runs_running", "jobs currently executing", float64(qs.Running))
	gauge("stardustd_run_queue_capacity", "bounded queue capacity (total pending jobs)", float64(qs.Capacity))
	gauge("stardustd_run_queue_active_clients", "clients with pending runs", float64(qs.ActiveClients))
	gauge("stardustd_remote_results", "peer-fetched results held in the local store", float64(qs.RemoteResults))
	gauge("stardustd_remote_result_bytes", "bytes held in the peer-fetched result store", float64(qs.RemoteBytes))
	// Distributed-coordinator metrics are process-wide (any distsim run
	// this daemon coordinated), so they render with or without a fabric.
	ds := distsim.DefaultStats.Snapshot()
	counter("stardust_distsim_runs_total", "distributed runs coordinated", float64(ds.Runs))
	counter("stardust_distsim_windows_total", "lock-step windows accounted by the coordinator", float64(ds.Windows))
	counter("stardust_distsim_telemetry_windows_total", "telemetry stream windows emitted by the coordinator", float64(ds.TelemetryWindows))
	counter("stardust_distsim_mail_frames_total", "peer-to-peer XCHG frames carrying mail, as the peers report them", float64(ds.MailFrames))
	counter("stardust_distsim_mail_entries_total", "cross-peer mail entries exchanged", float64(ds.MailEntries))
	counter("stardust_distsim_raw_bytes_total", "frame bytes the peers wrote (mesh and coordinator stream), before compression", float64(ds.RawBytes))
	counter("stardust_distsim_wire_bytes_total", "the same frames as they went on the wire", float64(ds.WireBytes))
	gauge("stardust_distsim_compression_ratio", "raw/wire byte ratio of the peers' traffic", ds.CompressionRatio)
	gauge("stardust_distsim_straggler", "peer the others spent longest waiting on (-1: nobody waited)", float64(ds.Straggler))
	perPeer := func(name, typ, help string, v func(distsim.PeerStats) float64) {
		if len(ds.Peers) == 0 {
			return
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for _, p := range ds.Peers {
			fmt.Fprintf(w, "%s{peer=\"%d\"} %g\n", name, p.Peer, v(p))
		}
	}
	perPeer("stardust_distsim_peer_busy_seconds_total", "counter", "wall time a peer spent stepping its shards and in the mail codec",
		func(p distsim.PeerStats) float64 { return p.Busy })
	perPeer("stardust_distsim_peer_wait_seconds_total", "counter", "wall time a peer spent blocked on its neighbours' XCHG frames",
		func(p distsim.PeerStats) float64 { return p.Wait })
	perPeer("stardust_distsim_peer_waited_on_seconds_total", "counter", "wall time the other peers spent blocked on this peer",
		func(p distsim.PeerStats) float64 { return p.WaitedOn })
	perPeer("stardust_distsim_peer_poll_tries_total", "counter", "non-blocking read attempts a peer's mesh links made before parking",
		func(p distsim.PeerStats) float64 { return float64(p.PollTries) })
	perPeer("stardust_distsim_peer_poll_ready_total", "counter", "mesh reads a peer satisfied without parking",
		func(p distsim.PeerStats) float64 { return float64(p.PollReady) })
	perPeer("stardust_distsim_peer_poll_parks_total", "counter", "mesh reads a peer waited out in the netpoller",
		func(p distsim.PeerStats) float64 { return float64(p.Parks) })
	perPeer("stardust_distsim_peer_poll_links", "gauge", "mesh links of a peer that polled when it last reported (a gauge: the others have backed off to parking)",
		func(p distsim.PeerStats) float64 { return float64(p.PollingLinks) })
	telemetry.WriteProm(w, "stardust_distsim_barrier_seconds", "per-window mesh wait of one peer: from its own XCHG frames sent to everyone else's received", ds.BarrierLatency)
	telemetry.WriteProm(w, "stardust_distsim_window_mail_bytes", "raw mail entry bytes the peers exchanged per window", ds.WindowMailBytes)
	if s.run == nil {
		return
	}
	st := s.run.Ctl.Stats()
	gauge("stardust_fabric_sim_seconds", "simulated time of the managed fabric", st.Time.Seconds())
	counter("stardust_mgmt_scrapes_total", "telemetry scrapes", float64(st.Scrapes))
	counter("stardust_fabric_cells_injected_total", "cells injected into the fabric", float64(st.Injected))
	counter("stardust_fabric_cells_delivered_total", "cells delivered to their destination FA", float64(st.Delivered))
	counter("stardust_fabric_cells_dropped_total", "cells lost in the fabric", float64(st.Drops))
	gauge("stardust_fabric_links", "full-duplex serial links", float64(st.Links))
	gauge("stardust_fabric_links_down", "links currently failed", float64(st.LinksDown))
	gauge("stardust_fabric_unreachable_pairs", "reachability holes ((spine,FA) pairs with no live path)", float64(st.Unreachable))
	gauge("stardust_fabric_queue_bytes", "bytes queued across all link serializers", float64(st.QueueBytes))
	counter("stardust_fabric_link_failures_total", "link failure events", float64(st.LinkFailures))
	counter("stardust_fabric_link_recoveries_total", "link recovery events", float64(st.LinkRecovers))
	counter("stardust_mgmt_reach_updates_total", "reachability withdrawals/readvertisements observed at the spine", float64(st.ReachUpdates))
	counter("stardust_mgmt_events_total", "management events published", float64(s.run.Ctl.Bus().LastSeq()))
	bs := s.run.Ctl.Bus().Stats()
	counter("stardust_mgmt_events_dropped_total", "events lost to full subscriber channels", float64(bs.Dropped))
	counter("stardust_mgmt_events_evicted_total", "retained events overwritten by ring wrap-around", float64(bs.Evicted))
	gauge("stardust_mgmt_event_subscribers", "live event bus subscribers", float64(bs.Subscribers))
	gauge("stardust_mgmt_anomalies", "active anomaly findings", float64(len(s.run.Ctl.Anomalies())))
	if s.run.Rec != nil {
		rs := s.run.Rec.Stats()
		counter("stardust_telemetry_windows_total", "STREC1 windows recorded", float64(rs.Windows))
		gauge("stardust_telemetry_stream_bytes", "recorded stream size in memory", float64(rs.Bytes))
		counter("stardust_telemetry_findings_total", "online analyzer findings", float64(rs.Findings))
	}
	if s.run.Trans == nil {
		return
	}
	ts := s.run.Trans.Stats()
	counter("stardust_transport_scrapes_total", "transport barrier scrapes", float64(ts.Scrapes))
	counter("stardust_transport_cells_sent_total", "cells fragmented by the source adapters", float64(ts.CellsSent))
	counter("stardust_transport_cells_delivered_total", "cells reassembled at destination adapters", float64(ts.CellsDelivered))
	counter("stardust_transport_credits_sent_total", "credit grants issued by the egress schedulers", float64(ts.CreditsSent))
	counter("stardust_transport_voq_drops_total", "ingress VOQ tail-drops", float64(ts.VOQDrops))
	counter("stardust_transport_reasm_timeouts_total", "reassembly-timer packet discards", float64(ts.ReasmTimeouts))
	counter("stardust_transport_delivered_bytes_total", "packet bytes delivered in order", float64(ts.DeliveredBytes))
}

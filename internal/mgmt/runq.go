package mgmt

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"stardust/internal/engine"
)

// RunRequest is one scenario-run submission.
type RunRequest struct {
	Scenario string        `json:"scenario"`
	Params   engine.Params `json:"params,omitempty"`
	Seed     int64         `json:"seed,omitempty"` // 0 = 1, the engine default
}

// normalized returns the request with the default seed applied, so
// equivalent requests share one cache entry.
func (r RunRequest) normalized() RunRequest {
	if r.Seed == 0 {
		r.Seed = 1
	}
	return r
}

// CacheKey content-addresses the request: the SHA-256 of the scenario
// name, the seed, and the sorted parameter assignments. Engine runs are
// deterministic at any worker count, so (scenario, params, seed) fully
// determines the result bytes — the key is the result's address.
func (r RunRequest) CacheKey() string {
	r = r.normalized()
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%d\x00", r.Scenario, r.Seed)
	keys := make([]string, 0, len(r.Params))
	for k := range r.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s\x00", k, r.Params[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// JobState is the lifecycle of a submitted run.
type JobState string

// Job lifecycle states.
const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// ProgressEvent is one line of a job's progress stream.
type ProgressEvent struct {
	Seq     int       `json:"seq"`
	Wall    time.Time `json:"wall"`
	Msg     string    `json:"msg"`
	Elapsed float64   `json:"elapsed_s,omitempty"` // instance wall time
}

// Job is one queued/running/finished scenario run. All fields are
// guarded by the owning queue's mutex; handlers read Snapshots.
type Job struct {
	ID        string          `json:"id"`
	Req       RunRequest      `json:"request"`
	Key       string          `json:"cache_key"`
	State     JobState        `json:"state"`
	Cached    bool            `json:"cached"` // served by coalescing onto an earlier submission
	Submitted time.Time       `json:"submitted"`
	Started   time.Time       `json:"started,omitzero"`
	Finished  time.Time       `json:"finished,omitzero"`
	Error     string          `json:"error,omitempty"`
	Progress  []ProgressEvent `json:"progress,omitempty"`

	output []byte // rendered engine JSON; served byte-identical
	client string // admission-accounting identity of the submitter
	done   chan struct{}
}

// QueueStats is the run queue's counter snapshot. Depth and Running are
// computed at snapshot time, never cached, so /metrics always reports
// the live queue state.
type QueueStats struct {
	Depth         int    `json:"depth"`
	Capacity      int    `json:"capacity"`
	Running       int    `json:"running"`
	ActiveClients int    `json:"active_clients"`
	Submitted     uint64 `json:"submitted_total"`
	CacheHits     uint64 `json:"cache_hits_total"`
	RemoteHits    uint64 `json:"remote_hits_total"`
	Completed     uint64 `json:"completed_total"`
	Failed        uint64 `json:"failed_total"`
	Rejected      uint64 `json:"rejected_total"`
	RejectedFair  uint64 `json:"rejected_fair_total"`
	RemoteResults int    `json:"remote_results"`
	RemoteBytes   int    `json:"remote_bytes"`
}

// clientAcct is one API client's admission state: how many of its jobs
// are pending (queued or running) plus lifetime counters. Clients are
// identified by the X-Stardust-Client header or the remote host.
type clientAcct struct {
	pending   int
	submitted uint64
	rejected  uint64
	lastSeen  time.Time
}

// MaxRetained is how many finished jobs, and apart from them how many
// peer-fetched results, a run queue keeps; the oldest go first.
const MaxRetained = 256

// RunQueue executes scenario runs on a bounded queue over the engine
// worker pool, deduplicating through a content-addressed result cache:
// a submission whose (scenario, params, seed) digest matches a live or
// completed job is coalesced onto that job instead of re-simulating, so
// repeated requests — concurrent or later — serve the identical bytes.
type RunQueue struct {
	engineWorkers int
	workers       int
	maxRetained   int // finished jobs and peer-fetched results kept, each; older ones evicted

	mu          sync.Mutex
	queue       chan *Job
	jobs        map[string]*Job
	order       []*Job          // retained jobs in submission order, all newer than held's
	held        []*Job          // retained jobs evictLocked met live at order's front, in submission order
	byKey       map[string]*Job // content-addressed cache (queued, running or done)
	clients     map[string]*clientAcct
	remote      map[string][]byte // peer-fetched results by cache key
	remoteOrder []string          // their keys, oldest first
	nextID      int
	pending     int // queued + running jobs (admission-controlled total)
	running     int
	ewmaRunSec  float64 // smoothed job duration, for Retry-After estimates
	stats       QueueStats

	wg   sync.WaitGroup
	stop chan struct{}
}

// NewRunQueue starts workers goroutines serving a queue of the given
// depth; each job runs through engine.Run with engineWorkers parallel
// instances. Close it with Shutdown.
func NewRunQueue(depth, workers, engineWorkers int) *RunQueue {
	if depth < 1 {
		depth = 16
	}
	if workers < 1 {
		workers = 1
	}
	// engineWorkers <= 0 passes through: engine.Run reads it as "all
	// CPUs" (GOMAXPROCS), the daemon's documented -run-workers default.
	q := &RunQueue{
		engineWorkers: engineWorkers,
		workers:       workers,
		maxRetained:   MaxRetained,
		queue:         make(chan *Job, depth),
		jobs:          make(map[string]*Job),
		byKey:         make(map[string]*Job),
		clients:       make(map[string]*clientAcct),
		remote:        make(map[string][]byte),
		ewmaRunSec:    1,
		stop:          make(chan struct{}),
	}
	q.stats.Capacity = depth
	for i := 0; i < workers; i++ {
		q.wg.Add(1)
		go q.worker()
	}
	return q
}

// Shutdown stops accepting jobs and waits for workers to drain.
func (q *RunQueue) Shutdown() {
	close(q.stop)
	q.wg.Wait()
}

// ErrQueueFull is the admission-control sentinel: errors.Is(err,
// ErrQueueFull) holds for a globally full queue (every slot taken,
// regardless of owner).
var ErrQueueFull = fmt.Errorf("mgmt: run queue full")

// OverloadError is Submit's backpressure signal. Global rejections mean
// the whole queue is at capacity; fairness rejections mean this client
// is over its fair share while other clients still have room. Either
// way RetryAfter estimates when a slot should free up, sized from the
// smoothed job duration and the backlog ahead of the client.
type OverloadError struct {
	Global     bool
	Client     string
	Share      int // the fair-share ceiling that was hit (fairness rejections)
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	if e.Global {
		return fmt.Sprintf("mgmt: run queue full (retry after %s)", e.RetryAfter)
	}
	return fmt.Sprintf("mgmt: client %q over fair share of %d pending runs (retry after %s)", e.Client, e.Share, e.RetryAfter)
}

// Is reports global rejections as ErrQueueFull for errors.Is callers.
func (e *OverloadError) Is(target error) bool { return target == ErrQueueFull && e.Global }

// acctLocked returns (creating if needed) the accounting slot for a
// client, sweeping long-idle zero-pending entries when the table grows
// past a bound so an open-world client population cannot leak memory.
func (q *RunQueue) acctLocked(client string) *clientAcct {
	a, ok := q.clients[client]
	if !ok {
		if len(q.clients) >= 4096 {
			for id, old := range q.clients {
				if old.pending == 0 && time.Since(old.lastSeen) > time.Minute {
					delete(q.clients, id)
				}
			}
		}
		a = &clientAcct{}
		q.clients[client] = a
	}
	a.lastSeen = time.Now()
	return a
}

// activeClientsLocked counts clients with work in flight.
func (q *RunQueue) activeClientsLocked() int {
	n := 0
	for _, a := range q.clients {
		if a.pending > 0 {
			n++
		}
	}
	return n
}

// retryAfterLocked estimates how long until a queue slot frees: the
// backlog ahead, divided across workers, times the smoothed per-job
// duration, clamped to [1s, 30s].
func (q *RunQueue) retryAfterLocked() time.Duration {
	batches := (q.pending + q.workers - 1) / q.workers
	if batches < 1 {
		batches = 1
	}
	d := time.Duration(float64(batches) * q.ewmaRunSec * float64(time.Second))
	if d < time.Second {
		d = time.Second
	}
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d
}

// Submit validates and enqueues a run request on behalf of a client.
// When the request's cache key matches a queued, running or completed
// job — or a peer-fetched result — that job is returned with
// cached=true and nothing is enqueued: the caller observes the
// identical result bytes. Admission is fair-share per client: the queue
// holds at most Capacity pending (queued+running) jobs in total, and
// with k clients active no single client may hold more than
// ceil(Capacity/k) of them, so a greedy client saturating the queue
// cannot starve others — as slots drain, its resubmissions bounce off
// the share ceiling while newcomers are admitted. Rejections return
// *OverloadError carrying a Retry-After estimate.
func (q *RunQueue) Submit(req RunRequest, client string) (Job, bool, error) {
	if _, err := engine.Resolve(req.Scenario, req.Params); err != nil {
		return Job{}, false, err
	}
	return q.submit(req, client)
}

// submit is Submit for a request its caller has already resolved.
func (q *RunQueue) submit(req RunRequest, client string) (Job, bool, error) {
	req = req.normalized()
	key := req.CacheKey()
	q.mu.Lock()
	defer q.mu.Unlock()
	q.stats.Submitted++
	acct := q.acctLocked(client)
	acct.submitted++
	if j, ok := q.byKey[key]; ok && j.State != JobFailed {
		q.stats.CacheHits++
		snap := q.snapshotLocked(j)
		snap.Cached = true
		return snap, true, nil
	}
	if out, ok := q.remote[key]; ok {
		// A peer already computed this key: serve its bytes as a local
		// completed job so follow-up status/result reads work as usual.
		q.stats.CacheHits++
		q.stats.RemoteHits++
		j := q.installLocked(req, key)
		j.State = JobDone
		j.Cached = true
		j.Finished = j.Submitted
		j.output = out
		close(j.done)
		snap := q.snapshotLocked(j)
		return snap, true, nil
	}
	if q.pending >= cap(q.queue) {
		q.stats.Rejected++
		acct.rejected++
		return Job{}, false, &OverloadError{Global: true, Client: client, RetryAfter: q.retryAfterLocked()}
	}
	active := q.activeClientsLocked()
	if acct.pending == 0 {
		active++
	}
	share := (cap(q.queue) + active - 1) / active
	if share < 1 {
		share = 1
	}
	if acct.pending >= share {
		q.stats.Rejected++
		q.stats.RejectedFair++
		acct.rejected++
		return Job{}, false, &OverloadError{Client: client, Share: share, RetryAfter: q.retryAfterLocked()}
	}
	j := q.installLocked(req, key)
	j.client = client
	acct.pending++
	q.pending++
	q.queue <- j // never blocks: pending < cap(queue) implies a free slot
	return q.snapshotLocked(j), false, nil
}

// installLocked registers a fresh job under the next run id.
func (q *RunQueue) installLocked(req RunRequest, key string) *Job {
	q.nextID++
	j := &Job{
		ID:        fmt.Sprintf("run-%06d", q.nextID),
		Req:       req,
		Key:       key,
		State:     JobQueued,
		Submitted: time.Now(),
		done:      make(chan struct{}),
	}
	q.jobs[j.ID] = j
	q.order = append(q.order, j)
	q.byKey[key] = j
	q.evictLocked()
	return j
}

// evictLocked bounds total retention: while more than maxRetained jobs
// are tracked, the oldest *finished* job (and its cached result bytes) is
// dropped. Queued and running jobs are never evicted, so the map can only
// exceed the cap by the bounded queue depth plus the worker count.
//
// The oldest finished job is the first finished one in held, else the
// first finished one in order; a live job met at the front of order moves
// to held. Each job crosses that front once, so an eviction costs O(1)
// amortized plus a walk of held, which the queue depth bounds.
func (q *RunQueue) evictLocked() {
	for len(q.held)+len(q.order) > q.maxRetained {
		if i := slices.IndexFunc(q.held, (*Job).finished); i >= 0 {
			q.dropLocked(q.held[i])
			q.held = slices.Delete(q.held, i, i+1)
			continue
		}
		for len(q.order) > 0 && !q.order[0].finished() {
			q.held = append(q.held, q.popOrderLocked())
		}
		if len(q.order) == 0 {
			return // every retained job is queued or running
		}
		q.dropLocked(q.popOrderLocked())
	}
}

// popOrderLocked removes and returns the oldest job of order.
func (q *RunQueue) popOrderLocked() *Job {
	j := q.order[0]
	q.order[0] = nil // the backing array must not keep it alive
	q.order = q.order[1:]
	return j
}

// dropLocked forgets an evicted job, and its cache entry if it holds one.
func (q *RunQueue) dropLocked(j *Job) {
	delete(q.jobs, j.ID)
	if q.byKey[j.Key] == j {
		delete(q.byKey, j.Key)
	}
}

// finished reports whether the job is done or failed: evictable.
func (j *Job) finished() bool { return j.State == JobDone || j.State == JobFailed }

func (q *RunQueue) worker() {
	defer q.wg.Done()
	for {
		select {
		case <-q.stop:
			return
		case j := <-q.queue:
			q.run(j)
		}
	}
}

func (q *RunQueue) run(j *Job) {
	q.mu.Lock()
	j.State = JobRunning
	j.Started = time.Now()
	q.running++
	q.addProgressLocked(j, fmt.Sprintf("running %s (%s) seed=%d", j.Req.Scenario, j.Req.Params, j.Req.Seed), 0)
	q.mu.Unlock()

	var out bytes.Buffer
	_, err := engine.Run(engine.Options{
		Workers: q.engineWorkers,
		Seed:    j.Req.Seed,
		Format:  "json",
		Out:     &out,
		Progress: func(r engine.RunResult) {
			q.mu.Lock()
			msg := fmt.Sprintf("instance %s (%s) finished", r.Name, r.Params)
			if r.Err != nil {
				msg = fmt.Sprintf("instance %s (%s) failed: %v", r.Name, r.Params, r.Err)
			}
			q.addProgressLocked(j, msg, r.Elapsed.Seconds())
			q.mu.Unlock()
		},
	}, []engine.Job{{Scenario: j.Req.Scenario, Params: j.Req.Params, Seed: j.Req.Seed}})

	q.mu.Lock()
	j.Finished = time.Now()
	q.running--
	q.pending--
	if a, ok := q.clients[j.client]; ok && a.pending > 0 {
		a.pending--
	}
	// Smooth the observed job duration for Retry-After estimates.
	q.ewmaRunSec = 0.8*q.ewmaRunSec + 0.2*j.Finished.Sub(j.Started).Seconds()
	if err != nil {
		j.State = JobFailed
		j.Error = err.Error()
		q.stats.Failed++
		// A failed job must not pin the cache slot: let a retry re-run.
		if q.byKey[j.Key] == j {
			delete(q.byKey, j.Key)
		}
		q.addProgressLocked(j, "failed: "+j.Error, 0)
	} else {
		j.State = JobDone
		j.output = out.Bytes()
		q.stats.Completed++
		q.addProgressLocked(j, fmt.Sprintf("done (%d result bytes)", len(j.output)), 0)
	}
	q.mu.Unlock()
	close(j.done)
}

func (q *RunQueue) addProgressLocked(j *Job, msg string, elapsed float64) {
	j.Progress = append(j.Progress, ProgressEvent{
		Seq: len(j.Progress) + 1, Wall: time.Now(), Msg: msg, Elapsed: elapsed,
	})
}

// snapshotLocked copies a job for handler consumption.
func (q *RunQueue) snapshotLocked(j *Job) Job {
	snap := *j
	snap.Progress = append([]ProgressEvent(nil), j.Progress...)
	snap.output = nil
	snap.done = nil
	return snap
}

// Get returns a snapshot of job id.
func (q *RunQueue) Get(id string) (Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return Job{}, false
	}
	return q.snapshotLocked(j), true
}

// Result returns the stored result bytes of a completed job.
func (q *RunQueue) Result(id string) ([]byte, JobState, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return nil, "", false
	}
	return j.output, j.State, true
}

// Wait blocks until job id leaves the queue/running states or the
// timeout elapses; it returns the final snapshot.
func (q *RunQueue) Wait(id string, timeout time.Duration) (Job, bool) {
	q.mu.Lock()
	j, ok := q.jobs[id]
	q.mu.Unlock()
	if !ok {
		return Job{}, false
	}
	select {
	case <-j.done:
	case <-time.After(timeout):
	}
	return q.Get(id)
}

// List returns snapshots of the newest max jobs (all when max <= 0),
// newest first.
func (q *RunQueue) List(max int) []Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := len(q.held) + len(q.order)
	if max > 0 && max < n {
		n = max
	}
	out := make([]Job, 0, n)
	for _, jobs := range [][]*Job{q.order, q.held} {
		for i := len(jobs) - 1; i >= 0 && len(out) < n; i-- {
			out = append(out, q.snapshotLocked(jobs[i]))
		}
	}
	return out
}

// Stats returns the queue counters. Depth, Running, ActiveClients and
// the remote-store gauges are computed here, at snapshot time, so the
// metrics endpoint never reports a stale value.
func (q *RunQueue) Stats() QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	s := q.stats
	s.Depth = q.pending - q.running
	s.Running = q.running
	s.ActiveClients = q.activeClientsLocked()
	s.RemoteResults = len(q.remote)
	for _, out := range q.remote {
		s.RemoteBytes += len(out)
	}
	return s
}

// Cached returns the live or completed job for a cache key, if any.
// Failed jobs do not count: a retry must re-run.
func (q *RunQueue) Cached(key string) (Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.byKey[key]
	if !ok || j.State == JobFailed {
		return Job{}, false
	}
	snap := q.snapshotLocked(j)
	snap.Cached = true
	return snap, true
}

// holds reports whether this node answers key itself: a live or completed
// job (Cached), or a result fetched from a peer, which Submit serves as a
// remote hit.
func (q *RunQueue) holds(key string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.byKey[key]
	_, remote := q.remote[key]
	return ok && j.State != JobFailed || remote
}

// ResultByKey returns the result bytes stored under a cache key — a
// locally completed run, or a result fetched from a peer. This is the
// cluster's pure byte-serving cache-hit path: no JSON re-encoding.
func (q *RunQueue) ResultByKey(key string) ([]byte, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if j, ok := q.byKey[key]; ok && j.State == JobDone {
		return j.output, true
	}
	if out, ok := q.remote[key]; ok {
		return out, true
	}
	return nil, false
}

// PutRemote stores a peer-fetched result under its cache key so later
// reads (and submissions) of that key are served locally. The store keeps
// the newest maxRetained results and evicts the oldest first; locally
// computed results take precedence on read. It keeps out itself: the
// caller must not change it afterwards.
func (q *RunQueue) PutRemote(key string, out []byte) {
	if len(out) == 0 {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, ok := q.remote[key]; ok {
		return
	}
	// A key cut from a request path would pin the whole request line.
	key = strings.Clone(key)
	q.remote[key] = out
	q.remoteOrder = append(q.remoteOrder, key)
	for len(q.remoteOrder) > q.maxRetained {
		delete(q.remote, q.remoteOrder[0])
		q.remoteOrder = slices.Delete(q.remoteOrder, 0, 1) // clears the vacated slot: no evicted key stays reachable
	}
}

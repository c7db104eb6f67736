package mgmt

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
)

// fuzzRing is a Cluster that owns nothing locally, answers every forward
// and fetch with the bytes it was given, and counts what it was asked.
type fuzzRing struct {
	reply              []byte
	forwards, fetches  int
	forwarded, fetched string // the last request's cache key
}

func (c *fuzzRing) Owner(string) (string, bool) { return "peer:1", false }

func (c *fuzzRing) ForwardSubmit(_ context.Context, req RunRequest, _ string) (*ForwardResult, error) {
	c.forwards++
	c.forwarded = req.CacheKey()
	return &ForwardResult{Status: http.StatusAccepted, Body: c.reply, Served: "peer:1"}, nil
}

func (c *fuzzRing) FetchResult(_ context.Context, key string) ([]byte, string, error) {
	c.fetches++
	c.fetched = key
	if len(c.reply) == 0 {
		return nil, "", errors.New("no peer holds it")
	}
	return c.reply, "peer:1", nil
}

func (c *fuzzRing) Info() any { return nil }

// The four doors a JSON body (or a peer's bytes) comes in by.
const (
	fuzzSubmit    = iota // POST /api/v1/runs on a solo daemon
	fuzzForwarded        // the same body relayed by a ring peer: runs here, never forwarded on
	fuzzRelay            // POST on a node that does not own the key: relayed, the peer's answer proxied
	fuzzFetch            // GET /api/v1/cache/{key} missing locally: the peer's bytes are served and kept
	fuzzModes
)

// FuzzRunBodies throws bodies at every place stardustd decodes or relays
// one. Whatever arrives, the handler answers — 2xx, or a 4xx whose body is
// a JSON error — and never panics; and a body it refused leaves nothing
// behind: no job, no submission count, no cache entry, no ring traffic.
func FuzzRunBodies(f *testing.F) {
	for _, seed := range []string{
		`{"scenario":"mgmttest/echo","params":{"x":"9"},"seed":3}`,
		`{"scenario":"mgmttest/echo","params":{"x":"-1"}}`,
		`{"scenario":"mgmttest/echo","params":{"xx":"8"}}`,
		`{"scenario":"mgmttest/fail"}`,
		`{"scenario":"no/such","seed":-1}`,
		`{"scenario":"mgmttest/echo","params":{"x":9}}`,
		`{"scenario":"mgmttest/echo","params":null,"seed":1e400}`,
		`{"scenario":"mgmttest/echo"}{"scenario":"mgmttest/fail"}`,
		`[]`, `null`, `{`, ``, "\x00\xff",
	} {
		for mode := range fuzzModes {
			f.Add(uint8(mode), []byte(seed))
		}
	}
	f.Fuzz(func(t *testing.T, mode uint8, body []byte) {
		mode %= fuzzModes
		// A queue whose workers are gone still admits, and runs nothing: what
		// is under test ends at admission, and a fuzzed mgmttest/sleep would
		// otherwise sleep for days.
		q := NewRunQueue(4, 1, 1)
		q.Shutdown()
		s := NewServer(q, nil)
		ring := &fuzzRing{reply: body}
		if mode != fuzzSubmit {
			s.SetCluster(ring)
		}

		if mode == fuzzFetch {
			// A well-formed key for every other input, the raw bytes otherwise.
			key := string(body)
			if len(body)%2 == 0 {
				sum := sha256.Sum256(body)
				key = hex.EncodeToString(sum[:])
			}
			r, err := http.NewRequest("GET", "/api/v1/cache/"+url.PathEscape(key), nil)
			if err != nil {
				t.Skip("not a request path")
			}
			w := httptest.NewRecorder()
			s.ServeHTTP(w, r)
			kept, ok := q.ResultByKey(key)
			switch {
			case !cacheKeyPat.MatchString(key):
				// Refused by the handler, or by the mux before it ("", ".", "/").
				if w.Code < 300 || w.Code >= 500 || ok || ring.fetches != 0 {
					t.Fatalf("malformed key %q: status %d, cached %v, %d ring fetches", key, w.Code, ok, ring.fetches)
				}
			case w.Code == http.StatusOK:
				if !bytes.Equal(w.Body.Bytes(), body) || !ok || !bytes.Equal(kept, body) || ring.fetched != key {
					t.Fatalf("fetched %q for key %s: served %q, kept %q (%v)", body, key, w.Body, kept, ok)
				}
			case w.Code == http.StatusNotFound:
				if ok || len(body) != 0 || !json.Valid(w.Body.Bytes()) {
					t.Fatalf("404 with body %q for peer bytes %q; cached %v", w.Body, body, ok)
				}
			default:
				t.Fatalf("status %d: %s", w.Code, w.Body)
			}
			return
		}

		r := httptest.NewRequest("POST", "/api/v1/runs", bytes.NewReader(body))
		if mode == fuzzForwarded {
			r.Header.Set("X-Stardust-Forwarded", "peer:2")
		}
		w := httptest.NewRecorder()
		s.ServeHTTP(w, r)
		st, jobs := q.Stats(), q.List(0)
		var req RunRequest // what the handler decoded, if it could
		decodeErr := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
		switch {
		case mode == fuzzRelay && w.Code == http.StatusAccepted:
			// Relayed: the peer's answer verbatim, nothing kept here.
			if ring.forwards != 1 || !bytes.Equal(w.Body.Bytes(), body) || st.Submitted != 0 || len(jobs) != 0 {
				t.Fatalf("relay: %d forwards, answered %q, %d submitted, %d jobs", ring.forwards, w.Body, st.Submitted, len(jobs))
			}
			if decodeErr != nil || ring.forwarded != req.CacheKey() {
				t.Fatalf("relayed body %q (%v) under key %s", body, decodeErr, ring.forwarded)
			}
		case w.Code == http.StatusOK || w.Code == http.StatusAccepted:
			var job Job
			if err := json.Unmarshal(w.Body.Bytes(), &job); err != nil || len(jobs) != 1 || ring.forwards != 0 {
				t.Fatalf("accepted with %q (%v): %d jobs, %d forwards", w.Body, err, len(jobs), ring.forwards)
			}
			if decodeErr != nil || job.Key != req.CacheKey() {
				t.Fatalf("accepted body %q (%v) as job %+v", body, decodeErr, job)
			}
		case w.Code >= 400 && w.Code < 500:
			if !json.Valid(w.Body.Bytes()) {
				t.Fatalf("status %d with a body that is not JSON: %q", w.Code, w.Body)
			}
			if st.Submitted != 0 || len(jobs) != 0 || ring.forwards != 0 {
				t.Fatalf("refused body %q left %d submissions, %d jobs, %d forwards", body, st.Submitted, len(jobs), ring.forwards)
			}
			if _, ok := q.Cached(req.CacheKey()); decodeErr == nil && ok {
				t.Fatalf("refused body %q has a cache entry", body)
			}
		default:
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
	})
}

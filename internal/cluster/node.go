package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"stardust/internal/mgmt"
)

// Config wires one stardustd process into the ring.
type Config struct {
	Self   string   // this node's advertised base URL (must be in Peers)
	Peers  []string // every ring member's base URL, self included
	VNodes int      // virtual points per node (0 = DefaultVNodes)

	// Forwarding policy: each candidate peer gets Attempts tries with
	// Backoff doubling between them before placement walks to the next
	// ring node.
	Attempts int           // 0 = 2
	Backoff  time.Duration // 0 = 50ms

	// Client is the HTTP client for peer traffic. Nil builds one with
	// sane timeouts and a keep-alive pool sized for peer fan-in.
	Client *http.Client
}

// Stats counts the node's peer traffic.
type Stats struct {
	Forwards       uint64 `json:"forwards_total"`         // submissions relayed to a peer
	ForwardRetries uint64 `json:"forward_retries_total"`  // per-candidate retry attempts
	Fallbacks      uint64 `json:"fallbacks_total"`        // placements that walked past the owner
	LocalFallbacks uint64 `json:"local_fallbacks_total"`  // placements that fell through to this node
	PeerFetches    uint64 `json:"peer_fetches_total"`     // results pulled from a peer
	PeerFetchMiss  uint64 `json:"peer_fetch_miss_total"`  // keys no peer had
	PeerFetchBytes uint64 `json:"peer_fetch_bytes_total"` // result bytes pulled from peers
}

// Node is the cluster face of one stardustd: consistent-hash placement
// plus the peer HTTP client. It implements mgmt.Cluster.
type Node struct {
	cfg    Config
	ring   *Ring
	client *http.Client

	mu    sync.Mutex
	stats Stats
}

// New validates the membership and builds the node.
func New(cfg Config) (*Node, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: Self address required")
	}
	if cfg.VNodes <= 0 {
		cfg.VNodes = DefaultVNodes
	}
	ring, err := NewRing(cfg.Peers, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	selfIn := false
	for _, n := range ring.Nodes() {
		if n == cfg.Self {
			selfIn = true
		}
	}
	if !selfIn {
		return nil, fmt.Errorf("cluster: self %q not in peer list %v", cfg.Self, ring.Nodes())
	}
	if cfg.Attempts <= 0 {
		cfg.Attempts = 2
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 50 * time.Millisecond
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        64,
				MaxIdleConnsPerHost: 16,
				IdleConnTimeout:     90 * time.Second,
			},
		}
	}
	return &Node{cfg: cfg, ring: ring, client: client}, nil
}

// Self returns this node's advertised address.
func (n *Node) Self() string { return n.cfg.Self }

// Stats returns a snapshot of the node's peer-traffic counters.
func (n *Node) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// Ring exposes the placement ring (for tests and diagnostics).
func (n *Node) Ring() *Ring { return n.ring }

// Owner implements mgmt.Cluster.
func (n *Node) Owner(key string) (string, bool) {
	owner := n.ring.Owner(key)
	return owner, owner == n.cfg.Self
}

// count applies a stats bump under the lock.
func (n *Node) count(f func(*Stats)) {
	n.mu.Lock()
	f(&n.stats)
	n.mu.Unlock()
}

// ForwardSubmit implements mgmt.Cluster: POST the request to the key's
// owner, retrying with doubling backoff, then walk ring successors.
// Any HTTP response — including the owner's own 429 backpressure — is
// final and proxied back verbatim; only transport errors and 5xx move
// placement along the ring. When the walk reaches this node (or every
// peer is unreachable), ErrPlaceLocal tells the caller to run the job
// here.
func (n *Node) ForwardSubmit(ctx context.Context, req mgmt.RunRequest, client string) (*mgmt.ForwardResult, error) {
	key := req.CacheKey()
	blob, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: encoding forward: %w", err)
	}
	var lastErr error
	for i, addr := range n.ring.Order(key) {
		if addr == n.cfg.Self {
			// Deterministic fallback lands here: this node is next in ring
			// order, so it accepts the job itself.
			n.count(func(s *Stats) { s.LocalFallbacks++ })
			return nil, mgmt.ErrPlaceLocal
		}
		if i > 0 {
			n.count(func(s *Stats) { s.Fallbacks++ })
		}
		res, err := n.postRun(ctx, addr, blob, client)
		if err == nil {
			n.count(func(s *Stats) { s.Forwards++ })
			res.Served = addr
			return res, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	// Every ring member is a remote peer and none answered; the caller
	// falls back to local execution rather than failing the submission.
	n.count(func(s *Stats) { s.LocalFallbacks++ })
	return nil, fmt.Errorf("%w (no peer reachable: %v)", mgmt.ErrPlaceLocal, lastErr)
}

// postRun tries one peer Attempts times with doubling backoff. A 5xx
// answer is treated as peer failure so placement can move on; anything
// else is a definitive answer.
func (n *Node) postRun(ctx context.Context, addr string, blob []byte, client string) (*mgmt.ForwardResult, error) {
	backoff := n.cfg.Backoff
	var lastErr error
	for try := 0; try < n.cfg.Attempts; try++ {
		if try > 0 {
			n.count(func(s *Stats) { s.ForwardRetries++ })
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(backoff):
			}
			backoff *= 2
		}
		hr, err := http.NewRequestWithContext(ctx, http.MethodPost, addr+"/api/v1/runs", bytes.NewReader(blob))
		if err != nil {
			return nil, err
		}
		hr.Header.Set("Content-Type", "application/json")
		hr.Header.Set("X-Stardust-Forwarded", n.cfg.Self)
		hr.Header.Set("X-Stardust-Client", client)
		resp, err := n.client.Do(hr)
		if err != nil {
			lastErr = err
			continue
		}
		body, err := mgmt.ReadBody(resp.Body, mgmt.MaxBodyBytes)
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode >= 500 {
			lastErr = fmt.Errorf("peer %s: %s", addr, resp.Status)
			continue
		}
		return &mgmt.ForwardResult{
			Status:     resp.StatusCode,
			Body:       body,
			RetryAfter: resp.Header.Get("Retry-After"),
		}, nil
	}
	return nil, lastErr
}

// FetchResult implements mgmt.Cluster: walk the ring from the key's
// owner and return the first peer-held result. A 404 moves on without
// retrying (the peer answered: it does not have the key); transport
// errors retry with backoff before moving on.
func (n *Node) FetchResult(ctx context.Context, key string) ([]byte, string, error) {
	var lastErr error
	for _, addr := range n.ring.Order(key) {
		if addr == n.cfg.Self {
			continue
		}
		backoff := n.cfg.Backoff
		for try := 0; try < n.cfg.Attempts; try++ {
			if try > 0 {
				select {
				case <-ctx.Done():
					return nil, "", ctx.Err()
				case <-time.After(backoff):
				}
				backoff *= 2
			}
			out, err := n.getCache(ctx, addr, key)
			if err == nil {
				n.count(func(s *Stats) { s.PeerFetches++; s.PeerFetchBytes += uint64(len(out)) })
				return out, addr, nil
			}
			lastErr = err
			if err == errPeerMiss {
				break // definitive answer, try the next ring node
			}
			if ctx.Err() != nil {
				return nil, "", ctx.Err()
			}
		}
	}
	n.count(func(s *Stats) { s.PeerFetchMiss++ })
	return nil, "", fmt.Errorf("cluster: no peer holds %s: %v", key, lastErr)
}

// errPeerMiss is a peer's definitive "I don't have that key".
var errPeerMiss = fmt.Errorf("cluster: peer cache miss")

func (n *Node) getCache(ctx context.Context, addr, key string) ([]byte, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/api/v1/cache/"+key+"?local=1", nil)
	if err != nil {
		return nil, err
	}
	resp, err := n.client.Do(hr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, resp.Body)
		return nil, errPeerMiss
	}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("peer %s: %s", addr, resp.Status)
	}
	return mgmt.ReadBody(resp.Body, mgmt.MaxBodyBytes)
}

// Info implements mgmt.Cluster: membership, placement shares and
// forwarding counters for /api/v1/cluster.
func (n *Node) Info() any {
	n.mu.Lock()
	stats := n.stats
	n.mu.Unlock()
	return map[string]any{
		"self":   n.cfg.Self,
		"peers":  n.ring.Nodes(),
		"vnodes": n.cfg.VNodes,
		"shares": n.ring.Shares(),
		"stats":  stats,
	}
}

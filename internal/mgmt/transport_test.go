package mgmt

import (
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"

	"stardust/internal/sim"
)

// Tests for the sharded transport telemetry path: the barrier scrape of
// the StardustNet's per-shard counters must be synchronized by the
// parsim window barrier, exactly like the fabric scrape.
//
// The latent race this guards against: TransportMonitor reading the
// transport's per-shard counters (cells, credits, VOQ drops, reassembly
// timeouts) while shard goroutines are incrementing them mid-window.
// Scraping only in barrier context — every shard quiescent — makes the
// race structurally impossible; TestShardedTransportScrapeRaceFree fails
// under -race if that ever regresses.

func newTransportRun(t *testing.T, shards int, seed int64) *FabricRun {
	t.Helper()
	fr, err := NewFabricRun(FabricRunConfig{
		K:                 4,
		FailEvery:         300 * sim.Microsecond,
		HealAfter:         500 * sim.Microsecond,
		Seed:              seed,
		Shards:            shards,
		TransportHostsPer: 2,
		ScrapeEvery:       100 * sim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return fr
}

// TestShardedTransportScrapeRaceFree drives a chaos-laden sharded
// transport (TCP permutation over the sharded Stardust substrate) while a
// reader goroutine hammers the transport and fabric snapshots. Run under
// -race (the CI race job does) this is the transport counterpart of
// TestShardedScrapeRaceFree.
func TestShardedTransportScrapeRaceFree(t *testing.T) {
	fr := newTransportRun(t, 4, 1)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			_ = fr.Trans.Stats()
			_ = fr.Ctl.Stats()
			_ = fr.Ctl.Telemetry()
		}
	}()
	for i := 0; i < 12; i++ {
		fr.Advance(150 * sim.Microsecond)
	}
	close(done)
	wg.Wait()

	ts := fr.Trans.Stats()
	if ts.Scrapes == 0 {
		t.Fatal("no transport barrier scrapes happened")
	}
	if ts.CellsSent == 0 || ts.CellsDelivered == 0 || ts.CreditsSent == 0 {
		t.Fatalf("no transport traffic observed: %+v", ts)
	}
	if fr.Ctl.Stats().LinkFailures == 0 {
		t.Fatal("chaos never fired")
	}
}

// TestShardedTransportRunDeterministic: the same seed must produce
// identical barrier-scraped transport statistics at different shard
// counts — chaos, flows and scrapes are all quantized to window
// boundaries.
func TestShardedTransportRunDeterministic(t *testing.T) {
	run := func(shards int) TransportStats {
		fr := newTransportRun(t, shards, 7)
		fr.Advance(1200 * sim.Microsecond)
		return fr.Trans.Stats()
	}
	a, b := run(1), run(4)
	if a != b {
		t.Fatalf("sharded transport stats diverged across shard counts:\n  1: %+v\n  4: %+v", a, b)
	}
	if a.CellsSent == 0 || a.DeliveredBytes == 0 {
		t.Fatalf("degenerate run: %+v", a)
	}
	c := run(2)
	if c != a {
		t.Fatalf("shards=2 diverged:\n  1: %+v\n  2: %+v", a, c)
	}
}

// The transport endpoint serves the barrier snapshot; without the overlay
// it must 404 rather than panic.
func TestTransportEndpoint(t *testing.T) {
	fr := newTransportRun(t, 2, 3)
	fr.Advance(500 * sim.Microsecond)
	srv := NewServer(NewRunQueue(4, 1, 1), fr)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/api/v1/transport", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /api/v1/transport = %d: %s", rec.Code, rec.Body.String())
	}
	var ts TransportStats
	if err := json.Unmarshal(rec.Body.Bytes(), &ts); err != nil {
		t.Fatal(err)
	}
	if ts.Hosts != 16 || ts.CellsSent == 0 {
		t.Fatalf("unexpected transport snapshot: %+v", ts)
	}

	// Metrics must include the transport counters.
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	for _, want := range []string{"stardust_transport_cells_sent_total", "stardust_transport_credits_sent_total"} {
		if !containsLine(rec.Body.String(), want) {
			t.Fatalf("metrics output missing %s", want)
		}
	}

	// No overlay: 404, not a panic.
	bare, err := NewFabricRun(FabricRunConfig{K: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(NewRunQueue(4, 1, 1), bare)
	rec = httptest.NewRecorder()
	srv2.ServeHTTP(rec, httptest.NewRequest("GET", "/api/v1/transport", nil))
	if rec.Code != 404 {
		t.Fatalf("transport endpoint without overlay = %d, want 404", rec.Code)
	}
}

func containsLine(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

package mgmt

import (
	"testing"

	"stardust/internal/fabric"
	"stardust/internal/sim"
)

func TestInventoryFromClos(t *testing.T) {
	cl, err := fabric.ClosFor(4)
	if err != nil {
		t.Fatal(err)
	}
	inv := NewInventory(cl)
	wantDevs := cl.NumFA + cl.NumFE1 + cl.NumFE2
	if len(inv.Devices) != wantDevs {
		t.Fatalf("inventory has %d devices, want %d", len(inv.Devices), wantDevs)
	}
	if len(inv.Links) != len(cl.Links) {
		t.Fatalf("inventory has %d links, want %d", len(inv.Links), len(cl.Links))
	}
	seen := make(map[string]bool)
	for _, d := range inv.Devices {
		if seen[d.ID] {
			t.Fatalf("duplicate device ID %q", d.ID)
		}
		seen[d.ID] = true
		if d.Ports <= 0 {
			t.Fatalf("device %s has no ports", d.ID)
		}
	}
	for _, lk := range inv.Links {
		if !seen[lk.A] || !seen[lk.B] {
			t.Fatalf("link %d references unknown device (%s, %s)", lk.ID, lk.A, lk.B)
		}
	}
}

// TestBusPublishSinceSubscribe: a subscriber long-polls the retained
// ring through Since.
func TestBusPublishSinceSubscribe(t *testing.T) {
	b := NewBus(4)
	for i := 0; i < 6; i++ {
		b.Publish(Event{Kind: EventLinkDown, Link: i, Time: sim.Time(i)})
	}
	// Ring capacity 4: seqs 3..6 retained, 1..2 evicted.
	all := b.Since(0, 0)
	if len(all) != 4 || all[0].Seq != 3 || all[3].Seq != 6 {
		t.Fatalf("retained %v", all)
	}
	since := b.Since(4, 0)
	if len(since) != 2 || since[0].Seq != 5 {
		t.Fatalf("since(4) = %v", since)
	}
	if got := b.Since(4, 1); len(got) != 1 || got[0].Seq != 5 {
		t.Fatalf("since(4, max 1) = %v", got)
	}
	if b.LastSeq() != 6 {
		t.Fatalf("LastSeq = %d", b.LastSeq())
	}
}

func TestSeriesRingWrap(t *testing.T) {
	s := newSeries(4)
	if _, ok := s.Last(); ok {
		t.Fatal("empty series has a Last")
	}
	for i := 1; i <= 10; i++ {
		s.Push(Sample{T: sim.Time(i), FwdBytes: uint64(i)})
	}
	if s.Len() != 4 {
		t.Fatalf("len %d, want 4", s.Len())
	}
	snap := s.Snapshot()
	for i, x := range snap {
		if want := sim.Time(7 + i); x.T != want {
			t.Fatalf("snapshot[%d].T = %v, want %v", i, x.T, want)
		}
	}
	last, _ := s.Last()
	prev, _ := s.Prev()
	if last.T != 10 || prev.T != 9 {
		t.Fatalf("last/prev = %v/%v", last.T, prev.T)
	}
}

func TestCacheKeyCanonical(t *testing.T) {
	a := RunRequest{Scenario: "x", Params: map[string]string{"a": "1", "b": "2"}}
	b := RunRequest{Scenario: "x", Params: map[string]string{"b": "2", "a": "1"}, Seed: 1}
	if a.CacheKey() != b.CacheKey() {
		t.Fatal("param order / default seed must not change the cache key")
	}
	c := RunRequest{Scenario: "x", Params: map[string]string{"a": "1", "b": "2"}, Seed: 2}
	if a.CacheKey() == c.CacheKey() {
		t.Fatal("seed must be part of the cache key")
	}
	d := RunRequest{Scenario: "y", Params: map[string]string{"a": "1", "b": "2"}}
	if a.CacheKey() == d.CacheKey() {
		t.Fatal("scenario must be part of the cache key")
	}
	// The separator must prevent concatenation collisions.
	e := RunRequest{Scenario: "x", Params: map[string]string{"a": "1b=2"}}
	f := RunRequest{Scenario: "x", Params: map[string]string{"a": "1", "b": "2"}}
	if e.CacheKey() == f.CacheKey() {
		t.Fatal("cache key collides across different param maps")
	}
}

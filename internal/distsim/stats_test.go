package distsim

import (
	"testing"
)

// TestPeerClocksReachTheCoordinator: the peers measure where their wall
// time goes and what they write, the coordinator only adds it up — after
// a run every peer slot has a clock, the histogram holds one mesh-wait
// sample per peer per window, and somebody is the straggler.
func TestPeerClocksReachTheCoordinator(t *testing.T) {
	const npeers = 3
	stats := NewCoordStats()
	if _, err := serveWith(t, smallSpec(4), npeers, CoordConfig{Stats: stats}); err != nil {
		t.Fatal(err)
	}
	probe, _ := meshPair(t, pollGoverned)
	canPoll := probe.rd.sock != nil
	snap := stats.Snapshot()
	if len(snap.Peers) != npeers {
		t.Fatalf("%d peer clocks for %d peers: %+v", len(snap.Peers), npeers, snap.Peers)
	}
	for _, p := range snap.Peers {
		if p.Step <= 0 || p.Codec <= 0 || p.Wait <= 0 || p.WaitedOn <= 0 || p.Busy < p.Step {
			t.Errorf("peer %d clock has a hole: %+v", p.Peer, p)
		}
		// How the waits were spent, where the platform lets a link see it:
		// every mesh read either found its bytes or parked, a polled one
		// made at least one attempt, and no peer has more links than
		// neighbours.
		if !canPoll {
			continue
		}
		if p.PollReady+p.Parks == 0 || p.PollTries == 0 || p.PollingLinks < 0 || p.PollingLinks > npeers-1 {
			t.Errorf("peer %d poll record has a hole: %+v", p.Peer, p)
		}
	}
	if snap.Straggler < 0 || snap.Straggler >= npeers {
		t.Errorf("straggler %d of %d peers", snap.Straggler, npeers)
	}
	if want := snap.Windows * npeers; snap.BarrierLatency.Count != want {
		t.Errorf("%d mesh-wait samples, want %d (one per peer per window)", snap.BarrierLatency.Count, want)
	}
	if snap.MailFrames == 0 || snap.MailEntries == 0 || snap.WireBytes == 0 || snap.RawBytes < snap.WireBytes {
		t.Errorf("traffic accounting: %+v", snap)
	}

	// One peer has no mesh and never waits, but its windows are still
	// observed: a histogram without samples would read as NaN downstream.
	solo := NewCoordStats()
	if _, err := serveWith(t, smallSpec(2), 1, CoordConfig{Stats: solo}); err != nil {
		t.Fatal(err)
	}
	if s := solo.Snapshot(); s.BarrierLatency.Count != s.Windows || s.Straggler != -1 {
		t.Errorf("one-peer run: %d samples for %d windows, straggler %d", s.BarrierLatency.Count, s.Windows, s.Straggler)
	}
}

// TestStatsFrameRoundTrip pins the STATS codec, including what it refuses.
func TestStatsFrameRoundTrip(t *testing.T) {
	c := newPeerClock(3)
	c.windows, c.stepNs, c.codecNs, c.mailFrames, c.rawBytes, c.wireBytes = 32, 1e6, 2e5, 60, 9000, 8000
	c.waitNs[1], c.waitNs[2] = 7e5, 3e4
	c.poll[1] = linkPoll{pollCounts{tries: 900, ready: 30, parks: 2}, true}
	c.poll[2] = linkPoll{pollCounts{parks: 32}, false}
	c.observeWait(5_000)      // first bucket
	c.observeWait(50_000_000) // 50 ms
	c.observeWait(5e9)        // +Inf
	body := c.appendStats(nil)

	got := newPeerClock(3)
	if err := got.parseStats(body); err != nil {
		t.Fatal(err)
	}
	if got.windows != 32 || got.stepNs != 1e6 || got.waitNs[1] != 7e5 || got.waitHist[0] != 1 || got.waitHist[len(got.waitHist)-1] != 1 {
		t.Fatalf("STATS came back as %+v", got)
	}
	if got.poll[0] != (linkPoll{}) || got.poll[1] != c.poll[1] || got.poll[2] != c.poll[2] {
		t.Fatalf("STATS poll records came back as %+v", got.poll)
	}
	// The coordinator sums a peer's links and counts the polling ones.
	stats := NewCoordStats()
	stats.flushed(0, got)
	stats.flushed(0, got)
	if p := stats.Snapshot().Peers[0]; p.PollTries != 1800 || p.PollReady != 60 || p.Parks != 68 || p.PollingLinks != 1 {
		t.Fatalf("two flushes summed to %+v", p)
	}
	flag := len(body) - len(got.waitHist) - 2 // peer 2's polling byte: the last before the bucket count
	if bad := append([]byte(nil), body...); bad[flag] != 0 {
		t.Fatalf("test out of step with the STATS layout: byte %d is %d", flag, bad[flag])
	} else if bad[flag] = 2; newPeerClock(3).parseStats(bad) == nil {
		t.Fatal("a polling flag of 2 parsed")
	}
	if err := newPeerClock(2).parseStats(body); err == nil {
		t.Fatal("a STATS frame for three peers parsed in a two-peer run")
	}
	for cut := 0; cut < len(body); cut++ {
		if err := newPeerClock(3).parseStats(body[:cut]); err == nil {
			t.Fatalf("STATS truncated to %d of %d bytes parsed", cut, len(body))
		}
	}
	if err := newPeerClock(3).parseStats(append(body, 0)); err == nil {
		t.Fatal("STATS with a trailing byte parsed")
	}
}

package distsim

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stardust/internal/sim"
)

// syncBuffer is a CoordConfig.Log sink the test may read after Serve.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestRecovery injects every kind of loss the mesh can suffer and holds
// both halves of the contract: with Rejoin the run ends in the RunLocal
// outcome (and really went through a recovery), without it in the
// deterministic "disconnected at window" error — and either way inside
// serveChaos's deadline, coordinator and every peer.
func TestRecovery(t *testing.T) { testRecovery(t, governed) }

// governed leaves a test's fault seam as it is: every mesh link decides by
// itself when to poll. TestPollModes runs the same bodies with the decision
// forced both ways.
func governed(c *chaos) *chaos { return c }

func testRecovery(t *testing.T, with func(*chaos) *chaos) {
	spec := smallSpec(4)
	want := localOutcome(t, spec)
	const npeers = 3

	// cutOnce closes peer id's mesh link to its lowest neighbour at window
	// w and leaves both coordinator connections alone.
	cutOnce := func(id, w int) *chaos {
		var cut atomic.Bool
		return &chaos{at: func(peer, window int, ph phase) fault {
			if peer == id && ph == phaseLive && window >= w && cut.CompareAndSwap(false, true) {
				return faultCut
			}
			return faultNone
		}}
	}
	// dieTwice kills peer id live at window w, then its replacement while
	// that is replaying window w/2; the second replacement runs through.
	dieTwice := func(id, w int) *chaos {
		var deaths atomic.Int32
		return &chaos{at: func(peer, window int, ph phase) fault {
			if peer != id {
				return faultNone
			}
			switch {
			case ph == phaseLive && window >= w && deaths.CompareAndSwap(0, 1):
				return faultDie
			case ph == phaseReplay && window >= w/2 && deaths.CompareAndSwap(1, 2):
				return faultDie
			}
			return faultNone
		}}
	}
	cases := []struct {
		name    string
		chaos   func() *chaos
		dialers int // npeers plus the replacements the case uses up
	}{
		{"kill-peer0", func() *chaos { return dieOnce(0, 100) }, npeers + 1},
		{"kill-peer1", func() *chaos { return dieOnce(1, 100) }, npeers + 1},
		{"kill-peer2", func() *chaos { return dieOnce(2, 100) }, npeers + 1},
		{"kill-at-window-0", func() *chaos { return dieOnce(1, 0) }, npeers + 1},
		// The peer has just flushed windows [0, 2*flushWindows) ...
		{"kill-at-flush-boundary", func() *chaos { return dieOnce(1, 2*flushWindows) }, npeers + 1},
		// ... or dies with half a batch of DONE frames still in its buffer.
		{"kill-inside-unflushed-batch", func() *chaos { return dieOnce(1, 2*flushWindows+flushWindows/2) }, npeers + 1},
		{"kill-replacement-during-replay", func() *chaos { return dieTwice(1, 120) }, npeers + 2},
		{"cut-mesh-link", func() *chaos { return cutOnce(2, 90) }, npeers},
	}
	for _, tc := range cases {
		t.Run(tc.name+"/rejoin", func(t *testing.T) {
			var log syncBuffer
			got, err := serveChaos(t, spec, npeers, tc.dialers, CoordConfig{Rejoin: true, Log: &log}, with(tc.chaos()))
			if err != nil {
				t.Fatalf("%v\n%s", err, log.String())
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("recovered outcome diverged:\n got %+v\nwant %+v", got, want)
			}
			if !strings.Contains(log.String(), "run restored from checkpoint") {
				t.Fatalf("the fault was never injected: no recovery in the log\n%s", log.String())
			}
		})
		t.Run(tc.name+"/abort", func(t *testing.T) {
			_, err := serveChaos(t, spec, npeers, npeers, CoordConfig{}, with(tc.chaos()))
			if err == nil || !strings.Contains(err.Error(), "disconnected at window") {
				t.Fatalf("coordinator error = %v, want a disconnect at a window", err)
			}
		})
	}
}

// TestRecoveryAfterLastWindow: a peer that dies between its last DONE and
// its REPORT is restored like any other — everybody replays the whole run
// and reports again.
func TestRecoveryAfterLastWindow(t *testing.T) { testRecoveryAfterLastWindow(t, governed) }

func testRecoveryAfterLastWindow(t *testing.T, with func(*chaos) *chaos) {
	spec := smallSpec(2)
	want := localOutcome(t, spec)
	var log syncBuffer
	var died atomic.Bool
	beforeReport := &chaos{at: func(peer, window int, ph phase) fault {
		if peer == 1 && ph == phaseReport && died.CompareAndSwap(false, true) {
			return faultDie
		}
		return faultNone
	}}
	got, err := serveChaos(t, spec, 2, 3, CoordConfig{Rejoin: true, Log: &log}, with(beforeReport))
	if err != nil {
		t.Fatalf("%v\n%s", err, log.String())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered outcome diverged:\n got %+v\nwant %+v", got, want)
	}
	if !strings.Contains(log.String(), "run restored from checkpoint") {
		t.Fatalf("the fault was never injected\n%s", log.String())
	}
}

// TestRejoinGivesUp: a mesh that can never be built (peers that cannot
// reach each other; here every mesh connection dies as it is made) must
// not be recovered forever.
func TestRejoinGivesUp(t *testing.T) {
	unreachable := &chaos{tune: func(conn net.Conn) { conn.Close() }, meshWait: 200 * time.Millisecond}
	_, err := serveChaos(t, smallSpec(2), 2, 2, CoordConfig{Rejoin: true}, unreachable)
	if err == nil || !strings.Contains(err.Error(), "giving up") {
		t.Fatalf("coordinator error = %v, want it to give up", err)
	}
}

// TestCheckpointBytesPinned holds the on-disk checkpoint (healSpec(4) over
// two peers) to recorded bytes, in two layers. The file hashes pin the
// format and which window every entry is logged in. They were taken on the
// parent commit of the mesh rewrite and moved once since, when wire-mode
// links began to schedule a cell's arrival at admission instead of at
// service start (b8b13b90… -> 129c26ca…, 343cc224… -> 9577cbbb…): a
// cross-shard cell that waits behind others now enters the mailbox some
// windows earlier. The entry hashes pin what that change could not move:
// the sorted multiset of every logged entry — destination shard, time,
// lane, kind, argument and payload — recorded on the commit before it.
func TestCheckpointBytesPinned(t *testing.T) {
	dir := t.TempDir()
	if _, err := serveWith(t, healSpec(4), 2, CoordConfig{CheckpointDir: dir}); err != nil {
		t.Fatal(err)
	}
	for p, want := range []struct {
		file, entrySum string
		entries, bytes int
	}{
		{"129c26ca8b859378ad5c0e5784fcefe68d036ab6a260614784cdd78ade30fabf",
			"61af69d5c98fd3d7adaf1227864c2832d6a58f6617e1698be8116aaa2eeb0e7e", 2299, 32183},
		{"9577cbbb64b3a185891c6c9b24285d3fab1c805e3b47f6131180fc893525dc34",
			"5fa0226d6960a06c7dd6beb19f0077f58cfa20cd6f53cfe88fca732c76db94dc", 2298, 32168},
	} {
		path := filepath.Join(dir, fmt.Sprintf("peer%d.ckpt", p))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want.file {
			t.Errorf("peer%d.ckpt: %d bytes, sha256 %s, want %s", p, len(data), got, want.file)
		}
		_, batches, err := parseCheckpoint(data, path)
		if err != nil {
			t.Fatal(err)
		}
		var entries []string
		for _, batch := range batches {
			n, rest, err := batchCount(batch)
			if err != nil {
				t.Fatal(err)
			}
			for range n {
				var e mailEntry
				if e, rest, err = readEntry(rest); err != nil {
					t.Fatal(err)
				}
				entries = append(entries, string(appendEntry(nil, e)))
			}
		}
		sort.Strings(entries)
		all := strings.Join(entries, "")
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(all))); got != want.entrySum || len(entries) != want.entries || len(all) != want.bytes {
			t.Errorf("peer%d.ckpt: %d entries in %d bytes, sorted sha256 %s; want %d in %d, %s",
				p, len(entries), len(all), got, want.entries, want.bytes, want.entrySum)
		}
	}
}

// shrink gives a TCP connection the smallest socket buffers the kernel
// allows, so that a few kilobytes in flight fill them.
func shrink(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetReadBuffer(1)
		tc.SetWriteBuffer(1)
	}
}

// shrunkListener hands the coordinator connections with shrunken buffers.
type shrunkListener struct{ net.Listener }

func (l shrunkListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil {
		shrink(conn)
	}
	return conn, err
}

// TestNoDeadlockAsymmetricDoneStream is the first deadlock the design
// rules out (see peer.go): an incast makes a few peers mail much and the
// victim's owner little, a kept log makes DONE carry the mail, and
// shrunken buffers on every coordinator connection make the busy peers'
// flushes block early. With one reader goroutine taking DONEs in window
// order, or with a flush on bytes alone, this run hangs.
func TestNoDeadlockAsymmetricDoneStream(t *testing.T) {
	spec := smallSpec(4)
	spec.Pattern = "incast"
	want := localOutcome(t, spec)

	l := mustListen(t)
	addr := l.Addr().String()
	res := make(chan serveResult, 1)
	go func() {
		out, err := Serve(shrunkListener{l}, CoordConfig{Spec: spec, Peers: 4, Rejoin: true})
		res <- serveResult{out, err}
	}()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return
			}
			defer conn.Close()
			shrink(conn)
			runPeerConn(conn, &chaos{tune: shrink})
		}()
	}
	select {
	case r := <-res:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if !reflect.DeepEqual(r.out, want) {
			t.Fatalf("outcome diverged:\n got %+v\nwant %+v", r.out, want)
		}
	case <-time.After(120 * time.Second):
		t.Fatal("incast run with shrunken coordinator buffers deadlocked")
	}
	wg.Wait()
}

// tcpPair returns two ends of one loopback TCP connection, both shrunk.
func tcpPair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	l := mustListen(t)
	defer l.Close()
	type accepted struct {
		conn net.Conn
		err  error
	}
	ch := make(chan accepted, 1)
	go func() {
		conn, err := l.Accept()
		ch <- accepted{conn, err}
	}()
	a, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	b := <-ch
	if b.err != nil {
		t.Fatal(b.err)
	}
	shrink(a)
	shrink(b.conn)
	t.Cleanup(func() { a.Close(); b.conn.Close() })
	return a, b.conn
}

// TestNoDeadlockSymmetricExchange is the second: two peers that each write
// an XCHG frame larger than the socket buffers between them before either
// reads. The control shows the set-up can detect it — both ends flushing
// inline do block until their deadline — and then meshLink.send, which
// leaves what the socket does not take at once to a goroutine and goes on
// to read, completes the same exchange; a frame of meshInline bytes must
// fit two deep without one (a neighbour is at most two frames behind).
func TestNoDeadlockSymmetricExchange(t *testing.T) { testSymmetricExchange(t, pollGoverned) }

func testSymmetricExchange(t *testing.T, force pollForce) {
	// Incompressible, so the frame is as large on the wire as here.
	big := make([]byte, 256<<10)
	x := uint32(1)
	for i := range big {
		x = x*1664525 + 1013904223
		big[i] = byte(x >> 24)
	}
	links := func() [2]*meshLink {
		a, b := tcpPair(t)
		var ls [2]*meshLink
		for i, conn := range []net.Conn{a, b} {
			pc := newPeerConn(conn, 0)
			pc.trust()
			pc.rd.gov = &pollGovernor{force: force}
			ls[i] = &meshLink{id: 1 - i, pc: pc, sent: make(chan error, 1)}
		}
		return ls
	}
	exchange := func(ls [2]*meshLink, body []byte, frames int, write func(l *meshLink) error) [2]error {
		for _, l := range ls {
			l.pc.conn.SetDeadline(time.Now().Add(60 * time.Second))
		}
		var errs [2]error
		var wg sync.WaitGroup
		for i, l := range ls {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for f := 0; f < frames && errs[i] == nil; f++ {
					if errs[i] = l.pc.put(tXchg, body, true); errs[i] == nil {
						errs[i] = write(l)
					}
				}
				for f := 0; f < frames && errs[i] == nil; f++ {
					var got []byte
					if _, got, errs[i] = l.pc.fr.read(); errs[i] == nil && len(got) != len(body) {
						errs[i] = fmt.Errorf("read %d bytes, want %d", len(got), len(body))
					}
					if errs[i] == nil {
						errs[i] = l.join()
					}
				}
			}()
		}
		wg.Wait()
		return errs
	}

	// The control's deadline is short: it is meant to be met.
	inline := func(l *meshLink) error {
		l.pc.conn.SetDeadline(time.Now().Add(time.Second))
		return l.pc.flush()
	}
	if errs := exchange(links(), big, 1, inline); errs[0] == nil || errs[1] == nil {
		t.Fatalf("control: two inline %d-byte writes did not block each other (%v, %v); the buffers are too large for this test", len(big), errs[0], errs[1])
	}

	// (Set after the connect, the small buffers bind loosely: 32 KiB was
	// seen to fit, 64 KiB never. The control's quarter megabyte blocks for
	// certain; 64 KiB keeps the real transfer, which crawls, short.)
	short := func(l *meshLink) error {
		if err := l.send(); err != nil {
			return err
		}
		if !l.inflight {
			return fmt.Errorf("the socket took a 64 KiB frame whole: the remainder path was not exercised")
		}
		return nil
	}
	if errs := exchange(links(), big[:64<<10], 1, short); errs[0] != nil || errs[1] != nil {
		t.Fatalf("concurrent large exchange failed: %v, %v", errs[0], errs[1])
	}

	whole := func(l *meshLink) error {
		if err := l.send(); err != nil {
			return err
		}
		if l.inflight {
			return fmt.Errorf("a frame of meshInline bytes did not fit the smallest buffers")
		}
		return nil
	}
	if errs := exchange(links(), big[:meshInline], 2, whole); errs[0] != nil || errs[1] != nil {
		t.Fatalf("two inline frames of meshInline bytes each way: %v, %v", errs[0], errs[1])
	}
}

// TestNoDeadlockShrunkenMesh runs a whole simulation whose XCHG frames
// exceed meshInline (K=8 at high load: a few kilobytes of mail per window
// each way) over mesh connections with shrunken buffers.
//
// Written as they are since nothing between two peers of one host is
// deflated, these frames exceed what the shrunken buffers let TCP keep in
// flight, and every window waits out a timer or two of the kernel's (a
// third of a second a window, 0.5 s -> 18 s for the test): the price of
// exercising, in every window, the path where the socket takes part of a
// frame and a goroutine writes the rest.
func TestNoDeadlockShrunkenMesh(t *testing.T) {
	testShrunkenMesh(t, &chaos{tune: shrink}, 40*sim.Microsecond)
}

func testShrunkenMesh(t *testing.T, ch *chaos, dur sim.Time) {
	spec := Spec{K: 8, Seed: 3, Shards: 2, Dur: dur, Load: 0.9, CellBytes: 512, Hotspot: 1}
	want := localOutcome(t, spec)
	stats := NewCoordStats()
	got, err := serveChaos(t, spec, 2, 2, CoordConfig{Stats: stats}, ch)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("outcome diverged:\n got %+v\nwant %+v", got, want)
	}
	snap := stats.Snapshot()
	if perPeer := snap.WindowMailBytes.Sum / float64(snap.Windows) / 2; perPeer <= meshInline {
		t.Fatalf("spec too light for this test: %.0f mail bytes per peer per window over %d windows never exceed meshInline",
			perPeer, snap.Windows)
	}
}

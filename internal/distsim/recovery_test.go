package distsim

import (
	"bytes"
	"fmt"
	"net"
	"reflect"
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
func TestRecovery(t *testing.T) {
	testRecovery(t, governed)
	t.Run("tcp", func(t *testing.T) { testRecovery(t, onTCP(governed)) })
}

// governed leaves a test's fault seam as it is: every mesh link decides by
// itself when to poll. TestPollModes runs the same bodies with the decision
// forced both ways.
func governed(c *chaos) *chaos { return c }

// onTCP is with, and every mesh link kept on its socket. The tests that
// hold the window loop to its contract run over both transports a link
// between peers of one host can have: its shared-memory ring, which it
// takes when it can, and its socket.
func onTCP(with func(*chaos) *chaos) func(*chaos) *chaos {
	return func(c *chaos) *chaos {
		if c = with(c); c == nil {
			c = &chaos{}
		}
		c.tcp = true
		return c
	}
}

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
	// dieTwice kills peer id at window w, then its replacement while that
	// runs window w/2 again — below the window the coordinator resumes at,
	// so in the stretch whose DONE frames it drops; the second replacement
	// runs through.
	dieTwice := func(id, w int) *chaos {
		var deaths atomic.Int32
		return &chaos{at: func(peer, window int, ph phase) fault {
			if peer != id || ph != phaseLive {
				return faultNone
			}
			switch {
			case window >= w && deaths.CompareAndSwap(0, 1):
				return faultDie
			case window >= w/2 && deaths.CompareAndSwap(1, 2):
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
		{"kill-replacement-during-rerun", func() *chaos { return dieTwice(1, 120) }, npeers + 2},
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
			if !strings.Contains(log.String(), "accounting resumes at window") {
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
// its REPORT is restored like any other — everybody runs the whole run
// again and reports again.
func TestRecoveryAfterLastWindow(t *testing.T) {
	testRecoveryAfterLastWindow(t, governed)
	t.Run("tcp", func(t *testing.T) { testRecoveryAfterLastWindow(t, onTCP(governed)) })
}

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
	if !strings.Contains(log.String(), "accounting resumes at window") {
		t.Fatalf("the fault was never injected\n%s", log.String())
	}
}

// TestRecoveredStreamMatchesRecord pins the rule that makes a recovery a
// re-run: the coordinator drops the DONE frames of the windows it had
// accounted before the fault and takes up the rest. The STREC1 stream it
// writes across a peer's death must be Record's to the byte — a window
// merged twice or lost shows — and OnWindow must see every window once, in
// order.
func TestRecoveredStreamMatchesRecord(t *testing.T) {
	testRecoveredStream(t, governed)
	t.Run("tcp", func(t *testing.T) { testRecoveredStream(t, onTCP(governed)) })
}

func testRecoveredStream(t *testing.T, with func(*chaos) *chaos) {
	spec := smallSpec(4)
	spec.Telem = 5 * sim.Microsecond
	var want bytes.Buffer
	wantOut, err := Record(spec, &want)
	if err != nil {
		t.Fatal(err)
	}
	var log syncBuffer
	var stream bytes.Buffer
	var seen []int
	cfg := CoordConfig{Rejoin: true, Log: &log, Stream: &stream, OnWindow: func(w int) { seen = append(seen, w) }}
	got, err := serveChaos(t, spec, 3, 4, cfg, with(dieOnce(1, 100)))
	if err != nil {
		t.Fatalf("%v\n%s", err, log.String())
	}
	if !strings.Contains(log.String(), "accounting resumes at window") {
		t.Fatalf("the fault was never injected: no recovery in the log\n%s", log.String())
	}
	if !reflect.DeepEqual(got, wantOut) {
		t.Fatalf("recovered outcome diverged:\n got %+v\nwant %+v", got, wantOut)
	}
	if !bytes.Equal(stream.Bytes(), want.Bytes()) {
		t.Fatalf("recovered stream differs from Record's (%d vs %d bytes)", stream.Len(), want.Len())
	}
	for i, w := range seen {
		if w != i {
			t.Fatalf("OnWindow saw %v: window %d at call %d", seen[:i+1], w, i)
		}
	}
	if len(seen) <= 100 {
		t.Fatalf("OnWindow saw %d windows; the peer died at window 100", len(seen))
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

// shrink gives a TCP connection the smallest socket buffers the kernel
// allows, so that a few kilobytes in flight fill them.
func shrink(conn net.Conn) { shrinkTo(conn, 1) }

// coordBuffer is what TestNoDeadlockAsymmetricDoneStream leaves of the
// socket buffers between a peer and the coordinator.
const coordBuffer = 6 << 10

// shrunkListener hands the coordinator connections with coordBuffer-sized
// buffers.
type shrunkListener struct{ net.Listener }

func (l shrunkListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil {
		shrinkTo(conn, coordBuffer)
	}
	return conn, err
}

func shrinkTo(conn net.Conn, n int) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetReadBuffer(n)
		tc.SetWriteBuffer(n)
	}
}

// TestNoDeadlockAsymmetricDoneStream is the first deadlock the design
// rules out (see peer.go). A telemetry scrape in every window makes every
// DONE carry the counters of the links and sinks its peer owns: at K=8
// more than a kilobyte per shard. Five shards over four peers give peer 0 two
// shards and so twice the DONE bytes of the others, and coordinator
// connections shrunk to coordBuffer make its byte-triggered flushes block
// early. With one reader taking DONEs in window order the run hangs: peer
// 0 blocks in Flush while the reader waits for a window peer 1 has not
// flushed, and peer 1, no longer fed XCHG frames, never does — the run
// stops at window 64 until the IOTimeout backstop aborts it (checked with
// the per-peer readers replaced by a token passed in window order). A
// 2:1 imbalance can only outrun a pipe smaller than two write buffers:
// at 8 KiB buffers that reader got through, and at the smallest the kernel
// allows, this run crawls on the kernel's retransmission timers (20 s
// rather than 4 s) in the good case too.
func TestNoDeadlockAsymmetricDoneStream(t *testing.T) {
	testAsymmetricDoneStream(t, nil)
	t.Run("tcp", func(t *testing.T) { testAsymmetricDoneStream(t, &chaos{tcp: true}) })
}

func testAsymmetricDoneStream(t *testing.T, ch *chaos) {
	spec := Spec{K: 8, Seed: 7, Shards: 5, Dur: 20 * sim.Microsecond, Load: 0.5, CellBytes: 512, Hotspot: 1, Pattern: "incast"}
	spec.Telem = 1 // rounds up to one window: a scrape in every DONE
	var wantStream bytes.Buffer
	want, err := Record(spec, &wantStream)
	if err != nil {
		t.Fatal(err)
	}

	l := mustListen(t)
	addr := l.Addr().String()
	res := make(chan serveResult, 1)
	var stream bytes.Buffer
	go func() {
		out, err := Serve(shrunkListener{l}, CoordConfig{Spec: spec, Peers: 4, Stream: &stream})
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
			shrinkTo(conn, coordBuffer)
			runPeerConn(conn, ch)
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
		if !bytes.Equal(stream.Bytes(), wantStream.Bytes()) {
			t.Fatalf("stream differs from Record's (%d vs %d bytes)", stream.Len(), wantStream.Len())
		}
	case <-time.After(120 * time.Second):
		t.Fatal("incast run with shrunken coordinator buffers deadlocked")
	}
	wg.Wait()
}

// tcpPair returns two ends of one loopback TCP connection, both shrunk.
func tcpPair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	a, b := connPair(t)
	shrink(a)
	shrink(b)
	return a, b
}

// connPair returns two ends of one loopback TCP connection.
func connPair(t testing.TB) (net.Conn, net.Conn) {
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
// Over a shared-memory ring the same holds at the ring's size.
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
			return fmt.Errorf("the link took a 64 KiB frame whole: the remainder path was not exercised")
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
			return fmt.Errorf("a frame of meshInline bytes did not fit two deep")
		}
		return nil
	}
	if errs := exchange(links(), big[:meshInline], 2, whole); errs[0] != nil || errs[1] != nil {
		t.Fatalf("two inline frames of meshInline bytes each way: %v, %v", errs[0], errs[1])
	}

	// A ring smaller than the frame leaves a remainder in both directions
	// at once, and the default ring takes the two meshInline frames whole.
	t.Run("ring", func(t *testing.T) {
		if errs := exchange(ringPair(t, force, shrunkRing), big[:64<<10], 1, short); errs[0] != nil || errs[1] != nil {
			t.Fatalf("concurrent large exchange over a %d-byte ring failed: %v, %v", shrunkRing, errs[0], errs[1])
		}
		if errs := exchange(ringPair(t, force, ringSize), big[:meshInline], 2, whole); errs[0] != nil || errs[1] != nil {
			t.Fatalf("two inline frames of meshInline bytes each way over a ring: %v, %v", errs[0], errs[1])
		}
	})
}

// TestNoDeadlockShrunkenMesh runs a whole simulation whose XCHG frames
// exceed meshInline (K=10 at high load on three shards: two to three
// kilobytes of mail per window each way) over mesh connections with
// shrunken buffers.
//
// Written as they are since nothing between two peers of one host is
// deflated, these frames exceed what the shrunken buffers let TCP keep in
// flight, and every window waits out a timer or two of the kernel's (a
// third of a second a window, 0.5 s -> 18 s for the test): the price of
// exercising, in every window, the path where the socket takes part of a
// frame and a goroutine writes the rest. (So the links stay on their
// sockets; TestNoDeadlockRingFull is the same run over shrunken rings.)
func TestNoDeadlockShrunkenMesh(t *testing.T) {
	testShrunkenMesh(t, &chaos{tune: shrink, tcp: true}, 40*sim.Microsecond)
}

// shrunkRing is a ring smaller than one XCHG frame of testShrunkenMesh's
// spec.
const shrunkRing = 1 << 10

// TestNoDeadlockRingFull is the symmetric-write deadlock on the ring: every
// window both peers write a frame larger than the ring before either
// reads, so both rings fill and both writer goroutines wait for room while
// their window loops read. The run must end in RunLocal's outcome, with
// every link on its ring.
func TestNoDeadlockRingFull(t *testing.T) {
	testShrunkenMesh(t, &chaos{ringBytes: shrunkRing}, 40*sim.Microsecond)
}

// testShrunkenMesh runs K=10 at load 0.9 on three shards over two peers.
// K=8 on two shards is cut along the Clos's pods, and the mail left
// crossing the cut (the spine links alone) stays under meshInline per
// window.
func testShrunkenMesh(t *testing.T, ch *chaos, dur sim.Time) {
	spec := Spec{K: 10, Seed: 3, Shards: 3, Dur: dur, Load: 0.9, CellBytes: 512, Hotspot: 1}
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
	// (meshInline is also shrunkRing: a frame above it overfills the ring.)
	if perPeer := snap.WindowMailBytes.Sum / float64(snap.Windows) / 2; perPeer <= meshInline {
		t.Fatalf("spec too light for this test: %.0f mail bytes per peer per window over %d windows never exceed meshInline",
			perPeer, snap.Windows)
	}
	wantRings := 0
	if !ch.tcpOnly() && ringsHere(t) {
		wantRings = 1
	}
	for _, p := range snap.Peers {
		if p.RingLinks != wantRings {
			t.Fatalf("peer %d ran %d links over a ring, want %d", p.Peer, p.RingLinks, wantRings)
		}
	}
}

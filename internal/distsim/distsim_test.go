package distsim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stardust/internal/sim"
)

// smallSpec is a fast parscale-shaped run: ~400 windows on a K=4 Clos.
func smallSpec(shards int) Spec {
	return Spec{K: 4, Seed: 7, Shards: shards, Dur: 200 * sim.Microsecond, Load: 0.5, CellBytes: 512, Hotspot: 1}
}

// healSpec exercises the control plane: link failures mid-run, heals, and
// the cross-shard reach re-advertisements they trigger.
func healSpec(shards int) Spec {
	s := smallSpec(shards)
	s.Dur = 150 * sim.Microsecond
	s.FailN = 2
	s.FailAt = 100 * sim.Microsecond
	s.HealAt = 160 * sim.Microsecond
	return s
}

func localOutcome(t *testing.T, spec Spec) Outcome {
	t.Helper()
	m, err := NewModel(spec)
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.RunLocal()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func mustListen(t testing.TB) net.Listener {
	t.Helper()
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	return l
}

// readFrame reads one frame off a bare connection, for the tests that
// play a misbehaving peer by hand (they write with frame, wire_test.go).
func readFrame(r io.Reader) (byte, []byte, error) {
	return (&frameReader{r: r, limit: maxFrame}).read()
}

// dieOnce makes whoever holds peer id crash on reaching live window w —
// once: its replacement, which gets the same id, runs through.
func dieOnce(id, w int) *chaos {
	var died atomic.Bool
	return &chaos{at: func(peer, window int, ph phase) fault {
		if peer == id && ph == phaseLive && window >= w && died.CompareAndSwap(false, true) {
			return faultDie
		}
		return faultNone
	}}
}

type serveResult struct {
	out Outcome
	err error
}

// serveWith runs a coordinator plus npeers in-process peer goroutines and
// returns the coordinator's outcome.
func serveWith(t *testing.T, spec Spec, npeers int, cfg CoordConfig) (Outcome, error) {
	t.Helper()
	return serveChaos(t, spec, npeers, npeers, cfg, nil)
}

// serveChaos is serveWith with dialers peers dialing in (the extra ones
// are parked by the coordinator and become replacements when a slot
// empties) and every peer running under the fault seam ch. It fails the
// test when the coordinator or any peer is still running at the deadline:
// whatever a test injects, nothing may hang.
func serveChaos(t *testing.T, spec Spec, npeers, dialers int, cfg CoordConfig, ch *chaos) (Outcome, error) {
	t.Helper()
	l := mustListen(t)
	addr := l.Addr().String()
	cfg.Spec = spec
	cfg.Peers = npeers
	ch1 := make(chan serveResult, 1)
	go func() {
		out, err := Serve(l, cfg)
		ch1 <- serveResult{out, err}
	}()
	peersDone := make(chan struct{}, dialers)
	for i := 0; i < dialers; i++ {
		go func() {
			defer func() { peersDone <- struct{}{} }()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return
			}
			defer conn.Close()
			runPeerConn(conn, ch)
		}()
	}
	deadline := time.After(120 * time.Second)
	var r serveResult
	select {
	case r = <-ch1:
	case <-deadline:
		t.Fatal("distributed run deadlocked")
	}
	for i := 0; i < dialers; i++ {
		select {
		case <-peersDone:
		case <-deadline:
			t.Fatal("a peer is still running after the coordinator returned")
		}
	}
	return r.out, r.err
}

// TestStepOwnedMatchesRun pins the transport seam itself: driving the
// engine through StepOwned with every shard owned must be bit-identical
// to the internal RunUntilQuiet loop.
func TestStepOwnedMatchesRun(t *testing.T) {
	spec := healSpec(4)
	want := localOutcome(t, spec)

	m, err := NewModel(spec)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]bool, spec.Shards)
	for i := range all {
		all[i] = true
	}
	look := m.Eng.Lookahead()
	until := (m.Horizon + m.Drain + look - 1) / look * look
	for m.Eng.Now() < until && !m.Eng.Quiet() {
		m.Eng.StepOwned(all, nil)
	}
	if !m.Eng.Quiet() {
		t.Fatalf("StepOwned loop did not drain")
	}
	sc, sb, dirs := m.gather()
	got := Outcome{
		Injected:    m.Net.Injected(),
		Delivered:   m.Net.Delivered(),
		Drops:       m.Net.Drops(),
		Events:      m.Eng.Processed(),
		Unreachable: m.Net.UnreachablePairs(),
		Digest:      foldDigest(sc, sb, dirs),
		ShardEvents: m.Eng.Stats().ShardEvents,
		Cut:         cutTraffic(m.Net, dirs),
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("StepOwned outcome diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestDistributedMatchesLocal is the core guarantee: same seed, same
// bytes, whether the shards are goroutines or remote peers — at every peer
// count from one (no mesh at all) to one peer per shard, including uneven
// partition maps (three peers over four shards: one peer runs two shards
// through parsim's window executor), a fail/heal control schedule on every
// replica, the non-Clos graphs, and with the telemetry stream on, whose
// bytes must equal Record's.
func TestDistributedMatchesLocal(t *testing.T) {
	type specCase struct {
		prefix string
		spec   Spec
	}
	telem := healSpec(4)
	telem.Telem = 20 * sim.Microsecond
	specs := []specCase{
		{"", smallSpec(4)},
		{"heal-", healSpec(4)},
		{"sshuffle-", topoSpec("sshuffle", "", 4)},
		{"star-", topoSpec("star", "permutation", 4)},
		{"telem-", telem},
	}
	suffix := map[int]string{1: "1peer", 2: "2peers", 3: "3peers-uneven", 4: "4peers"}
	for _, sc := range specs {
		want := localOutcome(t, sc.spec)
		var wantStream bytes.Buffer
		if sc.spec.Telem > 0 {
			if _, err := Record(sc.spec, &wantStream); err != nil {
				t.Fatal(err)
			}
		}
		for npeers := 1; npeers <= 4; npeers++ {
			t.Run(sc.prefix+suffix[npeers], func(t *testing.T) {
				var stream bytes.Buffer
				got, err := serveWith(t, sc.spec, npeers, CoordConfig{Stream: &stream, Stats: NewCoordStats()})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("distributed outcome diverged:\n got %+v\nwant %+v", got, want)
				}
				if !bytes.Equal(stream.Bytes(), wantStream.Bytes()) {
					t.Fatalf("distributed stream differs from Record's (%d vs %d bytes)", stream.Len(), wantStream.Len())
				}
			})
		}
	}
}

// TestVersionMismatch: a peer speaking another protocol version — the one
// before this, or one from nowhere — gets a deterministic ERROR frame and
// the coordinator aborts — no hang.
func TestVersionMismatch(t *testing.T) {
	for _, v := range []int{protoVersion - 1, 99} {
		t.Run(fmt.Sprintf("v%d", v), func(t *testing.T) { testVersionMismatch(t, v) })
	}
}

func testVersionMismatch(t *testing.T, version int) {
	l := mustListen(t)
	addr := l.Addr().String()
	ch := make(chan serveResult, 1)
	go func() {
		out, err := Serve(l, CoordConfig{Spec: smallSpec(2), Peers: 1, JoinTimeout: 30 * time.Second})
		ch <- serveResult{out, err}
	}()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hb, _ := json.Marshal(helloMsg{Version: version, Mesh: "127.0.0.1:1"})
	if _, err := conn.Write(frame(t, tHello, hb)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	typ, body, err := readFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if typ != tError || !strings.Contains(string(body), "version mismatch") {
		t.Fatalf("expected version-mismatch ERROR frame, got type %d %q", typ, body)
	}
	select {
	case r := <-ch:
		if r.err == nil || !strings.Contains(r.err.Error(), "version mismatch") {
			t.Fatalf("coordinator error = %v, want version mismatch", r.err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("coordinator hung on version mismatch")
	}
}

// TestPartitionDisagreement: a peer whose replica hashes differently from
// the coordinator's is rejected at READY, before any window runs.
func TestPartitionDisagreement(t *testing.T) {
	l := mustListen(t)
	addr := l.Addr().String()
	ch := make(chan serveResult, 1)
	go func() {
		out, err := Serve(l, CoordConfig{Spec: smallSpec(2), Peers: 1, JoinTimeout: 30 * time.Second})
		ch <- serveResult{out, err}
	}()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hb, _ := json.Marshal(helloMsg{Version: protoVersion, Mesh: "127.0.0.1:1"})
	if _, err := conn.Write(frame(t, tHello, hb)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	typ, _, err := readFrame(conn)
	if err != nil || typ != tWelcome {
		t.Fatalf("expected WELCOME, got type %d err %v", typ, err)
	}
	rb, _ := json.Marshal(readyMsg{Hash: 0xdeadbeef})
	if _, err := conn.Write(frame(t, tReady, rb)); err != nil {
		t.Fatal(err)
	}
	typ, body, err := readFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if typ != tError || !strings.Contains(string(body), "partition map disagreement") {
		t.Fatalf("expected partition-disagreement ERROR frame, got type %d %q", typ, body)
	}
	select {
	case r := <-ch:
		if r.err == nil || !strings.Contains(r.err.Error(), "partition map disagreement") {
			t.Fatalf("coordinator error = %v, want partition map disagreement", r.err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("coordinator hung on partition disagreement")
	}
}

// The READY hash covers the node -> shard cut: two replicas that cut the
// same graph differently must not agree on it.
func TestModelHashCoversCut(t *testing.T) {
	spec := smallSpec(2)
	m, err := NewModel(spec)
	if err != nil {
		t.Fatal(err)
	}
	owners, cut := OwnersFor(spec.Shards, 2), m.Net.Cut()
	want := modelHash(spec, owners, cut, m)
	if got := modelHash(spec, owners, m.Net.Cut(), m); got != want {
		t.Fatalf("same replica hashed %016x, then %016x", want, got)
	}
	for _, node := range []int{0, len(cut) - 1} {
		moved := slices.Clone(cut)
		moved[node] = 1 - moved[node]
		if got := modelHash(spec, owners, moved, m); got == want {
			t.Errorf("moving node %d to shard %d left the hash %016x", node, moved[node], got)
		}
	}
}

// On the benchmark's two-shard K=8 Clos the cut follows the pods: only
// the spine links cross it, so the mail is about half a message per
// delivered cell (1.52 when every tier was cut into index blocks), and it
// is exactly the cells the cut links carried.
func TestTwoShardClosMail(t *testing.T) {
	spec := Spec{K: 8, Topo: "clos", Seed: 1, Shards: 2, Dur: 6250 * sim.Microsecond, Load: 0.4, CellBytes: 512, Hotspot: 1}
	m, err := NewModel(spec)
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.RunLocal()
	if err != nil {
		t.Fatal(err)
	}
	mail := m.Eng.Stats().Mail
	if perCell := float64(mail) / float64(out.Delivered); out.Delivered == 0 || perCell > 0.6 {
		t.Errorf("%d messages for %d delivered cells: %.2f per cell, want <= 0.6", mail, out.Delivered, perCell)
	}
	if mail != out.Cut.Cells {
		t.Errorf("mail %d, cells over the %d cut links %d", mail, out.Cut.CutLinks, out.Cut.Cells)
	}
}

// TestBadShardCount: a shard count the graph cannot have is an error where
// the replica is built — in-process, at the coordinator, and at a peer whose
// WELCOME carries one — instead of shards² mailboxes (100,000 of them used
// to get the process killed) or a silent single shard (-1 used to).
func TestBadShardCount(t *testing.T) {
	const bound = "must be in [1, 16], the devices of the graph"
	for _, shards := range []int{-1, 17, 100000} {
		if _, err := NewModel(smallSpec(shards)); err == nil || !strings.Contains(err.Error(), bound) {
			t.Fatalf("NewModel at %d shards: %v", shards, err)
		}
	}
	for _, shards := range []int{0, 1, 16} {
		m, err := NewModel(smallSpec(shards))
		if err != nil || m.Eng.Shards() != max(shards, 1) {
			t.Fatalf("NewModel at %d shards: %v", shards, err)
		}
	}
	if _, err := Serve(mustListen(t), CoordConfig{Spec: smallSpec(100000), Peers: 1}); err == nil || !strings.Contains(err.Error(), bound) {
		t.Fatalf("coordinator at 100000 shards: %v", err)
	}

	// A peer believes no coordinator: this one welcomes it to 100,000 shards.
	l := mustListen(t)
	done := make(chan error, 1)
	go func() { done <- RunPeer(l.Addr().String()) }()
	conn, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	if typ, _, err := readFrame(conn); err != nil || typ != tHello {
		t.Fatalf("expected HELLO, got type %d err %v", typ, err)
	}
	wb, _ := json.Marshal(welcomeMsg{Spec: smallSpec(100000), NPeers: 1, Owners: make([]int, 100000)})
	if _, err := conn.Write(frame(t, tWelcome, wb)); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), bound) {
			t.Fatalf("peer error = %v, want the shard bound", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("peer hung on a WELCOME to 100000 shards")
	}
}

// TestBadSpec: a Spec the model cannot simulate is refused where the
// replica is built, naming the field — in-process, at the coordinator, and
// at a peer whose WELCOME carries one. A 0-byte cell used to run with link
// counters that never moved, a load of 0 flooded at the 1 ns gap floor
// until the drain gave up, a duration of 0 injected forever and one of -1
// "succeeded" with no cells.
func TestBadSpec(t *testing.T) {
	with := func(edit func(*Spec)) Spec { s := smallSpec(1); edit(&s); return s }
	for _, tc := range []struct {
		spec Spec
		want string // "" = accepted
	}{
		{with(func(s *Spec) { s.CellBytes = 0 }), "cell 0 bytes: must be in [1, 262144]"},
		{with(func(s *Spec) { s.CellBytes = -512 }), "cell -512 bytes"},
		{with(func(s *Spec) { s.CellBytes = 256<<10 + 1 }), "cell 262145 bytes"},
		{with(func(s *Spec) { s.CellBytes = 1 }), ""},
		{with(func(s *Spec) { s.CellBytes = 256 << 10 }), ""},
		{with(func(s *Spec) { s.Load = 0 }), "load 0: must be finite and > 0"},
		{with(func(s *Spec) { s.Load = -0.4 }), "load -0.4"},
		{with(func(s *Spec) { s.Load = math.NaN() }), "load NaN"},
		{with(func(s *Spec) { s.Load = math.Inf(1) }), "load +Inf"},
		{with(func(s *Spec) { s.Load = 1e-9 }), ""},
		{with(func(s *Spec) { s.Dur = 0 }), "dur 0 ps: must be > 0"},
		{with(func(s *Spec) { s.Dur = -sim.Millisecond }), "dur -1000000000 ps"},
		{with(func(s *Spec) { s.Dur = 1 }), ""},
	} {
		_, err := NewModel(tc.spec)
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("cell %d load %v dur %d: NewModel error %v, want %q", tc.spec.CellBytes, tc.spec.Load, tc.spec.Dur, err, tc.want)
		}
		if err := tc.spec.Check(); (err == nil) != (tc.want == "") {
			t.Errorf("cell %d load %v dur %d: Check %v, NewModel %q", tc.spec.CellBytes, tc.spec.Load, tc.spec.Dur, err, tc.want)
		}
	}
	const want = "cell 0 bytes"
	bad := with(func(s *Spec) { s.CellBytes = 0 })
	if _, err := Serve(mustListen(t), CoordConfig{Spec: bad, Peers: 1}); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("coordinator: %v", err)
	}

	// A peer believes no coordinator: this one welcomes it to 0-byte cells.
	l := mustListen(t)
	done := make(chan error, 1)
	go func() { done <- RunPeer(l.Addr().String()) }()
	conn, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	if typ, _, err := readFrame(conn); err != nil || typ != tHello {
		t.Fatalf("expected HELLO, got type %d err %v", typ, err)
	}
	wb, _ := json.Marshal(welcomeMsg{Spec: bad, NPeers: 1, Owners: make([]int, 1)})
	if _, err := conn.Write(frame(t, tWelcome, wb)); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("peer error = %v, want %q", err, want)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("peer hung on a WELCOME to 0-byte cells")
	}
}

// TestMidWindowDisconnect: without Rejoin, a peer dropping mid-run aborts
// the whole run with a deterministic error instead of deadlocking the
// barrier.
// With a second peer, the survivor's mesh link ends under it: over a ring
// and over a socket alike.
func TestMidWindowDisconnect(t *testing.T) {
	_, err := serveChaos(t, smallSpec(2), 1, 1, CoordConfig{}, dieOnce(0, 3))
	if err == nil || !strings.Contains(err.Error(), "disconnected at window") {
		t.Fatalf("coordinator error = %v, want mid-window disconnect", err)
	}
	for _, with := range []struct {
		name string
		with func(*chaos) *chaos
	}{{"2peers", governed}, {"2peers-tcp", onTCP(governed)}} {
		t.Run(with.name, func(t *testing.T) {
			_, err := serveChaos(t, smallSpec(2), 2, 2, CoordConfig{}, with.with(dieOnce(0, 3)))
			if err == nil || !strings.Contains(err.Error(), "disconnected at window") {
				t.Fatalf("coordinator error = %v, want mid-window disconnect", err)
			}
		})
	}
}

// TestDoubleJoin: a second connection while every peer slot is taken is
// parked and then deterministically rejected — it never steals a slot and
// never hangs. The run waits at its first window until the straggler is
// accepted and has written its HELLO: a short run closes its listener.
func TestDoubleJoin(t *testing.T) {
	l := &secondAccept{Listener: mustListen(t), second: make(chan struct{})}
	addr := l.Addr().String()
	started, joined := make(chan struct{}), make(chan struct{})
	var release sync.Once
	defer release.Do(func() { close(joined) }) // every exit path lets the run end
	var once bool
	ch := make(chan serveResult, 1)
	go func() {
		out, err := Serve(l, CoordConfig{
			Spec:  smallSpec(2),
			Peers: 1,
			OnWindow: func(w int) {
				if !once {
					once = true
					close(started)
					<-joined
				}
			},
		})
		ch <- serveResult{out, err}
	}()
	go func() {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return
		}
		defer conn.Close()
		runPeerConn(conn, nil)
	}()
	<-started // the legitimate peer owns the run now
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hb, _ := json.Marshal(helloMsg{Version: protoVersion, Mesh: "127.0.0.1:1"})
	if _, err := conn.Write(frame(t, tHello, hb)); err != nil {
		t.Fatal(err)
	}
	<-l.second
	release.Do(func() { close(joined) })
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatalf("run with a double-join attempt failed: %v", r.err)
		}
	case <-time.After(120 * time.Second):
		t.Fatal("coordinator hung with a double-join attempt")
	}
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	typ, body, err := readFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if typ != tError || !strings.Contains(string(body), "no free peer slot") {
		t.Fatalf("expected no-free-slot ERROR frame, got type %d %q", typ, body)
	}
}

// secondAccept closes second once it has handed out two connections (one
// goroutine accepts).
type secondAccept struct {
	net.Listener
	n      int
	second chan struct{}
}

func (l *secondAccept) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if l.n++; l.n == 2 {
		close(l.second)
	}
	return c, err
}

// TestRejoinRestoresDigest: a peer dies mid-run, a replacement joins,
// every peer runs again from window 0 while the coordinator resumes its
// accounting where it stopped, and the final outcome is byte-identical to
// the uninterrupted run.
func TestRejoinRestoresDigest(t *testing.T) {
	spec := smallSpec(4)
	want := localOutcome(t, spec)
	for _, tcp := range []bool{false, true} {
		ch := dieOnce(0, 40)
		ch.tcp = tcp
		got, err := serveChaos(t, spec, 2, 3, CoordConfig{Rejoin: true}, ch)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("tcp=%v: restored outcome diverged:\n got %+v\nwant %+v", tcp, got, want)
		}
	}
}

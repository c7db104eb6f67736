// The peer runtime. A peer dials the coordinator, opens a mesh listener on
// the interface that connection uses, and then does what the coordinator's
// frames say: WELCOME — build the replica and replay the resume log, answer
// READY; START — connect the mesh and run windows until the stop rule,
// answer REPORT (or STALL when the mesh breaks); FINISH — leave. Between
// START and REPORT nothing is read from the coordinator: per window a peer
// steps its shards, writes one XCHG frame to every other peer, appends one
// DONE frame to the coordinator's buffer, then reads one XCHG from each
// neighbour in ascending id and delivers it — one network hop per window,
// and a read that finds its socket empty polls it for a while before it
// goes to sleep (poll.go).
//
// Every peer evaluates the stop rule on the same numbers (the sums of
// ownedPending and mailOut over all XCHG frames of the window plus its
// own, its replica's pending controls, the horizon), so all stop after the
// same window without being told.
//
// Two deadlocks are designed out rather than discovered.
//
// Symmetric writes: two peers that each write an XCHG larger than the
// socket buffers between them before either reads would block forever (the
// star never wrote in both directions at once). So a write never waits for
// socket space: the frame is offered to the socket in one non-blocking
// write(2), which with ordinary buffers takes all of it, and what the
// socket did not take is written by a goroutine while this one goes on to
// read, joined before the next window. Where the socket cannot be asked
// (poll_other.go) the rule it replaced stands in: a neighbour is at most two
// frames behind — it has read window w-2 before it wrote w-1 — so a frame
// of at most meshInline bytes is written blocking, two of them fitting the
// smallest buffers the kernel hands out, and a larger one goes to the
// goroutine whole. Nothing waits for a write before reading.
//
// The one-way DONE stream: DONE frames pile up in a writeBuffer-sized
// buffer and reach the coordinator when it fills or every flushWindows
// windows, whichever is first — and at a mesh error and at the end.
// Flushing on bytes alone deadlocks: a peer that mails much fills its
// socket while the coordinator, which advances window by window, waits for
// a quiet peer that has not flushed; the busy one blocks in Flush, stops
// exchanging, and the quiet one never reaches its flush. With the window
// count every peer's DONE for window w is on the wire by window
// w+flushWindows, which is within what the coordinator's per-peer readers
// queue (see doneQueue), so the coordinator can always advance to a window
// every peer has flushed.
//
// The constants are measured, not tuned per run (2-vCPU Xeon 2.10 GHz VM,
// go1.24.0, GOMAXPROCS=2; bench dist_2peer: K=4, 10,006 windows of ~14 µs
// of simulation, ~200 B XCHG frames): the star took 0.61-1.26 s; the mesh
// flushing DONE every window 0.55-0.95 s, at 16 KiB / 32 windows 0.40-0.53 s,
// and without the mail copy in DONE 0.29-0.35 s. What a window cost beyond
// its simulation then was not work but waiting badly, in three ways.
//
// Poll, then park (poll.go). A reader parked in the netpoller is woken
// through epoll and the scheduler, usually on the other vCPU.
// BenchmarkMeshExchange (two goroutines, 10 µs of arithmetic and one frame
// each way per window): 29.9 µs per window parked against 16.6 µs polling at
// 200 B, 28.9 against 17.6 µs at 2 KiB — the exchange itself 19-20 µs or
// 7 µs; in dist_2peer the mean mesh wait per window fell from 15.8 to
// 3.3 µs and wall_s from 0.308 to 0.174 s (10 of 10 pairs). One attempt on
// an empty socket plus the yield that follows is 0.9 µs. pollTries = 512
// (~0.5 ms) because the bound must clearly exceed what a parked neighbour
// takes to answer, its own wake-up plus a step: at 64 (57 µs, about that)
// one park makes the other side's poll miss, that side parks in turn, and a
// governed pair locked into mutual parking in about half the runs (median
// 0.40 s, against 0.24 s at 256 and 0.23 s at 512 and 1024; never polling
// 0.44-0.51 s). pollQuick = 128: a frame caught after more than ~115 µs of
// polling saved no more than it burned. pollMisses = 2, pollHoldMin = 32 and
// pollHoldCap = 4096 are set by the case polling cannot win, both peers and
// the coordinator as three processes on one CPU (taskset -c 0), where every
// attempt takes time the neighbour needs: a 5,006-window run spent 16 k
// attempts (~14 ms of 330) before its links settled on parking at 2 misses,
// 25 k at 3 or 4, and a capped hold of 4096 reads keeps a link that never
// pays to one fruitless poll per ~4000 windows; on two CPUs the settings
// could not be told apart (0.232-0.236 s). In one process on one CPU
// (GOMAXPROCS=1, where a yield runs the neighbour) dist_2peer stayed at
// 0.287 -> 0.293 s.
//
// Write inline. Handing the frame to a goroutine costs 2-3.5 µs and two
// allocations per exchange under a parked reader, and under a polling one
// the writer first needs the P the poller holds: 20.1 against 16.6 µs at
// 200 B, 20.8 against 17.6 µs at 2 KiB. A poll therefore yields between
// attempts, and a frame of any size is offered to the socket first.
//
// No DEFLATE between peers of one host. BenchmarkFrameRoundTrip/4096B: 91 µs
// and 51 allocations to deflate and inflate a 4 KiB mail frame (45 MB/s)
// against 0.29 µs plain — twice a K=8 window's simulation, and a loss on any
// link faster than ~350 Mb/s. The window loop's frames (XCHG, DONE) are
// deflated only on a connection whose ends have different IPs
// (peerConn.far); nobody has measured a real link yet, so there the policy
// is the inherited one. K=8, 2 ms, 2,006 windows of ~1.8 KiB frames, two
// peers in one process: 0.54-0.60 s before, 0.18-0.22 s now, RunLocal
// 0.16-0.17 s; with polling forced off 0.30 s.
package distsim

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"time"

	"stardust/internal/parsim"
	"stardust/internal/sim"
)

// EnvJoin, when set in a process's environment, makes MaybeRunPeer take
// over the process as a peer joining the coordinator at that address —
// the re-exec seam the devnet harness forks real peer processes through.
const EnvJoin = "STARDUST_PEER_JOIN"

const (
	// peerIOTimeout must outlast a coordinator-side rejoin wait plus a
	// replay: after a STALL every healthy peer is parked in a read.
	peerIOTimeout = 180 * time.Second
	// meshTimeout bounds connecting the mesh. START goes to every peer at
	// once, after the last READY, so nobody is still replaying: a slot that
	// stays empty this long is a dead neighbour.
	meshTimeout = 10 * time.Second
	// meshHelloTimeout is what an accepted connection gets to say who it
	// is: a neighbour writes its HELLO right behind the connect, and a
	// silent stranger must not use up the whole meshTimeout.
	meshHelloTimeout = 5 * time.Second
	// flushWindows and meshInline: see the package comment above.
	flushWindows = 32
	meshInline   = 1 << 10
)

// MaybeRunPeer turns the current process into a peer when EnvJoin is set,
// and never returns in that case. Call it first thing in main() (the cmd
// binaries do, via engine.Main) and in TestMain of any test that forks
// peers via devnet — the forked child re-executes the same binary and
// must branch into the peer loop before anything else runs.
func MaybeRunPeer() {
	addr := os.Getenv(EnvJoin)
	if addr == "" {
		return
	}
	if err := RunPeer(addr); err != nil {
		fmt.Fprintf(os.Stderr, "stardust peer: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// RunPeer joins the coordinator at addr and serves one simulation. The
// coordinator may not be listening yet (peers and coordinator start
// concurrently), so the dial retries briefly. The other peers of the run
// must be able to dial this host on the interface the coordinator
// connection leaves through.
func RunPeer(addr string) error {
	conn, err := dialRetry(addr, 30*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	return runPeerConn(conn, nil)
}

func dialRetry(addr string, timeout time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(timeout)
	for {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			return conn, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("distsim: dialing coordinator %s: %w", addr, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// chaos is the tests' fault seam (a goroutine cannot be SIGKILLed): at is
// asked before every window a peer replays or runs live and once more
// before its REPORT, tune sees every mesh connection before it is used,
// meshWait lets a test that breaks the mesh on purpose fail fast, poll pins
// every mesh link's poll-or-park decision.
type chaos struct {
	at       func(peer, window int, ph phase) fault
	tune     func(net.Conn)
	meshWait time.Duration // overrides meshTimeout when positive
	poll     pollForce
}

type phase int

const (
	phaseReplay phase = iota
	phaseLive
	phaseReport
)

type fault int

const (
	faultNone fault = iota
	faultDie        // drop every connection and return, like a crash
	faultCut        // close the mesh link to the lowest neighbour, stay alive
)

func (c *chaos) fault(peer, window int, ph phase) fault {
	if c == nil || c.at == nil {
		return faultNone
	}
	return c.at(peer, window, ph)
}

func (c *chaos) tuneConn(conn net.Conn) {
	if c != nil && c.tune != nil {
		c.tune(conn)
	}
}

func (c *chaos) pollForce() pollForce {
	if c == nil {
		return pollGoverned
	}
	return c.poll
}

func (c *chaos) meshTimeout() time.Duration {
	if c != nil && c.meshWait > 0 {
		return c.meshWait
	}
	return meshTimeout
}

var errInduced = errors.New("distsim: induced peer death")

// peer is one process's side of a run: the coordinator connection and the
// mesh listener live as long as the process, sessions come and go with
// every WELCOME.
type peer struct {
	pc    *peerConn
	lis   *net.TCPListener
	chaos *chaos
}

// runPeerConn speaks the peer side of the protocol on an established
// coordinator connection.
func runPeerConn(conn net.Conn, ch *chaos) error {
	host, _, err := net.SplitHostPort(conn.LocalAddr().String())
	if err != nil {
		return fmt.Errorf("distsim: coordinator connection has no TCP address: %w", err)
	}
	lis, err := net.Listen("tcp", net.JoinHostPort(host, "0"))
	if err != nil {
		return fmt.Errorf("distsim: opening mesh listener: %w", err)
	}
	defer lis.Close()
	p := &peer{pc: newPeerConn(conn, peerIOTimeout), lis: lis.(*net.TCPListener), chaos: ch}
	p.pc.trust() // we chose to dial it
	hb, err := json.Marshal(helloMsg{Version: protoVersion, Mesh: lis.Addr().String()})
	if err != nil {
		return err
	}
	if err := p.pc.write(tHello, hb, false); err != nil {
		return err
	}
	var s *session
	for {
		typ, body, err := p.pc.read()
		if err != nil {
			return fmt.Errorf("distsim: coordinator connection lost: %w", err)
		}
		switch {
		case typ == tWelcome:
			if s, err = p.welcome(body); err != nil {
				return p.fatal(err)
			}
		case typ == tStart && s != nil:
			err = s.run(body)
			s = nil
			if err != nil {
				return p.fatal(err)
			}
		case typ == tFinish:
			return nil
		case typ == tError && s == nil:
			return fmt.Errorf("distsim: coordinator rejected join: %s", body)
		case typ == tError:
			return fmt.Errorf("distsim: coordinator error: %s", body)
		default:
			return fmt.Errorf("distsim: unexpected frame %d from the coordinator", typ)
		}
	}
}

// fatal reports an error no re-join can cure — a protocol violation, a
// codec failure, a model that does not build — to the coordinator, which
// aborts the run. An induced death says nothing, like the crash it plays.
func (p *peer) fatal(err error) error {
	if !errors.Is(err, errInduced) {
		p.pc.write(tError, []byte(err.Error()), false)
	}
	return err
}

// session is one WELCOME's worth of peer state: a replica at window
// `window`, about to be (or being) run against a mesh.
type session struct {
	p      *peer
	wm     welcomeMsg
	m      *Model
	owned  []bool
	hash   uint64
	window int // next window to execute
	// The stop rule's sums after window-1; sumPending < 0 before the first.
	sumPending, lastMail int
	// Static telemetry ownership (Spec.Telem > 0): this peer ships the
	// absolute counters of the entities it owns, disjoint across peers and
	// complete in union.
	telem               sim.Time
	ownedDirs, ownedFAs []int
}

// welcome builds the replica a WELCOME describes, replays the resume log,
// and answers READY with the model hash.
func (p *peer) welcome(body []byte) (*session, error) {
	s := &session{p: p, sumPending: -1}
	if err := json.Unmarshal(body, &s.wm); err != nil {
		return nil, fmt.Errorf("distsim: bad WELCOME: %w", err)
	}
	wm := &s.wm
	var err error
	if s.m, err = NewModel(wm.Spec); err != nil {
		return nil, err
	}
	m := s.m
	if len(wm.Owners) != m.Eng.Shards() {
		return nil, fmt.Errorf("distsim: partition map names %d shards, model has %d", len(wm.Owners), m.Eng.Shards())
	}
	if wm.PeerID < 0 || wm.PeerID >= wm.NPeers {
		return nil, fmt.Errorf("distsim: WELCOME names peer %d of %d", wm.PeerID, wm.NPeers)
	}
	s.owned = make([]bool, len(wm.Owners))
	for sh, o := range wm.Owners {
		if o < 0 || o >= wm.NPeers {
			return nil, fmt.Errorf("distsim: partition map gives shard %d to peer %d of %d", sh, o, wm.NPeers)
		}
		s.owned[sh] = o == wm.PeerID
	}
	if s.telem = wm.Spec.telemEvery(m.Eng.Lookahead()); s.telem > 0 {
		for d := 0; d < 2*m.Net.NumLinks(); d++ {
			if s.owned[m.Net.OwnerOfLinkDir(d)] {
				s.ownedDirs = append(s.ownedDirs, d)
			}
		}
		for fa := range m.Sinks {
			if s.owned[m.Net.ShardOfFA(fa)] {
				s.ownedFAs = append(s.ownedFAs, fa)
			}
		}
	}

	// Restore by replay: the checkpoint is the inbound mail history, and
	// the replica is deterministic, so re-executing windows [0, Resume)
	// reproduces the barrier state the run held there exactly. Outbound
	// mail is discarded — every other peer replays its own inbound log —
	// but still pushed through the codec so pooled packets are released.
	if wm.Resume < 0 || (wm.Resume > 0 && len(wm.Mail) < wm.Resume) {
		return nil, fmt.Errorf("distsim: WELCOME resumes at window %d with %d logged batches", wm.Resume, len(wm.Mail))
	}
	discard := func(src, dst int, mail parsim.Mail) { m.Net.EncodeMail(mail) }
	for ; s.window < wm.Resume; s.window++ {
		if p.chaos.fault(wm.PeerID, s.window, phaseReplay) == faultDie {
			p.pc.conn.Close()
			return nil, errInduced
		}
		if err := deliverMail(m, s.owned, wm.Mail[s.window]); err != nil {
			return nil, err
		}
		m.Eng.StepOwned(s.owned, discard)
	}
	if wm.Resume > 0 {
		s.sumPending, s.lastMail = wm.Pending, wm.LastMail
		if len(wm.Mail) > wm.Resume {
			if err := deliverMail(m, s.owned, wm.Mail[wm.Resume]); err != nil {
				return nil, err
			}
		}
	}
	s.hash = modelHash(wm.Spec, wm.Owners, m)
	rb, err := json.Marshal(readyMsg{Hash: s.hash})
	if err != nil {
		return nil, err
	}
	if err := p.pc.write(tReady, rb, false); err != nil {
		return nil, fmt.Errorf("distsim: coordinator connection lost: %w", err)
	}
	return s, nil
}

// meshLink is the connection to one neighbour. What the socket does not
// take of a frame at once is written by a goroutine while the window loop
// reads: sent carries that write's result, inflight says one is out.
type meshLink struct {
	id       int
	pc       *peerConn
	sent     chan error
	inflight bool
}

func closeLinks(links []*meshLink) {
	for _, l := range links {
		if l != nil {
			l.pc.conn.Close()
		}
	}
}

// offer hands the socket as much of p as it takes without waiting for the
// far end, and returns how much that was. Where the socket cannot be
// asked, a frame of at most meshInline bytes is known to fit (see the
// package comment) and anything larger is not tried.
func (pc *peerConn) offer(p []byte) (int, error) {
	switch {
	case pc.rd.sock != nil:
		return pc.rd.sock.write(p)
	case len(p) <= meshInline+frameHeader:
		return pc.conn.Write(p)
	}
	return 0, nil
}

// send writes the frames put on the link: what the socket takes now,
// inline; the rest, if any, concurrently with the caller's reads. join
// must follow before anything else is put.
func (l *meshLink) send() error {
	pc := l.pc
	n, err := pc.offer(pc.out)
	if err != nil || n == len(pc.out) {
		pc.out = pc.out[:0]
		return err
	}
	rest := pc.out[n:]
	l.inflight = true
	go func() {
		_, err := pc.conn.Write(rest)
		l.sent <- err
	}()
	return nil
}

func (l *meshLink) join() error {
	if !l.inflight {
		return nil
	}
	l.inflight = false
	err := <-l.sent
	l.pc.out = l.pc.out[:0]
	return err
}

// meshError is a lost or silent neighbour: the one failure a re-join
// cures, reported to the coordinator as a STALL.
type meshError struct {
	neighbour int
	err       error
}

func (e *meshError) Error() string {
	return fmt.Sprintf("mesh link to peer %d: %v", e.neighbour, e.err)
}

// connectMesh builds this session's links: dial every lower id, accept
// every higher one. Dependencies only point downwards (peer 0 dials
// nobody), so the order cannot deadlock.
func (s *session) connectMesh(sm startMsg) (links []*meshLink, err error) {
	me, n := s.wm.PeerID, s.wm.NPeers
	links = make([]*meshLink, n)
	defer func() {
		if err != nil {
			closeLinks(links)
		}
	}()
	hello, err := json.Marshal(meshHelloMsg{Version: protoVersion, Peer: me, Token: sm.Token, Hash: s.hash})
	if err != nil {
		return nil, err
	}
	wait := s.p.chaos.meshTimeout()
	deadline := time.Now().Add(wait)
	// greet runs the HELLO exchange on a fresh connection, under the
	// connection's own deadline until it ends: the dialer speaks first, so
	// that a listener names nothing to a stranger.
	greet := func(conn net.Conn, until time.Time, dialed bool, wantID func(int) bool) (*meshLink, error) {
		s.p.chaos.tuneConn(conn)
		conn.SetDeadline(until)
		pc := newPeerConn(conn, 0)
		var got meshHelloMsg
		say := func() error { return pc.write(tMeshHello, hello, false) }
		hear := func() (err error) {
			if got, err = readMeshHello(pc); err == nil {
				err = s.checkMeshHello(got, sm.Token, wantID)
			}
			return err
		}
		first, second := hear, say
		if dialed {
			first, second = say, hear
		}
		err := first()
		if err == nil {
			err = second()
		}
		if err != nil {
			pc.fail(err.Error()) // best effort: the other end learns why
			return nil, err
		}
		pc.trust()
		pc.io = peerIOTimeout
		pc.rd.gov = &pollGovernor{force: s.p.chaos.pollForce()}
		return &meshLink{id: got.Peer, pc: pc, sent: make(chan error, 1)}, nil
	}
	for q := 0; q < me; q++ {
		conn, err := net.DialTimeout("tcp", sm.Mesh[q], wait)
		if err != nil {
			return nil, &meshError{q, err}
		}
		if links[q], err = greet(conn, deadline, true, func(id int) bool { return id == q }); err != nil {
			return nil, &meshError{q, err}
		}
	}
	// Accept until every higher id holds its slot. A connection that does
	// not identify itself as one of them in time — unknown, duplicate or
	// out-of-range id, a stale session's token, another model's hash —
	// gets an ERROR frame and never holds one.
	s.p.lis.SetDeadline(deadline)
	for missing := n - 1 - me; missing > 0; {
		conn, err := s.p.lis.Accept()
		if err != nil {
			q := me + 1
			for links[q] != nil {
				q++
			}
			return nil, &meshError{q, err}
		}
		until := time.Now().Add(meshHelloTimeout)
		if until.After(deadline) {
			until = deadline
		}
		l, err := greet(conn, until, false, func(id int) bool { return id > me && id < n && links[id] == nil })
		if err != nil {
			continue
		}
		links[l.id] = l
		missing--
	}
	return links, nil
}

func readMeshHello(pc *peerConn) (meshHelloMsg, error) {
	var got meshHelloMsg
	typ, body, err := pc.read()
	if err != nil {
		return got, err
	}
	if typ == tError {
		return got, fmt.Errorf("distsim: mesh neighbour refused: %s", body)
	}
	if typ != tMeshHello {
		return got, fmt.Errorf("distsim: frame %d instead of a mesh HELLO", typ)
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return got, fmt.Errorf("distsim: bad mesh HELLO: %w", err)
	}
	return got, nil
}

// checkMeshHello holds a neighbour's HELLO to this session: same protocol,
// same session token, same model, and an id that wantID accepts.
func (s *session) checkMeshHello(got meshHelloMsg, token uint64, wantID func(int) bool) error {
	switch {
	case got.Version != protoVersion:
		return fmt.Errorf("distsim: mesh version mismatch: neighbour speaks v%d, this peer v%d", got.Version, protoVersion)
	case got.Token != token:
		return fmt.Errorf("distsim: mesh HELLO carries another session's token")
	case got.Hash != s.hash:
		return fmt.Errorf("distsim: mesh HELLO from a different model (%016x, this peer built %016x)", got.Hash, s.hash)
	case !wantID(got.Peer):
		return fmt.Errorf("distsim: mesh HELLO claims peer id %d, which has no free slot here", got.Peer)
	}
	return nil
}

// run executes one session from START to REPORT. A mesh failure ends it
// with a STALL instead — nil either way: the peer goes back to reading the
// coordinator, which answers FINISH, another WELCOME, or ERROR. Only what
// no re-join can cure is returned as an error.
func (s *session) run(startBody []byte) error {
	var sm startMsg
	if err := json.Unmarshal(startBody, &sm); err != nil {
		return fmt.Errorf("distsim: bad START: %w", err)
	}
	if len(sm.Mesh) != s.wm.NPeers {
		return fmt.Errorf("distsim: START names %d mesh addresses for %d peers", len(sm.Mesh), s.wm.NPeers)
	}
	coord := s.p.pc
	links, err := s.connectMesh(sm)
	if err == nil {
		err = s.windows(links)
		// Every neighbour's last frame has been read (or the mesh is being
		// abandoned), and any writer goroutine has been joined.
		closeLinks(links)
	}
	var lost *meshError
	switch {
	case err == nil:
		if s.p.chaos.fault(s.wm.PeerID, s.window, phaseReport) == faultDie {
			coord.conn.Close()
			return errInduced
		}
		rep, err := json.Marshal(buildReport(s.m, s.owned))
		if err != nil {
			return err
		}
		if err := coord.write(tReport, rep, true); err != nil {
			return fmt.Errorf("distsim: coordinator connection lost: %w", err)
		}
		return nil
	case errors.As(err, &lost):
		// Park: everything accounted so far goes out, then the STALL that
		// tells the coordinator this peer will send nothing more until it
		// is told what to do.
		stall := binary.AppendUvarint(nil, uint64(s.window))
		stall = binary.AppendUvarint(stall, uint64(lost.neighbour))
		stall = append(stall, lost.err.Error()...)
		if err := coord.write(tStall, stall, false); err != nil {
			return fmt.Errorf("distsim: coordinator connection lost: %w", err)
		}
		return nil
	default:
		return err
	}
}

// windows is the live loop: step, exchange, account, until the stop rule.
func (s *session) windows(links []*meshLink) error {
	m, eng, me := s.m, s.m.Eng, s.wm.PeerID
	coord := s.p.pc
	look := eng.Lookahead()
	until := (m.Horizon + m.Drain + look - 1) / look * look
	owners := s.wm.Owners

	// Per-destination-peer entry bytes and counts for the window, and —
	// only when the coordinator keeps a log — every entry in emit order.
	out := make([][]byte, s.wm.NPeers)
	cnt := make([]int, s.wm.NPeers)
	var doneMail, done, xchg []byte
	mailOut := 0
	var encodeErr error
	emit := func(src, dst int, mail parsim.Mail) {
		kind, pay, err := m.Net.EncodeMail(mail)
		if err != nil {
			if encodeErr == nil {
				encodeErr = err
			}
			return
		}
		q := owners[dst]
		from := len(out[q])
		out[q] = appendEntry(out[q], mailEntry{dst: dst, at: mail.At, lane: mail.Lane, kind: kind, arg: mail.Arg, pay: pay})
		if s.wm.Log {
			doneMail = append(doneMail, out[q][from:]...)
		}
		cnt[q]++
		mailOut++
	}

	clock := newPeerClock(s.wm.NPeers)
	var statsBuf []byte
	// flush ships the interval's clock (with the bytes of every frame
	// written since the last one) and everything buffered for the
	// coordinator, and re-arms every deadline for the next interval.
	flush := func() error {
		for _, l := range links {
			if l != nil {
				clock.rawBytes += l.pc.raw
				clock.wireBytes += l.pc.wire
				l.pc.raw, l.pc.wire = 0, 0
				clock.poll[l.id] = linkPoll{l.pc.rd.n, l.pc.rd.gov.polling()}
				l.pc.rd.n = pollCounts{}
				l.pc.deadline()
			}
		}
		clock.rawBytes += coord.raw
		clock.wireBytes += coord.wire
		coord.raw, coord.wire = 0, 0
		coord.deadline()
		statsBuf = clock.appendStats(statsBuf[:0])
		clock.reset()
		if err := coord.put(tStats, statsBuf, false); err != nil {
			return err
		}
		return coord.flush()
	}
	coord.raw, coord.wire = 0, 0 // the handshakes are not window-loop traffic
	for _, l := range links {
		if l != nil {
			l.pc.raw, l.pc.wire = 0, 0
			l.pc.deadline()
		}
	}
	var werr error // the first mesh failure: ends the loop, becomes a STALL
	lap := time.Now()
	tick := func() uint64 {
		now := time.Now()
		d := now.Sub(lap)
		lap = now
		return uint64(d)
	}
	for eng.Now() < until && !(s.sumPending == 0 && s.lastMail == 0 && eng.ControlsPending() == 0) {
		w := s.window
		switch s.p.chaos.fault(me, w, phaseLive) {
		case faultDie:
			coord.conn.Close()
			return errInduced
		case faultCut:
			for _, l := range links {
				if l != nil {
					l.pc.conn.Close()
					break
				}
			}
		}
		for q := range out {
			out[q], cnt[q] = out[q][:0], 0
		}
		doneMail, mailOut, encodeErr = doneMail[:0], 0, nil
		end := eng.StepOwned(s.owned, emit)
		if encodeErr != nil {
			return encodeErr
		}
		clock.stepNs += tick()

		pend := eng.OwnedPending(s.owned)
		for _, l := range links {
			if l == nil {
				continue
			}
			xchg = binary.AppendUvarint(xchg[:0], uint64(w))
			xchg = binary.AppendUvarint(xchg, uint64(pend))
			xchg = binary.AppendUvarint(xchg, uint64(mailOut))
			xchg = binary.AppendUvarint(xchg, uint64(cnt[l.id]))
			xchg = append(xchg, out[l.id]...)
			if cnt[l.id] > 0 {
				clock.mailFrames++
			}
			err := l.pc.put(tXchg, xchg, l.pc.far)
			if err == nil {
				err = l.send()
			}
			if err != nil && werr == nil {
				werr = &meshError{l.id, err}
			}
		}
		mailBytes := 0
		for _, b := range out {
			mailBytes += len(b)
		}
		done = binary.AppendUvarint(done[:0], uint64(w))
		done = binary.AppendUvarint(done, uint64(pend))
		done = binary.AppendUvarint(done, uint64(mailOut))
		done = binary.AppendUvarint(done, uint64(mailBytes))
		done = append(done, doneMail...)
		if s.telem > 0 {
			done = appendTelemSection(done, m, s.ownedDirs, s.ownedFAs, end, look, s.telem)
		}
		err := coord.put(tDone, done, coord.far)
		if err == nil && len(coord.out) >= writeBuffer {
			err = coord.flush()
		}
		if err != nil {
			return fmt.Errorf("distsim: coordinator connection lost: %w", err)
		}
		clock.windows++
		clock.codecNs += tick()

		s.sumPending, s.lastMail = pend, mailOut
		var waited uint64
		for _, l := range links {
			if l == nil || werr != nil {
				continue
			}
			typ, body, err := l.pc.fr.read()
			wait := tick()
			clock.waitNs[l.id] += wait
			waited += wait
			if err != nil {
				werr = &meshError{l.id, err}
				break
			}
			if typ != tXchg {
				return fmt.Errorf("distsim: peer %d sent frame %d instead of XCHG", l.id, typ)
			}
			pending, mail, err := s.deliverXchg(w, body)
			if err != nil {
				return fmt.Errorf("distsim: peer %d: %w", l.id, err)
			}
			s.sumPending += pending
			s.lastMail += mail
			clock.codecNs += tick()
		}
		clock.observeWait(waited)
		// A writer goroutine ends with its write or its connection; with a
		// neighbour already lost, do not wait on the others' goodwill.
		if werr != nil {
			closeLinks(links)
		}
		for _, l := range links {
			if l == nil {
				continue
			}
			if err := l.join(); err != nil && werr == nil {
				werr = &meshError{l.id, err}
			}
		}
		if werr != nil {
			break
		}
		s.window++
		if s.window%flushWindows == 0 {
			if err := flush(); err != nil {
				return fmt.Errorf("distsim: coordinator connection lost: %w", err)
			}
			clock.codecNs += tick()
		}
	}
	// Whatever ended the loop, what was accounted reaches the coordinator:
	// on a mesh failure its W is the last window every peer's DONE arrived
	// for, and everybody rebuilds from there.
	if werr != nil {
		closeLinks(links)
	}
	if err := flush(); err != nil {
		return fmt.Errorf("distsim: coordinator connection lost: %w", err)
	}
	return werr
}

// deliverXchg checks one neighbour's XCHG frame for window w and injects
// its mail; it returns the neighbour's pending-event and outbound-mail
// counts for the stop rule.
func (s *session) deliverXchg(w int, body []byte) (pending, mailOut int, err error) {
	var gotW, pend, mail uint64
	rest, err := uvarints(body, "XCHG", &gotW, &pend, &mail)
	if err != nil {
		return 0, 0, err
	}
	if gotW != uint64(w) {
		return 0, 0, fmt.Errorf("distsim: XCHG for window %d during window %d", gotW, w)
	}
	const sane = 1 << 40 // keeps the sums far from overflow whatever arrives
	if pend > sane || mail > sane {
		return 0, 0, fmt.Errorf("distsim: XCHG claims %d pending events and %d mails", pend, mail)
	}
	if err := deliverMail(s.m, s.owned, rest); err != nil {
		return 0, 0, err
	}
	return int(pend), int(mail), nil
}

// deliverMail decodes one mail batch against this replica and injects it
// in barrier context; with owned set, every entry must be addressed to a
// shard this replica executes. Entries arrive in per-source send order;
// the (time, lane) key makes cross-source order irrelevant, exactly as for
// an in-process mailbox flush.
func deliverMail(m *Model, owned []bool, batch []byte) error {
	count, rest, err := batchCount(batch)
	if err != nil {
		return err
	}
	now := m.Eng.Now()
	for i := 0; i < count; i++ {
		var e mailEntry
		e, rest, err = readEntry(rest)
		if err != nil {
			return err
		}
		if e.dst < 0 || e.dst >= m.Eng.Shards() {
			return fmt.Errorf("distsim: mail for nonexistent shard %d", e.dst)
		}
		if owned != nil && !owned[e.dst] {
			return fmt.Errorf("distsim: mail for shard %d, which this peer does not own", e.dst)
		}
		if e.at < now {
			return fmt.Errorf("distsim: mail for t=%d arrived at t=%d, behind the lookahead", e.at, now)
		}
		act, _, err := m.Net.DecodeMail(e.kind, e.lane, e.pay)
		if err != nil {
			return err
		}
		m.Eng.DeliverMail(e.dst, parsim.Mail{At: e.at, Lane: e.lane, Act: act, Arg: e.arg})
	}
	if len(rest) != 0 {
		return fmt.Errorf("distsim: mail batch has %d trailing bytes", len(rest))
	}
	return nil
}

// deliverBatch is deliverMail without an ownership check: what an offline
// replay of a checkpoint file uses.
func deliverBatch(m *Model, batch []byte) error { return deliverMail(m, nil, batch) }

// buildReport snapshots everything this peer owns of the final state:
// its shards' traffic counters, event counts and shard-held reachability
// holes, the delivery sinks of its FAs, and the forwarding counters of
// the link directions whose queues live on its shards.
func buildReport(m *Model, owned []bool) peerReport {
	var rep peerReport
	for s, own := range owned {
		if !own {
			continue
		}
		tr := m.Net.TrafficOfShard(s)
		rep.Shards = append(rep.Shards, shardReport{
			ID:           s,
			Injected:     tr.Injected,
			Delivered:    tr.Delivered,
			DeadDrops:    tr.DeadDrops,
			NoRouteDrops: tr.NoRouteDrops,
			Processed:    m.Eng.Shard(s).Sim().Processed,
			Unreachable:  m.Net.Unreachable(s),
		})
	}
	for fa, sink := range m.Sinks {
		if owned[m.Net.ShardOfFA(fa)] {
			rep.Sinks = append(rep.Sinks, sinkReport{FA: fa, Cells: sink.Cells, Bytes: sink.Bytes})
		}
	}
	for d := 0; d < 2*m.Net.NumLinks(); d++ {
		if owned[m.Net.OwnerOfLinkDir(d)] {
			b, cl, dr := m.Net.DirCounters(d)
			rep.Dirs = append(rep.Dirs, dirReport{Dir: d, FwdBytes: b, FwdCells: cl, Drops: dr})
		}
	}
	return rep
}

// The coordinator: partitions the shard space over the joined peers, starts
// them together (the join, and every recovery), and from then on is an
// accountant beside the data path, not a relay on it. Peers exchange mail
// directly (peer.go); each streams one DONE frame per window to the
// coordinator and never waits for an answer. A reader goroutine per peer
// drains that stream; the loop here takes window w once every peer's DONE
// for it has arrived, steps its own replica, sums the stop rule's counts,
// merges the telemetry sections into the canonical stream, and at the end
// folds the peers' reports into the Outcome.
//
// Why a reader per peer: the loop needs the peers' frames in window order,
// the peers flush at their own pace. Reading them in window order from one
// goroutine lets a peer that mails much fill its socket and block in Flush
// while the loop waits for a quiet peer that has not flushed — and the
// quiet one, no longer fed XCHG frames by the blocked one, never does.
// Per-peer readers with a queue of at least one flush interval, and peers
// that flush on a window count (peer.go), always leave the loop a window
// every peer has flushed.
//
// Recovery is a re-run. A peer is a deterministic function of the Spec, the
// partition map and the mail it receives, and that mail is what the other
// peers send: run from window 0 again, the peers produce it again, so
// nothing of a run needs keeping to restore it. When a connection or a mesh
// link is lost, every peer ends its session (STALL, or REPORT if it had
// finished), the coordinator takes W = the number of windows it holds every
// peer's DONE for — exactly the windows its replica, the stream, the stop
// rule's sums and OnWindow have seen — admits a replacement for every dead
// connection, and sends every peer the WELCOME of the initial join: all
// rebuild, re-mesh and run from window 0. The readers drop the DONE frames
// of windows below W, and the accounting resumes at W.
package distsim

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"stardust/internal/fabric"
	"stardust/internal/sim"
	"stardust/internal/telemetry"
)

// CoordConfig configures one distributed run.
type CoordConfig struct {
	Spec  Spec
	Peers int
	// Rejoin keeps the run alive when a peer or a mesh link dies: the
	// coordinator waits up to RejoinTimeout for a replacement connection
	// and has every peer run again from window 0, accounting from the
	// last window it had accounted on. Without it a disconnect aborts the
	// run deterministically.
	Rejoin        bool
	RejoinTimeout time.Duration // default 60s
	JoinTimeout   time.Duration // initial join wait, default 60s
	IOTimeout     time.Duration // silent-connection backstop, default 60s
	// OnWindow, when non-nil, observes every window number once, in order,
	// as the coordinator starts accounting it: window 0 right after the
	// last READY of the initial join, later ones possibly long after the
	// peers ran them. Progress reporting and the chaos tests' kill trigger.
	OnWindow func(window int)
	// Log, when non-nil, receives human-readable progress lines (joins,
	// deaths, restores). Never written on the hot path.
	Log io.Writer
	// Stream, when non-nil and Spec.Telem > 0, receives the canonical
	// STREC1 telemetry stream assembled from the peers' owned counters —
	// byte-identical to what Record produces locally for the same Spec.
	Stream io.Writer
	// Stats receives the run's metrics; nil means DefaultStats.
	Stats *CoordStats
}

// Listen binds the coordinator's TCP endpoint. Split from Serve so a
// caller can learn the bound address (":0") before starting peers.
func Listen(addr string) (net.Listener, error) {
	return net.Listen("tcp", addr)
}

// doneQueue is how many parsed DONE frames a peer's reader may hold ahead
// of the loop. It must be at least flushWindows (see the comment at the
// top); beyond that it only lets the readers drain a burst while the loop
// is busy, and bounds what a run-away peer can make the coordinator hold.
const doneQueue = 4 * flushWindows

// maxStuckRecoveries bounds how often the coordinator re-joins everyone at
// the same window: a mesh that cannot be built (peers that cannot dial
// each other) fails every attempt the same way.
const maxStuckRecoveries = 3

// doneMsg is one parsed DONE frame. body is the reader's copy of its
// telemetry section, nil when Spec.Telem is 0.
type doneMsg struct {
	pending   int
	entries   int
	mailBytes int
	body      []byte
}

// peerStream is one peer's DONE stream for one session, filled by its
// reader goroutine. The reader closes dones when the session is over for
// this peer; what ended it is in the fields below, valid after the close.
type peerStream struct {
	dones  chan doneMsg
	quit   chan struct{} // closed by the loop to make the reader drop frames
	report *peerReport   // the peer finished: REPORT
	stall  bool          // the peer lost its mesh: STALL
	lost   int           // ... to this neighbour
	cause  string        // ... for this reason
	err    error         // the connection or the protocol failed
}

type coord struct {
	cfg     CoordConfig
	model   *Model
	owners  []int
	hash    uint64
	conns   chan net.Conn
	peers   []*peerConn
	mesh    []string // each slot's mesh listener, from its HELLO
	streams []*peerStream
	readers sync.WaitGroup
	none    []bool // all-false ownership: the coordinator executes nothing
	stats   *CoordStats
	// stuck counts the recoveries since the last window the loop finished.
	stuck int
}

// Serve runs one distributed simulation on an already-bound listener and
// returns the canonical Outcome — bit-identical to Model.RunLocal on the
// same Spec. It owns the listener and closes it on return.
func Serve(lis net.Listener, cfg CoordConfig) (Outcome, error) {
	if cfg.Peers < 1 {
		return Outcome{}, fmt.Errorf("distsim: need at least one peer")
	}
	if cfg.Spec.Shards < cfg.Peers {
		return Outcome{}, fmt.Errorf("distsim: %d peers need at least that many shards, have %d", cfg.Peers, cfg.Spec.Shards)
	}
	if cfg.JoinTimeout <= 0 {
		cfg.JoinTimeout = 60 * time.Second
	}
	if cfg.RejoinTimeout <= 0 {
		cfg.RejoinTimeout = 60 * time.Second
	}
	if cfg.IOTimeout <= 0 {
		cfg.IOTimeout = 60 * time.Second
	}
	if cfg.Stats == nil {
		cfg.Stats = DefaultStats
	}
	model, err := NewModel(cfg.Spec)
	if err != nil {
		lis.Close()
		return Outcome{}, err
	}
	owners := OwnersFor(cfg.Spec.Shards, cfg.Peers)
	c := &coord{
		cfg:     cfg,
		model:   model,
		owners:  owners,
		hash:    modelHash(cfg.Spec, owners, model.Net.Cut(), model),
		conns:   make(chan net.Conn, 16), // joins parked while the loop is busy; more are refused
		peers:   make([]*peerConn, cfg.Peers),
		mesh:    make([]string, cfg.Peers),
		streams: make([]*peerStream, cfg.Peers),
		none:    make([]bool, cfg.Spec.Shards),
		stats:   cfg.Stats,
	}

	accepting := make(chan struct{})
	go func() {
		defer close(accepting)
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			select {
			case c.conns <- conn:
			default:
				newPeerConn(conn, cfg.IOTimeout).fail("distsim: join queue full")
			}
		}
	}()
	defer func() {
		lis.Close()
		<-accepting
		// Reject stragglers deterministically — a double-join never
		// hangs, it reads an ERROR frame.
		for {
			select {
			case conn := <-c.conns:
				newPeerConn(conn, cfg.IOTimeout).fail("distsim: no free peer slot: all peers already joined")
			default:
				return
			}
		}
	}()
	// Closing the connections is also what ends a reader that is still
	// blocked on one.
	defer func() {
		for _, pc := range c.peers {
			if pc != nil {
				pc.conn.Close()
			}
		}
		c.endSession()
	}()

	out, err := c.run()
	if err != nil {
		c.abort(err)
		return Outcome{}, err
	}
	for p, pc := range c.peers {
		if err := pc.write(tFinish, nil); err != nil {
			c.logf("distsim: peer %d left before FINISH: %v", p, err)
		}
	}
	return out, nil
}

func (c *coord) logf(format string, args ...any) {
	if c.cfg.Log != nil {
		fmt.Fprintf(c.cfg.Log, format+"\n", args...)
	}
}

// abort broadcasts err to every live peer so none is left parked in a
// read that will never complete.
func (c *coord) abort(err error) {
	for _, pc := range c.peers {
		if pc != nil {
			pc.write(tError, []byte(err.Error()))
		}
	}
}

// endSession stops every reader of the current session and hands back what
// each stream ended with. A reader parked on a full queue drops its frames
// from here on; one blocked on its socket ends with the peer's session, or
// with the connection.
func (c *coord) endSession() []*peerStream {
	ended := make([]*peerStream, len(c.streams))
	for p, s := range c.streams {
		if s != nil {
			close(s.quit)
		}
		ended[p], c.streams[p] = s, nil
	}
	c.readers.Wait()
	return ended
}

// drop forgets a dead connection: its slot is free for a replacement.
func (c *coord) drop(p int) {
	if c.peers[p] != nil {
		c.peers[p].conn.Close()
		c.peers[p] = nil
	}
}

// admit fills empty slot p with the next connection that says HELLO in
// the right protocol version.
func (c *coord) admit(p int, wait time.Duration) error {
	var conn net.Conn
	select {
	case conn = <-c.conns:
	case <-time.After(wait):
		return fmt.Errorf("distsim: timed out waiting for peer %d to join", p)
	}
	pc := newPeerConn(conn, c.cfg.IOTimeout)
	typ, body, err := pc.read()
	if err != nil {
		pc.conn.Close()
		return fmt.Errorf("distsim: peer %d handshake: %w", p, err)
	}
	if typ != tHello {
		pc.fail("expected HELLO")
		return fmt.Errorf("distsim: peer %d sent frame %d instead of HELLO", p, typ)
	}
	var hello helloMsg
	if err := json.Unmarshal(body, &hello); err != nil {
		pc.fail("bad HELLO")
		return fmt.Errorf("distsim: peer %d bad HELLO: %w", p, err)
	}
	if hello.Version != protoVersion {
		err := fmt.Errorf("distsim: peer %d handshake version mismatch: peer speaks v%d, coordinator v%d", p, hello.Version, protoVersion)
		pc.fail(err.Error())
		return err
	}
	if _, _, err := net.SplitHostPort(hello.Mesh); err != nil {
		err := fmt.Errorf("distsim: peer %d names no usable mesh address: %w", p, err)
		pc.fail(err.Error())
		return err
	}
	pc.trust()
	c.peers[p], c.mesh[p] = pc, hello.Mesh
	return nil
}

// converge starts a session that the loop takes up at window w: the one
// handshake behind the initial join (w = 0) and every recovery. Empty slots
// are filled first, so that every WELCOME goes out together and the
// replicas build concurrently; READY follows each build, START follows the
// last READY and carries what the peers need to find each other. Every
// session runs from window 0; its readers drop what comes before w. A
// connection that dies on the way is a slot to fill again when Rejoin is
// set; every other failure ends the run.
func (c *coord) converge(w int, wait time.Duration) error {
	for {
		for p := range c.peers {
			if c.peers[p] == nil {
				if err := c.admit(p, wait); err != nil {
					return err
				}
			}
		}
		lost := -1
		for p, pc := range c.peers {
			wb, err := json.Marshal(welcomeMsg{Spec: c.cfg.Spec, PeerID: p, NPeers: c.cfg.Peers, Owners: c.owners})
			if err != nil {
				return err
			}
			if err := pc.write(tWelcome, wb); err != nil {
				if !c.cfg.Rejoin {
					return fmt.Errorf("distsim: peer %d welcome: %w", p, err)
				}
				c.logf("distsim: peer %d lost at its WELCOME (%v)", p, err)
				c.drop(p)
				lost = p
			}
		}
		for p, pc := range c.peers {
			if pc == nil {
				continue
			}
			if err := c.ready(p, pc); err != nil {
				var ne net.Error
				if !c.cfg.Rejoin || !(errors.As(err, &ne) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)) {
					return err
				}
				c.logf("distsim: peer %d lost while restoring (%v)", p, err)
				c.drop(p)
				lost = p
			}
		}
		if lost < 0 {
			break
		}
		// Everyone who answered READY sits at window w waiting for START; a
		// second WELCOME makes them rebuild, which costs time only when two
		// faults overlap and keeps this the only path.
		wait = c.cfg.RejoinTimeout
	}
	var tok [8]byte
	if _, err := rand.Read(tok[:]); err != nil {
		return err
	}
	sb, err := json.Marshal(startMsg{Mesh: c.mesh, Token: binary.LittleEndian.Uint64(tok[:])})
	if err != nil {
		return err
	}
	for p, pc := range c.peers {
		s := &peerStream{dones: make(chan doneMsg, doneQueue), quit: make(chan struct{})}
		c.streams[p] = s
		// A failed write shows up as the reader's first error.
		pc.write(tStart, sb)
		c.readers.Add(1)
		go c.drain(p, pc, s, w)
	}
	return nil
}

// ready reads peer p's READY and holds its model hash to the
// coordinator's.
func (c *coord) ready(p int, pc *peerConn) error {
	typ, body, err := pc.read()
	if err != nil {
		return fmt.Errorf("distsim: peer %d ready: %w", p, err)
	}
	if typ == tError {
		return fmt.Errorf("distsim: peer %d: %s", p, body)
	}
	if typ != tReady {
		pc.fail("expected READY")
		return fmt.Errorf("distsim: peer %d sent frame %d instead of READY", p, typ)
	}
	var ready readyMsg
	if err := json.Unmarshal(body, &ready); err != nil {
		pc.fail("bad READY")
		return fmt.Errorf("distsim: peer %d bad READY: %w", p, err)
	}
	if ready.Hash != c.hash {
		err := fmt.Errorf("distsim: partition map disagreement: peer %d built model %016x, coordinator %016x", p, ready.Hash, c.hash)
		pc.fail(err.Error())
		return err
	}
	return nil
}

// drain is peer p's reader for one session: it parses the one-way stream
// (DONE in window order from 0, STATS) into s until the frame that ends
// the session for this peer — REPORT, STALL or ERROR — or a failure, and
// leaves the connection to the loop again. The DONE frames of the windows
// before from, which the loop has accounted in an earlier session, are
// parsed and dropped.
func (c *coord) drain(p int, pc *peerConn, s *peerStream, from int) {
	defer c.readers.Done()
	defer close(s.dones)
	clock := newPeerClock(c.cfg.Peers)
	telem := c.cfg.Spec.Telem > 0
	for w := 0; ; {
		// The deadline guards a silent peer, not a frame: arm it when the
		// buffer has run dry and the next read goes to the socket.
		if pc.br.Buffered() == 0 {
			pc.deadline()
		}
		typ, body, err := pc.fr.read()
		if err != nil {
			s.err = err
			return
		}
		switch typ {
		case tDone:
			msg, err := parseDone(body, w, telem)
			if err != nil {
				s.err = fmt.Errorf("distsim: peer %d: %w", p, err)
				return
			}
			if w++; w <= from {
				continue
			}
			select {
			case s.dones <- msg:
			case <-s.quit:
			}
		case tStats:
			if err := clock.parseStats(body); err != nil {
				s.err = err
				return
			}
			c.stats.flushed(p, clock)
		case tReport:
			var rep peerReport
			if err := json.Unmarshal(body, &rep); err != nil {
				s.err = fmt.Errorf("distsim: peer %d bad report: %w", p, err)
				return
			}
			s.report = &rep
			return
		case tStall:
			var at, lost uint64
			rest, err := uvarints(body, "STALL", &at, &lost)
			if err != nil || lost >= uint64(c.cfg.Peers) {
				s.err = fmt.Errorf("distsim: peer %d sent a bad STALL", p)
				return
			}
			s.stall, s.lost, s.cause = true, int(lost), string(rest)
			return
		case tError:
			s.err = peerError(body)
			return
		default:
			s.err = fmt.Errorf("distsim: peer %d sent frame %d in the window stream", p, typ)
			return
		}
	}
}

// parseDone reads the counts off a DONE frame that must be for window due.
// What follows them is the telemetry section when telem is set, returned
// as a copy (the frame buffer is reused), and nothing otherwise.
func parseDone(frame []byte, due int, telem bool) (doneMsg, error) {
	var w, pend, entries, mailBytes uint64
	rest, err := uvarints(frame, "DONE", &w, &pend, &entries, &mailBytes)
	if err != nil {
		return doneMsg{}, err
	}
	const sane = 1 << 40 // keeps the loop's sums far from overflow whatever arrives
	if w != uint64(due) || pend > sane || entries > sane || mailBytes > sane {
		return doneMsg{}, fmt.Errorf("distsim: DONE for window %d (%d pending, %d mails of %d bytes) when window %d was due", w, pend, entries, mailBytes, due)
	}
	msg := doneMsg{pending: int(pend), entries: int(entries), mailBytes: int(mailBytes)}
	switch {
	case telem && len(rest) == 0:
		return doneMsg{}, fmt.Errorf("distsim: DONE for window %d lacks its telemetry section", w)
	case telem:
		msg.body = append([]byte(nil), rest...)
	case len(rest) > 0:
		return doneMsg{}, fmt.Errorf("distsim: DONE for window %d has %d bytes past its counts", w, len(rest))
	}
	return msg, nil
}

// peerError is a failure a peer reported in an ERROR frame: deterministic,
// so no re-join can cure it.
type peerError string

func (e peerError) Error() string { return string(e) }

// rejoin ends the session that broke while window w was due and starts
// the next one at w — unless the last few did no better. It waits for every reader first: a peer ends its
// session by itself once its mesh breaks — the mesh of a dead process
// breaks at once — so afterwards every live connection is silent and
// owned by the loop again.
func (c *coord) rejoin(w int) error {
	if c.stuck++; c.stuck > maxStuckRecoveries {
		return fmt.Errorf("distsim: giving up after %d recoveries at window %d made no progress", maxStuckRecoveries, w)
	}
	ended := c.endSession()
	// Name the failure the way the star did: the peer that went away, and
	// the window the run stands at.
	var cause error
	for p, s := range ended {
		var pe peerError
		switch {
		case errors.As(s.err, &pe):
			return fmt.Errorf("distsim: peer %d: %w", p, s.err)
		case s.err != nil:
			c.drop(p)
			if cause == nil {
				cause = fmt.Errorf("distsim: peer %d disconnected at window %d: %w", p, w, s.err)
			}
		}
	}
	for p, s := range ended {
		if s.stall && cause == nil && c.peers[s.lost] != nil {
			cause = fmt.Errorf("distsim: peer %d disconnected at window %d: peer %d lost its mesh link to it: %s", s.lost, w, p, s.cause)
		}
	}
	if cause == nil {
		// Everyone stalled on somebody who is gone already, or reported.
		cause = fmt.Errorf("distsim: peers disconnected at window %d", w)
	}
	if !c.cfg.Rejoin {
		return cause
	}
	c.logf("%v; bringing every peer back to window %d (waiting up to %v for replacements)", cause, w, c.cfg.RejoinTimeout)
	if err := c.converge(w, c.cfg.RejoinTimeout); err != nil {
		return fmt.Errorf("distsim: restoring the run at window %d: %w", w, err)
	}
	c.logf("distsim: run restarted, accounting resumes at window %d", w)
	return nil
}

// run is the accounting loop: one iteration per window, in the order the
// star drove them, so that stream and stats come out the same.
func (c *coord) run() (Outcome, error) {
	eng := c.model.Eng
	look := eng.Lookahead()
	until := (c.model.Horizon + c.model.Drain + look - 1) / look * look
	npeers := c.cfg.Peers

	if err := c.converge(0, c.cfg.JoinTimeout); err != nil {
		return Outcome{}, err
	}
	c.logf("distsim: %d peer(s) joined, %d shards, window %v", npeers, c.cfg.Spec.Shards, look)

	// Telemetry assembly: peers ship their owned counters at scrape
	// boundaries inside DONE frames; the coordinator accumulates them
	// into absolute snapshots and writes canonical stream windows through
	// the same Emitter the local recorder uses — byte-identical output.
	every := c.cfg.Spec.telemEvery(look)
	var emit *telemetry.Emitter
	var acc telemetry.Snapshot
	ndirs := 2 * c.model.Net.NumLinks()
	numFA := c.model.Net.NumFA()
	if every > 0 && c.cfg.Stream != nil {
		hdr, err := streamHeaderFor(c.cfg.Spec, c.model, every)
		if err != nil {
			return Outcome{}, err
		}
		tw, err := telemetry.NewWriter(c.cfg.Stream, hdr)
		if err != nil {
			return Outcome{}, err
		}
		emit = telemetry.NewEmitter(tw)
		acc.Dirs = make([]telemetry.DirSample, ndirs)
		acc.Sinks = make([]telemetry.SinkSample, numFA)
	}

	// Per-window scratch, reused: this window's DONE frames and their
	// telemetry sections.
	dones := make([]doneMsg, npeers)
	telemSecs := make([][]byte, npeers)
	// The stop rule's sums after the last accounted window; -1 before any.
	sumPending, lastMail := -1, 0
	quietNow := func() bool {
		return sumPending == 0 && lastMail == 0 && eng.ControlsPending() == 0
	}
	w := 0
	for eng.Now() < until && !quietNow() {
		if c.cfg.OnWindow != nil {
			c.cfg.OnWindow(w)
		}
		for p := 0; p < npeers; {
			msg, ok := <-c.streams[p].dones
			if ok {
				dones[p] = msg
				p++
				continue
			}
			// Peer p's session ended with window w still due. Nothing of
			// window w has been applied, so the run stands exactly at w.
			if err := c.rejoin(w); err != nil {
				return Outcome{}, err
			}
			p = 0
		}
		c.stuck = 0
		// The coordinator's replica steps too: controls run here exactly
		// as on every peer, and every unowned (that is: every) shard's
		// clock advances, keeping the replica's administrative state and
		// control schedule in lock-step for the final aggregation.
		eng.StepOwned(c.none, nil)

		sumPending, lastMail = 0, 0
		mailBytes := 0
		for p, d := range dones {
			sumPending += d.pending
			lastMail += d.entries
			mailBytes += d.mailBytes
			telemSecs[p] = d.body
		}
		if emit != nil {
			end := eng.Now()
			if boundary := ((end-look)/every + 1) * every; boundary <= end {
				if err := c.mergeTelem(telemSecs, boundary, &acc, ndirs, numFA); err != nil {
					return Outcome{}, err
				}
				acc.T = boundary
				for d := 0; d < ndirs; d++ {
					acc.Dirs[d].Up = c.model.Net.LinkUp(d / 2)
				}
				if err := emit.Emit(&acc); err != nil {
					return Outcome{}, fmt.Errorf("distsim: telemetry stream: %w", err)
				}
				c.stats.telemWindow()
			}
		}
		c.stats.window(mailBytes, lastMail)
		w++
	}
	if !quietNow() {
		return Outcome{}, fmt.Errorf("fabric did not drain: work still pending past t=%d (%d heap events)", until, sumPending)
	}
	return c.finish(w)
}

// mergeTelem folds every peer's telemetry section for one scrape
// boundary into the accumulated absolute snapshot. Each entity is owned
// by exactly one peer, so the merge is plain assignment; the count check
// verifies complete coverage.
func (c *coord) mergeTelem(secs [][]byte, want sim.Time, acc *telemetry.Snapshot, ndirs, numFA int) error {
	dirsSeen, sinksSeen := 0, 0
	const what = "telemetry section"
	for p, b := range secs {
		var nb, t, nd, ns uint64
		b, err := uvarints(b, what, &nb)
		if err != nil {
			return fmt.Errorf("peer %d: %w", p, err)
		}
		if nb != 1 {
			return fmt.Errorf("distsim: peer %d shipped %d telemetry boundaries, coordinator expected 1", p, nb)
		}
		if b, err = uvarints(b, what, &t, &nd); err != nil {
			return fmt.Errorf("peer %d: %w", p, err)
		}
		if sim.Time(t) != want {
			return fmt.Errorf("distsim: peer %d scraped at t=%d, coordinator expected t=%d", p, t, want)
		}
		if nd > uint64(ndirs) {
			return fmt.Errorf("distsim: peer %d reported %d link dirs of %d", p, nd, ndirs)
		}
		for i := 0; i < int(nd); i++ {
			var d, fb, fc, dr, qb uint64
			if b, err = uvarints(b, what, &d, &fb, &fc, &dr, &qb); err != nil {
				return fmt.Errorf("peer %d: %w", p, err)
			}
			if d >= uint64(ndirs) {
				return fmt.Errorf("distsim: peer %d reported nonexistent link dir %d", p, d)
			}
			s := &acc.Dirs[d]
			s.FwdBytes, s.FwdCells, s.Drops, s.QueueBytes = fb, fc, dr, qb
			dirsSeen++
		}
		if b, err = uvarints(b, what, &ns); err != nil {
			return fmt.Errorf("peer %d: %w", p, err)
		}
		if ns > uint64(numFA) {
			return fmt.Errorf("distsim: peer %d reported %d sinks of %d", p, ns, numFA)
		}
		for i := 0; i < int(ns); i++ {
			var fa, cells, bytes uint64
			if b, err = uvarints(b, what, &fa, &cells, &bytes); err != nil {
				return fmt.Errorf("peer %d: %w", p, err)
			}
			if fa >= uint64(numFA) {
				return fmt.Errorf("distsim: peer %d reported nonexistent sink %d", p, fa)
			}
			acc.Sinks[fa] = telemetry.SinkSample{Cells: cells, Bytes: bytes}
			sinksSeen++
		}
		if len(b) != 0 {
			return fmt.Errorf("distsim: peer %d telemetry section has %d trailing bytes", p, len(b))
		}
	}
	if dirsSeen != ndirs || sinksSeen != numFA {
		return fmt.Errorf("distsim: telemetry coverage hole: got %d/%d dirs, %d/%d sinks",
			dirsSeen, ndirs, sinksSeen, numFA)
	}
	return nil
}

// finish collects every peer's owned counters, verifies they cover the
// model disjointly and completely, and folds the canonical digest. The
// peers stopped by themselves after window `windows`-1 and report
// unprompted; one that dies between its last DONE and its report is
// restorable like any other — everyone runs the whole run again and
// reports from the same deterministic state.
func (c *coord) finish(windows int) (Outcome, error) {
	reports := make([]*peerReport, len(c.peers))
	for p := 0; p < len(c.peers); {
		s := c.streams[p]
		if _, more := <-s.dones; more {
			return Outcome{}, fmt.Errorf("distsim: peer %d ran past the stop at window %d", p, windows)
		}
		if s.report != nil {
			reports[p] = s.report
			p++
			continue
		}
		if err := c.rejoin(windows); err != nil {
			return Outcome{}, err
		}
		p = 0
	}
	numFA := c.model.Net.NumFA()
	ndirs := 2 * c.model.Net.NumLinks()
	nshards := c.cfg.Spec.Shards
	sinkCells := make([]uint64, numFA)
	sinkBytes := make([]uint64, numFA)
	dirs := make([][3]uint64, ndirs)
	shardEv := make([]uint64, nshards)
	seenSink := make([]bool, numFA)
	seenDir := make([]bool, ndirs)
	seenShard := make([]bool, nshards)
	var out Outcome
	for p, rep := range reports {
		for _, s := range rep.Shards {
			if s.ID < 0 || s.ID >= nshards || seenShard[s.ID] || c.owners[s.ID] != p {
				return Outcome{}, fmt.Errorf("distsim: peer %d reported shard %d it does not own", p, s.ID)
			}
			seenShard[s.ID] = true
			shardEv[s.ID] = s.Processed
			out.Events += s.Processed
			out.Injected += s.Injected
			out.Delivered += s.Delivered
			out.Drops += s.DeadDrops + s.NoRouteDrops
			out.Unreachable += s.Unreachable
		}
		for _, s := range rep.Sinks {
			if s.FA < 0 || s.FA >= numFA || seenSink[s.FA] {
				return Outcome{}, fmt.Errorf("distsim: peer %d double-reported sink %d", p, s.FA)
			}
			seenSink[s.FA] = true
			sinkCells[s.FA] = s.Cells
			sinkBytes[s.FA] = s.Bytes
		}
		for _, d := range rep.Dirs {
			if d.Dir < 0 || d.Dir >= ndirs || seenDir[d.Dir] {
				return Outcome{}, fmt.Errorf("distsim: peer %d double-reported link dir %d", p, d.Dir)
			}
			seenDir[d.Dir] = true
			dirs[d.Dir] = [3]uint64{d.FwdBytes, d.FwdCells, d.Drops}
			out.Drops += d.Drops
		}
	}
	for s, ok := range seenShard {
		if !ok {
			return Outcome{}, fmt.Errorf("distsim: no peer reported shard %d", s)
		}
	}
	for i, ok := range seenSink {
		if !ok {
			return Outcome{}, fmt.Errorf("distsim: no peer reported sink %d", i)
		}
	}
	for d, ok := range seenDir {
		if !ok {
			return Outcome{}, fmt.Errorf("distsim: no peer reported link dir %d", d)
		}
	}
	// Shard owners reported the holes in state that changes by mail; the
	// rest of the reachability state follows the control schedule every
	// replica runs, so the coordinator's own replica supplies it.
	out.Unreachable += c.model.Net.Unreachable(fabric.Replicated)
	out.Digest = foldDigest(sinkCells, sinkBytes, dirs)
	out.ShardEvents = shardEv
	out.Cut = cutTraffic(c.model.Net, dirs)
	c.stats.runDone()
	c.logf("distsim: run complete after %d windows, digest %016x", windows, out.Digest)
	return out, nil
}

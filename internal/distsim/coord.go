// The coordinator: partitions the shard space over the joined peers,
// drives the lock-step window loop over TCP, relays cross-peer mail in a
// star, logs every delivered batch as the live checkpoint, and merges the
// peers' owned counters into the canonical Outcome.
package distsim

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"time"

	"stardust/internal/fabric"
	"stardust/internal/sim"
	"stardust/internal/telemetry"
)

// CoordConfig configures one distributed run.
type CoordConfig struct {
	Spec  Spec
	Peers int
	// Rejoin keeps the run alive when a peer dies: the coordinator waits
	// up to RejoinTimeout for a replacement connection and restores it
	// from the mail-log checkpoint. Without it a disconnect aborts the
	// run deterministically.
	Rejoin        bool
	RejoinTimeout time.Duration // default 60s
	JoinTimeout   time.Duration // initial join wait, default 60s
	IOTimeout     time.Duration // per-frame deadline backstop, default 60s
	// CheckpointDir, when set, streams the mail-log checkpoint to one
	// append-only file per peer (see checkpoint.go).
	CheckpointDir string
	// OnWindow, when non-nil, observes every window number just before
	// its GO frames go out — progress reporting and the chaos tests'
	// kill trigger.
	OnWindow func(window int)
	// Log, when non-nil, receives human-readable progress lines (joins,
	// deaths, restores). Never written on the hot path.
	Log io.Writer
	// Stream, when non-nil and Spec.Telem > 0, receives the canonical
	// STREC1 telemetry stream assembled from the peers' owned counters —
	// byte-identical to what Record produces locally for the same Spec.
	Stream io.Writer
	// Stats receives window-loop metrics; nil means DefaultStats.
	Stats *CoordStats
}

// Listen binds the coordinator's TCP endpoint. Split from Serve so a
// caller can learn the bound address (":0") before starting peers.
func Listen(addr string) (net.Listener, error) {
	return net.Listen("tcp", addr)
}

// peerConn is one live peer connection with framing and deadlines. When
// stats is set (coordinator side), raw and wire byte counts flow into it.
type peerConn struct {
	conn  net.Conn
	r     *bufio.Reader
	w     *bufio.Writer
	io    time.Duration
	stats *CoordStats
}

// countConn counts the bytes that actually cross the wire (compressed
// bodies plus frame headers), under the bufio layers.
type countConn struct {
	conn  net.Conn
	stats *CoordStats
}

func (c countConn) Read(p []byte) (int, error) {
	n, err := c.conn.Read(p)
	c.stats.addWire(n)
	return n, err
}

func (c countConn) Write(p []byte) (int, error) {
	n, err := c.conn.Write(p)
	c.stats.addWire(n)
	return n, err
}

func newPeerConn(conn net.Conn, ioTimeout time.Duration, stats *CoordStats) *peerConn {
	var r io.Reader = conn
	var w io.Writer = conn
	if stats != nil {
		cc := countConn{conn: conn, stats: stats}
		r, w = cc, cc
	}
	return &peerConn{conn: conn, r: bufio.NewReader(r), w: bufio.NewWriter(w), io: ioTimeout, stats: stats}
}

func (pc *peerConn) write(typ byte, body []byte, compress bool) error {
	if pc.io > 0 {
		pc.conn.SetWriteDeadline(time.Now().Add(pc.io))
	}
	if pc.stats != nil {
		pc.stats.addRaw(len(body) + 2)
	}
	if err := writeFrame(pc.w, typ, body, compress); err != nil {
		return err
	}
	return pc.w.Flush()
}

func (pc *peerConn) read() (byte, []byte, error) {
	if pc.io > 0 {
		pc.conn.SetReadDeadline(time.Now().Add(pc.io))
	}
	typ, body, err := readFrame(pc.r)
	if err == nil && pc.stats != nil {
		pc.stats.addRaw(len(body) + 2)
	}
	return typ, body, err
}

// fail sends a best-effort ERROR frame and closes the connection.
func (pc *peerConn) fail(msg string) {
	pc.write(tError, []byte(msg), false)
	pc.conn.Close()
}

type coord struct {
	cfg    CoordConfig
	model  *Model
	owners []int
	hash   uint64
	conns  chan net.Conn
	peers  []*peerConn
	log    *mailLog
	none   []bool // all-false ownership: the coordinator executes nothing
	stats  *CoordStats
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
		cfg:    cfg,
		model:  model,
		owners: owners,
		hash:   modelHash(cfg.Spec, owners, model),
		conns:  make(chan net.Conn, 16),
		peers:  make([]*peerConn, cfg.Peers),
		none:   make([]bool, cfg.Spec.Shards),
		stats:  cfg.Stats,
	}
	c.log, err = newMailLog(cfg.Peers, cfg.CheckpointDir, cfg.Spec, owners)
	if err != nil {
		lis.Close()
		return Outcome{}, err
	}
	defer c.log.close()

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
				newPeerConn(conn, cfg.IOTimeout, nil).fail("distsim: join queue full")
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
				newPeerConn(conn, cfg.IOTimeout, nil).fail("distsim: no free peer slot: all peers already joined")
			default:
				return
			}
		}
	}()
	defer func() {
		for _, pc := range c.peers {
			if pc != nil {
				pc.conn.Close()
			}
		}
	}()

	for p := range c.peers {
		pc, err := c.join(p, 0, cfg.JoinTimeout)
		if err != nil {
			c.abort(err)
			return Outcome{}, err
		}
		c.peers[p] = pc
	}
	c.logf("distsim: %d peer(s) joined, %d shards, window %v", cfg.Peers, cfg.Spec.Shards, model.Eng.Lookahead())
	return c.run()
}

func (c *coord) logf(format string, args ...any) {
	if c.cfg.Log != nil {
		fmt.Fprintf(c.cfg.Log, format+"\n", args...)
	}
}

// abort broadcasts err to every live peer so none is left blocked at a
// barrier that will never complete.
func (c *coord) abort(err error) {
	for _, pc := range c.peers {
		if pc != nil {
			pc.write(tError, []byte(err.Error()), false)
		}
	}
}

// join completes the handshake for peer slot p: wait for a connection,
// HELLO/version check, WELCOME with the partition map (and the resume
// checkpoint when restoring a dead peer), READY/model-hash check.
func (c *coord) join(p, resume int, wait time.Duration) (*peerConn, error) {
	var conn net.Conn
	select {
	case conn = <-c.conns:
	case <-time.After(wait):
		return nil, fmt.Errorf("distsim: timed out waiting for peer %d to join", p)
	}
	pc := newPeerConn(conn, c.cfg.IOTimeout, c.stats)
	typ, body, err := pc.read()
	if err != nil {
		pc.conn.Close()
		return nil, fmt.Errorf("distsim: peer %d handshake: %w", p, err)
	}
	if typ != tHello {
		pc.fail("expected HELLO")
		return nil, fmt.Errorf("distsim: peer %d sent frame %d instead of HELLO", p, typ)
	}
	var hello helloMsg
	if err := json.Unmarshal(body, &hello); err != nil {
		pc.fail("bad HELLO")
		return nil, fmt.Errorf("distsim: peer %d bad HELLO: %w", p, err)
	}
	if hello.Version != protoVersion {
		err := fmt.Errorf("distsim: peer %d handshake version mismatch: peer speaks v%d, coordinator v%d", p, hello.Version, protoVersion)
		pc.fail(err.Error())
		return nil, err
	}
	wm := welcomeMsg{
		Spec:   c.cfg.Spec,
		PeerID: p,
		NPeers: c.cfg.Peers,
		Owners: c.owners,
		Resume: resume,
	}
	if resume > 0 {
		wm.Mail = c.log.mailFor(p, resume)
	}
	wb, err := json.Marshal(wm)
	if err != nil {
		pc.conn.Close()
		return nil, err
	}
	if err := pc.write(tWelcome, wb, true); err != nil {
		pc.conn.Close()
		return nil, fmt.Errorf("distsim: peer %d welcome: %w", p, err)
	}
	typ, body, err = pc.read()
	if err != nil {
		pc.conn.Close()
		return nil, fmt.Errorf("distsim: peer %d ready: %w", p, err)
	}
	if typ != tReady {
		pc.fail("expected READY")
		return nil, fmt.Errorf("distsim: peer %d sent frame %d instead of READY", p, typ)
	}
	var ready readyMsg
	if err := json.Unmarshal(body, &ready); err != nil {
		pc.fail("bad READY")
		return nil, fmt.Errorf("distsim: peer %d bad READY: %w", p, err)
	}
	if ready.Hash != c.hash {
		err := fmt.Errorf("distsim: partition map disagreement: peer %d built model %016x, coordinator %016x", p, ready.Hash, c.hash)
		pc.fail(err.Error())
		return nil, err
	}
	return pc, nil
}

// replace restores dead peer slot p from the checkpoint: wait for a
// replacement connection, replay windows [0, w) via the WELCOME resume
// payload, and — when resendGo is set — re-deliver the GO frame of the
// window the peer died in.
func (c *coord) replace(p, w int, cause error, resendGo bool) error {
	c.peers[p].conn.Close()
	c.peers[p] = nil
	if !c.cfg.Rejoin {
		return fmt.Errorf("distsim: peer %d disconnected at window %d: %w", p, w, cause)
	}
	c.logf("distsim: peer %d died at window %d (%v); waiting %v for a replacement", p, w, cause, c.cfg.RejoinTimeout)
	pc, err := c.join(p, w, c.cfg.RejoinTimeout)
	if err != nil {
		return fmt.Errorf("distsim: restoring peer %d at window %d: %w", p, w, err)
	}
	c.peers[p] = pc
	if resendGo {
		frame := binary.AppendUvarint(nil, uint64(w))
		frame = append(frame, c.log.windows[p][w]...)
		if err := pc.write(tGo, frame, true); err != nil {
			return fmt.Errorf("distsim: restored peer %d window %d: %w", p, w, err)
		}
	}
	c.logf("distsim: peer %d restored from checkpoint at window %d", p, w)
	return nil
}

// readDone reads and parses peer p's DONE frame for window w. telem is
// whatever follows the mail batch — the peer's telemetry section when
// Spec.Telem > 0, empty otherwise.
func (c *coord) readDone(p, w int) (pending int, entries []mailEntry, telem []byte, err error) {
	typ, body, err := c.peers[p].read()
	if err != nil {
		return 0, nil, nil, err
	}
	if typ == tError {
		return 0, nil, nil, fmt.Errorf("distsim: peer %d: %s", p, body)
	}
	if typ != tDone {
		return 0, nil, nil, fmt.Errorf("distsim: peer %d sent frame %d instead of DONE", p, typ)
	}
	gotW, k1 := binary.Uvarint(body)
	if k1 <= 0 {
		return 0, nil, nil, fmt.Errorf("distsim: peer %d truncated DONE", p)
	}
	if int(gotW) != w {
		return 0, nil, nil, fmt.Errorf("distsim: peer %d answered window %d during window %d", p, gotW, w)
	}
	pend, k2 := binary.Uvarint(body[k1:])
	if k2 <= 0 {
		return 0, nil, nil, fmt.Errorf("distsim: peer %d truncated DONE", p)
	}
	count, rest, err := batchCount(body[k1+k2:])
	if err != nil {
		return 0, nil, nil, fmt.Errorf("distsim: peer %d: %w", p, err)
	}
	entries = make([]mailEntry, 0, count)
	for i := 0; i < count; i++ {
		var e mailEntry
		e, rest, err = readEntry(rest)
		if err != nil {
			return 0, nil, nil, fmt.Errorf("distsim: peer %d: %w", p, err)
		}
		if e.dst < 0 || e.dst >= c.cfg.Spec.Shards {
			return 0, nil, nil, fmt.Errorf("distsim: peer %d mailed nonexistent shard %d", p, e.dst)
		}
		entries = append(entries, e)
	}
	return int(pend), entries, rest, nil
}

// run drives the lock-step window loop: GO out, replica step, DONE in,
// route mail; stop when the fabric is quiet or the horizon is reached.
func (c *coord) run() (Outcome, error) {
	eng := c.model.Eng
	look := eng.Lookahead()
	until := (c.model.Horizon + c.model.Drain + look - 1) / look * look
	npeers := c.cfg.Peers

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
			c.abort(err)
			return Outcome{}, err
		}
		tw, err := telemetry.NewWriter(c.cfg.Stream, hdr)
		if err != nil {
			c.abort(err)
			return Outcome{}, err
		}
		emit = telemetry.NewEmitter(tw)
		acc.Dirs = make([]telemetry.DirSample, ndirs)
		acc.Sinks = make([]telemetry.SinkSample, numFA)
	}
	telemSecs := make([][]byte, npeers)

	nextOut := make([][]byte, npeers) // per peer: the next GO's mail batch
	sumPending, lastMail := -1, 0
	quietNow := func() bool {
		return sumPending == 0 && lastMail == 0 && eng.ControlsPending() == 0
	}
	w := 0
	quiet := false
	for eng.Now() < until {
		if sumPending >= 0 && quietNow() {
			quiet = true
			break
		}
		if c.cfg.OnWindow != nil {
			c.cfg.OnWindow(w)
		}
		winStart := time.Now()
		mailRaw, mailFrames := 0, 0
		for p := 0; p < npeers; p++ {
			batch := nextOut[p]
			if batch == nil {
				batch = emptyBatch
			} else {
				mailRaw += len(batch)
				mailFrames++
			}
			if err := c.log.log(p, w, batch); err != nil {
				c.abort(err)
				return Outcome{}, err
			}
			frame := binary.AppendUvarint(nil, uint64(w))
			frame = append(frame, batch...)
			if err := c.peers[p].write(tGo, frame, true); err != nil {
				if err := c.replace(p, w, err, true); err != nil {
					c.abort(err)
					return Outcome{}, err
				}
			}
		}
		// The coordinator's replica steps too: controls run here exactly
		// as on every peer, and every unowned (that is: every) shard's
		// clock advances, keeping the replica's administrative state and
		// control schedule in lock-step for the final aggregation.
		eng.StepOwned(c.none, nil)

		sumPending, lastMail = 0, 0
		for p := range nextOut {
			nextOut[p] = nil
		}
		counts := make([]int, npeers)
		totalEntries := 0
		for p := 0; p < npeers; p++ {
			pend, entries, telem, err := c.readDone(p, w)
			if err != nil {
				if err := c.replace(p, w, err, true); err != nil {
					c.abort(err)
					return Outcome{}, err
				}
				if pend, entries, telem, err = c.readDone(p, w); err != nil {
					err = fmt.Errorf("distsim: restored peer %d failed window %d again: %w", p, w, err)
					c.abort(err)
					return Outcome{}, err
				}
			}
			telemSecs[p] = telem
			if len(entries) > 0 {
				mailFrames++
			}
			sumPending += pend
			lastMail += len(entries)
			totalEntries += len(entries)
			for _, e := range entries {
				dp := c.owners[e.dst]
				if nextOut[dp] == nil {
					nextOut[dp] = []byte{}
				}
				nextOut[dp] = appendEntry(nextOut[dp], e)
				counts[dp]++
			}
		}
		for p := range nextOut {
			if nextOut[p] != nil {
				nextOut[p] = append(binary.AppendUvarint(nil, uint64(counts[p])), nextOut[p]...)
				mailRaw += len(nextOut[p])
			}
		}
		if emit != nil {
			end := eng.Now()
			if boundary := ((end-look)/every + 1) * every; boundary <= end {
				if err := c.mergeTelem(telemSecs, boundary, &acc, ndirs, numFA); err != nil {
					c.abort(err)
					return Outcome{}, err
				}
				acc.T = boundary
				for d := 0; d < ndirs; d++ {
					acc.Dirs[d].Up = c.model.Net.LinkUp(d / 2)
				}
				if err := emit.Emit(&acc); err != nil {
					err = fmt.Errorf("distsim: telemetry stream: %w", err)
					c.abort(err)
					return Outcome{}, err
				}
				c.stats.telemWindow()
			}
		}
		c.stats.window(time.Since(winStart), mailRaw, mailFrames, totalEntries)
		w++
	}
	if !quiet && sumPending >= 0 {
		quiet = quietNow()
	}
	if !quiet {
		err := fmt.Errorf("fabric did not drain: work still pending past t=%d (%d heap events)", until, sumPending)
		c.abort(err)
		return Outcome{}, err
	}
	return c.finish(w)
}

// mergeTelem folds every peer's telemetry section for one scrape
// boundary into the accumulated absolute snapshot. Each entity is owned
// by exactly one peer, so the merge is plain assignment; the count check
// verifies complete coverage.
func (c *coord) mergeTelem(secs [][]byte, want sim.Time, acc *telemetry.Snapshot, ndirs, numFA int) error {
	dirsSeen, sinksSeen := 0, 0
	for p, b := range secs {
		nb, b, err := telemUv(b)
		if err != nil {
			return fmt.Errorf("peer %d: %w", p, err)
		}
		if nb != 1 {
			return fmt.Errorf("distsim: peer %d shipped %d telemetry boundaries, coordinator expected 1", p, nb)
		}
		t, b, err := telemUv(b)
		if err != nil {
			return fmt.Errorf("peer %d: %w", p, err)
		}
		if sim.Time(t) != want {
			return fmt.Errorf("distsim: peer %d scraped at t=%d, coordinator expected t=%d", p, t, want)
		}
		nd, b, err := telemUv(b)
		if err != nil {
			return fmt.Errorf("peer %d: %w", p, err)
		}
		for i := 0; i < int(nd); i++ {
			var d, fb, fc, dr, qb uint64
			for _, v := range []*uint64{&d, &fb, &fc, &dr, &qb} {
				if *v, b, err = telemUv(b); err != nil {
					return fmt.Errorf("peer %d: %w", p, err)
				}
			}
			if d >= uint64(ndirs) {
				return fmt.Errorf("distsim: peer %d reported nonexistent link dir %d", p, d)
			}
			s := &acc.Dirs[d]
			s.FwdBytes, s.FwdCells, s.Drops, s.QueueBytes = fb, fc, dr, qb
			dirsSeen++
		}
		ns, b, err := telemUv(b)
		if err != nil {
			return fmt.Errorf("peer %d: %w", p, err)
		}
		for i := 0; i < int(ns); i++ {
			var fa, cells, bytes uint64
			for _, v := range []*uint64{&fa, &cells, &bytes} {
				if *v, b, err = telemUv(b); err != nil {
					return fmt.Errorf("peer %d: %w", p, err)
				}
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
// model disjointly and completely, and folds the canonical digest.
func (c *coord) finish(windows int) (Outcome, error) {
	for p := range c.peers {
		if err := c.peers[p].write(tFinish, nil, false); err != nil {
			if err := c.replace(p, windows, err, false); err != nil {
				c.abort(err)
				return Outcome{}, err
			}
			if err := c.peers[p].write(tFinish, nil, false); err != nil {
				c.abort(err)
				return Outcome{}, err
			}
		}
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
	readReport := func(p int) (peerReport, error) {
		typ, body, err := c.peers[p].read()
		if err != nil {
			return peerReport{}, fmt.Errorf("distsim: peer %d report: %w", p, err)
		}
		if typ == tError {
			return peerReport{}, fmt.Errorf("distsim: peer %d: %s", p, body)
		}
		if typ != tReport {
			return peerReport{}, fmt.Errorf("distsim: peer %d sent frame %d instead of REPORT", p, typ)
		}
		var rep peerReport
		if err := json.Unmarshal(body, &rep); err != nil {
			return peerReport{}, fmt.Errorf("distsim: peer %d bad report: %w", p, err)
		}
		return rep, nil
	}
	for p := range c.peers {
		rep, err := readReport(p)
		if err != nil {
			// A peer dying between its last DONE and its report is
			// restorable too: the replacement replays the whole run and
			// reports from the same deterministic state.
			if rerr := c.replace(p, windows, err, false); rerr != nil {
				c.abort(rerr)
				return Outcome{}, rerr
			}
			if err := c.peers[p].write(tFinish, nil, false); err != nil {
				c.abort(err)
				return Outcome{}, err
			}
			if rep, err = readReport(p); err != nil {
				c.abort(err)
				return Outcome{}, err
			}
		}
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
	c.stats.runDone()
	c.logf("distsim: run complete after %d windows, digest %016x", windows, out.Digest)
	return out, nil
}

// Wire protocol (v8): length-prefixed frames over TCP — or, on a mesh link
// whose ends share a host, through a shared-memory ring (ring.go).
//
//	frame   := u32be length | u8 type | u8 flags | body
//	length  counts type+flags+body. flags is always 0 and any other value
//	is refused: a body goes as it was written (why: the package comment in
//	peer.go).
//
// Control frames (HELLO, WELCOME, READY, START, MESH-HELLO, REPORT, ERROR)
// carry JSON — they happen once per join, as does RING, the dialer's
// one-byte answer to a ring offer (1: taken, 0: the link stays on its
// socket). The per-window frames carry compact varints:
//
//	XCHG  := uvarint window | uvarint ownedPending | uvarint mailOut | batch
//	DONE  := uvarint window | uvarint ownedPending | uvarint entries |
//	         uvarint mailBytes | [telem]
//	STALL := uvarint window | uvarint neighbour | cause text
//	STATS := see appendStats
//	batch := uvarint count | count * entry
//	entry := uvarint dstShard | uvarint at | uvarint lane |
//	         u8 kind | uvarint arg | uvarint len | payload
//
// XCHG goes peer to peer, one frame per neighbour per window: the sender's
// pending-event count and total outbound mail (the inputs of the stop
// rule, so every peer evaluates it on the same numbers) and the entries
// addressed to the receiver's shards. DONE goes peer to coordinator and is
// never answered: the same counts for the coordinator's accounting, the
// bytes of mail they stand for, and the telemetry section when
// Spec.Telem > 0 — never the mail itself, and nothing else.
//
// Entries preserve send order per (source, destination) pair; the (time,
// lane) event key makes cross-source interleaving irrelevant, which is
// what lets the receiver inject a batch with plain heap insertions and
// still match the in-process execution byte for byte.
//
// Everything here parses bytes from a socket, and since v4 every peer has
// a listening one: a frame body is grown with the bytes that actually
// arrive (a length prefix alone reserves nothing), a connection that has
// not yet proved who it is may only send helloLimit bytes, and every
// malformed input is an error.
package distsim

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
	"time"

	"stardust/internal/sim"
)

// protoVersion 2 added the optional telemetry section on DONE frames
// (present whenever Spec.Telem > 0); 3 moved unreachable counts from
// per-spine reports into the owning shard's report; 4 replaced the
// coordinator's per-window GO/DONE relay with the peer mesh (XCHG), made
// DONE a one-way batched stream and recovery a re-join (STALL, START); 5
// added each mesh link's poll record to STATS; 6 made recovery a re-run
// from window 0, dropping the resume log from WELCOME and the mail copy
// from DONE; 7 lets a mesh link of one host run over a shared-memory ring
// (the ring offer in the acceptor's mesh HELLO, the RING answer) and adds
// each link's transport to STATS; 8 sends every frame as written (the
// flags byte is always 0) and drops the uncompressed byte count from STATS.
const protoVersion = 8

// Frame types.
const (
	tHello     byte = 1  // peer -> coord: version, mesh listener address
	tWelcome   byte = 2  // coord -> peer: spec, identity, partition map
	tReady     byte = 3  // peer -> coord: model hash after the (re)build
	tStart     byte = 4  // coord -> peer: everyone is ready; mesh addresses and token
	tDone      byte = 5  // peer -> coord: window w accounted (one-way, batched)
	tFinish    byte = 6  // coord -> peer: outcome merged, the run is over
	tReport    byte = 7  // peer -> coord: owned counters, sent unprompted at the stop
	tError     byte = 8  // any direction: deterministic failure, connection ends
	tXchg      byte = 9  // peer <-> peer: window w's counts and mail for your shards
	tMeshHello byte = 10 // peer <-> peer: identity, run token, model hash
	tStall     byte = 11 // peer -> coord: mesh lost at window w, parked for a WELCOME
	tStats     byte = 12 // peer -> coord: wall-time split since the last flush
	tRing      byte = 13 // peer -> peer: the dialer took the offered ring, or not
)

const (
	maxFrame   = 1 << 28 // hard cap on a frame body
	helloLimit = 4 << 10 // cap until a connection has identified itself
	readChunk  = 64 << 10
)

type helloMsg struct {
	Version int `json:"v"`
	// Mesh is the address of the peer's mesh listener: the local IP of its
	// coordinator connection, port chosen by the kernel.
	Mesh string `json:"mesh"`
}

// welcomeMsg is everything a peer needs to build its replica: the same
// for the initial join and every recovery, which is a run from window 0.
type welcomeMsg struct {
	Spec   Spec  `json:"spec"`
	PeerID int   `json:"peer"`
	NPeers int   `json:"npeers"`
	Owners []int `json:"owners"`
}

type readyMsg struct {
	Hash uint64 `json:"hash"`
}

// startMsg opens a session: Mesh[i] is peer i's mesh listener, Token names
// this session (a new one after every recovery, so a connection left over
// from the previous mesh cannot take a slot in the next).
type startMsg struct {
	Mesh  []string `json:"mesh"`
	Token uint64   `json:"token"`
}

// meshHelloMsg identifies one end of a mesh connection to the other. The
// acceptor's may offer Ring, the name of a ring file it made for the link.
type meshHelloMsg struct {
	Version int    `json:"v"`
	Peer    int    `json:"peer"`
	Token   uint64 `json:"token"`
	Hash    uint64 `json:"hash"`
	Ring    string `json:"ring,omitempty"`
}

type shardReport struct {
	ID           int    `json:"id"`
	Injected     uint64 `json:"inj"`
	Delivered    uint64 `json:"del"`
	DeadDrops    uint64 `json:"dead"`
	NoRouteDrops uint64 `json:"noroute"`
	Processed    uint64 `json:"events"`
	// Unreachable is fabric.Net.Unreachable(ID): the reachability holes in
	// forwarding state only this shard's owner keeps current.
	Unreachable int `json:"unreach"`
}

type sinkReport struct {
	FA    int    `json:"fa"`
	Cells uint64 `json:"cells"`
	Bytes uint64 `json:"bytes"`
}

type dirReport struct {
	Dir      int    `json:"dir"`
	FwdBytes uint64 `json:"bytes"`
	FwdCells uint64 `json:"cells"`
	Drops    uint64 `json:"drops"`
}

// peerReport is everything a peer owns of the final outcome: each entity
// (shard, FA sink, directed link) is owned by exactly one peer, and the
// coordinator verifies full disjoint coverage when merging.
type peerReport struct {
	Shards []shardReport `json:"shards"`
	Sinks  []sinkReport  `json:"sinks"`
	Dirs   []dirReport   `json:"dirs"`
}

const frameHeader = 6 // u32be length | u8 type | u8 flags

// appendFrame appends one frame to dst.
func appendFrame(dst []byte, typ byte, body []byte) ([]byte, error) {
	if len(body) > maxFrame {
		return dst, fmt.Errorf("distsim: frame body of %d bytes exceeds the %d limit", len(body), maxFrame)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(2+len(body)))
	dst = append(dst, typ, 0)
	return append(dst, body...), nil
}

// frameReader reads frames off one connection into a buffer it reuses: a
// returned body is valid until the next read.
type frameReader struct {
	r     io.Reader
	limit int // largest acceptable body
	buf   []byte
	hdr   [4]byte
}

// read returns the next frame's type and body.
func (fr *frameReader) read() (byte, []byte, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.BigEndian.Uint32(fr.hdr[:]))
	if n < 2 || n-2 > fr.limit {
		return 0, nil, fmt.Errorf("distsim: bad frame length %d", n)
	}
	var err error
	if fr.buf, err = readGrowing(fr.r, fr.buf[:0], n); err != nil {
		return 0, nil, err
	}
	if flags := fr.buf[1]; flags != 0 {
		return 0, nil, fmt.Errorf("distsim: unknown frame flags %#x", flags)
	}
	return fr.buf[0], fr.buf[2:], nil
}

// readGrowing appends to buf exactly n bytes from r. The buffer grows with
// what has arrived (doubling from readChunk), never with what a length
// prefix promised, so a header costs its sender the body too.
func readGrowing(r io.Reader, buf []byte, n int) ([]byte, error) {
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(max(len(buf), readChunk), n-len(buf)))
		}
		k, err := r.Read(buf[len(buf):min(cap(buf), n)])
		buf = buf[:len(buf)+k]
		if err == io.EOF && len(buf) < n {
			return buf, io.ErrUnexpectedEOF
		} else if err != nil && err != io.EOF {
			return buf, err
		}
	}
	return buf, nil
}

// peerConn is one framed TCP connection with deadlines: coordinator to
// peer, or peer to peer. Frames are put into out and leave when the caller
// flushes (a mesh link sends instead, see meshLink); wire counts the frame
// bytes put, headers included, for the peers' traffic report.
type peerConn struct {
	conn net.Conn
	rd   sockReader
	br   *bufio.Reader
	fr   frameReader
	out  []byte
	io   time.Duration
	wire uint64
	// far says the other end is another host, as far as the addresses tell:
	// a mesh link to it stays on its socket (see meshHandshake in peer.go).
	far bool
}

// writeBuffer bounds how much one-way DONE traffic a peer batches before
// it reaches the coordinator: see the flush rule in peer.go.
const writeBuffer = 16 << 10

func newPeerConn(conn net.Conn, ioTimeout time.Duration) *peerConn {
	pc := &peerConn{conn: conn, io: ioTimeout, far: !sameHost(conn)}
	pc.rd = sockReader{conn: conn, sock: newSock(conn)}
	pc.br = bufio.NewReaderSize(&pc.rd, writeBuffer)
	pc.fr = frameReader{r: pc.br, limit: helloLimit}
	return pc
}

// sameHost reports whether both ends of conn have the same IP address:
// loopback, or one of the host's own addresses dialled from itself.
func sameHost(conn net.Conn) bool {
	local, lok := conn.LocalAddr().(*net.TCPAddr)
	remote, rok := conn.RemoteAddr().(*net.TCPAddr)
	return lok && rok && local.IP.Equal(remote.IP)
}

// trust lifts the pre-identification frame limit once the other end has
// passed its version (and, on the mesh, token and hash) check.
func (pc *peerConn) trust() { pc.fr.limit = maxFrame }

// deadline arms the backstop against a silent far end. Arming costs a
// timer update, so the window loops re-arm once per flush interval and
// not per frame.
func (pc *peerConn) deadline() {
	if pc.io > 0 {
		pc.conn.SetDeadline(time.Now().Add(pc.io))
	}
}

// put buffers one frame without flushing.
func (pc *peerConn) put(typ byte, body []byte) (err error) {
	before := len(pc.out)
	pc.out, err = appendFrame(pc.out, typ, body)
	pc.wire += uint64(len(pc.out) - before)
	return err
}

// flush writes out everything put, waiting for the far end if it must.
func (pc *peerConn) flush() error {
	_, err := pc.conn.Write(pc.out)
	pc.out = pc.out[:0]
	return err
}

// write sends one frame now, under a fresh deadline.
func (pc *peerConn) write(typ byte, body []byte) error {
	pc.deadline()
	if err := pc.put(typ, body); err != nil {
		return err
	}
	return pc.flush()
}

// read returns the next frame under a fresh deadline; the body is valid
// until the next read on this connection.
func (pc *peerConn) read() (byte, []byte, error) {
	pc.deadline()
	return pc.fr.read()
}

// fail sends a best-effort ERROR frame and closes the connection.
func (pc *peerConn) fail(msg string) {
	pc.write(tError, []byte(msg))
	pc.conn.Close()
}

// mailEntry is one cross-shard message in wire form.
type mailEntry struct {
	dst  int
	at   sim.Time
	lane int32
	kind byte
	arg  uint64
	pay  []byte
}

func appendEntry(b []byte, e mailEntry) []byte {
	b = binary.AppendUvarint(b, uint64(e.dst))
	b = binary.AppendUvarint(b, uint64(e.at))
	b = binary.AppendUvarint(b, uint64(e.lane))
	b = append(b, e.kind)
	b = binary.AppendUvarint(b, e.arg)
	b = binary.AppendUvarint(b, uint64(len(e.pay)))
	b = append(b, e.pay...)
	return b
}

func readEntry(b []byte) (mailEntry, []byte, error) {
	var e mailEntry
	dst, k := binary.Uvarint(b)
	if k <= 0 {
		return e, nil, fmt.Errorf("distsim: truncated mail entry dst")
	}
	b = b[k:]
	at, k := binary.Uvarint(b)
	if k <= 0 {
		return e, nil, fmt.Errorf("distsim: truncated mail entry time")
	}
	b = b[k:]
	lane, k := binary.Uvarint(b)
	if k <= 0 {
		return e, nil, fmt.Errorf("distsim: truncated mail entry lane")
	}
	b = b[k:]
	if len(b) < 1 {
		return e, nil, fmt.Errorf("distsim: truncated mail entry kind")
	}
	kind := b[0]
	b = b[1:]
	arg, k := binary.Uvarint(b)
	if k <= 0 {
		return e, nil, fmt.Errorf("distsim: truncated mail entry arg")
	}
	b = b[k:]
	plen, k := binary.Uvarint(b)
	if k <= 0 || uint64(len(b[k:])) < plen {
		return e, nil, fmt.Errorf("distsim: truncated mail entry payload")
	}
	e = mailEntry{
		dst:  int(dst),
		at:   sim.Time(at),
		lane: int32(lane),
		kind: kind,
		arg:  arg,
		pay:  b[k : k+int(plen)],
	}
	return e, b[k+int(plen):], nil
}

// uvarints reads len(into) consecutive uvarints off the front of b.
func uvarints(b []byte, what string, into ...*uint64) ([]byte, error) {
	for _, v := range into {
		x, k := binary.Uvarint(b)
		if k <= 0 {
			return nil, fmt.Errorf("distsim: truncated %s", what)
		}
		*v, b = x, b[k:]
	}
	return b, nil
}

// Telemetry section (appended to DONE after the counts when Spec.Telem > 0):
// the absolute counter values of every entity the peer owns, captured at
// each scrape boundary inside the window. A window of one lookahead
// contains at most one boundary, but the count keeps the format
// self-describing:
//
//	telem    := uvarint nboundaries | nboundaries * boundary
//	boundary := uvarint t |
//	            uvarint ndirs  | ndirs  * (uvarint dir | uvarint fwdBytes |
//	                                       uvarint fwdCells | uvarint drops |
//	                                       uvarint queueBytes) |
//	            uvarint nsinks | nsinks * (uvarint fa | uvarint cells | uvarint bytes)
//
// Absolute values (not deltas) let the coordinator merge by overwriting.

// appendTelemSection captures the peer's owned counters for every scrape
// boundary in (end-look, end] and appends the section to b.
func appendTelemSection(b []byte, m *Model, ownedDirs, ownedFAs []int, end, look, every sim.Time) []byte {
	start := end - look
	first := (start/every + 1) * every
	if first > end {
		return append(b, 0)
	}
	b = append(b, 1)
	b = binary.AppendUvarint(b, uint64(first))
	b = binary.AppendUvarint(b, uint64(len(ownedDirs)))
	for _, d := range ownedDirs {
		fb, fc, dr, qb := m.Net.DirTelemetry(d)
		b = binary.AppendUvarint(b, uint64(d))
		b = binary.AppendUvarint(b, fb)
		b = binary.AppendUvarint(b, fc)
		b = binary.AppendUvarint(b, dr)
		b = binary.AppendUvarint(b, uint64(qb))
	}
	b = binary.AppendUvarint(b, uint64(len(ownedFAs)))
	for _, fa := range ownedFAs {
		cells, bytes := m.Net.DeliveredTo(fa)
		b = binary.AppendUvarint(b, uint64(fa))
		b = binary.AppendUvarint(b, cells)
		b = binary.AppendUvarint(b, bytes)
	}
	return b
}

// batchCount reads the entry count off the front of a mail batch.
func batchCount(b []byte) (int, []byte, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 {
		return 0, nil, fmt.Errorf("distsim: truncated mail batch")
	}
	if n > uint64(len(b)) {
		// An entry is at least six bytes; a count beyond the bytes present
		// is corrupt, and must not size anything.
		return 0, nil, fmt.Errorf("distsim: mail batch claims %d entries in %d bytes", n, len(b))
	}
	return int(n), b[k:], nil
}

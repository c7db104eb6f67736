// Wire protocol: length-prefixed frames over TCP.
//
//	frame   := u32be length | u8 type | u8 flags | body
//	length  counts type+flags+body. flags bit0 = body is DEFLATE-compressed.
//
// Control frames (HELLO, WELCOME, READY, REPORT, ERROR) carry JSON — they
// happen once per run. The per-window frames (GO, DONE) carry a compact
// varint batch: one frame per peer per window in each direction, however
// much mail the window produced, optionally compressed when large.
//
//	GO    := uvarint window | mailbatch
//	DONE  := uvarint window | uvarint ownedPending | mailbatch
//	batch := uvarint count | count * entry
//	entry := uvarint dstShard | uvarint at | uvarint lane |
//	         u8 kind | uvarint arg | uvarint len | payload
//
// Entries preserve send order per (source, destination) pair; the (time,
// lane) event key makes cross-source interleaving irrelevant, which is
// what lets the receiver inject a batch with plain heap insertions and
// still match the in-process execution byte for byte.
package distsim

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"

	"stardust/internal/sim"
)

// protoVersion 2 added the optional telemetry section on DONE frames
// (present whenever Spec.Telem > 0); 3 moved unreachable counts from
// per-spine reports into the owning shard's report.
const protoVersion = 3

// Frame types.
const (
	tHello   byte = 1 // peer -> coord: version check
	tWelcome byte = 2 // coord -> peer: spec, identity, partition map, resume log
	tReady   byte = 3 // peer -> coord: model hash after (re)build and replay
	tGo      byte = 4 // coord -> peer: start window w, inbound mail attached
	tDone    byte = 5 // peer -> coord: window w finished, outbound mail attached
	tFinish  byte = 6 // coord -> peer: run complete, report requested
	tReport  byte = 7 // peer -> coord: owned counters
	tError   byte = 8 // either way: deterministic failure, connection ends
)

const (
	flagDeflate byte = 1 << 0

	maxFrame      = 1 << 28 // hard cap against corrupt length prefixes
	compressFloor = 512     // don't bother deflating tiny frames
)

type helloMsg struct {
	Version int `json:"v"`
}

type welcomeMsg struct {
	Spec   Spec  `json:"spec"`
	PeerID int   `json:"peer"`
	NPeers int   `json:"npeers"`
	Owners []int `json:"owners"`
	// Resume asks the peer to rebuild and replay windows [0, Resume)
	// from Mail before going live: Mail[w] is the batch the peer's shards
	// received going into window w (the checkpoint, see checkpoint.go).
	Resume int      `json:"resume,omitempty"`
	Mail   [][]byte `json:"mail,omitempty"`
}

type readyMsg struct {
	Hash uint64 `json:"hash"`
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

// writeFrame emits one frame. When compress is set and the body clears
// the floor, the body is DEFLATE-compressed (and kept only if smaller).
func writeFrame(w io.Writer, typ byte, body []byte, compress bool) error {
	flags := byte(0)
	if compress && len(body) >= compressFloor {
		var zb bytes.Buffer
		zw, err := flate.NewWriter(&zb, flate.BestSpeed)
		if err != nil {
			return err
		}
		if _, err := zw.Write(body); err != nil {
			return err
		}
		if err := zw.Close(); err != nil {
			return err
		}
		if zb.Len() < len(body) {
			body = zb.Bytes()
			flags = flagDeflate
		}
	}
	var hdr [6]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(2+len(body)))
	hdr[4] = typ
	hdr[5] = flags
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// readFrame reads one frame and returns its type and decompressed body.
func readFrame(r io.Reader) (byte, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < 2 || n > maxFrame {
		return 0, nil, fmt.Errorf("distsim: bad frame length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, err
	}
	typ, flags, body := buf[0], buf[1], buf[2:]
	if flags&flagDeflate != 0 {
		out, err := io.ReadAll(flate.NewReader(bytes.NewReader(body)))
		if err != nil {
			return 0, nil, fmt.Errorf("distsim: corrupt compressed frame: %w", err)
		}
		body = out
	}
	return typ, body, nil
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

// emptyBatch is a zero-entry mail batch.
var emptyBatch = []byte{0}

// Telemetry section (appended to DONE after the mail batch when
// Spec.Telem > 0): the absolute counter values of every entity the peer
// owns, captured at each scrape boundary inside the window. A window of
// one lookahead contains at most one boundary, but the count keeps the
// format self-describing:
//
//	telem    := uvarint nboundaries | nboundaries * boundary
//	boundary := uvarint t |
//	            uvarint ndirs  | ndirs  * (uvarint dir | uvarint fwdBytes |
//	                                       uvarint fwdCells | uvarint drops |
//	                                       uvarint queueBytes) |
//	            uvarint nsinks | nsinks * (uvarint fa | uvarint cells | uvarint bytes)
//
// Absolute values (not deltas) make re-shipment after a peer
// death/restore idempotent: the coordinator simply overwrites.

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
		s := m.Sinks[fa]
		b = binary.AppendUvarint(b, uint64(fa))
		b = binary.AppendUvarint(b, s.Cells)
		b = binary.AppendUvarint(b, s.Bytes)
	}
	return b
}

// telemUv reads one uvarint off a telemetry section.
func telemUv(b []byte) (uint64, []byte, error) {
	v, k := binary.Uvarint(b)
	if k <= 0 {
		return 0, nil, fmt.Errorf("distsim: truncated telemetry section")
	}
	return v, b[k:], nil
}

// batchCount reads the entry count off the front of a mail batch.
func batchCount(b []byte) (int, []byte, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 {
		return 0, nil, fmt.Errorf("distsim: truncated mail batch")
	}
	return int(n), b[k:], nil
}

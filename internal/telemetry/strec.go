// The STREC1 stream codec: a durable, versioned, append-only encoding of
// fabric telemetry. A stream is a magic prefix followed by framed records;
// every frame is individually CRC-protected so truncation and corruption
// are detected at the exact frame, and unknown record types are skipped so
// a v1 reader survives a v1+n writer (forward compatibility).
//
//	stream := "STREC1\x00" | frame*
//	frame  := u8 type | uvarint len(body) | body | u32le crc32(type|body)
//
// Record types:
//
//	recHeader (1): JSON StreamHeader — format version, topology dims,
//	    scrape period, and the opaque run spec (raw JSON, so the codec
//	    does not depend on who produced the run).
//	recWindow (2): one scrape window, varint-delta-encoded:
//	    uvarint index | uvarint t |
//	    up bitmap (ceil(dirs/8) bytes) |
//	    dirs × (uvarint ΔfwdBytes | uvarint ΔfwdCells | uvarint Δdrops |
//	            uvarint queueBytes) |
//	    fas  × (uvarint ΔsinkCells | uvarint ΔsinkBytes)
//	recEvent (3): uvarint t | u8 kind | uvarint link
//
// Counters are cumulative and monotonic, so plain (unsigned) deltas
// against the previous window suffice; queue occupancy is instantaneous
// and encoded raw. The encoding is canonical — one byte sequence per
// counter history — which is what lets the CI determinism matrix compare
// whole streams with cmp across worker counts, shard counts and
// process placements.
package telemetry

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"stardust/internal/sim"
)

// Magic prefixes every STREC1 stream.
const Magic = "STREC1\x00"

// Record types.
const (
	recHeader byte = 1
	recWindow byte = 2
	recEvent  byte = 3
)

// Format is the STREC encoding version this package writes.
const Format = 1

// Event kinds carried by recEvent records.
const (
	EvLinkDown byte = 1
	EvLinkUp   byte = 2
)

// Errors the Reader distinguishes.
var (
	// ErrBadMagic: the stream does not start with the STREC1 magic.
	ErrBadMagic = errors.New("telemetry: not a STREC1 stream")
	// ErrTruncated: the stream ends mid-frame.
	ErrTruncated = errors.New("telemetry: truncated frame")
	// ErrCorrupt: a frame's CRC does not match its body.
	ErrCorrupt = errors.New("telemetry: corrupt frame (crc mismatch)")
)

// StreamHeader is the first record of every stream: everything a reader
// needs to interpret the windows that follow. Spec is the opaque recipe of
// the recorded run (JSON, owned by the producer — internal/distsim stores
// its Spec there with the shard count zeroed, since placement must not
// change the stream's bytes).
type StreamHeader struct {
	Format int `json:"format"`
	Dirs   int `json:"dirs"` // directed links per window record
	FAs    int `json:"fas"`  // delivery sinks per window record
	// Topo is the canonical topology spec string (topo.Graph.Spec) of the
	// recorded fabric — enough to rebuild the exact wiring on any reader,
	// whatever the topology family. K is the legacy shorthand kept for
	// streams recorded before pluggable topologies (Clos sized from K).
	Topo     string          `json:"topo,omitempty"`
	K        int             `json:"k,omitempty"`
	Seed     int64           `json:"seed,omitempty"`
	ScrapePs sim.Time        `json:"scrape_ps"`
	Spec     json.RawMessage `json:"spec,omitempty"`
}

// DirSample is one directed link's state at a scrape instant: cumulative
// forwarding counters plus the instantaneous queue occupancy.
type DirSample struct {
	FwdBytes   uint64
	FwdCells   uint64
	Drops      uint64
	QueueBytes uint64
	Up         bool
}

// SinkSample is one destination FA's cumulative delivery counters.
type SinkSample struct {
	Cells uint64
	Bytes uint64
}

// Snapshot is the full fabric state at one scrape instant, in absolute
// counters. The Writer computes deltas internally; callers reuse one
// Snapshot across windows, so the steady-state encode path allocates
// nothing.
type Snapshot struct {
	T     sim.Time
	Dirs  []DirSample
	Sinks []SinkSample
}

// maxBody caps a frame body against corrupt length prefixes; bodyChunk is
// how much of a body the Reader makes room for ahead of the bytes.
const (
	maxBody   = 1 << 26
	bodyChunk = 64 << 10
)

// windowBodyMin is the size of the smallest window record body a stream of
// these dimensions can hold: every varint one byte.
func windowBodyMin(dirs, fas int) int { return 2 + (dirs+7)/8 + 4*dirs + 2*fas }

// Writer encodes a STREC1 stream onto w. Not safe for concurrent use.
type Writer struct {
	w           io.Writer
	hdr         StreamHeader
	buf         []byte  // frame scratch, reused
	bodyScratch []byte  // window-body scratch, reused
	evScratch   []byte  // event-body scratch, reused
	typScratch  [1]byte // crc input, reused (a literal slice would escape)
	prev        Snapshot
	index       uint64

	// Windows and Bytes count what has been written — the recorder's
	// cheap self-telemetry.
	Windows uint64
	Bytes   uint64
}

// NewWriter starts a stream: it writes the magic and the header record
// immediately so even an empty stream is self-describing. A nil w gives
// a Writer that only carries the header's shape — for a Recorder that
// captures and analyzes without recording — and must not be written to.
func NewWriter(w io.Writer, hdr StreamHeader) (*Writer, error) {
	hdr.Format = Format
	sw := &Writer{w: w, hdr: hdr}
	if w == nil {
		return sw, nil
	}
	sw.prev.Dirs = make([]DirSample, hdr.Dirs)
	sw.prev.Sinks = make([]SinkSample, hdr.FAs)
	if _, err := io.WriteString(w, Magic); err != nil {
		return nil, err
	}
	sw.Bytes += uint64(len(Magic))
	body, err := json.Marshal(hdr)
	if err != nil {
		return nil, err
	}
	if err := sw.frame(recHeader, body); err != nil {
		return nil, err
	}
	return sw, nil
}

// Header returns the stream header as written.
func (sw *Writer) Header() StreamHeader { return sw.hdr }

// frame emits one framed record built from body.
func (sw *Writer) frame(typ byte, body []byte) error {
	if cap(sw.buf) < len(body)+16 {
		sw.buf = make([]byte, 0, len(body)+64)
	}
	b := sw.buf[:0]
	b = append(b, typ)
	b = binary.AppendUvarint(b, uint64(len(body)))
	b = append(b, body...)
	sw.typScratch[0] = typ
	crc := crc32.ChecksumIEEE(sw.typScratch[:])
	crc = crc32.Update(crc, crc32.IEEETable, body)
	b = binary.LittleEndian.AppendUint32(b, crc)
	sw.buf = b
	n, err := sw.w.Write(b)
	sw.Bytes += uint64(n)
	return err
}

// WriteWindow appends one scrape window. snap must have exactly the
// header's Dirs and FAs entries; counters must be monotonic against the
// previous window. The snapshot is copied into the writer's delta state,
// so the caller may reuse it.
func (sw *Writer) WriteWindow(snap *Snapshot) error {
	if len(snap.Dirs) != sw.hdr.Dirs || len(snap.Sinks) != sw.hdr.FAs {
		return fmt.Errorf("telemetry: snapshot shape (%d dirs, %d sinks) does not match header (%d, %d)",
			len(snap.Dirs), len(snap.Sinks), sw.hdr.Dirs, sw.hdr.FAs)
	}
	body := sw.body(snap)
	if err := sw.frame(recWindow, body); err != nil {
		return err
	}
	// Commit deltas only after a successful write.
	sw.prev.T = snap.T
	copy(sw.prev.Dirs, snap.Dirs)
	copy(sw.prev.Sinks, snap.Sinks)
	sw.index++
	sw.Windows++
	return nil
}

// body encodes the window record body into the reusable scratch buffer.
func (sw *Writer) body(snap *Snapshot) []byte {
	need := 24 + (len(snap.Dirs)+7)/8 + 44*len(snap.Dirs) + 20*len(snap.Sinks)
	if cap(sw.bodyScratch) < need {
		sw.bodyScratch = make([]byte, 0, need)
	}
	b := sw.bodyScratch[:0]
	b = binary.AppendUvarint(b, sw.index)
	b = binary.AppendUvarint(b, uint64(snap.T))
	var bits byte
	for d := range snap.Dirs {
		if snap.Dirs[d].Up {
			bits |= 1 << (d % 8)
		}
		if d%8 == 7 {
			b = append(b, bits)
			bits = 0
		}
	}
	if len(snap.Dirs)%8 != 0 {
		b = append(b, bits)
	}
	for d := range snap.Dirs {
		cur, old := &snap.Dirs[d], &sw.prev.Dirs[d]
		b = binary.AppendUvarint(b, cur.FwdBytes-old.FwdBytes)
		b = binary.AppendUvarint(b, cur.FwdCells-old.FwdCells)
		b = binary.AppendUvarint(b, cur.Drops-old.Drops)
		b = binary.AppendUvarint(b, cur.QueueBytes)
	}
	for f := range snap.Sinks {
		cur, old := &snap.Sinks[f], &sw.prev.Sinks[f]
		b = binary.AppendUvarint(b, cur.Cells-old.Cells)
		b = binary.AppendUvarint(b, cur.Bytes-old.Bytes)
	}
	sw.bodyScratch = b
	return b
}

// WriteEvent appends one event record.
func (sw *Writer) WriteEvent(t sim.Time, kind byte, link int) error {
	b := sw.evScratch[:0]
	b = binary.AppendUvarint(b, uint64(t))
	b = append(b, kind)
	b = binary.AppendUvarint(b, uint64(link))
	sw.evScratch = b
	return sw.frame(recEvent, b)
}

// Window is one decoded scrape window, in both delta and absolute form.
// The slices alias the Reader's internal state and are valid until the
// next Next call.
type Window struct {
	Index uint64
	T     sim.Time
	// Deltas over the previous window.
	DFwdBytes, DFwdCells, DDrops []uint64
	DSinkCells, DSinkBytes       []uint64
	// Absolute (cumulative) state at T.
	Dirs  []DirSample
	Sinks []SinkSample
}

// Event is one decoded event record.
type Event struct {
	T    sim.Time
	Kind byte
	Link int
}

// Reader decodes a STREC1 stream. Its input may come from anywhere (an
// upload to stardustd, a file on disk), so nothing is allocated on a
// claim: a frame body is grown with the bytes that arrive, and the window
// arrays are built when the first window record large enough to fill them
// has been read and verified.
type Reader struct {
	r      io.Reader
	br     byteReader
	hdr    StreamHeader
	win    Window
	ev     Event
	body   []byte
	word   [4]byte // a frame's type, then its CRC: read here, so a frame allocates nothing
	opened bool
}

// NewReader wraps r. The header is read lazily on the first call that
// needs it (Header or Next).
func NewReader(r io.Reader) *Reader { return &Reader{r: r, br: byteReader{r: r}} }

// open consumes the magic and the header record.
func (sr *Reader) open() error {
	if sr.opened {
		return nil
	}
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(sr.r, magic); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return ErrBadMagic
		}
		return err
	}
	if string(magic) != Magic {
		return ErrBadMagic
	}
	typ, body, err := sr.readFrame()
	if err != nil {
		if err == io.EOF {
			return ErrTruncated
		}
		return err
	}
	if typ != recHeader {
		return fmt.Errorf("telemetry: stream starts with record type %d, want header", typ)
	}
	if err := json.Unmarshal(body, &sr.hdr); err != nil {
		return fmt.Errorf("telemetry: bad stream header: %w", err)
	}
	if sr.hdr.Format != Format {
		return fmt.Errorf("telemetry: stream format %d, this reader speaks %d", sr.hdr.Format, Format)
	}
	// Dimensions whose smallest window record no frame could carry describe
	// a stream that cannot have windows.
	if sr.hdr.Dirs < 0 || sr.hdr.FAs < 0 || sr.hdr.Dirs > maxBody || sr.hdr.FAs > maxBody ||
		windowBodyMin(sr.hdr.Dirs, sr.hdr.FAs) > maxBody {
		return fmt.Errorf("telemetry: implausible header dims (%d dirs, %d fas)", sr.hdr.Dirs, sr.hdr.FAs)
	}
	sr.opened = true
	return nil
}

// Header returns the stream header.
func (sr *Reader) Header() (StreamHeader, error) {
	if err := sr.open(); err != nil {
		return StreamHeader{}, err
	}
	return sr.hdr, nil
}

// readFrame reads one frame: type, verified body. io.EOF only at a clean
// frame boundary; a partial frame is ErrTruncated, a CRC mismatch
// ErrCorrupt.
func (sr *Reader) readFrame() (byte, []byte, error) {
	if _, err := io.ReadFull(sr.r, sr.word[:1]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, ErrTruncated
	}
	typ := sr.word[0]
	n, err := binary.ReadUvarint(&sr.br)
	if err != nil {
		return 0, nil, ErrTruncated
	}
	if n > maxBody {
		return 0, nil, fmt.Errorf("telemetry: frame body %d bytes exceeds limit", n)
	}
	// The reused buffer takes a body it has room for in one read; a larger
	// one grows it chunk by chunk (doubling), behind the bytes.
	body := sr.body[:0]
	for len(body) < int(n) {
		if len(body) == cap(body) {
			body = slices.Grow(body, min(max(len(body), bodyChunk), int(n)-len(body)))
		}
		end := min(cap(body), int(n))
		k, err := io.ReadFull(sr.r, body[len(body):end])
		if body = body[:len(body)+k]; err != nil {
			return 0, nil, ErrTruncated
		}
	}
	sr.body = body
	crc := crc32.Update(0, crc32.IEEETable, sr.word[:1])
	crc = crc32.Update(crc, crc32.IEEETable, body)
	if _, err := io.ReadFull(sr.r, sr.word[:]); err != nil {
		return 0, nil, ErrTruncated
	}
	if crc != binary.LittleEndian.Uint32(sr.word[:]) {
		return 0, nil, ErrCorrupt
	}
	return typ, body, nil
}

// byteReader adapts an io.Reader to io.ByteReader without buffering
// (the varint length must not over-read into the body).
type byteReader struct {
	r io.Reader
	b [1]byte
}

func (o *byteReader) ReadByte() (byte, error) {
	if _, err := io.ReadFull(o.r, o.b[:]); err != nil {
		if err == io.EOF {
			return 0, io.EOF
		}
		return 0, ErrTruncated
	}
	return o.b[0], nil
}

// Next returns the next record: (*Window, nil, nil), (nil, *Event, nil),
// or (nil, nil, io.EOF) at a clean end of stream. Unknown record types
// are skipped. The returned pointers are invalidated by the next call.
func (sr *Reader) Next() (*Window, *Event, error) {
	if err := sr.open(); err != nil {
		return nil, nil, err
	}
	for {
		typ, body, err := sr.readFrame()
		if err != nil {
			return nil, nil, err
		}
		switch typ {
		case recWindow:
			if err := sr.decodeWindow(body); err != nil {
				return nil, nil, err
			}
			return &sr.win, nil, nil
		case recEvent:
			if err := sr.decodeEvent(body); err != nil {
				return nil, nil, err
			}
			return nil, &sr.ev, nil
		case recHeader:
			return nil, nil, fmt.Errorf("telemetry: duplicate header record")
		default:
			// Unknown record type from a newer writer: skip.
		}
	}
}

// uv pops one uvarint off b.
func uv(b []byte) (uint64, []byte, error) {
	v, k := binary.Uvarint(b)
	if k <= 0 {
		return 0, nil, ErrTruncated
	}
	return v, b[k:], nil
}

func (sr *Reader) decodeWindow(b []byte) error {
	if len(b) < windowBodyMin(sr.hdr.Dirs, sr.hdr.FAs) {
		return ErrTruncated
	}
	if sr.win.Dirs == nil {
		sr.win = Window{
			DFwdBytes:  make([]uint64, sr.hdr.Dirs),
			DFwdCells:  make([]uint64, sr.hdr.Dirs),
			DDrops:     make([]uint64, sr.hdr.Dirs),
			DSinkCells: make([]uint64, sr.hdr.FAs),
			DSinkBytes: make([]uint64, sr.hdr.FAs),
			Dirs:       make([]DirSample, sr.hdr.Dirs),
			Sinks:      make([]SinkSample, sr.hdr.FAs),
		}
	}
	var err error
	var v uint64
	if v, b, err = uv(b); err != nil {
		return err
	}
	sr.win.Index = v
	if v, b, err = uv(b); err != nil {
		return err
	}
	sr.win.T = sim.Time(v)
	nbits := (sr.hdr.Dirs + 7) / 8
	if len(b) < nbits {
		return ErrTruncated
	}
	bitmap := b[:nbits]
	b = b[nbits:]
	for d := 0; d < sr.hdr.Dirs; d++ {
		up := bitmap[d/8]&(1<<(d%8)) != 0
		var db, dc, dd, q uint64
		if db, b, err = uv(b); err != nil {
			return err
		}
		if dc, b, err = uv(b); err != nil {
			return err
		}
		if dd, b, err = uv(b); err != nil {
			return err
		}
		if q, b, err = uv(b); err != nil {
			return err
		}
		sr.win.DFwdBytes[d] = db
		sr.win.DFwdCells[d] = dc
		sr.win.DDrops[d] = dd
		abs := &sr.win.Dirs[d]
		abs.FwdBytes += db
		abs.FwdCells += dc
		abs.Drops += dd
		abs.QueueBytes = q
		abs.Up = up
	}
	for f := 0; f < sr.hdr.FAs; f++ {
		var dc, db uint64
		if dc, b, err = uv(b); err != nil {
			return err
		}
		if db, b, err = uv(b); err != nil {
			return err
		}
		sr.win.DSinkCells[f] = dc
		sr.win.DSinkBytes[f] = db
		sr.win.Sinks[f].Cells += dc
		sr.win.Sinks[f].Bytes += db
	}
	if len(b) != 0 {
		return fmt.Errorf("telemetry: %d trailing bytes in window record", len(b))
	}
	return nil
}

func (sr *Reader) decodeEvent(b []byte) error {
	var err error
	var v uint64
	if v, b, err = uv(b); err != nil {
		return err
	}
	sr.ev.T = sim.Time(v)
	if len(b) < 1 {
		return ErrTruncated
	}
	sr.ev.Kind = b[0]
	b = b[1:]
	if v, b, err = uv(b); err != nil {
		return err
	}
	sr.ev.Link = int(v)
	if len(b) != 0 {
		return fmt.Errorf("telemetry: %d trailing bytes in event record", len(b))
	}
	return nil
}

package telemetry

import (
	"sync"

	"stardust/internal/fabric"
	"stardust/internal/parsim"
	"stardust/internal/sim"
)

// SinkFunc reads one destination FA's cumulative delivery counters at a
// scrape instant. nil means the stream carries no sink series.
type SinkFunc func(fa int) (cells, bytes uint64)

// LinkSource is the slice of a fabric the recorder scrapes — satisfied
// by *fabric.Net, whatever the topology.
type LinkSource interface {
	NumLinks() int
	ReadLinkCounters(i int, out *[2]fabric.LinkCounters)
}

// Emitter turns absolute fabric snapshots into canonical stream records:
// link-state transition events (derived from the up bitmap, one per
// topology link) followed by the window itself. Both the in-process
// recorder and the distributed coordinator go through an Emitter, so the
// two pipelines cannot drift apart byte-wise.
type Emitter struct {
	W      *Writer
	prevUp []bool // per topology link (even dir), primed on first window
	primed bool
}

// NewEmitter wraps w.
func NewEmitter(w *Writer) *Emitter {
	return &Emitter{W: w, prevUp: make([]bool, w.hdr.Dirs/2)}
}

// Emit appends snap to the stream. Link-state changes against the
// previous window are recorded as events stamped with the window time —
// the stream is window-quantized, so sub-window timing is deliberately
// not preserved. The first window primes the baseline silently (links
// start up; a link already down at the first scrape is an event).
func (e *Emitter) Emit(snap *Snapshot) error {
	for lk := range e.prevUp {
		up := snap.Dirs[2*lk].Up
		if !e.primed {
			if !up {
				if err := e.W.WriteEvent(snap.T, EvLinkDown, lk); err != nil {
					return err
				}
			}
			e.prevUp[lk] = up
			continue
		}
		if up != e.prevUp[lk] {
			kind := EvLinkDown
			if up {
				kind = EvLinkUp
			}
			if err := e.W.WriteEvent(snap.T, kind, lk); err != nil {
				return err
			}
			e.prevUp[lk] = up
		}
	}
	e.primed = true
	return e.W.WriteWindow(snap)
}

// RecorderStats is the recorder's own telemetry, safe to read while the
// simulation advances. Windows counts captures; Bytes is the stream's
// size, zero when nothing is recorded.
type RecorderStats struct {
	Windows  uint64   `json:"windows"`
	Bytes    uint64   `json:"bytes"`
	LastT    sim.Time `json:"last_sim_ps"`
	Findings uint64   `json:"findings"`
	Err      string   `json:"error,omitempty"`
}

// Recorder scrapes a fabric at a fixed simulated period and exports every
// scrape as one STREC1 window, flushed in barrier context on a parsim
// engine (so the stream is byte-identical at any shard count). It can feed
// the same windows to online analyzers, with or without a stream.
type Recorder struct {
	emit  *Emitter // nil when the writer has no sink: capture only
	net   LinkSource
	sinks SinkFunc
	every sim.Time
	next  sim.Time

	snap    Snapshot
	scratch [2]fabric.LinkCounters
	view    WindowView
	prev    Snapshot  // delta baseline for the online analyzer view
	found   []Finding // the last window's findings, reused
	index   uint64

	mu        sync.Mutex
	stats     RecorderStats
	err       error
	analyzers []Analyzer
	log       *FindingLog
}

// NewRecorder builds a recorder over net writing through w; a w made by
// NewWriter(nil, hdr) gives the shape of the windows but records nothing.
// every is the scrape period of AttachEngine (0 or less means one
// millisecond; it should be a multiple of the engine's lookahead so scrape
// boundaries land on barriers). sinks may be nil when the header declares
// zero FAs.
func NewRecorder(w *Writer, net LinkSource, sinks SinkFunc, every sim.Time) *Recorder {
	if every <= 0 {
		every = sim.Millisecond
	}
	hdr := w.Header()
	r := &Recorder{
		net:   net,
		sinks: sinks,
		every: every,
		next:  every,
	}
	if w.w != nil {
		r.emit = NewEmitter(w)
	}
	r.snap.Dirs = make([]DirSample, hdr.Dirs)
	r.snap.Sinks = make([]SinkSample, hdr.FAs)
	r.prev.Dirs = make([]DirSample, hdr.Dirs)
	r.prev.Sinks = make([]SinkSample, hdr.FAs)
	r.view = WindowView{
		DFwdBytes:  make([]uint64, hdr.Dirs),
		DFwdCells:  make([]uint64, hdr.Dirs),
		DDrops:     make([]uint64, hdr.Dirs),
		QueueBytes: make([]uint64, hdr.Dirs),
		Up:         make([]bool, hdr.Dirs),
		DSinkCells: make([]uint64, hdr.FAs),
		DSinkBytes: make([]uint64, hdr.FAs),
	}
	return r
}

// Observe attaches online analyzers: every captured window is fed to
// each, and their findings land in the returned FindingLog (bounded,
// safe for concurrent readers — the NDJSON tail endpoint polls it).
func (r *Recorder) Observe(meta *Meta, as ...Analyzer) *FindingLog {
	r.view.Meta = meta
	r.analyzers = append(r.analyzers, as...)
	if r.log == nil {
		r.log = NewFindingLog(1024)
	}
	return r.log
}

// AttachEngine registers the scrape on an engine's barrier: every
// shard quiescent, so reading cross-shard counters cannot race and the
// capture instants (scrape-period boundaries) are identical for every
// shard count and process placement.
func (r *Recorder) AttachEngine(eng *parsim.Engine) {
	eng.OnBarrier(func(now sim.Time) {
		for now >= r.next {
			r.Capture(r.next)
			r.next += r.every
		}
	})
}

// Capture scrapes the fabric now, appends one window stamped at to the
// stream and feeds it to the analyzers. It returns the window and the
// analyzers' findings on it, both valid until the next Capture. It must
// run with the fabric quiescent (barrier context, or between runs).
// Errors latch: the first write error stops the stream and surfaces in
// Stats, while capture and analysis go on.
func (r *Recorder) Capture(at sim.Time) (*Snapshot, []Finding) {
	n := r.net.NumLinks()
	for i := 0; i < n; i++ {
		r.net.ReadLinkCounters(i, &r.scratch)
		for d := 0; d < 2; d++ {
			lc := &r.scratch[d]
			r.snap.Dirs[2*i+d] = DirSample{
				FwdBytes:   lc.FwdBytes,
				FwdCells:   lc.FwdCells,
				Drops:      lc.Drops,
				QueueBytes: uint64(lc.QueueBytes),
				Up:         lc.Up,
			}
		}
	}
	for fa := range r.snap.Sinks {
		c, b := r.sinks(fa)
		r.snap.Sinks[fa] = SinkSample{Cells: c, Bytes: b}
	}
	r.snap.T = at
	var err error
	if r.emit != nil && r.err == nil {
		err = r.emit.Emit(&r.snap)
	}
	r.found = r.found[:0]
	if len(r.analyzers) > 0 {
		r.analyze(at)
	}

	r.mu.Lock()
	if err != nil {
		r.err = err
		r.stats.Err = err.Error()
	}
	r.stats.Windows++
	if r.emit != nil {
		r.stats.Bytes = r.emit.W.Bytes
	}
	r.stats.LastT = at
	if r.log != nil {
		r.stats.Findings = r.log.Total()
	}
	r.mu.Unlock()
	return &r.snap, r.found
}

// analyze feeds the freshly captured window to the online analyzers.
func (r *Recorder) analyze(at sim.Time) {
	v := &r.view
	v.Index = r.index
	v.T = at
	for d := range r.snap.Dirs {
		cur, old := &r.snap.Dirs[d], &r.prev.Dirs[d]
		v.DFwdBytes[d] = cur.FwdBytes - old.FwdBytes
		v.DFwdCells[d] = cur.FwdCells - old.FwdCells
		v.DDrops[d] = cur.Drops - old.Drops
		v.QueueBytes[d] = cur.QueueBytes
		v.Up[d] = cur.Up
	}
	for f := range r.snap.Sinks {
		cur, old := &r.snap.Sinks[f], &r.prev.Sinks[f]
		v.DSinkCells[f] = cur.Cells - old.Cells
		v.DSinkBytes[f] = cur.Bytes - old.Bytes
	}
	copy(r.prev.Dirs, r.snap.Dirs)
	copy(r.prev.Sinks, r.snap.Sinks)
	r.index++
	for _, a := range r.analyzers {
		r.found = append(r.found, a.Window(v)...)
	}
	r.log.Append(r.found...)
}

// Stats snapshots the recorder's counters.
func (r *Recorder) Stats() RecorderStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Err returns the latched stream error, if any.
func (r *Recorder) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

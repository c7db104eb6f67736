package telemetry

import (
	"bytes"
	"fmt"
	"io"

	"stardust/internal/sim"
)

// Divergence is the recorded-vs-replayed comparison report. Zero
// divergence means every window's counter deltas match exactly; byte
// identity is the stronger (and expected, for an unchanged replay)
// condition. Every field is folded in as the two streams are read, one
// window of each at a time: building the report costs memory for one
// window per stream, not for the streams' windows.
type Divergence struct {
	ByteIdentical bool `json:"byte_identical"`
	ShapeMatch    bool `json:"shape_match"` // same dirs/FAs; false for what-if runs that changed K
	Zero          bool `json:"zero"`        // no counter divergence at all

	RecordedWindows int `json:"recorded_windows"`
	ReplayedWindows int `json:"replayed_windows"`
	ComparedWindows int `json:"compared_windows"`

	DivergentWindows     int      `json:"divergent_windows"`
	FirstDivergentWindow int      `json:"first_divergent_window"` // -1 when none
	FirstDivergentT      sim.Time `json:"first_divergent_t_ps"`
	DirsDiverged         int      `json:"dirs_diverged"` // dirs that differed in any window
	MaxCellDelta         uint64   `json:"max_cell_delta"`
	MaxDropDelta         uint64   `json:"max_drop_delta"`

	RecordedCells uint64 `json:"recorded_cells"` // total delivered (sink) cells
	ReplayedCells uint64 `json:"replayed_cells"`
	RecordedDrops uint64 `json:"recorded_drops"`
	ReplayedDrops uint64 `json:"replayed_drops"`
}

// String renders the one-line verdict.
func (d *Divergence) String() string {
	switch {
	case d.ByteIdentical:
		return fmt.Sprintf("byte-identical (%d windows)", d.RecordedWindows)
	case d.Zero && d.ShapeMatch:
		return fmt.Sprintf("zero divergence over %d windows (streams differ only in header)", d.ComparedWindows)
	case !d.ShapeMatch:
		return fmt.Sprintf("shape change: cells %d -> %d, drops %d -> %d",
			d.RecordedCells, d.ReplayedCells, d.RecordedDrops, d.ReplayedDrops)
	default:
		return fmt.Sprintf("diverged in %d/%d windows (first at window %d, t=%dps), %d dirs, max cell delta %d",
			d.DivergentWindows, d.ComparedWindows, d.FirstDivergentWindow, d.FirstDivergentT, d.DirsDiverged, d.MaxCellDelta)
	}
}

func absDelta(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// side is one stream of a comparison: its reader, its header and the
// totals of the windows read so far.
type side struct {
	sr           *Reader
	hdr          StreamHeader
	windows      int
	cells, drops uint64
	err          error // what ended the stream, nil for a clean end
	done         bool
}

func openSide(stream []byte) *side {
	s := &side{sr: NewReader(bytes.NewReader(stream))}
	s.hdr, s.err = s.sr.Header()
	s.done = s.err != nil
	return s
}

// next returns the stream's next window, its totals already summed, or nil
// once the stream has ended (err says how). The window is the reader's:
// it is valid until the next call.
func (s *side) next() *Window {
	for !s.done {
		win, _, err := s.sr.Next()
		if err != nil {
			s.done = true
			if err != io.EOF {
				s.err = err
			}
			return nil
		}
		if win == nil {
			continue // an event record
		}
		s.windows++
		for _, c := range win.DSinkCells {
			s.cells += c
		}
		for _, d := range win.DDrops {
			s.drops += d
		}
		return win
	}
	return nil
}

// drain reads the rest of the stream into its totals.
func (s *side) drain() {
	for s.next() != nil {
	}
}

// Compare diffs a recorded stream against a replayed one, window by
// window. Streams with different shapes (a what-if replay that changed
// K) are compared on aggregate totals only. The two streams are read in
// lockstep, each window compared while it is its reader's current one,
// so beyond the two byte slices Compare holds one decoded window per
// stream, whatever their length. A corrupt recorded stream is reported
// as such even when the replayed one is corrupt too.
func Compare(recorded, replayed []byte) (*Divergence, error) {
	d := &Divergence{FirstDivergentWindow: -1, ByteIdentical: bytes.Equal(recorded, replayed)}
	rec := openSide(recorded)
	if rec.err != nil {
		return nil, fmt.Errorf("telemetry: recorded stream: %w", rec.err)
	}
	rep := openSide(replayed)
	d.ShapeMatch = rec.hdr.Dirs == rep.hdr.Dirs && rec.hdr.FAs == rep.hdr.FAs
	var diverged []bool // built with the first compared window, which proves the header's dims
	for {
		a, b := rec.next(), rep.next()
		if a == nil || b == nil {
			break
		}
		if !d.ShapeMatch {
			continue
		}
		if diverged == nil {
			diverged = make([]bool, rec.hdr.Dirs)
		}
		d.compareWindow(a, b, diverged)
		d.ComparedWindows++
	}
	rec.drain()
	if rec.err != nil {
		return nil, fmt.Errorf("telemetry: recorded stream: %w", rec.err)
	}
	rep.drain()
	if rep.err != nil {
		return nil, fmt.Errorf("telemetry: replayed stream: %w", rep.err)
	}
	d.RecordedWindows, d.ReplayedWindows = rec.windows, rep.windows
	d.RecordedCells, d.RecordedDrops = rec.cells, rec.drops
	d.ReplayedCells, d.ReplayedDrops = rep.cells, rep.drops
	if !d.ShapeMatch {
		return d, nil
	}
	for _, v := range diverged {
		if v {
			d.DirsDiverged++
		}
	}
	d.Zero = d.DivergentWindows == 0 && rec.windows == rep.windows
	return d, nil
}

// compareWindow folds window number d.ComparedWindows of two streams of
// the same shape into d, marking the dirs that differ in diverged.
func (d *Divergence) compareWindow(a, b *Window, diverged []bool) {
	bad := false
	for dir := range diverged {
		dc := absDelta(a.DFwdCells[dir], b.DFwdCells[dir])
		dd := absDelta(a.DDrops[dir], b.DDrops[dir])
		if dc == 0 && dd == 0 && a.DFwdBytes[dir] == b.DFwdBytes[dir] {
			continue
		}
		bad = true
		diverged[dir] = true
		d.MaxCellDelta = max(d.MaxCellDelta, dc)
		d.MaxDropDelta = max(d.MaxDropDelta, dd)
	}
	for fa := range a.DSinkCells {
		if a.DSinkCells[fa] != b.DSinkCells[fa] || a.DSinkBytes[fa] != b.DSinkBytes[fa] {
			bad = true
		}
	}
	if bad {
		d.DivergentWindows++
		if d.FirstDivergentWindow < 0 {
			d.FirstDivergentWindow = d.ComparedWindows
			d.FirstDivergentT = a.T
		}
	}
}

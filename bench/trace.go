package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer's public API.
// Spans of one repetition share (Workload, Rep); Parent is the ID of the
// span that caused this one (0 = a root).
type Span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	StartNs  int64  `json:"start_ns"` // since the recorder was created
	EndNs    int64  `json:"end_ns"`
}

// Recorder keeps spans in memory; they are written out when the run
// ends. A nil *Recorder records nothing, so workloads call it
// unconditionally and the untraced pass pays one nil check per call.
type Recorder struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	spans []Span
}

func newRecorder(workload string) *Recorder {
	return &Recorder{workload: workload, t0: time.Now()}
}

// Start opens a span and returns its ID (0 on a nil recorder).
func (r *Recorder) Start(name string, parent, rep int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, Workload: r.workload, Rep: rep, StartNs: now})
	r.mu.Unlock()
	return id
}

// End closes the span opened by Start.
func (r *Recorder) End(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].EndNs = now
	r.mu.Unlock()
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover. Children may overlap (two
// HTTP clients under one phase span), so the cover is the union of the
// child intervals clipped to the parent.
func selfTimes(spans []Span) map[int]int64 {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		var covered int64
		edge := s.StartNs // everything before edge is already counted
		for _, k := range kids {
			lo, hi := max(k.StartNs, edge), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.EndNs - s.StartNs - covered
	}
	return self
}

// spanMedianMs returns the median duration, in milliseconds, of the
// spans called name (0 when there are none).
func spanMedianMs(spans []Span, name string) float64 {
	var d []float64
	for _, s := range spans {
		if s.Name == name {
			d = append(d, float64(s.EndNs-s.StartNs)/1e6)
		}
	}
	return median(d)
}

// writeSpans appends nothing and replaces path with the JSON span list.
func writeSpans(path string, spans []Span) error {
	blob, err := json.Marshal(spans)
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

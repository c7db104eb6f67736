package telemetry

import (
	"fmt"
	"io"
	"sync"
)

// Histogram is a fixed-bucket concurrent histogram in the Prometheus
// style: Bounds are upper bucket edges, observations above the last
// bound land in the implicit +Inf bucket.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []uint64 // len(bounds)+1, last is +Inf
	sum    float64
	n      uint64
}

// NewHistogram builds a histogram with the given ascending upper bounds.
func NewHistogram(bounds ...float64) *Histogram {
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
}

// ExpBuckets returns n bounds starting at start, each factor× the last —
// the usual latency/byte-size ladder.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.n++
	h.mu.Unlock()
}

// Merge adds observations that were bucketed elsewhere against the same
// bounds: counts is per bucket (+Inf last), sum their total. It reports
// false, and adds nothing, when the bucket count does not match.
func (h *Histogram) Merge(counts []uint64, sum float64) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(counts) != len(h.counts) {
		return false
	}
	for i, c := range counts {
		h.counts[i] += c
		h.n += c
	}
	h.sum += sum
	return true
}

// HistSnapshot is a point-in-time copy of a histogram.
type HistSnapshot struct {
	Bounds []float64
	Counts []uint64 // per-bucket (not cumulative), last is +Inf
	Sum    float64
	Count  uint64
}

// Snapshot copies the histogram state.
func (h *Histogram) Snapshot() HistSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]uint64(nil), h.counts...),
		Sum:    h.sum,
		Count:  h.n,
	}
}

// WriteProm renders the snapshot as a Prometheus text-format histogram
// family (cumulative le buckets, _sum, _count).
func WriteProm(w io.Writer, name, help string, s HistSnapshot) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var cum uint64
	for i, b := range s.Bounds {
		cum += s.Counts[i]
		fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, b, cum)
	}
	if len(s.Counts) > 0 {
		cum += s.Counts[len(s.Counts)-1]
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", name, s.Sum)
	fmt.Fprintf(w, "%s_count %d\n", name, s.Count)
}

// Record / Replay: the digital-twin seam. Record runs a Spec while
// exporting the canonical STREC1 telemetry stream; Replay re-drives the
// fabric from a recorded stream's embedded spec (with what-if overrides)
// and reports the divergence between the recorded and replayed counters.
// An unchanged replay of a deterministic model reproduces the stream
// byte for byte — any divergence is exactly the effect of the overrides.
package distsim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"stardust/internal/sim"
	"stardust/internal/telemetry"
)

// streamHeaderFor builds the stream header for spec. The embedded spec
// has its shard count zeroed: sharding (and process placement) must
// never influence the stream, and the header is part of the stream.
func streamHeaderFor(spec Spec, m *Model, every sim.Time) (telemetry.StreamHeader, error) {
	ps := spec
	ps.Shards = 0
	raw, err := json.Marshal(ps)
	if err != nil {
		return telemetry.StreamHeader{}, err
	}
	return telemetry.StreamHeader{
		Format:   telemetry.Format,
		Dirs:     2 * m.Net.NumLinks(),
		FAs:      m.Net.NumFA(),
		Topo:     m.Graph.Spec(),
		K:        spec.K,
		Seed:     spec.Seed,
		ScrapePs: every,
		Spec:     raw,
	}, nil
}

// Record executes spec in this process (goroutine-sharded) while
// exporting its telemetry stream to out. Spec.Telem must be positive.
// The stream is a pure function of the spec minus its shard count: any
// Shards value, and any peer placement under Serve with a Stream sink,
// produces identical bytes.
func Record(spec Spec, out io.Writer) (Outcome, error) {
	if spec.Telem <= 0 {
		return Outcome{}, fmt.Errorf("distsim: Record needs Spec.Telem > 0")
	}
	m, err := NewModel(spec)
	if err != nil {
		return Outcome{}, err
	}
	every := spec.telemEvery(m.Eng.Lookahead())
	hdr, err := streamHeaderFor(spec, m, every)
	if err != nil {
		return Outcome{}, err
	}
	w, err := telemetry.NewWriter(out, hdr)
	if err != nil {
		return Outcome{}, err
	}
	rec := telemetry.NewRecorder(w, m.Net, m.Net.DeliveredTo, every)
	rec.AttachEngine(m.Eng)
	outc, err := m.RunLocal()
	if err != nil {
		return outc, err
	}
	if rerr := rec.Err(); rerr != nil {
		return outc, fmt.Errorf("distsim: telemetry stream: %w", rerr)
	}
	return outc, nil
}

// Overrides are the what-if knobs of a replay: zero values keep the
// recorded spec's parameters. Shards only changes how the replay
// executes (never the stream); everything else changes the simulated
// world and shows up in the divergence report.
type Overrides struct {
	Shards    int      `json:"shards,omitempty"`
	K         int      `json:"k,omitempty"`
	Seed      int64    `json:"seed,omitempty"`
	Load      float64  `json:"load,omitempty"`
	Hotspot   float64  `json:"hotspot,omitempty"`
	FailLinks []int    `json:"fail_links,omitempty"`
	FailAt    sim.Time `json:"fail_at_ps,omitempty"`
	HealAt    sim.Time `json:"heal_at_ps,omitempty"`
}

// apply folds the overrides into spec.
func (o Overrides) apply(spec Spec) Spec {
	if o.Shards > 0 {
		spec.Shards = o.Shards
	}
	if o.K > 0 {
		spec.K = o.K
	}
	if o.Seed != 0 {
		spec.Seed = o.Seed
	}
	if o.Load > 0 {
		spec.Load = o.Load
	}
	if o.Hotspot > 0 {
		spec.Hotspot = o.Hotspot
	}
	if len(o.FailLinks) > 0 {
		spec.FailLinks = append(spec.FailLinks, o.FailLinks...)
		at := o.FailAt
		if at <= 0 {
			at = spec.Dur / 4 // default: fail mid-traffic so the effect is visible
		}
		spec.FailAt = at
		if o.HealAt > 0 {
			spec.HealAt = o.HealAt
		}
	}
	return spec
}

// SpecOf extracts the recorded spec embedded in a stream.
func SpecOf(stream []byte) (Spec, error) {
	hdr, err := telemetry.NewReader(bytes.NewReader(stream)).Header()
	if err != nil {
		return Spec{}, err
	}
	if len(hdr.Spec) == 0 {
		return Spec{}, fmt.Errorf("distsim: stream carries no spec; cannot replay")
	}
	var spec Spec
	if err := json.Unmarshal(hdr.Spec, &spec); err != nil {
		return Spec{}, fmt.Errorf("distsim: bad spec in stream header: %w", err)
	}
	return spec, nil
}

// Replay re-drives the fabric from a recorded stream: rebuild the world
// from the embedded spec with overrides applied, re-record it, and diff
// the two streams. Returns the divergence report, the replayed run's
// outcome, and the replayed stream (for chained what-ifs). The twin's
// buffer is sized once, to the recorded stream: an unchanged replay
// writes exactly that many bytes and a what-if about as many. The
// comparison holds one window of each stream.
func Replay(stream []byte, ov Overrides) (*telemetry.Divergence, Outcome, []byte, error) {
	spec, err := SpecOf(stream)
	if err != nil {
		return nil, Outcome{}, nil, err
	}
	spec = ov.apply(spec)
	if spec.Shards < 1 {
		spec.Shards = 1
	}
	var buf bytes.Buffer
	buf.Grow(len(stream))
	outc, err := Record(spec, &buf)
	if err != nil {
		return nil, outc, nil, err
	}
	div, err := telemetry.Compare(stream, buf.Bytes())
	if err != nil {
		return nil, outc, buf.Bytes(), err
	}
	return div, outc, buf.Bytes(), nil
}

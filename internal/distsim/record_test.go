package distsim

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"stardust/internal/sim"
	"stardust/internal/telemetry"
)

// telemSpec is the standard recording workload for these tests: the small
// hotspot spec with a 20us scrape window.
func telemSpec(shards int) Spec {
	s := smallSpec(shards)
	s.Telem = 20 * sim.Microsecond
	return s
}

// recordBytes runs Record and returns the stream.
func recordBytes(t *testing.T, spec Spec) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := Record(spec, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRecordRequiresTelem(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Record(smallSpec(1), &buf); err == nil {
		t.Fatal("Record accepted a spec with Telem=0")
	}
}

// TestRecordShardInvariance is the core determinism claim of the stream
// format: the recorded bytes are a pure function of the spec minus its
// shard count. Identical streams at 1, 2 and 4 shards, with a sane
// self-describing header.
func TestRecordShardInvariance(t *testing.T) {
	var streams [][]byte
	for _, shards := range []int{1, 2, 4} {
		streams = append(streams, recordBytes(t, telemSpec(shards)))
	}
	for i := 1; i < len(streams); i++ {
		if !bytes.Equal(streams[0], streams[i]) {
			t.Fatalf("stream at %d shards differs from 1 shard (%d vs %d bytes)",
				[]int{1, 2, 4}[i], len(streams[i]), len(streams[0]))
		}
	}

	hdr, err := telemetry.NewReader(bytes.NewReader(streams[0])).Header()
	if err != nil {
		t.Fatal(err)
	}
	if hdr.K != 4 || hdr.Seed != 7 || hdr.Dirs == 0 || hdr.FAs == 0 {
		t.Fatalf("header does not describe the run: %+v", hdr)
	}
	spec, err := SpecOf(streams[0])
	if err != nil {
		t.Fatal(err)
	}
	if spec.Shards != 0 {
		t.Fatalf("embedded spec leaks the shard count: %d", spec.Shards)
	}
	if spec.K != 4 || spec.Seed != 7 || spec.Telem != 20*sim.Microsecond {
		t.Fatalf("embedded spec mangled: %+v", spec)
	}
}

// goldenStreamSHA256 pins the telemetry stream to history the way
// golden_digests.json pins the end-of-run digest: it is the SHA-256 of
// the STREC1 bytes `stardust -seed 7 trace/record k=4` writes
// (telemSpec is that spec), which carry every link direction's FwdBytes
// delta and queue occupancy at each 20us scrape barrier — mid-run reads
// the digest never sees. It may only change in a PR that says why, old ->
// new, in CHANGES.md.
const goldenStreamSHA256 = "8c41db358b4429770f9c32798ae96f0139ecf1128fbbf16f109499aceb2ae10c"

func TestGoldenStream(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		sum := sha256.Sum256(recordBytes(t, telemSpec(shards)))
		if got := fmt.Sprintf("%x", sum); got != goldenStreamSHA256 {
			t.Errorf("shards=%d: stream sha256 %s, recorded %s", shards, got, goldenStreamSHA256)
		}
	}
}

// An unchanged replay of a recorded stream must reproduce it byte for
// byte — the digital twin's zero-divergence baseline.
func TestReplayUnchangedIsByteIdentical(t *testing.T) {
	stream := recordBytes(t, telemSpec(1))
	div, _, replayed, err := Replay(stream, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	if !div.ByteIdentical || !div.Zero {
		t.Fatalf("unchanged replay diverged: %s", div)
	}
	if !bytes.Equal(stream, replayed) {
		t.Fatal("replayed stream bytes differ despite ByteIdentical report")
	}
	// Shards is an execution knob, not a world knob: replaying sharded
	// must still be byte-identical.
	div2, _, _, err := Replay(stream, Overrides{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !div2.ByteIdentical {
		t.Fatalf("sharded replay changed the stream: %s", div2)
	}
}

// A what-if replay that injects a failure must diverge, and the report
// must localize the divergence.
func TestReplayWhatIfFailureDiverges(t *testing.T) {
	stream := recordBytes(t, telemSpec(1))
	div, _, _, err := Replay(stream, Overrides{FailLinks: []int{0}, FailAt: 50 * sim.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if div.ByteIdentical || div.Zero {
		t.Fatalf("failing a link produced no divergence: %s", div)
	}
	if !div.ShapeMatch {
		t.Fatalf("same-K what-if lost shape match: %s", div)
	}
	if div.DivergentWindows == 0 || div.FirstDivergentWindow < 0 || div.DirsDiverged == 0 {
		t.Fatalf("divergence not localized: %+v", div)
	}
	// The failure lands at 50us; windows before it are identical, so the
	// first divergent window cannot be window 0 (first scrape at 20us).
	if div.FirstDivergentWindow == 0 {
		t.Fatalf("divergence before the injected failure: %+v", div)
	}
}

func TestReplayRejectsSpeclessStream(t *testing.T) {
	var buf bytes.Buffer
	w, err := telemetry.NewWriter(&buf, telemetry.StreamHeader{Dirs: 2, FAs: 1, ScrapePs: sim.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	_ = w
	if _, _, _, err := Replay(buf.Bytes(), Overrides{}); err == nil ||
		!strings.Contains(err.Error(), "no spec") {
		t.Fatalf("spec-less stream accepted for replay: %v", err)
	}
}

// The recorded stream feeds the offline analyzer pipeline: the hotspot
// workload must yield findings without errors.
func TestRecordedStreamAnalyzes(t *testing.T) {
	spec := telemSpec(1)
	spec.FailN = 1
	spec.FailAt = 80 * sim.Microsecond
	stream := recordBytes(t, spec)
	findings, err := telemetry.Analyze(bytes.NewReader(stream), nil, telemetry.DefaultAnalyzers()...)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) == 0 {
		t.Fatal("analyzers silent over a hotspot run with a link failure")
	}
}

// TestDistStreamMatchesLocal closes the loop across process placements: a
// coordinator with two in-process peers must emit the exact bytes the
// local goroutine-sharded run produces, while accounting the run in
// CoordStats.
func TestDistStreamMatchesLocal(t *testing.T) {
	spec := healSpec(4)
	spec.Telem = 20 * sim.Microsecond

	var local bytes.Buffer
	if _, err := Record(spec, &local); err != nil {
		t.Fatal(err)
	}

	var dist bytes.Buffer
	stats := NewCoordStats()
	if _, err := serveWith(t, spec, 2, CoordConfig{Stream: &dist, Stats: stats}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(local.Bytes(), dist.Bytes()) {
		t.Fatalf("distributed stream differs from local (%d vs %d bytes)",
			dist.Len(), local.Len())
	}

	snap := stats.Snapshot()
	if snap.Runs != 1 || snap.Windows == 0 || snap.TelemetryWindows == 0 {
		t.Fatalf("coordinator stats missed the run: %+v", snap)
	}
	if snap.WireBytes == 0 || snap.MailFrames == 0 {
		t.Fatalf("wire accounting empty: %+v", snap)
	}
	if snap.BarrierLatency.Count == 0 || snap.WindowMailBytes.Count == 0 {
		t.Fatalf("histograms never observed: barrier=%d mail=%d",
			snap.BarrierLatency.Count, snap.WindowMailBytes.Count)
	}
}

package telemetry

import (
	"bytes"
	"io"
	"testing"

	"stardust/internal/fabric"
	"stardust/internal/netsim"
	"stardust/internal/sim"
	"stardust/internal/topo"
)

// TestEmitterEventSemantics pins the prime rule: the first window sets
// the link-state baseline, but a link already down at the first scrape IS
// an event (the recorder did not see it go down, the consumer still must).
func TestEmitterEventSemantics(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, StreamHeader{Dirs: 4, FAs: 0, ScrapePs: sim.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEmitter(w)
	snap := Snapshot{Dirs: make([]DirSample, 4)}
	up := func(states ...bool) {
		for lk, s := range states {
			snap.Dirs[2*lk].Up = s
			snap.Dirs[2*lk+1].Up = s
		}
	}
	up(true, false) // link 1 already down at first scrape
	snap.T = sim.Microsecond
	if err := e.Emit(&snap); err != nil {
		t.Fatal(err)
	}
	up(false, false) // link 0 goes down
	snap.T = 2 * sim.Microsecond
	if err := e.Emit(&snap); err != nil {
		t.Fatal(err)
	}
	up(true, true) // both recover
	snap.T = 3 * sim.Microsecond
	if err := e.Emit(&snap); err != nil {
		t.Fatal(err)
	}

	sr := NewReader(bytes.NewReader(buf.Bytes()))
	type evt struct {
		kind byte
		link int
		t    sim.Time
	}
	var evs []evt
	wins := 0
	for {
		win, ev, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if win != nil {
			wins++
			continue
		}
		evs = append(evs, evt{ev.Kind, ev.Link, ev.T})
	}
	want := []evt{
		{EvLinkDown, 1, sim.Microsecond},
		{EvLinkDown, 0, 2 * sim.Microsecond},
		{EvLinkUp, 0, 3 * sim.Microsecond},
		{EvLinkUp, 1, 3 * sim.Microsecond},
	}
	if wins != 3 || len(evs) != len(want) {
		t.Fatalf("%d windows, events %v", wins, evs)
	}
	for i := range want {
		if evs[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, evs[i], want[i])
		}
	}
}

// liveFabric builds a small loaded fabric for recorder tests.
func liveFabric(t *testing.T) (*sim.Simulator, *fabric.Net) {
	t.Helper()
	cl, err := fabric.ClosFor(4)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New()
	fab, err := fabric.New(s, fabric.DefaultConfig(10e9, sim.Microsecond, 1), cl)
	if err != nil {
		t.Fatal(err)
	}
	for fa := 0; fa < cl.NumFA; fa++ {
		fa := fa
		var inject func()
		inject = func() {
			c := netsim.NewPacket()
			c.Size = 512
			fab.Inject(c, fa, (fa+1)%cl.NumFA)
			s.After(2*sim.Microsecond, inject)
		}
		s.At(0, inject)
	}
	return s, fab
}

// TestRecorderOnSoloSim drives the unsharded path end to end: AttachSim
// scrapes on period, the stream decodes, counters are monotonic, online
// analyzers feed the finding log, and stats reflect all of it.
func TestRecorderOnSoloSim(t *testing.T) {
	s, fab := liveFabric(t)
	hdr := StreamHeader{Dirs: 2 * fab.NumLinks(), FAs: 0, K: 4, ScrapePs: 100 * sim.Microsecond}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, hdr)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(w, fab, nil, 100*sim.Microsecond)
	log := rec.Observe(MetaFor(fab.Topo.(*topo.Clos)), DefaultAnalyzers()...)
	rec.AttachSim(s)

	// Isolate FA0 mid-run: a reachability hole the online analyzers must
	// flag, and down events the stream must carry.
	var failed []int
	for i, lk := range fab.Topo.(*topo.Clos).Links {
		if lk.A.Kind == topo.KindFA && lk.A.Index == 0 {
			failed = append(failed, i)
		}
	}
	s.At(250*sim.Microsecond, func() {
		for _, i := range failed {
			fab.FailLink(i)
		}
	})
	s.RunUntil(sim.Millisecond)

	st := rec.Stats()
	if st.Windows < 9 || st.Bytes == 0 || st.LastT == 0 {
		t.Fatalf("recorder stats idle: %+v", st)
	}
	if rec.Err() != nil {
		t.Fatal(rec.Err())
	}

	// The stream must decode cleanly, carry traffic, and include the
	// link-0 down event.
	sr := NewReader(bytes.NewReader(buf.Bytes()))
	var cells uint64
	sawDown := false
	for {
		win, ev, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if ev != nil {
			if ev.Kind == EvLinkDown && ev.Link == failed[0] {
				sawDown = true
			}
			continue
		}
		for _, c := range win.DFwdCells {
			cells += c
		}
	}
	if cells == 0 {
		t.Fatal("recorded stream carries no traffic")
	}
	if !sawDown {
		t.Fatal("link failure missing from the stream")
	}
	if log.Total() == 0 || st.Findings != log.Total() {
		t.Fatalf("online analyzers silent: log=%d stats=%d", log.Total(), st.Findings)
	}
}

// TestRecorderLatchesWriteError: a full stream buffer stops the recorder
// at the first failed write, surfaces in Stats, and further captures are
// no-ops instead of corrupting the tail.
func TestRecorderLatchesWriteError(t *testing.T) {
	s, fab := liveFabric(t)
	sink := NewBuffer(512) // fits the header, not the windows
	w, err := NewWriter(sink, StreamHeader{Dirs: 2 * fab.NumLinks(), FAs: 0, ScrapePs: 50 * sim.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(w, fab, nil, 50*sim.Microsecond)
	rec.AttachSim(s)
	s.RunUntil(sim.Millisecond)

	if rec.Err() != ErrStreamFull {
		t.Fatalf("latched error = %v, want ErrStreamFull", rec.Err())
	}
	st := rec.Stats()
	if st.Err == "" {
		t.Fatalf("stats hide the error: %+v", st)
	}
	if !sink.Truncated() {
		t.Fatal("buffer never refused a write")
	}
	wins := st.Windows
	rec.Capture(2 * sim.Millisecond)
	if rec.Stats().Windows != wins {
		t.Fatal("capture after latched error still wrote")
	}
}

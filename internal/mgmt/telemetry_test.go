package mgmt

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"stardust/internal/distsim"
	"stardust/internal/sim"
	"stardust/internal/telemetry"
)

// TestBusStatsAccountsEveryLossPath pins the fix for the silently lossy
// event bus: fan-out drops are counted in total and per subscriber, ring
// evictions are counted, and unsubscribe drops the per-subscriber entry.
func TestBusStatsAccountsEveryLossPath(t *testing.T) {
	b := NewBus(4)
	_, cancel := b.Subscribe(2) // never drained: capacity 2, then drops
	for i := 0; i < 10; i++ {
		b.Publish(Event{Kind: EventLinkDown, Link: i})
	}
	st := b.Stats()
	if st.Published != 10 || st.Retained != 4 || st.Capacity != 4 {
		t.Fatalf("ring accounting wrong: %+v", st)
	}
	if st.Evicted != 6 {
		t.Fatalf("evicted = %d, want 6", st.Evicted)
	}
	if st.Dropped != 8 || st.Subscribers != 1 {
		t.Fatalf("fan-out loss accounting wrong: %+v", st)
	}
	if len(st.PerSubscriber) != 1 {
		t.Fatalf("per-subscriber map: %+v", st.PerSubscriber)
	}
	for _, n := range st.PerSubscriber {
		if n != 8 {
			t.Fatalf("per-subscriber drops = %d, want 8", n)
		}
	}
	cancel()
	st = b.Stats()
	if st.Subscribers != 0 || len(st.PerSubscriber) != 0 {
		t.Fatalf("cancel left state behind: %+v", st)
	}
	// The totals survive the unsubscribe.
	if st.Dropped != 8 || st.Evicted != 6 {
		t.Fatalf("totals reset on cancel: %+v", st)
	}
}

// telemDaemon builds a daemon whose fabric records a STREC1 stream, with
// some simulated time already on the clock.
func telemDaemon(t *testing.T) (*httptest.Server, *FabricRun) {
	t.Helper()
	fr, err := NewFabricRun(FabricRunConfig{
		K: 4, Load: 0.3, Seed: 1,
		Telem:      100 * sim.Microsecond,
		TelemCap:   1 << 20,
		Controller: Config{ScrapeEvery: 500 * sim.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		fr.Advance(sim.Millisecond)
	}
	q := NewRunQueue(2, 1, 1)
	t.Cleanup(q.Shutdown)
	ts := httptest.NewServer(NewServer(q, fr))
	t.Cleanup(ts.Close)
	return ts, fr
}

func TestTelemetryStreamDownload(t *testing.T) {
	ts, fr := telemDaemon(t)
	if fr.Rec == nil || fr.TelemBuf == nil {
		t.Fatal("fabric run did not build the recorder")
	}
	resp, err := http.Get(ts.URL + "/api/v1/telemetry/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("content type %q", ct)
	}
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	sr := telemetry.NewReader(bytes.NewReader(blob))
	hdr, err := sr.Header()
	if err != nil {
		t.Fatal(err)
	}
	if hdr.K != 4 || hdr.ScrapePs != 100*sim.Microsecond {
		t.Fatalf("live stream header wrong: %+v", hdr)
	}
	wins := 0
	for {
		win, _, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if win != nil {
			wins++
		}
	}
	// 3ms at a 100us scrape period: ~30 windows.
	if wins < 25 {
		t.Fatalf("only %d windows after 3ms", wins)
	}

	// The findings endpoint pages the same run's analyzer output.
	var page struct {
		Total    uint64              `json:"total"`
		Next     uint64              `json:"next"`
		Findings []telemetry.Finding `json:"findings"`
	}
	getJSON(t, ts.URL+"/api/v1/telemetry/findings?max=5", &page)
	if len(page.Findings) > 5 {
		t.Fatalf("max ignored: %d findings", len(page.Findings))
	}

	// Recorder stats surface in the fabric info document.
	var info map[string]json.RawMessage
	getJSON(t, ts.URL+"/api/v1/fabric", &info)
	if _, ok := info["telemetry_stream"]; !ok {
		t.Fatal("fabric info lacks telemetry_stream")
	}
}

func TestTelemetryEndpointsNeedRecorder(t *testing.T) {
	ts, _, _ := newTestDaemon(t, true) // fabric without Telem
	for _, path := range []string{"/api/v1/telemetry/stream", "/api/v1/telemetry/findings"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s without recorder: status %d", path, resp.StatusCode)
		}
	}
}

// TestReplayEndpoint round-trips the digital twin over HTTP: a recorded
// spec-bearing stream replays with zero divergence; a what-if override
// diverges; an empty body is rejected with guidance.
func TestReplayEndpoint(t *testing.T) {
	ts, _, _ := newTestDaemon(t, false)
	spec := distsim.Spec{
		K: 4, Seed: 7, Shards: 1, Dur: 200 * sim.Microsecond,
		Load: 0.5, CellBytes: 512, Hotspot: 1, Telem: 20 * sim.Microsecond,
	}
	var stream bytes.Buffer
	if _, err := distsim.Record(spec, &stream); err != nil {
		t.Fatal(err)
	}

	post := func(url string, body []byte) (*http.Response, map[string]json.RawMessage) {
		t.Helper()
		resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var doc map[string]json.RawMessage
		blob, _ := io.ReadAll(resp.Body)
		json.Unmarshal(blob, &doc)
		return resp, doc
	}

	resp, doc := post(ts.URL+"/api/v1/replay", stream.Bytes())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replay status %d: %v", resp.StatusCode, doc)
	}
	var div telemetry.Divergence
	if err := json.Unmarshal(doc["divergence"], &div); err != nil {
		t.Fatal(err)
	}
	if !div.ByteIdentical || !div.Zero {
		t.Fatalf("unchanged replay diverged: %+v", div)
	}

	resp, doc = post(ts.URL+"/api/v1/replay?fail_link=0&fail_at_us=50", stream.Bytes())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("what-if status %d: %v", resp.StatusCode, doc)
	}
	if err := json.Unmarshal(doc["divergence"], &div); err != nil {
		t.Fatal(err)
	}
	if div.Zero || div.DivergentWindows == 0 {
		t.Fatalf("what-if failure did not diverge: %+v", div)
	}

	resp, err := http.Post(ts.URL+"/api/v1/replay", "application/octet-stream", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(blob), "trace/record") {
		t.Fatalf("empty replay body: status %d, %q", resp.StatusCode, blob)
	}
}

// The new observability surfaces: bus stats in /api/v1/events, distsim
// coordinator stats as JSON and on /metrics, telemetry families when a
// recorder is live.
func TestObservabilityMetricsFamilies(t *testing.T) {
	ts, _ := telemDaemon(t)

	var events struct {
		Bus BusStats `json:"bus"`
	}
	getJSON(t, ts.URL+"/api/v1/fabric/events?max=1", &events)
	if events.Bus.Capacity == 0 {
		t.Fatal("events document lacks bus stats")
	}

	var ds struct {
		Coord distsim.CoordStatsSnapshot `json:"coord"`
	}
	getJSON(t, ts.URL+"/api/v1/distsim", &ds)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	body := string(blob)
	for _, family := range []string{
		"stardust_mgmt_events_dropped_total",
		"stardust_mgmt_events_evicted_total",
		"stardust_mgmt_event_subscribers",
		"stardust_distsim_runs_total",
		"stardust_distsim_barrier_seconds_bucket",
		"stardust_distsim_window_mail_bytes_bucket",
		"stardust_distsim_compression_ratio",
		"stardust_distsim_straggler",
		"stardust_telemetry_windows_total",
		"stardust_telemetry_stream_bytes",
		"stardust_telemetry_findings_total",
	} {
		if !strings.Contains(body, family) {
			t.Fatalf("/metrics lacks %s", family)
		}
	}
}

// TestDistsimPeerPollSurfaces: a distributed run this process coordinated
// shows, per peer, how its mesh reads waited — on /api/v1/distsim and as
// the stardust_distsim_peer_poll_* families on /metrics.
func TestDistsimPeerPollSurfaces(t *testing.T) {
	lis, err := distsim.Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	peers := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() { peers <- distsim.RunPeer(lis.Addr().String()) }()
	}
	spec := distsim.Spec{K: 4, Seed: 7, Shards: 2, Dur: 100 * sim.Microsecond, Load: 0.5, CellBytes: 512, Hotspot: 1}
	if _, err := distsim.Serve(lis, distsim.CoordConfig{Spec: spec, Peers: 2}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := <-peers; err != nil {
			t.Fatal(err)
		}
	}
	ts, _ := telemDaemon(t)

	var ds struct {
		Coord distsim.CoordStatsSnapshot `json:"coord"`
	}
	getJSON(t, ts.URL+"/api/v1/distsim", &ds)
	if len(ds.Coord.Peers) != 2 {
		t.Fatalf("/api/v1/distsim names %d peers after a 2-peer run", len(ds.Coord.Peers))
	}
	for _, p := range ds.Coord.Peers {
		// Every mesh read was ready or parked, and these small frames take
		// one a window (where sockets can only be read blocking, nothing is
		// counted).
		if reads := p.PollReady + p.Parks; reads == 0 && runtime.GOOS != "windows" || reads > 2*ds.Coord.Windows {
			t.Errorf("peer %d: %d ready + %d parked mesh reads over %d windows", p.Peer, p.PollReady, p.Parks, ds.Coord.Windows)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, series := range []string{
		`stardust_distsim_peer_poll_tries_total{peer="0"}`,
		`stardust_distsim_peer_poll_ready_total{peer="1"}`,
		`stardust_distsim_peer_poll_parks_total{peer="0"}`,
		"# TYPE stardust_distsim_peer_poll_links gauge",
		`stardust_distsim_peer_poll_links{peer="1"}`,
	} {
		if !strings.Contains(string(blob), series) {
			t.Errorf("/metrics lacks %s", series)
		}
	}
}

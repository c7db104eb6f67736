package experiments

import (
	"bytes"
	"strings"
	"testing"

	"stardust/internal/topo"
)

func TestWriteScalingOutputs(t *testing.T) {
	var b bytes.Buffer
	WriteFig2(&b)
	WriteTable2(&b, topo.Params{K: 8, T: 4, L: 2})
	WriteFig3(&b, nil)
	WriteFig8a(&b, 150e6, nil)
	WriteFig8b(&b, 150e6)
	WriteFig10d(&b)
	if err := WriteFig11(&b, []int{1000, 100000}); err != nil {
		t.Fatal(err)
	}
	WriteAppendixE(&b)
	out := b.String()
	for _, want := range []string{"Fig 2(a)", "Table 2", "Fig 3", "Fig 8(a)", "Fig 8(b)", "Fig 10(d)", "Fig 11(a)", "Appendix E", "652"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q", want)
		}
	}
}

func TestAristaScaled(t *testing.T) {
	if testing.Short() {
		t.Skip("arista system in -short mode")
	}
	cfg := ScaledArista()
	cfg.Duration = 150_000_000 // 150us in ps
	rows, err := Arista(cfg, []int{128, 384, 1024})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// §6.1.2: full line rate for 384B+ without packing; latency floor a
		// few microseconds, growing with packet size (store-and-forward).
		if r.PacketBytes >= 384 && r.LineRatePct < 95 {
			t.Fatalf("%dB: line rate %.1f%%", r.PacketBytes, r.LineRatePct)
		}
		if r.MinUs <= 0 || r.MaxUs < r.AvgUs || r.AvgUs < r.MinUs {
			t.Fatalf("latency stats inconsistent: %+v", r)
		}
	}
	// Store-and-forward: the latency floor grows with packet size
	// (§6.1.2: "minimum latency ... increases with packet size").
	if !(rows[2].MinUs > rows[0].MinUs) {
		t.Fatalf("store-and-forward latency floor must grow with size: %+v", rows)
	}
}

func TestRecoveryMatchesAppendixE(t *testing.T) {
	if testing.Short() {
		t.Skip("recovery sim in -short mode")
	}
	r, err := Recovery()
	if err != nil {
		t.Fatal(err)
	}
	// Local detection is bounded by th*interval plus one tick of slack.
	if r.LocalUs <= 0 || r.LocalUs > r.DetectUs+2*r.IntervalUs {
		t.Fatalf("local withdrawal %vus vs bound %vus", r.LocalUs, r.DetectUs)
	}
	// Fabric-wide propagation includes detection plus the advertisement
	// chain; it must exceed local detection and stay within the Appendix E
	// worst-case budget (with a tick of slack).
	if r.PropagatedUs < r.LocalUs {
		t.Fatalf("propagated (%vus) faster than local (%vus)", r.PropagatedUs, r.LocalUs)
	}
	if r.PropagatedUs > r.AnalyticUs+3*r.IntervalUs {
		t.Fatalf("propagated %vus exceeds Appendix E budget %vus", r.PropagatedUs, r.AnalyticUs)
	}
}

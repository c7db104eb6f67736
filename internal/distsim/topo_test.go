package distsim

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"stardust/internal/sim"
	"stardust/internal/telemetry"
)

// Cross-topology invariant suite: every topology family and traffic
// pattern the Spec can name must satisfy the same three contracts the
// Clos does — exact cell-fate accounting (injected = delivered + drops),
// a byte-identical digest at shard counts {1, 2, 4}, and zero
// unreachable pairs after a heal. These are the determinism and
// conservation claims of the sharded engine, verified per topology
// rather than assumed to transfer.

// topoSpec builds one short run of the given family and pattern.
func topoSpec(topoName, pattern string, shards int) Spec {
	return Spec{
		K: 4, Topo: topoName, Seed: 7, Shards: shards,
		Dur: 150 * sim.Microsecond, Load: 0.5, Pattern: pattern,
		CellBytes: 512, Hotspot: 1,
	}
}

var topoFamilies = []string{"clos", "sshuffle", "star"}

func TestTopoShardInvariance(t *testing.T) {
	for _, topoName := range topoFamilies {
		for _, pattern := range []string{"", "permutation", "incast"} {
			name := topoName + "/" + pattern
			if pattern == "" {
				name = topoName + "/rotate"
			}
			t.Run(name, func(t *testing.T) {
				ref := localOutcome(t, topoSpec(topoName, pattern, 1))
				if ref.Injected == 0 {
					t.Fatalf("%s %q injected no cells", topoName, pattern)
				}
				if leak := ref.Injected - ref.Delivered - ref.Drops; leak != 0 {
					t.Fatalf("%s %q: %d cells unaccounted for (injected %d, delivered %d, dropped %d)",
						topoName, pattern, leak, ref.Injected, ref.Delivered, ref.Drops)
				}
				for _, shards := range []int{2, 4} {
					got := localOutcome(t, topoSpec(topoName, pattern, shards))
					// ShardEvents and the cut legitimately vary with the
					// split; every other field is the determinism contract.
					got.ShardEvents, ref.ShardEvents = nil, nil
					got.Cut, ref.Cut = CutTraffic{}, CutTraffic{}
					got.Events, ref.Events = 0, 0
					if !reflect.DeepEqual(got, ref) {
						t.Fatalf("%s %q diverged at shards=%d:\n got %+v\nwant %+v",
							topoName, pattern, shards, got, ref)
					}
				}
			})
		}
	}
}

func TestTopoFailHealInvariants(t *testing.T) {
	for _, topoName := range topoFamilies {
		t.Run(topoName, func(t *testing.T) {
			mk := func(shards int) Spec {
				s := topoSpec(topoName, "", shards)
				s.FailN = 2
				s.FailAt = 50 * sim.Microsecond
				s.HealAt = 100 * sim.Microsecond
				return s
			}
			ref := localOutcome(t, mk(1))
			if leak := ref.Injected - ref.Delivered - ref.Drops; leak != 0 {
				t.Fatalf("%s fail/heal: %d cells unaccounted for", topoName, leak)
			}
			if ref.Unreachable != 0 {
				t.Fatalf("%s: %d unreachable pairs after heal", topoName, ref.Unreachable)
			}
			for _, shards := range []int{2, 4} {
				got := localOutcome(t, mk(shards))
				got.ShardEvents, ref.ShardEvents = nil, nil
				got.Cut, ref.Cut = CutTraffic{}, CutTraffic{}
				got.Events, ref.Events = 0, 0
				if !reflect.DeepEqual(got, ref) {
					t.Fatalf("%s fail/heal diverged at shards=%d:\n got %+v\nwant %+v",
						topoName, shards, got, ref)
				}
			}
		})
	}
}

// TestTopoDistributedMatchesLocal: the non-Clos families must survive the
// real coordinator/peer protocol too — same digest as in-process shards.
func TestTopoDistributedMatchesLocal(t *testing.T) {
	for _, topoName := range []string{"sshuffle", "star"} {
		t.Run(topoName, func(t *testing.T) {
			spec := topoSpec(topoName, "permutation", 4)
			want := localOutcome(t, spec)
			got, err := serveWith(t, spec, 2, CoordConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("distributed outcome diverged:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestTopoUnknownPattern: a bad pattern must fail model construction, not
// silently fall back to rotation.
func TestTopoUnknownPattern(t *testing.T) {
	if _, err := NewModel(topoSpec("clos", "elephant", 1)); err == nil {
		t.Fatal("NewModel accepted an unknown traffic pattern")
	}
	if _, err := NewModel(topoSpec("moebius", "", 1)); err == nil {
		t.Fatal("NewModel accepted an unknown topology family")
	}
}

// TestTopoSpecString: the canonical spec string survives the Spec — what
// the telemetry header and the distsim handshake embed.
func TestTopoSpecString(t *testing.T) {
	want := map[string]string{
		"clos":     "clos:k=4",
		"sshuffle": "sshuffle:n=8,s=3,seed=1",
		"star":     "star:m=4,d=2",
	}
	for _, topoName := range topoFamilies {
		m, err := NewModel(topoSpec(topoName, "", 1))
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Graph.Spec(); got != want[topoName] {
			t.Fatalf("%s: spec %q, want %q", topoName, got, want[topoName])
		}
	}
}

// TestTopoStreamRoundTrip: a telemetry stream recorded on any topology
// family must be shard-invariant byte-for-byte, carry the canonical
// topology spec in its header, and let MetaFromHeader rebuild the exact
// wiring — the bugfix for headers that only carried the Clos K.
func TestTopoStreamRoundTrip(t *testing.T) {
	for _, topoName := range topoFamilies {
		t.Run(topoName, func(t *testing.T) {
			mk := func(shards int) Spec {
				s := topoSpec(topoName, "", shards)
				s.Telem = 20 * sim.Microsecond
				return s
			}
			ref := recordBytes(t, mk(1))
			for _, shards := range []int{2, 4} {
				if got := recordBytes(t, mk(shards)); !bytes.Equal(got, ref) {
					t.Fatalf("%s stream at %d shards differs from 1 shard (%d vs %d bytes)",
						topoName, shards, len(got), len(ref))
				}
			}
			r := telemetry.NewReader(bytes.NewReader(ref))
			hdr, err := r.Header()
			if err != nil {
				t.Fatal(err)
			}
			m, err := NewModel(mk(1))
			if err != nil {
				t.Fatal(err)
			}
			if hdr.Topo != m.Graph.Spec() {
				t.Fatalf("%s header topo %q, want %q", topoName, hdr.Topo, m.Graph.Spec())
			}
			meta, err := telemetry.MetaFromHeader(hdr)
			if err != nil {
				t.Fatal(err)
			}
			if meta.Dirs != hdr.Dirs || meta.FAs != hdr.FAs {
				t.Fatalf("%s meta dims %d/%d do not match header %d/%d",
					topoName, meta.Dirs, meta.FAs, hdr.Dirs, hdr.FAs)
			}
			if len(meta.FAUplinks) != meta.FAs {
				t.Fatalf("%s meta groups %d uplink sets for %d edge devices",
					topoName, len(meta.FAUplinks), meta.FAs)
			}
			// The rebuilt wiring must label every direction.
			for d, name := range meta.DirNames {
				if name == "" {
					t.Fatalf("%s meta left dir %d unnamed", topoName, d)
				}
			}
		})
	}
}

// TestTopoStreamUnknownSpec: a header naming a topology this build cannot
// rebuild must fail loudly, never mislabel the data as a Clos.
func TestTopoStreamUnknownSpec(t *testing.T) {
	if _, err := telemetry.MetaFromHeader(telemetry.StreamHeader{
		Topo: "torus:x=4,y=4", Dirs: 8, FAs: 4,
	}); err == nil {
		t.Fatal("MetaFromHeader accepted an unknown topology spec")
	}
	// A spec that parses but disagrees with the stream dimensions is a
	// corrupt or mismatched stream, not something to analyze anyway.
	if _, err := telemetry.MetaFromHeader(telemetry.StreamHeader{
		Topo: "clos:k=4", Dirs: 2, FAs: 1,
	}); err == nil {
		t.Fatal("MetaFromHeader accepted mismatched stream dimensions")
	}
}

func init() {
	// Guard against accidental K drift in topoSpec: the families are sized
	// by the same K, so their edge counts agree (k*k/2 = 8 at K=4).
	if s := topoSpec("clos", "", 1); s.K != 4 {
		panic(fmt.Sprintf("topoSpec K drifted to %d", s.K))
	}
}

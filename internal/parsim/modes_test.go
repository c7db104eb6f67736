package parsim_test

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"stardust/internal/distsim"
	"stardust/internal/parsim"
	"stardust/internal/sim"
)

var forces = []struct {
	name string
	f    parsim.ExecForce
}{
	{"inline", parsim.ForceInline},
	{"fanout", parsim.ForceFanOut},
	{"alternate", parsim.ForceAlternate},
}

// runForced builds spec's model and runs it with the execution mode pinned.
func runForced(t *testing.T, spec distsim.Spec, f parsim.ExecForce) (distsim.Outcome, *distsim.Model) {
	t.Helper()
	m, err := distsim.NewModel(spec)
	if err != nil {
		t.Fatal(err)
	}
	m.Eng.Force(f)
	out, err := m.RunLocal()
	if err != nil {
		t.Fatal(err)
	}
	return out, m
}

// Every digest row of the golden ledger — digest, cell counts, executed
// events — comes out the same whichever way the windows are executed, and
// so does the split of events over the shards. This is the check that
// used to compare Config.Serial with the parallel path, now against history.
func TestExecModesAgreeOnGoldenSpecs(t *testing.T) {
	buf, err := os.ReadFile("../../testdata/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var ledger struct {
		Digests []struct {
			Name                               string
			Spec                               distsim.Spec
			Digest                             string
			Injected, Delivered, Drops, Events uint64
		}
	}
	if err := json.Unmarshal(buf, &ledger); err != nil {
		t.Fatal(err)
	}
	if len(ledger.Digests) == 0 {
		t.Fatal("no digest rows")
	}
	for _, row := range ledger.Digests {
		for _, shards := range []int{2, 4} {
			spec := row.Spec
			spec.Shards = shards
			var split []uint64
			for _, force := range forces {
				out, m := runForced(t, spec, force.f)
				name := fmt.Sprintf("%s shards=%d %s", row.Name, shards, force.name)
				if got := fmt.Sprintf("%016x", out.Digest); got != row.Digest {
					t.Errorf("%s: digest %s, recorded %s", name, got, row.Digest)
				}
				if out.Injected != row.Injected || out.Delivered != row.Delivered ||
					out.Drops != row.Drops || out.Events != row.Events {
					t.Errorf("%s: injected/delivered/drops/events %d/%d/%d/%d, recorded %d/%d/%d/%d", name,
						out.Injected, out.Delivered, out.Drops, out.Events,
						row.Injected, row.Delivered, row.Drops, row.Events)
				}
				if split == nil {
					split = out.ShardEvents
				} else if !reflect.DeepEqual(out.ShardEvents, split) {
					t.Errorf("%s: shard events %v, inline %v", name, out.ShardEvents, split)
				}
				st := m.Eng.Stats()
				if (st.Fanned == 0) != (force.f == parsim.ForceInline) || st.Windows < 3*parsim.EpochWindows {
					t.Errorf("%s: %d of %d windows fanned", name, st.Fanned, st.Windows)
				}
			}
		}
	}
}

// A hotspot makes the shards' windows uneven, which is what the measured
// execution mode reacts to; no golden row is skewed, so this one is held
// to the one-shard inline run instead. (The name is the one the CI history
// knows; nothing migrates, see ROADMAP "Parked".)
func TestExecModesAgreeAcrossMigrations(t *testing.T) {
	spec := distsim.Spec{
		K: 4, Topo: "clos", Seed: 7, Shards: 1, Dur: 300 * sim.Microsecond,
		Load: 0.4, CellBytes: 512, Hotspot: 6,
	}
	ref, _ := runForced(t, spec, parsim.ForceInline)
	for _, shards := range []int{2, 4} {
		spec.Shards = shards
		var split []uint64
		for _, force := range forces {
			out, _ := runForced(t, spec, force.f)
			name := fmt.Sprintf("shards=%d %s", shards, force.name)
			if out.Digest != ref.Digest || out.Events != ref.Events || out.Delivered != ref.Delivered {
				t.Errorf("%s: digest %016x events %d delivered %d, one shard %016x %d %d", name,
					out.Digest, out.Events, out.Delivered, ref.Digest, ref.Events, ref.Delivered)
			}
			if split == nil {
				split = out.ShardEvents
			} else if !reflect.DeepEqual(out.ShardEvents, split) {
				t.Errorf("%s: shard events %v, inline %v", name, out.ShardEvents, split)
			}
		}
	}
}

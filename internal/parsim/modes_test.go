package parsim_test

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"stardust/internal/distsim"
	"stardust/internal/fabric"
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

// runForced builds spec's model, lets prep adjust it, and runs it with the
// execution mode pinned.
func runForced(t *testing.T, spec distsim.Spec, f parsim.ExecForce, prep func(*distsim.Model)) (distsim.Outcome, *distsim.Model) {
	t.Helper()
	m, err := distsim.NewModel(spec)
	if err != nil {
		t.Fatal(err)
	}
	m.Eng.Force(f)
	if prep != nil {
		prep(m)
	}
	out, err := m.RunLocal()
	if err != nil {
		t.Fatal(err)
	}
	return out, m
}

// Every recorded fabric outcome — digest, cell counts, executed events —
// comes out the same whichever way the windows are executed, and so does
// the split of events over the shards. This is the check that used to
// compare Config.Serial with the parallel path, now against history.
func TestExecModesAgreeOnGoldenSpecs(t *testing.T) {
	buf, err := os.ReadFile("../distsim/testdata/golden_digests.json")
	if err != nil {
		t.Fatal(err)
	}
	var rows []struct {
		Name                               string
		Spec                               distsim.Spec
		Digest                             string
		Injected, Delivered, Drops, Events uint64
	}
	if err := json.Unmarshal(buf, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no golden rows")
	}
	for _, row := range rows {
		for _, shards := range []int{2, 4} {
			spec := row.Spec
			spec.Shards = shards
			var split []uint64
			for _, force := range forces {
				out, m := runForced(t, spec, force.f, nil)
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

// Group migration — planned by the rebalancer or called directly at the
// very boundary where the alternating mode flips — moves pending events
// between heaps in barrier context; the execution mode on either side of
// the barrier must not show.
func TestExecModesAgreeAcrossMigrations(t *testing.T) {
	spec := distsim.Spec{
		K: 4, Topo: "clos", Seed: 7, Shards: 1, Dur: 300 * sim.Microsecond,
		Load: 0.4, CellBytes: 512, Hotspot: 6,
	}
	ref, _ := runForced(t, spec, parsim.ForceInline, nil)
	rebalance := func(m *distsim.Model) {
		if err := m.Net.EnableRebalancing(fabric.DefaultRebalance()); err != nil {
			t.Fatal(err)
		}
	}
	pingPong := func(m *distsim.Model) {
		look := m.Eng.Lookahead()
		for i, to := range []int{1, 0, 1} {
			m.Eng.At(sim.Time(i+1)*parsim.EpochWindows*look, func() {
				if err := m.Net.MigrateFA(0, to); err != nil {
					t.Error(err)
				}
			})
		}
	}
	for _, shards := range []int{2, 4} {
		spec.Shards = shards
		for _, tc := range []struct {
			name string
			prep func(*distsim.Model)
		}{{"static", nil}, {"rebalance", rebalance}, {"pingpong", pingPong}} {
			var first distsim.Outcome
			var moves uint64
			for i, force := range forces {
				out, m := runForced(t, spec, force.f, tc.prep)
				name := fmt.Sprintf("shards=%d %s %s", shards, tc.name, force.name)
				if out.Digest != ref.Digest || out.Events != ref.Events || out.Delivered != ref.Delivered {
					t.Errorf("%s: digest %016x events %d delivered %d, one static shard %016x %d %d", name,
						out.Digest, out.Events, out.Delivered, ref.Digest, ref.Events, ref.Delivered)
				}
				if i == 0 {
					first, moves = out, m.Net.Migrations()
					if (moves == 0) != (tc.prep == nil) {
						t.Errorf("%s: %d migrations", name, moves)
					}
				} else if !reflect.DeepEqual(out.ShardEvents, first.ShardEvents) || m.Net.Migrations() != moves {
					t.Errorf("%s: shard events %v after %d migrations, inline %v after %d", name,
						out.ShardEvents, m.Net.Migrations(), first.ShardEvents, moves)
				}
			}
		}
	}
}

package distsim

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"stardust/internal/sim"
)

// Golden digests pin determinism to history: every other determinism
// test compares today's configurations with each other, so a change that
// drifts all of them the same way passes. The table was recorded before
// the two fabric implementations were merged into one fabric.Net (the
// Clos rows are still those bytes); a row may only change in a PR that
// says why, old -> new, in CHANGES.md.
//
//	go test ./internal/distsim -run TestGoldenDigests -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_digests.json from this build")

const goldenPath = "testdata/golden_digests.json"

type goldenRow struct {
	Name      string `json:"name"`
	Spec      Spec   `json:"spec"` // Shards is set by the test
	Digest    string `json:"digest"`
	Injected  uint64 `json:"injected"`
	Delivered uint64 `json:"delivered"`
	Drops     uint64 `json:"drops"`
	// Events is Outcome.Events. It is recorded because a kernel or link
	// change can keep every counter the digest covers and still execute a
	// different number of events.
	Events uint64 `json:"events"`
	// Dispatched is what the kernels actually executed
	// (Model.Eng.Dispatched()): Events without the elided completions. Like
	// Events it does not depend on the shard count. A change to how a hop
	// is carried out must leave it where it was.
	Dispatched uint64 `json:"dispatched"`
}

// goldenSpecs is the recorded grid: topo x K x pattern, plus one
// parheal-style fail/heal program per topology, all at seed 7.
func goldenSpecs() []goldenRow {
	var rows []goldenRow
	for _, topoName := range topoFamilies {
		for _, k := range []int{4, 8} {
			for _, pattern := range []string{"rotate", "permutation"} {
				rows = append(rows, goldenRow{
					Name: fmt.Sprintf("%s/k%d/%s", topoName, k, pattern),
					Spec: Spec{
						K: k, Topo: topoName, Seed: 7, Dur: 200 * sim.Microsecond,
						Load: 0.4, Pattern: pattern, CellBytes: 512, Hotspot: 1,
					},
				})
			}
		}
		rows = append(rows, goldenRow{
			Name: topoName + "/k4/failheal",
			Spec: Spec{
				K: 4, Topo: topoName, Seed: 7, Dur: 300 * sim.Microsecond,
				Load: 0.4, CellBytes: 512, Hotspot: 1,
				FailN: 3, FailAt: 100 * sim.Microsecond, HealAt: 200 * sim.Microsecond,
			},
		})
	}
	return rows
}

func TestGoldenDigests(t *testing.T) {
	if *updateGolden {
		rows := goldenSpecs()
		for i := range rows {
			rows[i].Spec.Shards = 1
			out, dispatched := goldenOutcome(t, rows[i].Spec)
			rows[i].Spec.Shards = 0
			rows[i].Digest = fmt.Sprintf("%016x", out.Digest)
			rows[i].Injected, rows[i].Delivered, rows[i].Drops = out.Injected, out.Delivered, out.Drops
			rows[i].Events, rows[i].Dispatched = out.Events, dispatched
		}
		buf, err := json.MarshalIndent(rows, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var rows []goldenRow
	if err := json.Unmarshal(buf, &rows); err != nil {
		t.Fatal(err)
	}
	if want := len(goldenSpecs()); len(rows) != want {
		t.Fatalf("golden table has %d rows, the grid has %d", len(rows), want)
	}
	for _, row := range rows {
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", row.Name, shards), func(t *testing.T) {
				spec := row.Spec
				spec.Shards = shards
				out, dispatched := goldenOutcome(t, spec)
				if got := fmt.Sprintf("%016x", out.Digest); got != row.Digest {
					t.Errorf("digest %s, recorded %s", got, row.Digest)
				}
				if out.Injected != row.Injected || out.Delivered != row.Delivered || out.Drops != row.Drops {
					t.Errorf("injected/delivered/drops %d/%d/%d, recorded %d/%d/%d",
						out.Injected, out.Delivered, out.Drops, row.Injected, row.Delivered, row.Drops)
				}
				if out.Events != row.Events {
					t.Errorf("events %d, recorded %d", out.Events, row.Events)
				}
				if dispatched != row.Dispatched {
					t.Errorf("dispatched %d, recorded %d", dispatched, row.Dispatched)
				}
				if row.Spec.FailN > 0 && out.Unreachable != 0 {
					t.Errorf("%d unreachable pairs after the heal", out.Unreachable)
				}
			})
		}
	}
}

// goldenOutcome runs spec in this process and returns its outcome plus the
// number of events its kernels dispatched.
func goldenOutcome(t *testing.T, spec Spec) (Outcome, uint64) {
	t.Helper()
	m, err := NewModel(spec)
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.RunLocal()
	if err != nil {
		t.Fatal(err)
	}
	return out, m.Eng.Dispatched()
}

package experiments

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"reflect"
	"testing"

	"stardust/internal/sim"
)

// Golden transport values pin the Stardust transport to history. Every
// other transport determinism check compares today's configurations with
// each other (shards 1 against 2 against 4, workers 1 against 4), so a
// change that drifts all of them the same way passes; and until the solo
// and sharded transports were merged, Shards: 0 was a second model that
// nothing compared with anything. A row may only change in a PR that says
// why, old -> new, in CHANGES.md.
//
//	go test ./internal/experiments -run TestGoldenTransport -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_transport.json from this build")

const goldenTransportPath = "testdata/golden_transport.json"

// goldenTransportRow is one pinned experiment. Values are rendered as
// strings (floats at six decimals) so the file diffs cleanly.
type goldenTransportRow struct {
	Name   string            `json:"name"`
	Values map[string]string `json:"values"`
}

// goldenTransportRun produces one row. The full-fabric runs are a
// function of the seed alone, so they are asserted at every shard count,
// 0 included, against the one recorded row; the fluid trunk has one
// placement.
type goldenTransportRun struct {
	name       string
	fullFabric bool
	run        func(HtsimConfig) (map[string]string, error)
}

func f6(v float64) string { return fmt.Sprintf("%.6f", v) }

func goldenPermutation(cfg HtsimConfig) (map[string]string, error) {
	r, err := Permutation(cfg, ProtoStardust)
	if err != nil {
		return nil, err
	}
	if per := float64(r.Dispatched) / float64(r.CellsSent); cfg.FullFabric && per > maxDispatchedPerCell {
		return nil, fmt.Errorf("%d events dispatched for %d cells: %.2f per cell, want <= %.1f",
			r.Dispatched, r.CellsSent, per, maxDispatchedPerCell)
	}
	h := fnv.New64a()
	for _, d := range r.Delivered {
		fmt.Fprintf(h, "%d,", d)
	}
	return map[string]string{
		"util_pct":       f6(r.MeanUtilPct),
		"cells_sent":     fmt.Sprint(r.CellsSent),
		"credits_sent":   fmt.Sprint(r.CreditsSent),
		"delivered_fnv":  fmt.Sprintf("%016x", h.Sum64()),
		"drops":          fmt.Sprint(r.FabricDrops + r.VOQDrops),
		"reasm_timeouts": fmt.Sprint(r.ReasmTimeouts),
	}, nil
}

// maxDispatchedPerCell bounds the events the loops execute for one cell of
// the perm/fabric run (881,566 cells at 96.21 % utilisation), beside the
// recorded values and from the same run: not pinned — it may fall — but
// 7.15 while a busy link dispatched a completion per cell and 4.55 since a
// wire-mode queue elides them.
const maxDispatchedPerCell = 4.6

func goldenFCT(cfg HtsimConfig) (map[string]string, error) {
	cfg.Duration = 3 * sim.Millisecond
	r, err := FCT(cfg, ProtoStardust, 10)
	if err != nil {
		return nil, err
	}
	return map[string]string{
		"flows":  fmt.Sprint(r.Ms.N()),
		"p50_ms": f6(r.Ms.Quantile(0.5)),
		"p90_ms": f6(r.Ms.Quantile(0.9)),
		"p99_ms": f6(r.Ms.Quantile(0.99)),
		"max_ms": f6(r.Ms.Max()),
	}, nil
}

func goldenIncast(cfg HtsimConfig) (map[string]string, error) {
	r, err := Incast(cfg, ProtoStardust, 8, 450_000)
	if err != nil {
		return nil, err
	}
	return map[string]string{
		"backends": fmt.Sprint(r.Backends),
		"first_ms": f6(r.FirstMs),
		"last_ms":  f6(r.LastMs),
	}, nil
}

// goldenTransportRuns is the recorded table: K=4, seed 1, the benchmark's
// 20 ms window after 2 ms of warm-up (Fig 10b measures 10 flows in 3 ms
// rounds, Fig 10c is 8 backends of 450 KB).
var goldenTransportRuns = []goldenTransportRun{
	{"perm/fluid", false, goldenPermutation},
	{"perm/fabric", true, goldenPermutation},
	{"fct/fabric", true, goldenFCT},
	{"incast/fabric", true, goldenIncast},
}

func TestGoldenTransport(t *testing.T) {
	cfg := QuickHtsim()
	cfg.Duration, cfg.Warmup, cfg.Seed = 20*sim.Millisecond, 2*sim.Millisecond, 1
	if *updateGolden {
		var rows []goldenTransportRow
		for _, g := range goldenTransportRuns {
			c := cfg
			c.FullFabric = g.fullFabric
			vals, err := g.run(c)
			if err != nil {
				t.Fatalf("%s: %v", g.name, err)
			}
			rows = append(rows, goldenTransportRow{Name: g.name, Values: vals})
		}
		buf, err := json.MarshalIndent(rows, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenTransportPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	buf, err := os.ReadFile(goldenTransportPath)
	if err != nil {
		t.Fatal(err)
	}
	var rows []goldenTransportRow
	if err := json.Unmarshal(buf, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(goldenTransportRuns) {
		t.Fatalf("golden table has %d rows, the test has %d runs", len(rows), len(goldenTransportRuns))
	}
	for i, g := range goldenTransportRuns {
		row := rows[i]
		if row.Name != g.name {
			t.Fatalf("golden row %d is %q, the test runs %q there", i, row.Name, g.name)
		}
		shardCounts := []int{0}
		if g.fullFabric {
			shardCounts = []int{0, 1, 2, 4}
			if testing.Short() {
				shardCounts = []int{0, 2}
			}
		}
		for _, shards := range shardCounts {
			t.Run(fmt.Sprintf("%s/shards=%d", g.name, shards), func(t *testing.T) {
				t.Parallel() // independent testbeds; the race build runs each ~35x slower
				c := cfg
				c.FullFabric, c.Shards = g.fullFabric, shards
				got, err := g.run(c)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, row.Values) {
					t.Errorf("got      %v\nrecorded %v", got, row.Values)
				}
			})
		}
	}
}

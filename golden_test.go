package stardust_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"stardust/internal/distsim"
	"stardust/internal/engine"
	"stardust/internal/experiments"
	_ "stardust/internal/scenarios" // registers every scenario the ledger runs
	"stardust/internal/sim"
)

// The golden ledger, testdata/golden.json, pins what this tree computes to
// history. Every other determinism test compares today's configurations
// with each other (shards 1 against 4, workers 1 against 4), so a change
// that drifted all of them the same way would pass them. Its sections:
// digests (distsim fabric runs), transport (Fig 10a/b/c of the Stardust
// transport), stream (the STREC1 stream `stardust -seed 7 trace/record
// k=4` writes) and scenarios (every registered scenario's text, JSON and
// CSV bytes, keyed by the command that prints them).
//
// Beside what it records, a row carries the bounds other tests hold the
// same run to. A recorded value only changes in a change that says why,
// old -> new, in CHANGES.md; a bound never changes by re-recording:
//
//	go test . -run '^TestGolden$' -update
//
// re-runs every row and rewrites the file, or refuses, writing nothing, if
// a run breaks a bound of its row. It also regenerates README.md's
// parameter table, which TestGolden otherwise holds to the declarations.
var update = flag.Bool("update", false, "re-record testdata/golden.json from this build (refused if a run breaks a bound) and regenerate README.md's parameter table")

const ledgerPath = "testdata/golden.json"

type ledger struct {
	Digests   []digestRow       `json:"digests"`
	Transport []transportRow    `json:"transport"`
	Stream    []streamRow       `json:"stream"`
	Scenarios []scenarioRow     `json:"scenarios"`
	Skipped   map[string]string `json:"skipped"` // registered scenarios with no row, and why
}

// A bound holds one quantity of a row's run to a limit another test
// asserts too; From says which.
type bound struct {
	Quantity string  `json:"quantity"`
	Op       string  `json:"op"` // "<=", ">=" or "=="
	Value    float64 `json:"value"`
	From     string  `json:"from"`
}

func checkBounds(bounds []bound, q map[string]float64) error {
	var broken []error
	for _, b := range bounds {
		v, ok := q[b.Quantity]
		if !ok || !(b.Op == "<=" && v <= b.Value || b.Op == ">=" && v >= b.Value || b.Op == "==" && v == b.Value) {
			broken = append(broken, fmt.Errorf("%s = %v (measured: %t), want %s %v: %s", b.Quantity, v, ok, b.Op, b.Value, b.From))
		}
	}
	return errors.Join(broken...)
}

// A pin is a row of a section. measure runs it at a shard count and
// returns the row as this build records it, and what its bounds read.
// shardCounts lists the counts the row is asserted at, the first being
// the one -update records at.
type pin[R any] interface {
	name() string
	shardCounts() []int
	measure(shards int) (R, reading, error)
}

func TestGolden(t *testing.T) {
	l, err := readLedger(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	pinned := map[string]bool{}
	for _, row := range l.Scenarios {
		_, jobs, _ := row.parse()
		for _, j := range jobs {
			pinned[j.Scenario] = true
		}
	}
	for _, sc := range engine.List() {
		if _, skip := l.Skipped[sc.Name]; !pinned[sc.Name] && !skip {
			t.Errorf("%s has no row in %s: add its command (or a reason to skipped)", sc.Name, ledgerPath)
		}
	}
	if err := checkParamTable(readmePath, *update); err != nil {
		t.Error(err)
	}
	if *update {
		var rs []reading
		var errs [4]error
		next := l
		next.Digests, errs[0] = rerecord(l.Digests, &rs)
		next.Transport, errs[1] = rerecord(l.Transport, &rs)
		next.Stream, errs[2] = rerecord(l.Stream, &rs)
		next.Scenarios, errs[3] = rerecord(l.Scenarios, &rs)
		err := errors.Join(errs[:]...)
		if err == nil {
			err = record(ledgerPath, next, rs)
		}
		if err != nil {
			t.Fatal(err)
		}
		l = next
	}
	walk(t, "digests", l.Digests)
	walk(t, "transport", l.Transport)
	walk(t, "stream", l.Stream)
	walk(t, "scenarios", l.Scenarios)
}

// walk asserts every row of a section at each of its shard counts, one
// parallel subtest per run.
func walk[R pin[R]](t *testing.T, section string, rows []R) {
	t.Run(section, func(t *testing.T) {
		for _, row := range rows {
			for _, shards := range row.shardCounts() {
				name := row.name()
				if len(row.shardCounts()) > 1 {
					name += fmt.Sprintf("/shards=%d", shards)
				}
				t.Run(name, func(t *testing.T) {
					t.Parallel() // independent runs; the race build makes each ~35x slower
					got, rd, err := row.measure(shards)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, row) {
						t.Errorf("measured %+v\nrecorded %+v", got, row)
					}
					if err := checkBounds(rd.bounds, rd.q); err != nil {
						t.Error(err)
					}
				})
			}
		}
	})
}

// A reading is what a run of a row measured, with the bounds it keeps.
type reading struct {
	row    string
	bounds []bound
	q      map[string]float64
}

// rerecord measures every row once, at its first shard count.
func rerecord[R pin[R]](rows []R, readings *[]reading) ([]R, error) {
	out := make([]R, len(rows))
	for i, row := range rows {
		got, rd, err := row.measure(row.shardCounts()[0])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", row.name(), err)
		}
		out[i], *readings = got, append(*readings, rd)
	}
	return out, nil
}

// record is the one writer of a ledger: it writes l to path unless a
// reading breaks a bound, and then names every broken bound and leaves
// the file as it was.
func record(path string, l ledger, readings []reading) error {
	var broken []error
	for _, r := range readings {
		if err := checkBounds(r.bounds, r.q); err != nil {
			broken = append(broken, fmt.Errorf("%s: %w", r.row, err))
		}
	}
	if len(broken) > 0 {
		return fmt.Errorf("re-record refused, %s left as it was:\n%w", path, errors.Join(broken...))
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false) // a bound's op stays "<=" in the file
	enc.SetIndent("", " ")
	if err := enc.Encode(l); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

const readmePath = "README.md"

// README.md's parameter table sits between these two lines.
const (
	tableBegin = "<!-- parameter table: generated from the declarations by go test . -run '^TestGolden$' -update -->\n"
	tableEnd   = "<!-- end of parameter table -->\n"
)

// paramTable renders the registry's declarations as that table: one row
// per scenario with every key=default.
func paramTable() string {
	var b strings.Builder
	b.WriteString("| Scenario | Parameters (`key=default`) |\n|---|---|\n")
	for _, sc := range engine.List() {
		var kvs []string
		for _, d := range sc.ParamDocs() {
			kvs = append(kvs, "`"+d.Key+"="+d.Default+"`")
		}
		if len(kvs) == 0 {
			kvs = []string{"—"}
		}
		fmt.Fprintf(&b, "| `%s` | %s |\n", sc.Name, strings.Join(kvs, " "))
	}
	return b.String()
}

// checkParamTable holds the table in the file at path to paramTable, or
// with rewrite makes it so.
func checkParamTable(path string, rewrite bool) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	before, rest, ok := strings.Cut(string(buf), tableBegin)
	table, after, ok2 := strings.Cut(rest, tableEnd)
	switch want := paramTable(); {
	case !ok || !ok2:
		return fmt.Errorf("%s has no parameter table between %q and %q", path, tableBegin, tableEnd)
	case table == want:
		return nil
	case rewrite:
		return os.WriteFile(path, []byte(before+tableBegin+want+tableEnd+after), 0o644)
	}
	return fmt.Errorf("%s: the parameter table is not the registry's; regenerate it with go test . -run '^TestGolden$' -update", path)
}

func readLedger(path string) (ledger, error) {
	var l ledger
	buf, err := os.ReadFile(path)
	if err != nil {
		return l, err
	}
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields() // a misspelt "bounds" would drop a row's bounds unseen
	err = dec.Decode(&l)
	return l, err
}

// A re-record whose run breaks a bound of its row is refused and leaves
// the ledger byte for byte as it was; one that breaks none writes an
// unchanged ledger back byte for byte.
func TestGoldenUpdateRefusesABrokenBound(t *testing.T) {
	want, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	l, err := readLedger(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	bounds := map[string][]bound{}
	for _, r := range l.Digests {
		bounds[r.Name] = r.Bounds
	}
	for _, r := range l.Transport {
		bounds[r.Name] = r.Bounds
	}
	// reads is row's reading with every bound kept, as the recorded runs
	// keep them, but quantity at v.
	reads := func(row, quantity string, v float64) []reading {
		q := map[string]float64{"unaccounted": 0, "unreachable": 0, "util_pct": 96.2, "drops": 0, "dispatched_per_cell": 4.55}
		q[quantity] = v
		return []reading{{row, bounds[row], q}}
	}
	path := filepath.Join(t.TempDir(), "golden.json")
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		row, quantity string
		v             float64
	}{
		{"perm/fabric", "util_pct", 85},
		{"perm/fabric", "dispatched_per_cell", 7.15},
		{"perm/fluid", "drops", 1},
		{"clos/k4/rotate", "unaccounted", 1},
		{"star/k4/failheal", "unreachable", 2},
	} {
		if err := record(path, ledger{}, reads(c.row, c.quantity, c.v)); err == nil {
			t.Errorf("%s with %s = %v: re-record not refused", c.row, c.quantity, c.v)
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, want) {
			t.Errorf("%s with %s = %v: the refused re-record wrote the ledger", c.row, c.quantity, c.v)
		}
	}
	if err := record(path, l, reads("star/k4/failheal", "unreachable", 0)); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, want) {
		t.Error("re-recording the unchanged ledger changed its bytes")
	}
}

// A digestRow is one distsim fabric run in this process. Events counts
// every model event and Dispatched what the kernels executed, Events
// without the elided completions and counted arrivals: only a new elision
// may move Dispatched, and it is equal at every shard count.
type digestRow struct {
	Name       string       `json:"name"`
	Spec       distsim.Spec `json:"spec"` // Shards is the walker's
	Digest     string       `json:"digest"`
	Injected   uint64       `json:"injected"`
	Delivered  uint64       `json:"delivered"`
	Drops      uint64       `json:"drops"`
	Events     uint64       `json:"events"`
	Dispatched uint64       `json:"dispatched"`
	Bounds     []bound      `json:"bounds,omitempty"`
}

func (r digestRow) name() string       { return r.Name }
func (r digestRow) shardCounts() []int { return []int{1, 2, 4} }

func (r digestRow) measure(shards int) (digestRow, reading, error) {
	r.Spec.Shards = shards
	m, err := distsim.NewModel(r.Spec)
	if err != nil {
		return r, reading{}, err
	}
	out, err := m.RunLocal()
	r.Spec.Shards = 0
	r.Digest = fmt.Sprintf("%016x", out.Digest)
	r.Injected, r.Delivered, r.Drops = out.Injected, out.Delivered, out.Drops
	r.Events, r.Dispatched = out.Events, m.Eng.Dispatched()
	return r, reading{r.Name, r.Bounds, map[string]float64{
		"unaccounted": float64(out.Injected) - float64(out.Delivered) - float64(out.Drops),
		"unreachable": float64(out.Unreachable),
	}}, err
}

// A transportRow is a Stardust transport experiment at K=4, seed 1, over
// 20 ms after 2 ms of warm-up. A "/fabric" row runs on the per-link fabric,
// a function of the seed alone at any shard count, 0 included; the fluid
// trunk has one placement. Floats are kept at six decimals.
type transportRow struct {
	Name   string            `json:"name"`
	Values map[string]string `json:"values"`
	Bounds []bound           `json:"bounds,omitempty"`
}

func (r transportRow) name() string { return r.Name }

func (r transportRow) shardCounts() []int {
	switch {
	case !strings.HasSuffix(r.Name, "/fabric"):
		return []int{0}
	case testing.Short():
		return []int{0, 2}
	}
	return []int{0, 1, 2, 4}
}

func (r transportRow) measure(shards int) (transportRow, reading, error) {
	cfg := experiments.QuickHtsim()
	cfg.Duration, cfg.Warmup, cfg.Seed = 20*sim.Millisecond, 2*sim.Millisecond, 1
	cfg.FullFabric, cfg.Shards = strings.HasSuffix(r.Name, "/fabric"), shards
	f6 := func(v float64) string { return fmt.Sprintf("%.6f", v) }
	switch r.Name {
	case "perm/fluid", "perm/fabric":
		p, err := experiments.Permutation(cfg, experiments.ProtoStardust)
		if err != nil {
			return r, reading{}, err
		}
		h := fnv.New64a()
		for _, d := range p.Delivered {
			fmt.Fprintf(h, "%d,", d)
		}
		drops := p.FabricDrops + p.VOQDrops
		r.Values = map[string]string{
			"util_pct": f6(p.MeanUtilPct), "cells_sent": fmt.Sprint(p.CellsSent),
			"credits_sent": fmt.Sprint(p.CreditsSent), "delivered_fnv": fmt.Sprintf("%016x", h.Sum64()),
			"drops": fmt.Sprint(drops), "reasm_timeouts": fmt.Sprint(p.ReasmTimeouts),
		}
		return r, reading{r.Name, r.Bounds, map[string]float64{
			"util_pct": p.MeanUtilPct, "drops": float64(drops),
			"dispatched_per_cell": float64(p.Dispatched) / float64(p.CellsSent),
		}}, nil
	case "fct/fabric": // Fig 10b: 10 flows in 3 ms rounds
		cfg.Duration = 3 * sim.Millisecond
		f, err := experiments.FCT(cfg, experiments.ProtoStardust, 10)
		if err != nil {
			return r, reading{}, err
		}
		r.Values = map[string]string{
			"flows": fmt.Sprint(f.Ms.N()), "p50_ms": f6(f.Ms.Quantile(0.5)), "p90_ms": f6(f.Ms.Quantile(0.9)),
			"p99_ms": f6(f.Ms.Quantile(0.99)), "max_ms": f6(f.Ms.Max()),
		}
		return r, reading{}, nil
	case "incast/fabric": // Fig 10c: 8 backends of 450 KB
		in, err := experiments.Incast(cfg, experiments.ProtoStardust, 8, 450_000)
		if err != nil {
			return r, reading{}, err
		}
		r.Values = map[string]string{"backends": fmt.Sprint(in.Backends), "first_ms": f6(in.FirstMs), "last_ms": f6(in.LastMs)}
		return r, reading{}, nil
	}
	return r, reading{}, fmt.Errorf("no transport experiment is called %q", r.Name)
}

// A streamRow is the SHA-256 of the STREC1 stream distsim.Record writes
// for its spec: every link direction's FwdBytes delta and queue occupancy
// at each scrape barrier, mid-run reads the digest never sees.
type streamRow struct {
	Name   string       `json:"name"`
	Spec   distsim.Spec `json:"spec"` // Shards is the walker's
	SHA256 string       `json:"sha256"`
}

func (r streamRow) name() string       { return r.Name }
func (r streamRow) shardCounts() []int { return []int{1, 2, 4} }

func (r streamRow) measure(shards int) (streamRow, reading, error) {
	var buf bytes.Buffer
	spec := r.Spec
	spec.Shards = shards
	_, err := distsim.Record(spec, &buf)
	r.SHA256 = sha256Hex(buf.Bytes())
	return r, reading{}, err
}

// A scenarioRow is the SHA-256 of what its command prints: a registered
// scenario at a short parameter set, in one format.
type scenarioRow struct {
	Command string `json:"command"` // stardust -seed 1 -format <f> <scenario> [key=value]...
	SHA256  string `json:"sha256"`
}

func (r scenarioRow) shardCounts() []int { return []int{0} }

func (r scenarioRow) name() string {
	if opts, jobs, err := r.parse(); err == nil && len(jobs) == 1 {
		return jobs[0].Scenario + "/" + opts.Format
	}
	return r.Command
}

// parse reads the command as the stardust command line does.
func (r scenarioRow) parse() (engine.Options, []engine.Job, error) {
	args := strings.Fields(r.Command)
	if len(args) == 0 || args[0] != "stardust" {
		return engine.Options{}, nil, fmt.Errorf("command %q does not run stardust", r.Command)
	}
	fs := flag.NewFlagSet("stardust", flag.ContinueOnError)
	flags := engine.AddFlags(fs)
	if err := fs.Parse(args[1:]); err != nil {
		return engine.Options{}, nil, err
	}
	jobs, err := engine.ParseArgs(fs.Args())
	return flags.Options(), jobs, err
}

func (r scenarioRow) measure(int) (scenarioRow, reading, error) {
	opts, jobs, err := r.parse()
	if err != nil {
		return r, reading{}, err
	}
	var buf bytes.Buffer
	opts.Out = &buf
	_, err = engine.Run(opts, jobs)
	r.SHA256 = sha256Hex(buf.Bytes())
	return r, reading{}, err
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Package engine is the unified scenario engine: every experiment in the
// repository (the htsim protocol comparison, the cell-fabric simulation,
// the single-tier system measurement, the analytical scaling figures, …)
// is declared once as a Scenario in a global registry and executed through
// one parallel runner.
//
// A Scenario is a named, parameterized unit of work. The runner expands
// requested scenarios into independent instances (per-protocol,
// per-utilization, per-packet-size sweep points), fans them across a
// worker pool — each instance builds its own sim.Simulator, so per-run
// determinism is preserved bit-for-bit — and emits results in request
// order as text, JSON or CSV. Wall-clock timing goes to a separate writer
// so the result stream itself is byte-identical across runs and worker
// counts.
//
// A scenario's human-readable report is a renderer, not a string: the
// worker that ran an instance calls it right after Run returns, and only
// when the output is text. A JSON or CSV run — every stardustd run — emits
// metrics alone and never pays for formatting a report nobody reads.
package engine

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Params carries scenario parameters as strings, the form a request
// arrives in and a result emits; Values holds them parsed.
type Params map[string]string

// Clone returns a deep copy.
func (p Params) Clone() Params {
	q := make(Params, len(p))
	for k, v := range p {
		q[k] = v
	}
	return q
}

// Merge returns a copy of p with over's entries applied on top.
func (p Params) Merge(over Params) Params {
	q := p.Clone()
	for k, v := range over {
		q[k] = v
	}
	return q
}

// With returns a copy of p with one key set.
func (p Params) With(key, val string) Params {
	q := p.Clone()
	q[key] = val
	return q
}

// String renders the params as "k=v k=v" with sorted keys (deterministic).
func (p Params) String() string {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%s", k, p[k])
	}
	return b.String()
}

// Context is handed to a Scenario's Run with the fully resolved instance
// parameters and the seed for this run.
type Context struct {
	Params Values
	Seed   int64
	// Shards is the requested intra-instance event-loop parallelism (the
	// -shards flag): scenarios built on the sharded fabric partition one
	// simulation across this many cores. Most scenarios are single-loop
	// and ignore it. Always >= 1.
	Shards int
	// Topo is the fabric topology requested with the -topo flag ("clos",
	// "sshuffle", "star", or a full spec string; empty = clos).
	// Topology-aware scenarios resolve their own "topo" parameter first
	// and fall back to this.
	Topo string
	// DistPeers/DistListen mirror Options: when DistPeers > 0, a
	// dist-capable scenario serves its simulation as a distributed
	// coordinator on DistListen instead of running shards in-process.
	DistPeers  int
	DistListen string
}

// Metric is one named scalar of a scenario outcome; the ordered metric
// list is the structured (JSON/CSV) face of a result.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit,omitempty"`
}

// Result is what a scenario instance produces: an ordered list of metrics
// for structured emission plus a renderer of its human-readable report.
//
// Text is called by the worker that ran the instance, right after Run
// returns and only when the output format is text ("" or "text"); JSON and
// CSV runs never call it, and a nil Text is an empty report. A renderer
// only formats what Run computed: it adds no metric, runs no simulation,
// starts no peer and cannot fail where Run succeeded — its error is for
// the writer. Where the report is a by-product of the computation itself
// (lines printed while peers are verified, metrics added while a split is
// printed), Run builds the string and hands it over with Textf("%s", s).
type Result struct {
	Metrics []Metric `json:"metrics,omitempty"`
	Text    Render   `json:"-"`
}

// Render writes one instance's human-readable report to w.
type Render func(w io.Writer) error

// Textf is the Render that prints format and args with fmt.Fprintf. The
// args are evaluated when Textf is called; the formatting waits for a text
// run.
func Textf(format string, args ...any) Render {
	return func(w io.Writer) error {
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
}

// Add appends a metric and returns the result for chaining.
func (r *Result) Add(name string, value float64, unit string) *Result {
	r.Metrics = append(r.Metrics, Metric{Name: name, Value: value, Unit: unit})
	return r
}

// ParamDoc is one declared parameter as -list prints it and the
// stardustd API serves it.
type ParamDoc struct {
	Key     string   `json:"key"`
	Kind    string   `json:"kind"`
	Default string   `json:"default"`
	Desc    string   `json:"desc,omitempty"`
	Choices []string `json:"choices,omitempty"` // an enum list's alias first
	Range   string   `json:"range,omitempty"`
}

// Scenario declares one registered experiment.
type Scenario struct {
	// Name identifies the scenario, conventionally "family/figure"
	// (e.g. "htsim/permutation", "fabric/fig9", "scaling/fig2").
	Name string
	// Desc is a one-line description shown by -list and as the text
	// header.
	Desc string
	// Params declares every parameter a request may set, once each. A
	// list declared with Each is swept: the runner executes one
	// independent parallel instance per element of the cross product of
	// the swept lists, the first-declared list outermost.
	Params []Param
	// Check optionally refuses parameter values no run could accept,
	// where refusing is cheap and running is not (a shard count that
	// allocates the machine away): Resolve calls it, so the command line
	// exits 1 and stardustd answers 400 before anything is queued, keyed,
	// forwarded or built. It sees every instance the request expands into
	// as Run would. nil = no such values.
	Check func(c Context) error
	// Run executes one instance.
	Run func(c Context) (Result, error)

	defaults Params  // every declared key at its default
	sweeps   []Param // the lists declared with Each, in declaration order
}

// ParamDocs returns the scenario's parameter table, sorted by key.
func (s *Scenario) ParamDocs() []ParamDoc {
	out := make([]ParamDoc, 0, len(s.Params))
	for i := range s.Params {
		p := &s.Params[i]
		choices := p.choices
		if p.alias != "" {
			choices = append([]string{p.alias}, choices...)
		}
		kind := p.kind.String()
		if p.list {
			kind += " list"
		}
		out = append(out, ParamDoc{Key: p.Key, Kind: kind, Default: p.Default, Desc: p.Doc, Choices: choices, Range: p.rangeText()})
	}
	return out
}

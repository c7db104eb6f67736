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
	"strconv"
	"strings"
)

// Params carries scenario parameters as strings (the flag-friendly common
// denominator) with typed accessors. A missing key falls back to the
// scenario's registered default, then to the accessor's fallback.
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

// Str returns the string value of key, or def when absent/empty.
func (p Params) Str(key, def string) string {
	if v, ok := p[key]; ok && v != "" {
		return v
	}
	return def
}

// Int returns the integer value of key, or def when absent or malformed.
func (p Params) Int(key string, def int) int {
	if v, ok := p[key]; ok {
		if n, err := strconv.Atoi(v); err == nil {
			return n
		}
	}
	return def
}

// Int64 returns the int64 value of key, or def when absent or malformed.
func (p Params) Int64(key string, def int64) int64 {
	if v, ok := p[key]; ok {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			return n
		}
	}
	return def
}

// Float returns the float value of key, or def when absent or malformed.
func (p Params) Float(key string, def float64) float64 {
	if v, ok := p[key]; ok {
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			return f
		}
	}
	return def
}

// Bool returns the boolean value of key, or def when absent or malformed.
func (p Params) Bool(key string, def bool) bool {
	if v, ok := p[key]; ok {
		if b, err := strconv.ParseBool(v); err == nil {
			return b
		}
	}
	return def
}

// Ints splits a comma-separated list of integers; malformed or
// non-positive entries are skipped. Returns def when the key is absent.
func (p Params) Ints(key string, def []int) []int {
	v, ok := p[key]
	if !ok || v == "" {
		return def
	}
	var out []int
	for _, s := range strings.Split(v, ",") {
		if n, err := strconv.Atoi(strings.TrimSpace(s)); err == nil && n > 0 {
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		return def
	}
	return out
}

// Floats splits a comma-separated list of floats. Returns def when the
// key is absent.
func (p Params) Floats(key string, def []float64) []float64 {
	v, ok := p[key]
	if !ok || v == "" {
		return def
	}
	var out []float64
	for _, s := range strings.Split(v, ",") {
		if f, err := strconv.ParseFloat(strings.TrimSpace(s), 64); err == nil {
			out = append(out, f)
		}
	}
	if len(out) == 0 {
		return def
	}
	return out
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
	Params Params
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

// ParamDoc is one documented parameter of a scenario: the structured
// form of the registry metadata that -list prints and the stardustd
// API serves.
type ParamDoc struct {
	Key     string `json:"key"`
	Default string `json:"default"`
	Desc    string `json:"desc,omitempty"`
}

// Scenario declares one registered experiment.
type Scenario struct {
	// Name identifies the scenario, conventionally "family/figure"
	// (e.g. "htsim/permutation", "fabric/fig9", "scaling/fig2").
	Name string
	// Desc is a one-line description shown by -list and as the text
	// header.
	Desc string
	// Defaults documents the accepted parameters and their default
	// values; requested params are merged on top.
	Defaults Params
	// Docs describes the accepted parameters (key -> one-line doc).
	// Every key must exist in Defaults — Register enforces it, so a
	// typo cannot document a parameter that does not exist.
	Docs map[string]string
	// Variants optionally expands one requested instance into several
	// (one per protocol, per sweep point, …). The runner executes each
	// variant as an independent parallel instance. nil = run as-is.
	Variants func(p Params) []Params
	// Check optionally refuses parameter values no run could accept,
	// where refusing is cheap and running is not (a shard count that
	// allocates the machine away): Resolve calls it, so the command line
	// exits 1 and stardustd answers 400 before anything is queued, keyed,
	// forwarded or built. It sees the request as Run would — defaults
	// merged, sweep lists unexpanded. nil = no such values.
	Check func(c Context) error
	// Run executes one instance.
	Run func(c Context) (Result, error)
}

// ParamDocs returns the scenario's full parameter table sorted by key:
// one entry per Defaults key, carrying its registered description (empty
// when the parameter is undocumented).
func (s *Scenario) ParamDocs() []ParamDoc {
	keys := make([]string, 0, len(s.Defaults))
	for k := range s.Defaults {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]ParamDoc, 0, len(keys))
	for _, k := range keys {
		out = append(out, ParamDoc{Key: k, Default: s.Defaults[k], Desc: s.Docs[k]})
	}
	return out
}

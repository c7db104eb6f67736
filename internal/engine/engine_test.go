package engine

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// Concurrency counters for test/parallel (registered in init below).
var parPeak, parCur atomic.Int32

func init() {
	Register(Scenario{
		Name: "test/parallel",
		Desc: "records concurrency",
		Variants: func(p Params) []Params {
			out := make([]Params, 8)
			for i := range out {
				out[i] = p.With("i", fmt.Sprint(i))
			}
			return out
		},
		Run: func(c Context) (Result, error) {
			n := parCur.Add(1)
			for {
				old := parPeak.Load()
				if n <= old || parPeak.CompareAndSwap(old, n) {
					break
				}
			}
			// Linger until another instance overlaps (or a deadline, so a
			// genuinely serial runner still terminates and fails the test).
			deadline := time.Now().Add(200 * time.Millisecond)
			for parPeak.Load() < 2 && time.Now().Before(deadline) {
				runtime.Gosched()
			}
			parCur.Add(-1)
			return Result{}, nil
		},
	})
	Register(Scenario{
		Name:     "test/echo",
		Desc:     "echoes its parameter",
		Defaults: Params{"x": "1"},
		Check: func(c Context) error {
			if x, most := c.Params.Int("x", 0), 100*c.Shards; x > most {
				return fmt.Errorf("x = %d: must be at most %d", x, most)
			}
			return nil
		},
		Run: func(c Context) (Result, error) {
			var r Result
			r.Add("x", float64(c.Params.Int("x", 0)), "")
			r.Add("seed", float64(c.Seed), "")
			r.Text = fmt.Sprintf("x=%d seed=%d\n", c.Params.Int("x", 0), c.Seed)
			return r, nil
		},
	})
	Register(Scenario{
		Name:     "test/sweep",
		Desc:     "expands into one instance per point",
		Defaults: Params{"points": "3"},
		Variants: func(p Params) []Params {
			n := p.Int("points", 1)
			out := make([]Params, n)
			for i := range out {
				out[i] = p.With("point", fmt.Sprint(i))
			}
			return out
		},
		Run: func(c Context) (Result, error) {
			i := c.Params.Int("point", -1)
			var r Result
			r.Add("point", float64(i), "")
			r.Text = fmt.Sprintf("point %d\n", i)
			return r, nil
		},
	})
	Register(Scenario{
		Name: "test/fail",
		Desc: "always errors",
		Run: func(c Context) (Result, error) {
			return Result{}, fmt.Errorf("deliberate failure")
		},
	})
	Register(Scenario{
		Name: "test/panic",
		Desc: "always panics",
		Run: func(c Context) (Result, error) {
			panic("deliberate panic")
		},
	})
}

func TestParamsAccessors(t *testing.T) {
	p := Params{"i": "42", "f": "2.5", "b": "true", "s": "hi", "list": "1,2, 3", "bad": "x"}
	if got := p.Int("i", 0); got != 42 {
		t.Fatalf("Int = %d", got)
	}
	if got := p.Int("bad", 7); got != 7 {
		t.Fatalf("Int fallback = %d", got)
	}
	if got := p.Int("missing", 7); got != 7 {
		t.Fatalf("Int missing = %d", got)
	}
	if got := p.Float("f", 0); got != 2.5 {
		t.Fatalf("Float = %v", got)
	}
	if !p.Bool("b", false) {
		t.Fatal("Bool")
	}
	if got := p.Str("s", ""); got != "hi" {
		t.Fatalf("Str = %q", got)
	}
	if got := p.Ints("list", nil); len(got) != 3 || got[2] != 3 {
		t.Fatalf("Ints = %v", got)
	}
	if got := p.Floats("missing", []float64{9}); len(got) != 1 || got[0] != 9 {
		t.Fatalf("Floats default = %v", got)
	}
	if got := (Params{"b": "2", "a": "1"}).String(); got != "a=1 b=2" {
		t.Fatalf("String = %q", got)
	}
}

func TestParamsMergeDoesNotMutate(t *testing.T) {
	base := Params{"a": "1"}
	merged := base.Merge(Params{"a": "2", "b": "3"})
	if base["a"] != "1" || merged["a"] != "2" || merged["b"] != "3" {
		t.Fatalf("base=%v merged=%v", base, merged)
	}
}

func TestRegistryLookupAndMatch(t *testing.T) {
	if _, err := Lookup("test/echo"); err != nil {
		t.Fatal(err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("lookup of unknown scenario succeeded")
	}
	scs, err := Match("test")
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) < 4 {
		t.Fatalf("prefix match = %v", scs)
	}
	scs, err = Match("test/ec*")
	if err != nil || len(scs) != 1 || scs[0].Name != "test/echo" {
		t.Fatalf("glob match = %v, %v", scs, err)
	}
	if _, err := Match("zzz*"); err == nil {
		t.Fatal("match of nothing succeeded")
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	Register(Scenario{Name: "test/echo", Run: func(Context) (Result, error) { return Result{}, nil }})
}

func runBytes(t *testing.T, opts Options, jobs []Job) []byte {
	t.Helper()
	var buf bytes.Buffer
	opts.Out = &buf
	if _, err := Run(opts, jobs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The core engine guarantee: identical jobs and seed produce a
// byte-identical output stream, at any worker count and in any format.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	jobs := []Job{
		{Scenario: "test/sweep", Params: Params{"points": "8"}},
		{Scenario: "test/echo", Params: Params{"x": "5"}},
	}
	for _, format := range []string{"text", "json", "csv"} {
		a := runBytes(t, Options{Workers: 1, Seed: 3, Format: format}, jobs)
		b := runBytes(t, Options{Workers: 8, Seed: 3, Format: format}, jobs)
		if !bytes.Equal(a, b) {
			t.Fatalf("format %s: workers=1 and workers=8 differ:\n%s\n----\n%s", format, a, b)
		}
		c := runBytes(t, Options{Workers: 8, Seed: 3, Format: format}, jobs)
		if !bytes.Equal(b, c) {
			t.Fatalf("format %s: repeat run differs", format)
		}
	}
}

func TestRunVariantExpansion(t *testing.T) {
	results, err := Run(Options{Workers: 4}, []Job{{Scenario: "test/sweep", Params: Params{"points": "5"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("got %d instances, want 5", len(results))
	}
	for i, r := range results {
		if got := r.Params.Int("point", -1); got != i {
			t.Fatalf("instance %d has point %d (order not preserved)", i, got)
		}
	}
}

func TestRunSeedPlumbing(t *testing.T) {
	results, err := Run(Options{Seed: 42}, []Job{{Scenario: "test/echo"}, {Scenario: "test/echo", Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Seed != 42 || results[1].Seed != 7 {
		t.Fatalf("seeds = %d, %d", results[0].Seed, results[1].Seed)
	}
}

func TestRunErrorsAndPanicsAreIsolated(t *testing.T) {
	var buf bytes.Buffer
	results, err := Run(Options{Out: &buf}, []Job{
		{Scenario: "test/fail"},
		{Scenario: "test/panic"},
		{Scenario: "test/echo"},
	})
	if err == nil {
		t.Fatal("expected an error")
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	if results[0].Err == nil || results[1].Err == nil || results[2].Err != nil {
		t.Fatalf("error placement wrong: %v / %v / %v", results[0].Err, results[1].Err, results[2].Err)
	}
	if !strings.Contains(results[1].Err.Error(), "panicked") {
		t.Fatalf("panic not converted: %v", results[1].Err)
	}
	if !strings.Contains(buf.String(), "ERROR") {
		t.Fatalf("text output missing error marker:\n%s", buf.String())
	}
}

func TestRunUnknownScenario(t *testing.T) {
	if _, err := Run(Options{}, []Job{{Scenario: "does/not/exist"}}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

// The typed accessors fall back silently, so before Resolve a misspelt
// key ran the defaults; it must fail the request, name the accepted keys,
// and leave the keys a Variants hook adds ("point") alone.
func TestRunRejectsUndeclaredParam(t *testing.T) {
	var buf bytes.Buffer
	_, err := Run(Options{Out: &buf}, []Job{{Scenario: "test/echo", Params: Params{"xx": "5", "zz": "1"}}})
	if err == nil || !strings.Contains(err.Error(), `no parameter "xx"`) || !strings.Contains(err.Error(), "accepts x") {
		t.Fatalf("undeclared parameter: err = %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("a refused request emitted %q", buf.String())
	}
	if _, err := Run(Options{}, []Job{{Scenario: "test/fail", Params: Params{"x": "1"}}}); err == nil || !strings.Contains(err.Error(), "takes none") {
		t.Fatalf("parameter for a scenario without any: err = %v", err)
	}
	if _, err := Run(Options{}, []Job{{Scenario: "test/sweep", Params: Params{"points": "2"}}}); err != nil {
		t.Fatalf("variant-added keys must not be checked: %v", err)
	}
	// A declared key with a value the Variants hook panics on (make with a
	// negative length) is an error like the others, not a crash, and does
	// not hide the undeclared key of the job before it.
	hostile := Job{Scenario: "test/sweep", Params: Params{"points": "-1"}}
	if _, err := Run(Options{Out: &buf}, []Job{{Scenario: "test/echo"}, hostile}); err == nil || !strings.Contains(err.Error(), "test/sweep (points=-1): scenario panicked") || buf.Len() != 0 {
		t.Fatalf("panicking Variants: err = %v, emitted %q", err, buf.String())
	}
	if _, err := Run(Options{}, []Job{{Scenario: "test/echo", Params: Params{"xx": "5"}}, hostile}); err == nil || !strings.Contains(err.Error(), `no parameter "xx"`) {
		t.Fatalf("undeclared parameter before a panicking Variants: err = %v", err)
	}
}

// A scenario's Check refuses a declared key's value at the same door, seeing
// the run as Run would: the defaults merged, the flags applied.
func TestResolveRunsCheck(t *testing.T) {
	if _, err := Resolve("test/echo", Params{"x": "100"}); err != nil {
		t.Fatalf("x=100: %v", err)
	}
	if _, err := Resolve("test/echo", nil); err != nil {
		t.Fatalf("the defaults: %v", err)
	}
	_, err := Resolve("test/echo", Params{"x": "150"})
	if err == nil || !strings.Contains(err.Error(), `scenario "test/echo": x = 150: must be at most 100`) {
		t.Fatalf("x=150: err = %v", err)
	}
	var buf bytes.Buffer
	jobs := []Job{{Scenario: "test/echo"}, {Scenario: "test/echo", Params: Params{"x": "150"}}}
	if _, err := Run(Options{Out: &buf}, jobs); err == nil || !strings.Contains(err.Error(), "must be at most 100") || buf.Len() != 0 {
		t.Fatalf("x=150 on one shard: err = %v, emitted %q", err, buf.String())
	}
	if _, err := Run(Options{Out: &buf, Shards: 2}, jobs); err != nil || !strings.Contains(buf.String(), "x=150") {
		t.Fatalf("x=150 on two shards: err = %v, emitted %q", err, buf.String())
	}
}

func TestParseArgs(t *testing.T) {
	family, err := Match("test")
	if err != nil {
		t.Fatal(err)
	}
	job := func(name string, kv ...string) Job {
		j := Job{Scenario: name, Params: Params{}}
		for i := 0; i < len(kv); i += 2 {
			j.Params[kv[i]] = kv[i+1]
		}
		return j
	}
	var whole []Job
	for _, sc := range family {
		whole = append(whole, job(sc.Name))
	}
	for _, tc := range []struct {
		name    string
		args    []string
		want    []Job
		wantErr string
	}{
		{name: "exact name", args: []string{"test/echo"}, want: []Job{job("test/echo")}},
		{name: "family prefix", args: []string{"test"}, want: whole},
		{name: "glob", args: []string{"test/s*"}, want: []Job{job("test/sweep")}},
		{name: "two scenarios keep command-line order", args: []string{"test/sweep", "test/echo"},
			want: []Job{job("test/sweep"), job("test/echo")}},
		{name: "value holds = and ,", args: []string{"test/echo", "x=sshuffle:n=32,s=2,seed=1"},
			want: []Job{job("test/echo", "x", "sshuffle:n=32,s=2,seed=1")}},
		{name: "empty value", args: []string{"test/echo", "x="}, want: []Job{job("test/echo", "x", "")}},
		{name: "key only one of two declares", args: []string{"test/echo", "test/sweep", "x=5", "points=2"},
			want: []Job{job("test/echo", "x", "5"), job("test/sweep", "points", "2")}},
		{name: "parameter before its scenario", args: []string{"x=5", "test/echo"}, want: []Job{job("test/echo", "x", "5")}},
		{name: "key none declares", args: []string{"test/echo", "test/sweep", "kk=8"}, wantErr: `none of the 2 selected scenarios has a parameter "kk"`},
		{name: "key the one scenario does not declare", args: []string{"test/echo", "kk=8"}, wantErr: "accepts x"},
		{name: "no match", args: []string{"zzz*"}, wantErr: "no scenario matches"},
		{name: "flag after the scenario", args: []string{"test/echo", "-seed", "7"}, wantErr: "flags come first"},
		{name: "parameters without a scenario", args: []string{"x=5"}, wantErr: "no scenario named"},
		{name: "empty command line", wantErr: "no scenario named"},
	} {
		got, err := ParseArgs(tc.args)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestRunActuallyParallel(t *testing.T) {
	parPeak.Store(0)
	if _, err := Run(Options{Workers: 4}, []Job{{Scenario: "test/parallel"}}); err != nil {
		t.Fatal(err)
	}
	if parPeak.Load() < 2 {
		t.Fatalf("peak concurrency %d, want >= 2", parPeak.Load())
	}
}

func TestEmitCSVShape(t *testing.T) {
	out := runBytes(t, Options{Format: "csv"}, []Job{{Scenario: "test/echo"}})
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) != 3 { // header + two metrics
		t.Fatalf("csv lines = %d:\n%s", len(lines), out)
	}
	if lines[0] != "scenario,params,seed,metric,value,unit" {
		t.Fatalf("csv header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "test/echo,x=1,1,x,1,") {
		t.Fatalf("csv row = %q", lines[1])
	}
}

func TestEmitUnknownFormat(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Run(Options{Out: &buf, Format: "yaml"}, []Job{{Scenario: "test/echo"}}); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestParamDocs(t *testing.T) {
	sc := Scenario{
		Name:     "x",
		Defaults: Params{"b": "2", "a": "1"},
		Docs:     map[string]string{"a": "the a knob"},
	}
	docs := sc.ParamDocs()
	if len(docs) != 2 {
		t.Fatalf("want one ParamDoc per default, got %d", len(docs))
	}
	if docs[0].Key != "a" || docs[1].Key != "b" {
		t.Fatalf("docs not sorted by key: %v", docs)
	}
	if docs[0].Desc != "the a knob" || docs[0].Default != "1" {
		t.Fatalf("doc/default not carried: %+v", docs[0])
	}
	if docs[1].Desc != "" {
		t.Fatalf("undocumented param grew a desc: %+v", docs[1])
	}
}

func TestRegisterRejectsDocWithoutDefault(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("registering a doc for a parameter with no default must panic")
		}
	}()
	Register(Scenario{
		Name:     "test/bad-docs",
		Docs:     map[string]string{"nope": "typo"},
		Run:      func(Context) (Result, error) { return Result{}, nil },
		Defaults: Params{"k": "1"},
	})
}

func TestWriteRegistryShowsDocs(t *testing.T) {
	var buf bytes.Buffer
	WriteRegistry(&buf)
	out := buf.String()
	if !strings.Contains(out, "test/echo") {
		t.Fatal("-list output misses registered scenarios")
	}
	if !strings.Contains(out, "x=1") {
		t.Fatal("-list output misses parameter defaults")
	}
}

package engine

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// Concurrency counters for test/parallel (registered in init below).
var parPeak, parCur atomic.Int32

// test/render's renderer counts its calls in renderCalls, panics unless
// textRun is set, and fails with errRender at the point its fail parameter
// names.
var (
	renderCalls atomic.Int32
	textRun     atomic.Bool
	errRender   = errors.New("deliberate render failure")
)

func init() {
	Register(Scenario{
		Name:   "test/parallel",
		Desc:   "records concurrency",
		Params: []Param{Ints("i", "0,1,2,3,4,5,6,7", "").Each("i")},
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
		Name:   "test/echo",
		Desc:   "echoes its parameter",
		Params: []Param{Int("x", "1", "the echoed value")},
		Check: func(c Context) error {
			if x, most := c.Params.Int("x"), 100*c.Shards; x > most {
				return fmt.Errorf("x = %d: must be at most %d", x, most)
			}
			return nil
		},
		Run: func(c Context) (Result, error) {
			var r Result
			r.Add("x", float64(c.Params.Int("x")), "")
			r.Add("seed", float64(c.Seed), "")
			r.Text = Textf("x=%d seed=%d\n", c.Params.Int("x"), c.Seed)
			return r, nil
		},
	})
	// The sweeps hold each of their points under a key no request may set.
	Register(Scenario{
		Name:   "test/sweep",
		Desc:   "expands into one instance per point, panics at panic_at",
		Params: []Param{Ints("points", "0,1,2", "").Each("point"), Int("panic_at", "-1", "")},
		Run: func(c Context) (Result, error) {
			i := c.Params.Int("point")
			if i == c.Params.Int("panic_at") {
				panic("deliberate panic")
			}
			var r Result
			r.Add("point", float64(i), "")
			r.Text = Textf("point %d\n", i)
			return r, nil
		},
	})
	Register(Scenario{
		Name:   "test/render",
		Desc:   "counts its renderer's calls, panics in one outside a text run",
		Params: []Param{Ints("points", "0,1,2,3,4,5,6,7", "").Each("point"), Int("fail", "-1", "")},
		Run: func(c Context) (Result, error) {
			i := c.Params.Int("point")
			var r Result
			r.Add("point", float64(i), "")
			r.Text = func(w io.Writer) error {
				if !textRun.Load() {
					panic("rendered outside a text run")
				}
				renderCalls.Add(1)
				if i == c.Params.Int("fail") {
					return errRender
				}
				_, err := fmt.Fprintf(w, "point %d of %d\n", i, len(c.Params.Ints("points")))
				return err
			}
			return r, nil
		},
	})
	Register(Scenario{
		Name: "test/kinds",
		Desc: "declares every kind",
		Params: []Param{
			Int("i", "42", "the i knob").Min(2).Even(), Float("f", "2.5", ""), Bool("b", "true", ""),
			String("s", "hi", ""), Path("p", "", ""), Enum("e", "", "", "x", "y"),
			Enums("es", "x", "all", "", "x", "y").Each("es"), Ints("is", "1", "").Min(1),
			Floats("fs", "0.5,1", "").Above(0).Each("f1"), Topos("ts", "", ""),
		},
		Run: func(Context) (Result, error) { return Result{}, nil },
	})
	Register(Scenario{
		Name: "test/nest",
		Desc: "sweeps three lists declared out of key order",
		Params: []Param{
			Ints("z", "1", "").Each("z"), Enums("a", "p", "all", "", "p", "q").Each("a"), Floats("m", "1", "").Each("m1"),
		},
		Run: func(Context) (Result, error) { return Result{}, nil },
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

// Every kind parses once into typed storage its accessor reads without a
// default; an instance of a swept list reads one element.
func TestParamsAccessors(t *testing.T) {
	sc, err := Lookup("test/kinds")
	if err != nil {
		t.Fatal(err)
	}
	v, err := sc.parse(sc.defaults.Merge(Params{"is": "3, 4", "ts": "clos,sshuffle:n=32,s=2,seed=1,star", "es": "all"}))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		got, want any
	}{
		{v.Int("i"), 42}, {v.Float("f"), 2.5}, {v.Bool("b"), true}, {v.Str("s"), "hi"}, {v.Str("p"), ""}, {v.Str("e"), ""},
		{v.List("es"), []string{"x", "y"}}, {v.Ints("is"), []int{3, 4}}, {v.Floats("fs"), []float64{0.5, 1}},
		{v.List("ts"), []string{"clos", "sshuffle:n=32,s=2,seed=1", "star"}},
	} {
		if !reflect.DeepEqual(tc.got, tc.want) {
			t.Errorf("got %#v, want %#v", tc.got, tc.want)
		}
	}
	insts := v.instances()
	if len(insts) != 4 {
		t.Fatalf("%d instances, want 4", len(insts))
	}
	if got := insts[3]; got.Str("es") != "y" || got.Float("f1") != 1 || got.Floats("fs")[1] != 1 {
		t.Fatalf("last instance reads es=%q f1=%v", got.Str("es"), got.Float("f1"))
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), `test/kinds reads parameter "nope", which it does not declare`) {
			t.Fatalf("reading an undeclared key: %v", r)
		}
	}()
	v.Int("nope")
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
		{Scenario: "test/sweep", Params: Params{"points": "0,1,2,3,4,5,6,7"}},
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
	results, err := Run(Options{Workers: 4}, []Job{{Scenario: "test/sweep", Params: Params{"points": "0,1,2,3,4"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("got %d instances, want 5", len(results))
	}
	for i, r := range results {
		if got := r.Params["point"]; got != fmt.Sprint(i) {
			t.Fatalf("instance %d has point %s (order not preserved)", i, got)
		}
	}
}

// A sweep is the cross product of its Each lists, the first-declared list
// outermost whatever the keys' order. A list swept under a key of its own
// keeps the request's string beside the element, which is written as a
// request would write it; and no instance carries a key its scenario does
// not declare.
func TestSweepNestsInDeclarationOrder(t *testing.T) {
	results, err := Run(Options{Workers: 3}, []Job{{Scenario: "test/nest", Params: Params{"z": "2,1", "a": "all", "m": "0.50,2"}}})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range results {
		got = append(got, r.Params.String())
	}
	var want []string
	for _, z := range []string{"2", "1"} {
		for _, a := range []string{"p", "q"} {
			for _, m1 := range []string{"0.5", "2"} {
				want = append(want, "a="+a+" m=0.50,2 m1="+m1+" z="+z)
			}
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("instances:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	for _, sc := range List() {
		insts, err := resolve(sc.Name, nil, Options{})
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		for _, iv := range insts {
			for k := range iv.raw {
				if _, ok := sc.defaults[k]; !ok && !slices.ContainsFunc(sc.sweeps, func(p Param) bool { return p.each == k }) {
					t.Errorf("%s: instance %s holds %q, which it does not declare", sc.Name, iv.raw, k)
				}
			}
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

// The renderer contract: a json or csv run never calls Result.Text (the
// test renderer panics if it does, which fails the run), a text run calls
// it exactly once per instance, before Progress sees the instance, with
// the same bytes at any worker count, and a renderer's error is its
// instance's error.
func TestRenderOnlyForText(t *testing.T) {
	run := func(workers int, format string) []byte {
		t.Helper()
		text := format == "text"
		textRun.Store(text)
		renderCalls.Store(0)
		opts := Options{Workers: workers, Seed: 3, Format: format, Progress: func(r RunResult) {
			if (r.Text != "") != text {
				t.Errorf("%s run, workers %d: Progress saw text %q", format, workers, r.Text)
			}
		}}
		out := runBytes(t, opts, []Job{{Scenario: "test/render"}})
		want := int32(0)
		if text {
			want = 8
		}
		if got := renderCalls.Load(); got != want {
			t.Errorf("%s run, workers %d: %d renderer calls for 8 instances, want %d", format, workers, got, want)
		}
		return out
	}
	for _, format := range []string{"json", "csv"} {
		for _, workers := range []int{1, 8} {
			run(workers, format)
		}
	}
	one, eight := run(1, "text"), run(8, "text")
	if !bytes.Equal(one, eight) {
		t.Fatalf("text at workers 1 and 8 differs:\n%s\n----\n%s", one, eight)
	}
	if !strings.Contains(string(one), "point 0 of 8\n") || !strings.Contains(string(one), "point 7 of 8\n") {
		t.Fatalf("text run misses reports:\n%s", one)
	}

	textRun.Store(true)
	var buf bytes.Buffer
	results, err := Run(Options{Workers: 8, Format: "text", Out: &buf}, []Job{{Scenario: "test/render", Params: Params{"fail": "5"}}})
	if want := "engine: test/render (fail=5 point=5 points=0,1,2,3,4,5,6,7): deliberate render failure"; err == nil || err.Error() != want || !errors.Is(err, errRender) {
		t.Fatalf("render error: err = %v, want %q", err, want)
	}
	for i, r := range results {
		if (r.Err != nil) != (i == 5) {
			t.Fatalf("instance %d: err %v", i, r.Err)
		}
	}
	if want := "point 4 of 8\nERROR [fail=5 point=5 points=0,1,2,3,4,5,6,7]: deliberate render failure\npoint 6 of 8\n"; !strings.Contains(buf.String(), want) {
		t.Fatalf("text output misses the ERROR line in instance order:\n%s", buf.String())
	}
}

func TestRunUnknownScenario(t *testing.T) {
	if _, err := Run(Options{}, []Job{{Scenario: "does/not/exist"}}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

// The typed accessors fall back silently, so before Resolve a misspelt
// key ran the defaults; it must fail the request and name the accepted
// keys.
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
	// A declared key with a value Run panics on is an error like the
	// others, not a crash, and does not hide the undeclared key of the job
	// before it.
	hostile := Job{Scenario: "test/sweep", Params: Params{"panic_at": "1"}}
	if _, err := Run(Options{Out: &buf}, []Job{{Scenario: "test/echo"}, hostile}); err == nil ||
		!strings.Contains(err.Error(), "test/sweep (panic_at=1 point=1 points=0,1,2): scenario panicked") ||
		!strings.Contains(buf.String(), "ERROR [panic_at=1 point=1 points=0,1,2]") {
		t.Fatalf("panicking Run: err = %v, emitted %q", err, buf.String())
	}
	if _, err := Run(Options{}, []Job{{Scenario: "test/echo", Params: Params{"xx": "5"}}, hostile}); err == nil || !strings.Contains(err.Error(), `no parameter "xx"`) {
		t.Fatalf("undeclared parameter before a panicking Run: err = %v", err)
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
	if _, err := Resolve("test/echo", Params{"x": "1.5"}); err == nil || !strings.Contains(err.Error(), `scenario "test/echo": parameter x=1.5: want an int`) {
		t.Fatalf("x=1.5: err = %v", err)
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
	sc, err := Lookup("test/kinds")
	if err != nil {
		t.Fatal(err)
	}
	docs := sc.ParamDocs()
	if len(docs) != len(sc.Params) || docs[0].Key != "b" || docs[len(docs)-1].Key != "ts" {
		t.Fatalf("want one ParamDoc per declaration, sorted by key: %v", docs)
	}
	want := map[string]ParamDoc{
		"i":  {Key: "i", Kind: "int", Default: "42", Desc: "the i knob", Range: ">= 2, even"},
		"e":  {Key: "e", Kind: "enum", Choices: []string{"x", "y"}},
		"es": {Key: "es", Kind: "enum list", Default: "x", Choices: []string{"all", "x", "y"}},
		"fs": {Key: "fs", Kind: "float list", Default: "0.5,1", Range: "> 0"},
	}
	for _, d := range docs {
		if w, ok := want[d.Key]; ok && !reflect.DeepEqual(d, w) {
			t.Errorf("got %+v, want %+v", d, w)
		}
	}
}

// What a declaration can still get wrong panics at Register: a key
// declared twice, a default its own declaration refuses.
func TestRegisterRejectsBadDeclaration(t *testing.T) {
	run := func(Context) (Result, error) { return Result{}, nil }
	for _, sc := range []Scenario{
		{Name: "test/dup-key", Run: run, Params: []Param{Int("k", "1", ""), Float("k", "1", "")}},
		{Name: "test/bad-default", Run: run, Params: []Param{Int("k", "abc", "")}},
		{Name: "test/out-of-range", Run: run, Params: []Param{Int("k", "3", "").Min(4)}},
		{Name: "test/not-a-choice", Run: run, Params: []Param{Enum("e", "z", "", "x", "y")}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("registering %s did not panic", sc.Name)
				}
			}()
			Register(sc)
		}()
	}
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
	if !strings.Contains(out, "[int >= 2, even] the i knob") || !strings.Contains(out, "[enum list of all, x, y]") {
		t.Fatalf("-list output misses a kind, its choices or range:\n%s", out)
	}
}

// A topology sweep may mix family names with full spec strings, whose own
// commas must not split them.
func TestSplitTopos(t *testing.T) {
	for in, want := range map[string][]string{
		"":                                   nil,
		"clos, star":                         {"clos", "star"},
		"sshuffle:n=32,s=2,seed=1":           {"sshuffle:n=32,s=2,seed=1"},
		"clos,sshuffle:n=32,s=2,seed=1,star": {"clos", "sshuffle:n=32,s=2,seed=1", "star"},
		"clos:k=4,clos:k=8":                  {"clos:k=4", "clos:k=8"},
	} {
		if got := splitTopos(splitList(in)); !reflect.DeepEqual(got, want) {
			t.Errorf("splitTopos(%q) = %q, want %q", in, got, want)
		}
	}
}

package engine

import (
	"errors"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strconv"
	"strings"
)

// kind is what a parameter's value, or each element of a list, parses as.
type kind uint8

// The kinds of parameter.
const (
	kindInt      kind = iota // strconv.Atoi
	kindFloat                // strconv.ParseFloat
	kindBool                 // strconv.ParseBool
	kindString               // any string
	kindPath                 // a file name
	kindEnum                 // one of the choices ("" too where that is the default)
	kindTopology             // a topology spec, which brings commas of its own
)

var kindNames = [...]string{"int", "float", "bool", "string", "path", "enum", "topology"}

func (k kind) String() string { return kindNames[k] }

// A Param declares one parameter of a scenario, once: its key, kind,
// default string and doc, and where the kind needs them its choices or
// range. Int, Float, … declare one; Min, Above, Even and Each narrow it.
type Param struct {
	Key, Default, Doc string

	kind    kind
	list    bool     // a comma-separated list of kind, blanks trimmed, empty only where the default is
	choices []string // an enum's values
	alias   string   // an enum list: the word for every choice
	each    string   // a list: the key one instance of its sweep holds one element under
	op      string   // ">=" or ">" lo bounds a number or list element; "" = unbounded
	lo      float64
	even    bool
}

func declare(k kind, list bool, key, def, doc string) Param {
	return Param{Key: key, Default: def, Doc: doc, kind: k, list: list}
}

// Int declares an int parameter; Float, Bool, String and Path declare
// theirs the same way, and Ints, Floats and Topos a list of int, float or
// topology.
func Int(key, def, doc string) Param    { return declare(kindInt, false, key, def, doc) }
func Float(key, def, doc string) Param  { return declare(kindFloat, false, key, def, doc) }
func Bool(key, def, doc string) Param   { return declare(kindBool, false, key, def, doc) }
func String(key, def, doc string) Param { return declare(kindString, false, key, def, doc) }
func Path(key, def, doc string) Param   { return declare(kindPath, false, key, def, doc) }
func Ints(key, def, doc string) Param   { return declare(kindInt, true, key, def, doc) }
func Floats(key, def, doc string) Param { return declare(kindFloat, true, key, def, doc) }
func Topos(key, def, doc string) Param  { return declare(kindTopology, true, key, def, doc) }

// Enum declares a parameter that takes one of choices.
func Enum(key, def, doc string, choices ...string) Param {
	p := declare(kindEnum, false, key, def, doc)
	p.choices = choices
	return p
}

// Enums declares a list of choices, in which alias, when not empty, stands
// for every choice in their order.
func Enums[S ~string](key, def, alias, doc string, choices ...S) Param {
	p := Enum(key, def, doc)
	for _, c := range choices {
		p.choices = append(p.choices, string(c))
	}
	p.list, p.alias = true, alias
	return p
}

// Min refuses a number, or a list element, below lo.
func (p Param) Min(lo float64) Param {
	p.op, p.lo = ">=", lo
	return p
}

// Above refuses a number, or a list element, at or below lo.
func (p Param) Above(lo float64) Param {
	p.op, p.lo = ">", lo
	return p
}

// Even refuses an odd int, or an odd list element.
func (p Param) Even() Param {
	p.even = true
	return p
}

// Each sweeps the list: one instance runs per element, holding it under
// key — the list's own key, or one no request may set, beside the list's
// request string — which Run reads with the element's kind. An empty list
// runs one instance with an empty element.
func (p Param) Each(key string) Param {
	p.each = key
	return p
}

// rangeText renders the declared range: ">= 4, even", "> 0", or "".
func (p *Param) rangeText() string {
	r := ""
	if p.op != "" {
		r = p.op + " " + strconv.FormatFloat(p.lo, 'g', -1, 64)
	}
	if p.even {
		r = strings.TrimPrefix(r+", even", ", ")
	}
	return r
}

// parse reads s as p declares it, or as one element of its list when elem.
func (p *Param) parse(s string, elem bool) (any, error) {
	if p.list && !elem {
		return p.parseList(s)
	}
	switch p.kind {
	case kindInt:
		n, err := strconv.Atoi(s)
		return n, p.check(err, "an int", float64(n))
	case kindFloat:
		f, err := strconv.ParseFloat(s, 64)
		return f, p.check(err, "a number", f)
	case kindBool:
		b, err := strconv.ParseBool(s)
		return b, p.check(err, "true or false", 0)
	case kindEnum:
		if slices.Contains(p.choices, s) || s == "" && p.Default == "" {
			return s, nil
		}
		if p.alias != "" {
			return nil, fmt.Errorf("want %s, or a comma list of %v", p.alias, p.choices)
		}
		return nil, fmt.Errorf("want one of %v", p.choices)
	}
	return s, nil
}

// check turns a failed parse into "want what", and refuses a number out
// of the declared range.
func (p *Param) check(err error, what string, v float64) error {
	switch {
	case err != nil:
		return errors.New("want " + what)
	case p.op != "" && !(v > p.lo || p.op == ">=" && v == p.lo), p.even && int64(v)%2 != 0:
		return errors.New("want " + p.rangeText())
	}
	return nil
}

// parseList reads a list into []int, []float64 or []string.
func (p *Param) parseList(s string) (any, error) {
	items := splitList(s)
	if p.kind == kindTopology {
		items = splitTopos(items)
	}
	if len(items) == 0 && p.Default != "" {
		return nil, errors.New("want a non-empty list")
	}
	switch p.kind {
	case kindInt:
		return parseEach[int](p, items)
	case kindFloat:
		return parseEach[float64](p, items)
	}
	return parseEach[string](p, items)
}

// parseEach reads every item as one element of p, an enum list's alias as
// every choice.
func parseEach[T any](p *Param, items []string) (any, error) {
	var out []T
	for _, item := range items {
		elems := []string{item}
		if item == p.alias {
			elems = p.choices
		}
		for _, e := range elems {
			v, err := p.parse(e, true)
			if err != nil {
				return nil, fmt.Errorf("%q: %w", e, err)
			}
			out = append(out, v.(T))
		}
	}
	return out, nil
}

// splitList splits a comma-separated value, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// splitTopos joins the items of a topology list back into specs: a full
// spec string brings commas of its own (sshuffle:n=32,s=2,seed=1), so a
// key=value item continues the spec before it.
func splitTopos(items []string) []string {
	var out []string
	for _, item := range items {
		if n := len(out); n > 0 && strings.Contains(out[n-1], ":") &&
			strings.Contains(item, "=") && !strings.Contains(item, ":") {
			out[n-1] += "," + item
			continue
		}
		out = append(out, item)
	}
	return out
}

// Values is one request's or one instance's parameters: the strings it
// carries, which are what a result emits, and every declared one parsed
// once into its kind. The accessors take no default, since every declared
// key has a value; reading a key the scenario does not declare, or as a
// kind it is not declared as, is a programmer error and panics, which the
// runner turns into the instance's error.
type Values struct {
	sc    *Scenario
	raw   Params
	typed map[string]any
}

func (v Values) get(key string) any {
	x, ok := v.typed[key]
	if !ok {
		panic(fmt.Sprintf("engine: %s reads parameter %q, which it does not declare", v.sc.Name, key))
	}
	return x
}

// Int, Float, Bool, Str (string, path, enum, one element of an enum or
// topology list), Ints, Floats and List (enum list, topology list) read a
// value as its kind.
func (v Values) Int(key string) int          { return v.get(key).(int) }
func (v Values) Float(key string) float64    { return v.get(key).(float64) }
func (v Values) Bool(key string) bool        { return v.get(key).(bool) }
func (v Values) Str(key string) string       { return v.get(key).(string) }
func (v Values) Ints(key string) []int       { return v.get(key).([]int) }
func (v Values) Floats(key string) []float64 { return v.get(key).([]float64) }
func (v Values) List(key string) []string    { return v.get(key).([]string) }

// parse reads p, the request merged over the defaults, into the
// scenario's kinds.
func (sc *Scenario) parse(p Params) (Values, error) {
	v := Values{sc: sc, raw: p, typed: make(map[string]any, len(sc.Params))}
	for i := range sc.Params {
		d := &sc.Params[i]
		x, err := d.parse(p[d.Key], false)
		if err != nil {
			return Values{}, fmt.Errorf("engine: scenario %q: parameter %s=%s: %w", sc.Name, d.Key, p[d.Key], err)
		}
		v.typed[d.Key] = x
	}
	return v, nil
}

// instances expands v into one instance per element of the cross product
// of the scenario's Each lists, the first-declared list outermost; v
// itself when the scenario sweeps no list. An instance is v with each
// list's element under its Each key, written as fmt.Sprint writes it (an
// int as strconv.Itoa, a float as %g); an empty list is one empty
// element. Run sees exactly these.
func (v Values) instances() []Values {
	insts := []Values{v}
	for _, d := range v.sc.sweeps {
		list := reflect.ValueOf(v.get(d.Key))
		var next []Values
		for _, in := range insts {
			for i := range max(list.Len(), 1) {
				var x any = ""
				if list.Len() > 0 {
					x = list.Index(i).Interface()
				}
				w := Values{sc: v.sc, raw: in.raw.With(d.each, fmt.Sprint(x)), typed: maps.Clone(in.typed)}
				w.typed[d.each] = x
				next = append(next, w)
			}
		}
		insts = next
	}
	return insts
}

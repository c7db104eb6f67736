package engine

import (
	"fmt"
	"path"
	"slices"
	"sort"
	"strings"
	"sync"
)

// The global scenario registry. Registration happens in package init
// functions (internal/scenarios); lookups happen from cmd binaries and
// tests. The mutex makes the registry safe for parallel tests.
var (
	regMu    sync.RWMutex
	registry = make(map[string]*Scenario)
)

// Register adds a scenario to the global registry. It panics on a
// duplicate scenario or parameter, or a default its own declaration
// refuses — all programmer errors.
func Register(s Scenario) {
	if s.Name == "" || s.Run == nil {
		panic("engine: scenario needs a name and a Run function")
	}
	sc := s
	for _, p := range s.Params {
		if p.each != "" {
			sc.sweeps = append(sc.sweeps, p)
		}
	}
	sc.Params = slices.Clone(s.Params)
	slices.SortFunc(sc.Params, func(a, b Param) int { return strings.Compare(a.Key, b.Key) })
	sc.defaults = make(Params, len(sc.Params))
	for _, p := range sc.Params {
		sc.defaults[p.Key] = p.Default
	}
	if len(sc.defaults) < len(sc.Params) {
		panic("engine: " + s.Name + " declares a parameter twice")
	}
	if _, err := sc.parse(sc.defaults); err != nil {
		panic(err)
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[s.Name]; dup {
		panic("engine: duplicate scenario " + s.Name)
	}
	registry[s.Name] = &sc
}

// Lookup returns the named scenario.
func Lookup(name string) (*Scenario, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	sc, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("engine: unknown scenario %q (run with -list to see the registry)", name)
	}
	return sc, nil
}

// Resolve returns the named scenario after parsing the request, merged
// over the defaults, into the kinds the scenario declares. Every door —
// the runner, the command line, stardustd's submit handler — calls it, so
// a key the scenario does not declare, a value that does not parse as its
// key's kind or falls outside its range, and whatever the scenario's Check
// refuses under the engine's default options, is an error naming the key
// before anything is queued, keyed, forwarded or built.
func Resolve(name string, req Params) (*Scenario, error) {
	insts, err := resolve(name, req, Options{})
	if err != nil {
		return nil, err
	}
	return insts[0].sc, nil
}

// resolve is Resolve for a run under opts, returning the instances the
// request expands into: Check sees each as Run would.
func resolve(name string, req Params, opts Options) ([]Values, error) {
	sc, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	var unknown []string
	for k := range req {
		if _, ok := sc.defaults[k]; !ok {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown) // map order must not pick the message
		return nil, sc.noParam(unknown[0])
	}
	v, err := sc.parse(sc.defaults.Merge(req))
	if err != nil {
		return nil, err
	}
	insts := v.instances()
	if sc.Check == nil {
		return insts, nil
	}
	for _, iv := range insts {
		if err := sc.Check(opts.context(iv, 0)); err != nil {
			return nil, fmt.Errorf("engine: scenario %q: %w", sc.Name, err)
		}
	}
	return insts, nil
}

// noParam is the error for a key the scenario does not declare; it names
// the keys it does.
func (s *Scenario) noParam(key string) error {
	accepts := "it takes none"
	if len(s.Params) > 0 {
		var keys []string
		for _, p := range s.Params {
			keys = append(keys, p.Key)
		}
		accepts = "it accepts " + strings.Join(keys, ", ")
	}
	return fmt.Errorf("engine: scenario %q has no parameter %q (%s)", s.Name, key, accepts)
}

// List returns all registered scenarios sorted by name.
func List() []*Scenario {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]*Scenario, 0, len(registry))
	for _, sc := range registry {
		out = append(out, sc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Match resolves a pattern to scenarios, sorted by name. A pattern is an
// exact name, a family prefix ("htsim" matches "htsim/*"), or a
// path.Match glob ("fabric/*", "*/fig*").
func Match(pattern string) ([]*Scenario, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	if sc, ok := registry[pattern]; ok {
		return []*Scenario{sc}, nil
	}
	var out []*Scenario
	for name, sc := range registry {
		if strings.HasPrefix(name, pattern+"/") {
			out = append(out, sc)
			continue
		}
		if ok, err := path.Match(pattern, name); err == nil && ok {
			out = append(out, sc)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("engine: no scenario matches %q", pattern)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

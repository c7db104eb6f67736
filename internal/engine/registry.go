package engine

import (
	"fmt"
	"path"
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
// duplicate or malformed registration — both are programmer errors.
func Register(s Scenario) {
	if s.Name == "" || s.Run == nil {
		panic("engine: scenario needs a name and a Run function")
	}
	for k := range s.Docs {
		if _, ok := s.Defaults[k]; !ok {
			panic("engine: " + s.Name + " documents parameter " + k + " that has no default")
		}
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[s.Name]; dup {
		panic("engine: duplicate scenario " + s.Name)
	}
	sc := s
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

// Resolve returns the named scenario after checking that it declares
// every requested parameter. The typed Params accessors fall back
// silently on what they cannot find, so a misspelt key would run the
// defaults under a second name; every door — the runner, the command
// line, stardustd's submit handler — refuses it here instead, and with it
// whatever the scenario's Check refuses, under the engine's default options.
func Resolve(name string, req Params) (*Scenario, error) {
	return resolve(name, req, Options{})
}

// resolve is Resolve for a run under opts: Check sees the Context Run would.
func resolve(name string, req Params, opts Options) (*Scenario, error) {
	sc, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	var unknown []string
	for k := range req {
		if _, ok := sc.Defaults[k]; !ok {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown) // map order must not pick the message
		return nil, sc.noParam(unknown[0])
	}
	if sc.Check != nil {
		c := opts.context(sc.Defaults.Merge(req), 0)
		if err := sc.Check(c); err != nil {
			return nil, fmt.Errorf("engine: scenario %q: %w", sc.Name, err)
		}
	}
	return sc, nil
}

// noParam is the error for a key the scenario does not declare; it names
// the keys it does.
func (s *Scenario) noParam(key string) error {
	accepts := "it takes none"
	if len(s.Defaults) > 0 {
		var keys []string
		for _, d := range s.ParamDocs() {
			keys = append(keys, d.Key)
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

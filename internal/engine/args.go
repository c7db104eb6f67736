package engine

import (
	"errors"
	"fmt"
	"strings"
)

// ParseArgs turns the words after the engine flags into jobs — the
// command line speaks the registry's vocabulary, scenario names and
// key=value parameters, exactly as -list prints them:
//
//	fabric/parscale k=4 hotspot=6 shards=2
//	scaling/appendixE fabric/recovery fabric/pushpull
//	htsim proto=Stardust
//
// A word without "=" selects scenarios through Match (exact name, family
// prefix or glob), one job each, in command-line order. A word with "="
// is a parameter, split at the first "=" so a value may hold more of
// them ("topo=sshuffle:n=32,s=2,seed=1"); it applies to every selected
// scenario that declares the key and is an error when none does. Flags
// belong before the first word: the flag package stops parsing there, so
// a later "-seed 7" would otherwise be taken for a scenario.
func ParseArgs(args []string) ([]Job, error) {
	var (
		scs     []*Scenario
		assigns []string
	)
	for _, a := range args {
		switch {
		case strings.HasPrefix(a, "-"):
			return nil, fmt.Errorf("engine: %s follows a scenario or parameter; flags come first: [flags] <scenario>... [key=value]...", a)
		case strings.Contains(a, "="):
			assigns = append(assigns, a)
		default:
			matched, err := Match(a)
			if err != nil {
				return nil, err
			}
			scs = append(scs, matched...)
		}
	}
	if len(scs) == 0 {
		return nil, errors.New("engine: no scenario named (-list shows the registry)")
	}
	jobs := make([]Job, len(scs))
	for i, sc := range scs {
		jobs[i] = Job{Scenario: sc.Name, Params: Params{}}
	}
	for _, a := range assigns {
		key, val, _ := strings.Cut(a, "=")
		used := false
		for i, sc := range scs {
			if _, ok := sc.Defaults[key]; ok {
				jobs[i].Params[key] = val
				used = true
			}
		}
		if used {
			continue
		}
		if len(scs) == 1 {
			return nil, scs[0].noParam(key)
		}
		return nil, fmt.Errorf("engine: none of the %d selected scenarios has a parameter %q (-list shows what each accepts)", len(scs), key)
	}
	return jobs, nil
}

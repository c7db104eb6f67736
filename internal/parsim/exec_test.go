package parsim

import (
	"testing"
	"time"

	"stardust/internal/sim"
)

// feed runs n epochs through g, each costing what cost says for the mode
// it ran in.
func feed(g *governor, n int, cost func(fan bool) float64) {
	for i := 0; i < n; i++ {
		g.sample(cost(g.fan))
	}
}

func flat(inline, fanned float64) func(bool) float64 {
	return func(fan bool) float64 {
		if fan {
			return fanned
		}
		return inline
	}
}

func TestGovernorConvergesFromEitherStart(t *testing.T) {
	for _, tc := range []struct {
		name           string
		inline, fanned float64
		wantFan        bool
	}{
		{"hand-offs lose", 70, 100, false},
		{"hand-offs pay", 100, 55, true},
	} {
		for _, startFan := range []bool{false, true} {
			g := governor{hold: minHold, fan: startFan}
			feed(&g, 2*minHold+2, flat(tc.inline, tc.fanned))
			if g.fan != tc.wantFan || g.probing {
				t.Errorf("%s, start fan=%v: after %d epochs fan=%v probing=%v",
					tc.name, startFan, 2*minHold+2, g.fan, g.probing)
			}
			wantSwitches := uint64(0)
			if startFan != tc.wantFan {
				wantSwitches = 1
			}
			if g.switches != wantSwitches {
				t.Errorf("%s, start fan=%v: %d switches, want %d", tc.name, startFan, g.switches, wantSwitches)
			}
		}
	}
}

// Every probe the incumbent wins doubles the distance to the next one, up
// to the cap, so a long run spends a vanishing share of its epochs probing.
func TestGovernorBackOffDoublesToCap(t *testing.T) {
	g := governor{hold: minHold}
	cost := flat(70, 100)
	for want := 2 * minHold; g.probes < 12; want = min(2*want, maxHold) {
		for n := g.probes; g.probes == n || g.probing; { // up to and through the next probe
			feed(&g, 1, cost)
		}
		if g.hold != want || g.fan || g.switches != 0 {
			t.Fatalf("after probe %d: hold=%d fan=%v switches=%d, want hold %d and inline",
				g.probes, g.hold, g.fan, g.switches, want)
		}
	}
	if g.hold != maxHold {
		t.Fatalf("hold = %d after 12 lost probes, want the cap %d", g.hold, maxHold)
	}
	// 6,256 windows are 195 epochs: the benchmark's run probes 6 times.
	g = governor{hold: minHold}
	fanned := 0
	for i := 0; i < 6256/epochWindows; i++ {
		if g.fan {
			fanned++
		}
		feed(&g, 1, cost)
	}
	if g.probes != 6 || fanned != 6 {
		t.Fatalf("195 epochs: %d probes, %d fanned epochs, want 6 and 6", g.probes, fanned)
	}
}

func TestGovernorMarginHoldsTheIncumbent(t *testing.T) {
	g := governor{hold: minHold}
	feed(&g, 500, flat(100, 91)) // 9% cheaper: not worth a switch
	if g.fan && !g.probing || g.switches != 0 || g.probes == 0 {
		t.Fatalf("9%% cheaper probe: fan=%v switches=%d probes=%d", g.fan, g.switches, g.probes)
	}
	feed(&g, 2*maxHold, flat(100, 89)) // 11% cheaper: is
	if g.switches != 1 {
		t.Fatalf("11%% cheaper probe: switches=%d", g.switches)
	}
}

// When the load changes so that the other mode becomes the cheaper one,
// the governor follows at its next probe: at most hold epochs later.
func TestGovernorFollowsALoadChange(t *testing.T) {
	g := governor{hold: minHold}
	feed(&g, 1000, flat(70, 100))
	if g.fan && !g.probing || g.hold != maxHold {
		t.Fatalf("before the change: fan=%v hold=%d", g.fan, g.hold)
	}
	for g.probing || g.held != 0 { // finish the hold period in progress
		feed(&g, 1, flat(70, 100))
	}
	hold := g.hold
	feed(&g, hold+1, flat(100, 60)) // hold incumbent epochs, one probe
	if !g.fan || g.probing || g.switches != 1 || g.hold != minHold {
		t.Fatalf("%d epochs after the change: fan=%v probing=%v switches=%d hold=%d",
			hold+1, g.fan, g.probing, g.switches, g.hold)
	}
}

// modeClock is an injected clock: every read advances it by what one
// epoch costs in the mode the engine is in.
type modeClock struct {
	eng            *Engine
	t              time.Time
	reads          int
	inline, fanned time.Duration
}

func (c *modeClock) now() time.Time {
	c.reads++
	if c.eng.gov.fan {
		c.t = c.t.Add(c.fanned)
	} else {
		c.t = c.t.Add(c.inline)
	}
	return c.t
}

func governed(t *testing.T, inline, fanned time.Duration) (*Engine, *modeClock) {
	t.Helper()
	if raceEnabled {
		t.Skip("race builds bypass the governor")
	}
	eng := New(Config{Shards: 2, Lookahead: sim.Microsecond})
	clk := &modeClock{eng: eng, t: time.Unix(0, 0), inline: inline, fanned: fanned}
	eng.clock = clk.now
	return eng, clk
}

// The engine wires the governor to its clock: one long Run and many
// one-window StepOwned calls both converge on the cheaper mode and report
// what they did.
func TestEngineFollowsInjectedClock(t *testing.T) {
	const epochs = 40
	for _, tc := range []struct {
		name           string
		inline, fanned time.Duration
		wantFan        bool
	}{
		{"hand-offs lose", 70 * time.Microsecond, 100 * time.Microsecond, false},
		{"hand-offs pay", 100 * time.Microsecond, 60 * time.Microsecond, true},
	} {
		for _, step := range []bool{false, true} {
			eng, clk := governed(t, tc.inline, tc.fanned)
			if step {
				// A stepped epoch is 32 spans: the clock charges each read,
				// so the per-mode ratio is what survives.
				for w := 0; w < epochs*epochWindows; w++ {
					eng.StepOwned([]bool{true, true}, nil)
				}
			} else {
				eng.Run(epochs * epochWindows * sim.Microsecond)
			}
			st := eng.Stats()
			if eng.gov.fan != tc.wantFan {
				t.Errorf("%s step=%v: ended with fan=%v; %+v", tc.name, step, eng.gov.fan, st)
			}
			if st.Windows != epochs*epochWindows || st.Probes == 0 || st.Probes > 6 {
				t.Errorf("%s step=%v: %+v", tc.name, step, st)
			}
			if tc.wantFan {
				// Inline: the first hold period and every probe after the switch.
				if st.Switches != 1 || st.Fanned != (epochs-minHold-(st.Probes-1))*epochWindows {
					t.Errorf("%s step=%v: %+v, want one switch and fan-out between probes ever after", tc.name, step, st)
				}
			} else if st.Switches != 0 || st.Fanned != st.Probes*epochWindows {
				t.Errorf("%s step=%v: %+v, want only the probe epochs fanned", tc.name, step, st)
			}
			if !step && clk.reads != epochs+2 {
				t.Errorf("%s: %d clock reads for %d epochs in one Run, want one per epoch plus the call's two", tc.name, clk.reads, epochs)
			}
		}
	}
}

// An epoch cut short by the end of a call produces no sample; its windows
// are carried into the next call.
func TestPartialEpochsCarryOver(t *testing.T) {
	eng, _ := governed(t, time.Microsecond, time.Microsecond)
	at := sim.Time(0)
	run := func(windows int) {
		at += sim.Time(windows) * sim.Microsecond
		eng.Run(at)
	}
	for i := 0; i < minHold*epochWindows-1; i++ { // one window short of the first probe
		run(1)
	}
	if eng.gov.fan || eng.gov.probes != 0 || eng.gov.windows != epochWindows-1 {
		t.Fatalf("one window short: %+v", eng.gov)
	}
	run(3)
	if !eng.gov.fan || eng.gov.probes != 1 || eng.gov.windows != 2 {
		t.Fatalf("after the boundary: %+v", eng.gov)
	}
	// A drain that goes quiet mid-epoch is a partial epoch too.
	fired := false
	eng.Shard(1).Sim().At(at+5*sim.Microsecond, func() { fired = true })
	eng.RunUntilQuiet(at + sim.Second)
	if !fired || eng.gov.probes != 1 || eng.gov.windows != 2+6 {
		t.Fatalf("after the drain: fired=%v %+v", fired, eng.gov)
	}
}

// With a single shard to execute there is no choice to make: no clock
// read, no worker, no governor state.
func TestSingleShardNeverReadsTheClock(t *testing.T) {
	clock := func() time.Time {
		t.Error("clock read with one shard to run")
		return time.Time{}
	}
	solo := New(Config{Shards: 1, Lookahead: sim.Microsecond})
	solo.clock = clock
	solo.Run(3 * epochWindows * sim.Microsecond)
	solo.RunUntilQuiet(sim.Second)
	if !raceEnabled { // allocation counts mean nothing under the detector
		at := solo.Now()
		if n := testing.AllocsPerRun(100, func() { at += sim.Microsecond; solo.Run(at) }); n != 0 {
			t.Errorf("a one-shard Run call allocates %v times", n)
		}
	}

	// A distributed peer owning one of several shards, and a coordinator
	// owning none, are in the same position.
	multi := New(Config{Shards: 3, Lookahead: sim.Microsecond})
	multi.clock = clock
	for w := 0; w < 3*epochWindows; w++ {
		multi.StepOwned([]bool{false, true, false}, func(int, int, Mail) {})
		multi.StepOwned([]bool{false, false, false}, nil)
	}
	for _, eng := range []*Engine{solo, multi} {
		if st := eng.Stats(); st.Fanned != 0 || st.Probes != 0 || eng.gov.windows != 0 {
			t.Errorf("%d shards: %+v, governor %+v", eng.Shards(), st, eng.gov)
		}
	}
}

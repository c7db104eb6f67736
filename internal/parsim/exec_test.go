package parsim

import (
	"math/rand"
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
			feed(&g, minHold+2, flat(tc.inline, tc.fanned)) // the hold, then a probe's two epochs
			if g.fan != tc.wantFan || g.probing {
				t.Errorf("%s, start fan=%v: after %d epochs fan=%v probing=%v",
					tc.name, startFan, minHold+2, g.fan, g.probing)
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
	// 6,256 windows are 195 epochs: where inline wins, the benchmark's run
	// probes 5 times, two epochs each.
	g = startGovernor()
	fanned := 0
	for i := 0; i < 6256/epochWindows; i++ {
		if g.fan {
			fanned++
		}
		feed(&g, 1, cost)
	}
	if g.probes != 5 || fanned != 10 {
		t.Fatalf("195 epochs: %d probes, %d fanned epochs, want 5 and 10", g.probes, fanned)
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
	for g.probing || g.moved || g.held != 0 { // finish the hold period in progress
		feed(&g, 1, flat(70, 100))
	}
	hold := g.hold
	feed(&g, hold+2, flat(100, 60)) // hold incumbent epochs, a probe's two
	if !g.fan || g.probing || g.switches != 1 || g.hold != minHold {
		t.Fatalf("%d epochs after the change: fan=%v probing=%v switches=%d hold=%d",
			hold+2, g.fan, g.probing, g.switches, g.hold)
	}
}

// noisy is flat with every epoch off by up to ±8 %, uniformly: what two
// identical epochs of the K=8 benchmark differ by on the reference VM.
func noisy(rng *rand.Rand, inline, fanned float64) func(bool) float64 {
	cost := flat(inline, fanned)
	return func(fan bool) float64 { return cost(fan) * (1 + (2*rng.Float64()-1)*0.08) }
}

// The rule the governor had before — a probe's only epoch against the
// incumbent's latest — switched at least once in 31 of these 100 equal-cost
// runs and more than a pair of times in 3 (ROADMAP's "1 run in 10 shows a
// wrong switch pair" was taken on runs a fifth as long): this test fails
// at that rule. Judged against min(smoothed, latest) a few runs still do —
// a probe 8 % under meets an incumbent 8 % over — and none twice.
func TestGovernorUnderNoise(t *testing.T) {
	const seeds, epochs = 100, 1000
	late, switched := 0, 0
	for seed := int64(0); seed < seeds; seed++ {
		// Fan-out truly 20 % cheaper: found by the first probe (the cold
		// epoch, the hold, the probe's two: 7 epochs) or, when the noise
		// hid it there, by the second or third; and noise takes it away
		// and brings it back at most once in 1,000 epochs.
		g, cost := startGovernor(), noisy(rand.New(rand.NewSource(seed)), 100, 80)
		feed(&g, 8, cost)
		if g.switches != 1 {
			late++
		}
		feed(&g, 32, cost)
		if g.switches != 1 {
			t.Errorf("seed %d, fan-out 20%% cheaper: %d switches after 40 epochs, want fan-out the incumbent", seed, g.switches)
		}
		feed(&g, epochs-40, cost)
		if g.switches > 3 || g.fan == g.probing {
			t.Errorf("seed %d, fan-out 20%% cheaper: %d switches in %d epochs, ended fan=%v probing=%v",
				seed, g.switches, epochs, g.fan, g.probing)
		}
		// Truly equal: nothing to find.
		g, cost = startGovernor(), noisy(rand.New(rand.NewSource(seed)), 100, 100)
		feed(&g, epochs, cost)
		if g.switches > 2 {
			t.Errorf("seed %d, equal costs: %d switches in %d epochs", seed, g.switches, epochs)
		}
		if g.switches > 0 {
			switched++
		}
	}
	if late > seeds/20 {
		t.Errorf("fan-out 20%% cheaper: not the incumbent within 8 epochs in %d of %d runs", late, seeds)
	}
	if switched > seeds/10 {
		t.Errorf("equal costs: %d of %d runs switched", switched, seeds)
	}
	t.Logf("20%% cheaper found late in %d of %d runs; equal costs switched in %d", late, seeds, switched)
}

// A probe's first epoch pays for moving the shards' working sets to other
// processors' caches — about an epoch's worth at K=8 — and is not held
// against the mode: the probe is judged on its second.
func TestGovernorForgivesTheMove(t *testing.T) {
	g := startGovernor()
	for i := 0; !g.probing; i++ {
		g.sample(100)
		if i > 1+minHold {
			t.Fatal("no probe after the first hold")
		}
	}
	g.sample(300) // three times the incumbent: the move
	if !g.fan || !g.probing {
		t.Fatalf("the probe ended on its first epoch: fan=%v probing=%v", g.fan, g.probing)
	}
	g.sample(80)
	if !g.fan || g.probing || g.switches != 1 {
		t.Fatalf("a probe 20%% cheaper once settled lost: fan=%v probing=%v switches=%d", g.fan, g.probing, g.switches)
	}
	// Going back costs a move too: the incumbent's first epoch after a lost
	// probe does not enter its average.
	for !g.probing {
		g.sample(80)
	}
	g.sample(85)
	g.sample(85) // lost
	before := g.cost
	if g.sample(240); g.cost != before || g.fan != true {
		t.Fatalf("the epoch after a lost probe moved the incumbent's cost %v -> %v", before, g.cost)
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
	eng.procs = 2 // whatever -cpu says: with one processor nothing is governed
	eng.spin = 0  // no wait polls, so none reports the host of the test as starving it
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
				// Inline: the cold epoch, the first hold period and the two
				// epochs of every probe after the switch.
				if st.Switches != 1 || st.Fanned != (epochs-1-minHold-2*(st.Probes-1))*epochWindows {
					t.Errorf("%s step=%v: %+v, want one switch and fan-out between probes ever after", tc.name, step, st)
				}
			} else if st.Switches != 0 || st.Fanned != 2*st.Probes*epochWindows {
				t.Errorf("%s step=%v: %+v, want only the probe epochs fanned", tc.name, step, st)
			}
			if !step && clk.reads != epochs+2 {
				t.Errorf("%s: %d clock reads for %d epochs in one Run, want one per epoch plus the call's two", tc.name, clk.reads, epochs)
			}
		}
	}
}

// Hand-offs that park instead of polling say the shards' threads have no
// processor each, and say it without a clock: a probe that meets them ends
// within the epoch — nine windows in, not two epochs later — and an
// incumbent fan-out hands over to inline on the spot. After such a probe
// fan-out stays away for starvedHold epochs, twice as long the next time.
func TestGovernorLeavesFanOutWhenStarved(t *testing.T) {
	eng, _ := governed(t, 100*time.Microsecond, 60*time.Microsecond) // by the clock, hand-offs pay
	starve := true
	eng.OnBarrier(func(sim.Time) {
		if starve && eng.gov.fan {
			eng.parked.Add(1) // what a wait that outlasted its spin does
		}
	})
	run := func(epochs int) { eng.Run(eng.Now() + sim.Time(epochs*epochWindows)*sim.Microsecond) }
	quarter := uint64(epochWindows/4 + 1)

	run(1 + minHold + 1)
	st := eng.Stats()
	if st.Probes != 1 || st.Fanned != quarter || st.Switches != 0 || eng.gov.fan || eng.gov.hold != starvedHold {
		t.Fatalf("starved probe: %+v, governor %+v", st, eng.gov)
	}
	run(1 + starvedHold + 1) // the epoch that moved back, the hold, one of the next probe
	if st = eng.Stats(); st.Probes != 2 || st.Fanned != 2*quarter || eng.gov.fan || eng.gov.hold != 2*starvedHold {
		t.Fatalf("second starved probe: %+v, governor %+v", st, eng.gov)
	}

	// With processors to poll on, the next probe wins ...
	starve = false
	run(1 + 2*starvedHold + 2)
	if st = eng.Stats(); st.Probes != 3 || st.Switches != 1 || !eng.gov.fan || eng.gov.probing {
		t.Fatalf("fed probe: %+v, governor %+v", st, eng.gov)
	}
	// ... and when they go away again, so does fan-out, before the epoch is over.
	starve = true
	fanned := st.Fanned
	run(1)
	if st = eng.Stats(); st.Fanned-fanned != quarter || st.Switches != 2 || eng.gov.fan || eng.gov.hold != minHold {
		t.Fatalf("starved incumbent: %+v, governor %+v", st, eng.gov)
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
	for i := 0; i < (1+minHold)*epochWindows-1; i++ { // one window short of the first probe
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

package parsim

import (
	"fmt"
	"testing"

	"stardust/internal/sim"
)

// A call fans out when every shard it runs has a processor and it runs
// more than one window, and otherwise runs inline, allocates nothing and
// times nothing; a race build always fans out. A one-window call — every
// StepOwned — stays inline, and so does one shard to run: a one-shard
// engine, a distributed peer owning one of several, the coordinator
// owning none.
func TestFanOutWhenEachShardHasAProcessor(t *testing.T) {
	const windows = 3 * epochWindows
	for _, procs := range []int{1, 2, 4} {
		for _, shards := range []int{2, 4} {
			for _, step := range []bool{false, true} {
				name := fmt.Sprintf("procs=%d shards=%d step=%v", procs, shards, step)
				r := newRing(shards, 12, windows, 8)
				r.eng.procs = procs // whatever -cpu says
				r.eng.spin = 0      // no wait polls, so none reports the host of the test as starving it
				st := r.run(windows, step).stats
				fans := shards <= procs && !step || raceEnabled
				want := uint64(0)
				if fans {
					want = windows
				}
				if st.Windows != windows || st.Fanned != want {
					t.Errorf("%s: %d of %d windows fanned, want %d", name, st.Fanned, st.Windows, want)
				}
				if fans {
					continue
				}
				for i, d := range st.Busy {
					if d != 0 || st.BusyEvents[i] != 0 {
						t.Errorf("%s: shard %d timed %v over %d events inline", name, i, d, st.BusyEvents[i])
					}
				}
				if !raceEnabled { // allocation counts mean nothing under the detector
					// The ring's hooks allocate; an idle engine does not.
					eng := New(Config{Shards: shards, Lookahead: sim.Microsecond})
					eng.procs = procs
					call := func() { eng.Run(eng.Now() + 2*sim.Microsecond) }
					if step {
						owned := allOwned(shards)
						call = func() { eng.StepOwned(owned, nil) }
					}
					if n := testing.AllocsPerRun(20, call); n != 0 {
						t.Errorf("%s: an inline call allocates %v times", name, n)
					}
				}
			}
		}
	}

	solo := New(Config{Shards: 1, Lookahead: sim.Microsecond})
	multi := New(Config{Shards: 3, Lookahead: sim.Microsecond})
	solo.procs, multi.procs = 4, 4
	for w := 0; w < windows; w++ {
		solo.Run(solo.Now() + sim.Microsecond)
		multi.StepOwned([]bool{false, true, false}, func(int, int, Mail) {})
		multi.StepOwned([]bool{false, false, false}, nil)
	}
	solo.RunUntilQuiet(sim.Second)
	for _, eng := range []*Engine{solo, multi} {
		if st := eng.Stats(); st.Fanned != 0 {
			t.Errorf("%d shards, one or none to run: %d windows fanned", eng.Shards(), st.Fanned)
		}
	}
	if !raceEnabled {
		at := solo.Now()
		if n := testing.AllocsPerRun(100, func() { at += sim.Microsecond; solo.Run(at) }); n != 0 {
			t.Errorf("a one-shard Run call allocates %v times", n)
		}
	}
}

// Hand-offs that park instead of polling say the shards' threads have no
// processor each, and say it without a clock. Fan-out that parks in more
// than a quarter of an epoch's windows ends within the epoch — nine
// windows in — for starvedHold epochs, twice as long each time it starves
// again, up to maxHold. A fanned epoch that does not park ends the
// doubling; one that parks in a quarter of its windows neither starves
// nor ends it. The back-off lives in the Engine: short Run calls keep it
// as one long one does.
func TestGovernorLeavesFanOutWhenStarved(t *testing.T) {
	if raceEnabled {
		t.Skip("race builds fan out every window")
	}
	eng := New(Config{Shards: 2, Lookahead: sim.Microsecond})
	eng.procs = 2 // whatever -cpu says: the rule fans out
	eng.spin = 0  // no wait polls, so none reports the host of the test as starving it
	parkEvery, seen := 0, uint64(0)
	eng.OnBarrier(func(sim.Time) {
		if eng.fanned > seen && parkEvery > 0 && eng.fanned%uint64(parkEvery) == 0 {
			eng.parked.Add(1) // what a wait that outlasted its spin does
		}
		seen = eng.fanned
	})
	run := func(windows int, short bool) uint64 {
		fanned := eng.fanned
		if short { // two windows a call, the fewest that fan out; an odd count starts with three
			for left := windows; left > 0; {
				n := 2 + left%2
				eng.Run(eng.Now() + sim.Time(n)*sim.Microsecond)
				left -= n
			}
		} else {
			eng.Run(eng.Now() + sim.Time(windows)*sim.Microsecond)
		}
		return eng.fanned - fanned
	}
	const quarter = epochWindows/4 + 1 // the fanned window whose park tips an epoch past a quarter

	parkEvery = 1
	for hold := starvedHold; ; hold *= 2 {
		n := run(quarter+hold*epochWindows, false)
		if b := eng.back; n != quarter || b.inline != 0 || b.epoch != 0 || b.hold != min(2*hold, maxHold) {
			t.Fatalf("starved with hold %d: %d windows fanned, back-off %+v", hold, n, b)
		}
		if hold == maxHold {
			break
		}
	}
	if n := run(quarter+maxHold*epochWindows, false); n != quarter || eng.back.hold != maxHold {
		t.Fatalf("starved at the cap: %d windows fanned, back-off %+v", n, eng.back)
	}

	parkEvery = 4
	if n := run(epochWindows, false); n != epochWindows || eng.back.hold != maxHold {
		t.Fatalf("a quarter parked: %d windows fanned, back-off %+v", n, eng.back)
	}
	parkEvery = 0
	if n := run(epochWindows, true); n != epochWindows || eng.back.hold != starvedHold {
		t.Fatalf("none parked: %d windows fanned, back-off %+v", n, eng.back)
	}
	parkEvery = 1
	if n := run(quarter+starvedHold*epochWindows, true); n != quarter || eng.back.inline != 0 || eng.back.hold != 2*starvedHold {
		t.Fatalf("starved again: %d windows fanned, back-off %+v", n, eng.back)
	}
}

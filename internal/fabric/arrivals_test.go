package fabric_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"stardust/internal/distsim"
	"stardust/internal/fabric"
	"stardust/internal/netsim"
	"stardust/internal/sim"
	"stardust/internal/topo"
)

// The differential oracle of counted arrivals, after netsim's
// TestQueueLazyMatchesEager: a spec runs as built, where a cell's last hop
// into an edge that only counts is counted where it is handed over, and
// again with every cell delivered by an event (ForceArrivalEvents).
// Everything the two runs let anybody see must be equal: every edge's
// DeliveredTo, Drops and DeadDrops at every barrier; the end instant, the
// windows and the mail; the outcome with Processed per shard; and the
// STREC1 bytes of a Record. The counted run dispatches one event fewer per
// counted cell: per cell delivered, plus per cell lost on a failed last
// hop.

// observed is what one run lets anybody see.
type observed struct {
	barriers   [][]uint64 // per barrier: DeliveredTo of every edge, then Drops and DeadDrops
	out        distsim.Outcome
	now        sim.Time
	windows    uint64
	mail       uint64
	mailLess   uint64
	dispatched uint64
	record     []byte
}

// observe runs spec with cells counted or delivered by events; hook, when
// not nil, gets the model before it runs.
func observe(t *testing.T, spec distsim.Spec, events bool, hook func(*distsim.Model)) observed {
	t.Helper()
	defer fabric.ForceArrivalEvents(fabric.ForceArrivalEvents(events)) // on for this run, then as it was
	m, err := distsim.NewModel(spec)
	if err != nil {
		t.Fatal(err)
	}
	var o observed
	m.Eng.OnBarrier(func(sim.Time) {
		row := make([]uint64, 0, 2*m.Net.NumFA()+2)
		for fa := range m.Net.NumFA() {
			cells, bytes := m.Net.DeliveredTo(fa)
			row = append(row, cells, bytes)
		}
		o.barriers = append(o.barriers, append(row, m.Net.Drops(), m.Net.DeadDrops()))
	})
	if hook != nil {
		hook(m)
	}
	if o.out, err = m.RunLocal(); err != nil {
		t.Fatal(err)
	}
	st := m.Eng.Stats()
	o.now, o.windows, o.mail, o.mailLess = m.Eng.Now(), st.Windows, st.Mail, st.MailLess
	o.dispatched = m.Eng.Dispatched()
	spec.Telem = 10 * sim.Microsecond
	var rec bytes.Buffer
	if _, err := distsim.Record(spec, &rec); err != nil {
		t.Fatal(err)
	}
	o.record = rec.Bytes()
	return o
}

// deadDrops is what the run's last barrier read of Net.DeadDrops.
func (o observed) deadDrops() uint64 { return o.barriers[len(o.barriers)-1][len(o.barriers[0])-1] }

// sameObserved holds run a, named as, to run b, named bs: everything but
// what they dispatched must be equal.
func sameObserved(t *testing.T, a, b observed, as, bs string) {
	t.Helper()
	if len(a.barriers) != len(b.barriers) {
		t.Errorf("%d barriers %s, %d %s", len(a.barriers), as, len(b.barriers), bs)
	}
	for i := range min(len(a.barriers), len(b.barriers)) {
		if !slices.Equal(a.barriers[i], b.barriers[i]) {
			t.Errorf("barrier %d: %s reads %v, %s %v", i+1, as, a.barriers[i], bs, b.barriers[i])
			break
		}
	}
	if a.now != b.now || a.windows != b.windows || a.mail != b.mail || a.mailLess != b.mailLess {
		t.Errorf("end %d after %d windows, %d mail, %d mail-less %s; %d after %d, %d, %d %s",
			a.now, a.windows, a.mail, a.mailLess, as, b.now, b.windows, b.mail, b.mailLess, bs)
	}
	if !reflect.DeepEqual(a.out, b.out) {
		t.Errorf("outcome %+v %s, %+v %s", a.out, as, b.out, bs)
	}
	if !bytes.Equal(a.record, b.record) {
		t.Errorf("Record streams differ: %d bytes %s, %d %s", len(a.record), as, len(b.record), bs)
	}
}

// compareObserved holds a counted run to its event run, and returns how
// many events counting saved.
func compareObserved(t *testing.T, counted, events observed) (elided uint64) {
	t.Helper()
	sameObserved(t, counted, events, "counted", "with events")
	elided = events.dispatched - counted.dispatched
	delivered, dead := counted.out.Delivered, counted.deadDrops()
	if elided < delivered || elided > delivered+dead || dead == 0 && elided != delivered {
		t.Errorf("dispatched %d, with events %d: %d elided for %d delivered and %d dead drops",
			counted.dispatched, events.dispatched, elided, delivered, dead)
	}
	return elided
}

// ledgerSpecs returns every digest row of the golden ledger, by name.
func ledgerSpecs(t *testing.T) map[string]distsim.Spec {
	t.Helper()
	buf, err := os.ReadFile("../../testdata/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var ledger struct {
		Digests []struct {
			Name string
			Spec distsim.Spec
		}
	}
	if err := json.Unmarshal(buf, &ledger); err != nil {
		t.Fatal(err)
	}
	if len(ledger.Digests) == 0 {
		t.Fatal("no digest rows")
	}
	specs := map[string]distsim.Spec{}
	for _, row := range ledger.Digests {
		specs[row.Name] = row.Spec
	}
	return specs
}

// Every digest row of the golden ledger, at the shard counts it is held at.
func TestCountedArrivalsMatchEvents(t *testing.T) {
	for name, spec := range ledgerSpecs(t) {
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				spec.Shards = shards
				compareObserved(t, observe(t, spec, false, nil), observe(t, spec, true, nil))
			})
		}
	}
}

// The oracle of injection trains, beside counted arrivals': a spec runs
// as built, where an edge device of a Clos injects a window's cells in
// one event, and again with every train capped at one cell (TapInjectors).
// Everything the two runs let anybody see must be equal, and the trains
// dispatch fewer events by exactly the injector events they took in:
// some on every Clos, none where edge devices relay. The specs are every
// digest row of the golden ledger at 1, 2 and 4 shards, a hotspot whose
// FA uplinks tail-drop and back up past the hand-over horizon, and the
// fail/heal incast.
func TestInjectionTrainsMatchEvents(t *testing.T) {
	specs := map[string]distsim.Spec{}
	for name, spec := range ledgerSpecs(t) {
		for _, shards := range []int{1, 2, 4} {
			spec.Shards = shards
			specs[fmt.Sprintf("%s/shards=%d", name, shards)] = spec
		}
	}
	for _, shards := range []int{1, 2} {
		specs[fmt.Sprintf("clos/k4/hotspot/shards=%d", shards)] = distsim.Spec{
			K: 4, Topo: "clos", Seed: 5, Shards: shards, Dur: 400 * sim.Microsecond,
			Load: 0.6, CellBytes: 512, Hotspot: 4,
		}
		specs[fmt.Sprintf("clos/k4/failheal-incast/shards=%d", shards)], _ = failHealSpec(t, "clos", shards)
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			trains, trainEvents := observeTrains(t, spec, false)
			cells, cellEvents := observeTrains(t, spec, true)
			sameObserved(t, trains, cells, "in trains", "a cell an event")
			saved := cells.dispatched - trains.dispatched
			if saved != cellEvents-trainEvents || spec.Topo == "clos" && saved == 0 || spec.Topo != "clos" && saved != 0 {
				t.Errorf("dispatched %d in trains, %d a cell an event: %d saved; injector events %d in trains, %d a cell an event",
					trains.dispatched, cells.dispatched, saved, trainEvents, cellEvents)
			}
			if strings.Contains(name, "hotspot") && trains.out.Drops == 0 {
				t.Errorf("the hotspot dropped no cell: its FA uplinks never filled")
			}
		})
	}
}

// observeTrains is observe with every train capped at one cell or not,
// and the injector events the run dispatched.
func observeTrains(t *testing.T, spec distsim.Spec, oneCell bool) (o observed, events uint64) {
	t.Helper()
	var n atomic.Uint64
	defer fabric.TapInjectors(oneCell, &n)()
	o = observe(t, spec, false, func(m *distsim.Model) {
		m.Eng.OnBarrier(func(sim.Time) { events = n.Load() }) // before Record's run adds its own
	})
	return o, events
}

// A fabric with an OnDeliver or an OnCellDrop hook counts no arrival: each
// hook sees every cell it would see with events, and the run dispatches
// what the event run does.
func TestHooksSeeEveryCell(t *testing.T) {
	spec, _ := failHealSpec(t, "clos", 2)
	events := observe(t, spec, true, nil)
	for _, hook := range []string{"OnDeliver", "OnCellDrop"} {
		t.Run(hook, func(t *testing.T) {
			var seen atomic.Uint64 // the hooks run on every shard
			var want uint64
			m, err := distsim.NewModel(spec)
			if err != nil {
				t.Fatal(err)
			}
			if hook == "OnDeliver" {
				m.Net.OnDeliver = func(c *netsim.Packet) { seen.Add(1) }
			} else {
				m.Net.OnCellDrop = func(*netsim.Packet) { seen.Add(1) }
			}
			out, err := m.RunLocal()
			if err != nil {
				t.Fatal(err)
			}
			if want = out.Delivered; hook == "OnCellDrop" {
				want = m.Net.DeadDrops() + m.Net.NoRouteDrops()
			}
			if seen.Load() != want || want == 0 {
				t.Errorf("%s saw %d cells, want %d", hook, seen.Load(), want)
			}
			if got := m.Eng.Dispatched(); got != events.dispatched || out.Digest != events.out.Digest {
				t.Errorf("dispatched %d, digest %016x; the event run %d, %016x", got, out.Digest, events.dispatched, events.out.Digest)
			}
		})
	}
}

// failHealSpec is an incast on edge 0 of a K=4 topoName whose links all
// fail at 50 µs and heal 2 µs later; into lists their directed links into
// edge 0.
func failHealSpec(t *testing.T, topoName string, shards int) (spec distsim.Spec, into []int) {
	t.Helper()
	g, err := topo.ByName(topoName, 4)
	if err != nil {
		t.Fatal(err)
	}
	var fail []int
	victim := slices.Index(topo.EdgeOfNode(g), 0)
	for i, lk := range g.GraphLinks() {
		switch victim {
		case lk.B:
			fail, into = append(fail, i), append(into, 2*i)
		case lk.A:
			fail, into = append(fail, i), append(into, 2*i+1)
		}
	}
	return distsim.Spec{
		K: 4, Topo: topoName, Seed: 7, Shards: shards, Dur: 100 * sim.Microsecond,
		Load: 0.4, Pattern: "incast", CellBytes: 512, Hotspot: 1,
		FailLinks: fail, FailAt: 50 * sim.Microsecond, HealAt: 52 * sim.Microsecond,
	}, into
}

// Every link of one edge device fails while counted cells are on its way
// in, and heals before some of them are due: a counted cell whose wire is
// down at its arrival is the dead drop its event would have been, one
// whose arrival comes after the heal is delivered. Incast makes the
// victim's links deep, so cells are counted far ahead of their arrival;
// on Space Shuffle the same links also carry transit cells, which are not
// counted.
func TestCountedArrivalsAcrossFailHeal(t *testing.T) {
	for _, topoName := range []string{"clos", "sshuffle"} {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/shards=%d", topoName, shards), func(t *testing.T) {
				spec, into := failHealSpec(t, topoName, shards)
				held := map[sim.Time]int{} // counted cells not yet due on the victim's links
				counted := observe(t, spec, false, func(m *distsim.Model) {
					m.Eng.OnBarrier(func(now sim.Time) {
						if now != spec.FailAt && now != spec.HealAt {
							return
						}
						m.Net.DeadDrops() // settles what is due
						for _, d := range into {
							held[now] += m.Net.HeldOn(d)
						}
					})
				})
				elided := compareObserved(t, counted, observe(t, spec, true, nil))
				if held[spec.FailAt] == 0 || held[spec.HealAt] == 0 {
					t.Errorf("counted cells in flight into the victim: %d at the failure, %d at the heal; want some at both",
						held[spec.FailAt], held[spec.HealAt])
				}
				if elided <= counted.out.Delivered {
					t.Errorf("%d elided for %d delivered: no counted cell was lost on a failed wire", elided, counted.out.Delivered)
				}
			})
		}
	}
}

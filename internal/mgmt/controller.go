package mgmt

import (
	"fmt"
	"sort"
	"sync"

	"stardust/internal/fabric"
	"stardust/internal/sim"
	"stardust/internal/telemetry"
)

// historyLen is the ring capacity of each per-link series; eventLog is
// the bus's retained-event capacity.
const (
	historyLen = 128
	eventLog   = 1024
)

// Anomaly is one active telemetry finding: a device's spray imbalance
// while its latest window carries one, or a reachability hole from the
// window it opened to the window it closed.
type Anomaly struct {
	Kind   string   `json:"kind"` // "spray-imbalance" or "reachability-hole"
	Device string   `json:"device,omitempty"`
	Detail string   `json:"detail"`
	Since  sim.Time `json:"since_ps"`
}

// AnomalySprayImbalance and AnomalyReachHole are the anomaly kinds, raised
// by the telemetry.SprayImbalance and telemetry.ReachHoles findings.
const (
	AnomalySprayImbalance = "spray-imbalance"
	AnomalyReachHole      = "reachability-hole"
)

// anomalyOf maps an analyzer stage to the anomaly kind its findings raise.
var anomalyOf = map[string]string{
	"spray-imbalance": AnomalySprayImbalance,
	"reach-holes":     AnomalyReachHole,
}

// FabricStats is an aggregate snapshot of the fabric, taken at the last
// scrape (so HTTP readers never race the simulation). Unreachable counts
// the holes in the installed tables (fabric.HoleUnit names the unit),
// which lag the links by the fabric's ReachDelay.
type FabricStats struct {
	Time         sim.Time `json:"sim_ps"`
	Scrapes      uint64   `json:"scrapes"`
	Injected     uint64   `json:"injected_cells"`
	Delivered    uint64   `json:"delivered_cells"`
	Drops        uint64   `json:"dropped_cells"`
	QueueBytes   uint64   `json:"queue_bytes"`
	Links        int      `json:"links"`
	LinksDown    int      `json:"links_down"`
	Unreachable  int      `json:"unreachable_pairs"`
	LinkFailures uint64   `json:"link_failures_total"`
	LinkRecovers uint64   `json:"link_recoveries_total"`
	ReachUpdates uint64   `json:"reach_updates_total"`
}

// LinkTelemetry is the latest state of one directed link plus its rate
// over the last scrape interval, the HTTP-facing summary row.
type LinkTelemetry struct {
	Link     int     `json:"link"`
	Dir      int     `json:"dir"`
	A        string  `json:"a"`
	B        string  `json:"b"`
	Last     Sample  `json:"last"`
	RateBps  float64 `json:"rate_bps"`    // over the last scrape interval
	DropRate float64 `json:"drops_per_s"` // over the last scrape interval
}

// Controller is the chassis supervisor of one fabric (Clos or any other
// topo.Graph): inventory, event publication, and the views the FabricRun's
// one barrier scrape feeds it (observe) — per-link series, aggregate
// stats, and the anomalies its telemetry analyzers find.
type Controller struct {
	fab *fabric.Net
	sim *sim.Simulator
	inv *Inventory
	bus *Bus

	numFA int

	mu        sync.RWMutex
	series    []*Series // per directed link, indexed 2*link+dir
	stats     FabricStats
	anomalies map[string]Anomaly // active, keyed kind/device
}

// newController builds a controller over fab and hooks the fabric's
// link-state and reachability-update paths into the event bus.
func newController(fab *fabric.Net) *Controller {
	g := fab.Topo
	c := &Controller{
		fab:       fab,
		sim:       fab.Sim,
		inv:       NewInventory(g),
		bus:       NewBus(eventLog),
		anomalies: make(map[string]Anomaly),
		numFA:     g.NumEdge(),
	}
	c.series = make([]*Series, 2*fab.NumLinks())
	for i := range c.series {
		c.series[i] = newSeries(historyLen)
	}
	c.stats.Links = fab.NumLinks()

	prevLink := fab.OnLinkState
	fab.OnLinkState = func(link int, up bool) {
		if prevLink != nil {
			prevLink(link, up)
		}
		c.onLinkState(link, up)
	}
	prevReach := fab.OnReachUpdate
	fab.OnReachUpdate = func(node, reachable int) {
		if prevReach != nil {
			prevReach(node, reachable)
		}
		c.onReachUpdate(node, reachable)
	}
	return c
}

// Bus returns the event bus.
func (c *Controller) Bus() *Bus { return c.bus }

// Inventory returns the chassis inventory (immutable once built).
func (c *Controller) Inventory() *Inventory { return c.inv }

// onLinkState runs in barrier context (fabric hook).
func (c *Controller) onLinkState(link int, up bool) {
	lk := c.inv.Links[link]
	kind := EventLinkDown
	c.mu.Lock()
	if up {
		kind = EventLinkUp
		c.stats.LinkRecovers++
		c.stats.LinksDown--
	} else {
		c.stats.LinkFailures++
		c.stats.LinksDown++
	}
	c.mu.Unlock()
	c.bus.Publish(Event{
		Time: c.sim.Now(), Kind: kind, Link: link,
		Device: lk.A,
		Detail: fmt.Sprintf("%s:%d <-> %s:%d", lk.A, lk.APort, lk.B, lk.BPort),
	})
}

// onReachUpdate runs in barrier context (fabric hook).
func (c *Controller) onReachUpdate(node, reachable int) {
	c.mu.Lock()
	c.stats.ReachUpdates++
	c.mu.Unlock()
	c.bus.Publish(Event{
		Time: c.sim.Now(), Kind: EventReachUpdate, Link: -1,
		Device: c.inv.Devices[node].ID,
		Detail: fmt.Sprintf("advertises %d/%d FAs", reachable, c.numFA),
	})
}

// observe runs in barrier context after every capture: it appends the
// window to the per-link series, refreshes the aggregate snapshot, and
// turns the analyzers' findings on the window into anomaly raises and
// clears on the bus.
func (c *Controller) observe(snap *telemetry.Snapshot, found []telemetry.Finding) {
	now := snap.T
	c.mu.Lock()
	var queued uint64
	for d, ds := range snap.Dirs {
		c.series[d].Push(Sample{
			T:          now,
			FwdBytes:   ds.FwdBytes,
			FwdCells:   ds.FwdCells,
			Drops:      ds.Drops,
			QueueBytes: int(ds.QueueBytes),
			Up:         ds.Up,
		})
		queued += ds.QueueBytes
	}
	c.stats.Time = now
	c.stats.Scrapes++
	c.stats.Injected = c.fab.Injected()
	c.stats.Delivered = c.fab.Delivered()
	c.stats.Drops = c.fab.Drops()
	c.stats.QueueBytes = queued
	c.stats.Unreachable = c.fab.UnreachablePairs()

	// A spray imbalance lasts as long as its device's windows carry one;
	// a reachability hole lasts from its opening finding to its closing.
	active := make(map[string]Anomaly, len(c.anomalies))
	for k, a := range c.anomalies {
		if a.Kind == AnomalyReachHole {
			active[k] = a
		}
	}
	for _, f := range found {
		kind, ok := anomalyOf[f.Stage]
		if !ok {
			continue
		}
		k := kind + "/" + f.Device
		if kind == AnomalyReachHole && f.Value == 0 {
			delete(active, k) // the closing finding
			continue
		}
		a := Anomaly{Kind: kind, Device: f.Device, Detail: f.Detail, Since: f.T}
		if prev, ok := c.anomalies[k]; ok {
			a.Since = prev.Since // the original onset stays
		}
		active[k] = a
	}
	var raised, cleared []Anomaly
	for k, a := range active {
		if _, ok := c.anomalies[k]; !ok {
			raised = append(raised, a)
		}
	}
	for k, a := range c.anomalies {
		if _, ok := active[k]; !ok {
			cleared = append(cleared, a)
		}
	}
	c.anomalies = active
	c.mu.Unlock()

	sortAnomalies(raised)
	sortAnomalies(cleared)
	for _, a := range raised {
		c.bus.Publish(Event{
			Time: now, Kind: EventAnomaly, Link: -1,
			Device: a.Device, Detail: a.Kind + ": " + a.Detail,
		})
	}
	for _, a := range cleared {
		c.bus.Publish(Event{
			Time: now, Kind: EventAnomalyCleared, Link: -1,
			Device: a.Device, Detail: a.Kind,
		})
	}
}

// Stats returns the aggregate snapshot of the last scrape.
func (c *Controller) Stats() FabricStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.stats
}

// Anomalies returns the active findings sorted by kind then device.
func (c *Controller) Anomalies() []Anomaly {
	c.mu.RLock()
	out := make([]Anomaly, 0, len(c.anomalies))
	for _, a := range c.anomalies {
		out = append(out, a)
	}
	c.mu.RUnlock()
	sortAnomalies(out)
	return out
}

// sortAnomalies orders anomalies by kind, then device.
func sortAnomalies(as []Anomaly) {
	sort.Slice(as, func(i, j int) bool {
		if as[i].Kind != as[j].Kind {
			return as[i].Kind < as[j].Kind
		}
		return as[i].Device < as[j].Device
	})
}

// Telemetry returns the latest per-directed-link summaries.
func (c *Controller) Telemetry() []LinkTelemetry {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]LinkTelemetry, 0, len(c.series))
	for i, s := range c.series {
		last, ok := s.Last()
		if !ok {
			continue
		}
		lk := c.inv.Links[i/2]
		t := LinkTelemetry{Link: i / 2, Dir: i % 2, A: lk.A, B: lk.B, Last: last}
		if i%2 == 1 {
			t.A, t.B = lk.B, lk.A
		}
		if prev, ok := s.Prev(); ok && last.T > prev.T {
			dt := (last.T - prev.T).Seconds()
			t.RateBps = float64(last.FwdBytes-prev.FwdBytes) * 8 / dt
			t.DropRate = float64(last.Drops-prev.Drops) / dt
		}
		out = append(out, t)
	}
	return out
}

// LinkSeries returns the retained samples of one directed link.
func (c *Controller) LinkSeries(link, dir int) ([]Sample, error) {
	if link < 0 || link >= c.fab.NumLinks() || dir < 0 || dir > 1 {
		return nil, fmt.Errorf("mgmt: no directed link (%d, %d)", link, dir)
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.series[2*link+dir].Snapshot(), nil
}

package mgmt

import (
	"fmt"
	"sort"
	"sync"

	"stardust/internal/fabric"
	"stardust/internal/sim"
	"stardust/internal/topo"
)

// Config sizes the controller.
type Config struct {
	// ScrapeEvery is the telemetry scrape period in simulated time.
	ScrapeEvery sim.Time // default 1ms
	// HistoryLen is the ring capacity of each per-link series.
	HistoryLen int // default 128
	// EventLog is the bus's retained-event capacity.
	EventLog int // default 1024
	// SprayThreshold flags a spray-imbalance anomaly when one FA's
	// per-uplink byte spread over the last scrape interval exceeds this
	// fraction of the per-uplink mean ((max-min)/mean, §5.3).
	SprayThreshold float64 // default 0.25
	// MinSprayBytes is the per-uplink mean (bytes per interval) below
	// which spray balance is not judged — idle or barely loaded FAs
	// produce meaningless ratios.
	MinSprayBytes float64 // default 64 KiB
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.ScrapeEvery <= 0 {
		c.ScrapeEvery = sim.Millisecond
	}
	if c.HistoryLen <= 0 {
		c.HistoryLen = 128
	}
	if c.EventLog <= 0 {
		c.EventLog = 1024
	}
	if c.SprayThreshold <= 0 {
		c.SprayThreshold = 0.25
	}
	if c.MinSprayBytes <= 0 {
		c.MinSprayBytes = 64 << 10
	}
	return c
}

// Anomaly is one active finding of the detector.
type Anomaly struct {
	Kind   string   `json:"kind"` // "spray-imbalance" or "reachability-hole"
	Device string   `json:"device,omitempty"`
	Detail string   `json:"detail"`
	Since  sim.Time `json:"since_ps"`
}

// AnomalySprayImbalance and AnomalyReachHole are the detector's finding
// kinds.
const (
	AnomalySprayImbalance = "spray-imbalance"
	AnomalyReachHole      = "reachability-hole"
)

// FabricStats is an aggregate snapshot of the fabric, taken at the last
// scrape (so HTTP readers never race the simulation).
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
// topo.Graph): inventory, telemetry scraping, event publication and
// anomaly detection. Attach it before running the simulation.
type Controller struct {
	cfg Config
	fab *fabric.Net
	sim *sim.Simulator
	inv *Inventory
	bus *Bus

	numFA     int
	faIDs     []string // per edge device: its inventory ID
	pairKind  string   // what UnreachablePairs counts, for anomaly text
	faUplinks [][]int  // per edge device: directed link index of each uplink

	mu         sync.RWMutex
	series     []*Series // per directed link, indexed 2*link+dir
	stats      FabricStats
	anomalies  map[string]Anomaly // active findings, keyed kind+device
	scratch    [2]fabric.LinkCounters
	nextScrape sim.Time // sharded mode: next barrier-scrape instant
}

// Attach builds a controller over fab, hooks the fabric's link-state and
// reachability-update paths into the event bus, and schedules the
// periodic telemetry scrape on the fabric's simulator. The first scrape
// happens at time zero (one full period in).
//
// A sharded fabric must use AttachSharded instead: this scrape runs as an
// ordinary simulator event on one shard and would read every other
// shard's live queue counters mid-window — a data race the race detector
// duly reports. The panic makes the misuse impossible rather than latent.
func Attach(fab *fabric.Net, cfg Config) *Controller {
	if fab.Sharded() {
		panic("mgmt: sharded fabric telemetry must go through the shard barrier; use AttachSharded")
	}
	c := newController(fab, cfg)
	c.armScrape()
	return c
}

// AttachSharded builds the controller over a sharded fabric. The
// telemetry scrape runs in the engine's barrier context — every shard
// quiescent at a synchronized instant — so reading the per-shard queue
// and fabric counters cannot race the simulation, and the scrape times
// (window boundaries) are identical for every shard count, keeping the
// management plane's view consistent across shards.
func AttachSharded(fab *fabric.Net, cfg Config) *Controller {
	eng := fab.Engine()
	if eng == nil {
		panic("mgmt: AttachSharded needs a fabric built on a parsim engine")
	}
	c := newController(fab, cfg)
	c.nextScrape = c.cfg.ScrapeEvery
	eng.OnBarrier(func(now sim.Time) {
		for now >= c.nextScrape {
			c.scrape()
			c.nextScrape += c.cfg.ScrapeEvery
		}
	})
	return c
}

func newController(fab *fabric.Net, cfg Config) *Controller {
	cfg = cfg.withDefaults()
	g := fab.Topo
	c := &Controller{
		cfg:       cfg,
		fab:       fab,
		sim:       fab.Sim,
		inv:       NewInventory(g),
		bus:       NewBus(cfg.EventLog),
		anomalies: make(map[string]Anomaly),
		numFA:     g.NumEdge(),
	}
	c.series = make([]*Series, 2*fab.NumLinks())
	for i := range c.series {
		c.series[i] = newSeries(cfg.HistoryLen)
	}
	c.stats.Links = fab.NumLinks()
	c.faUplinks = topo.EdgeUplinkDirs(g)
	c.faIDs = make([]string, c.numFA)
	// Edge devices are labelled through the inventory, which is in node
	// order. What UnreachablePairs counts follows the fabric's route
	// policy: the reach protocol runs on the Clos.
	for fa := range c.faIDs {
		c.faIDs[fa] = c.inv.Devices[g.EdgeNode(fa)].ID
	}
	c.pairKind = "(edge, edge) pairs"
	if _, isClos := g.(*topo.Clos); isClos {
		c.pairKind = "(spine, FA) pairs"
	}

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

// Inventory returns the chassis inventory (immutable after Attach).
func (c *Controller) Inventory() *Inventory { return c.inv }

// Config returns the effective configuration.
func (c *Controller) Config() Config { return c.cfg }

func (c *Controller) armScrape() {
	c.sim.After(c.cfg.ScrapeEvery, func() {
		c.scrape()
		c.armScrape()
	})
}

// onLinkState runs in the simulation goroutine (fabric hook).
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

// onReachUpdate runs in the simulation goroutine (fabric hook).
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

// scrape runs in the simulation goroutine: it snapshots every directed
// link's counters into its series, refreshes the aggregate snapshot, and
// re-runs the anomaly detector.
func (c *Controller) scrape() {
	now := c.sim.Now()
	c.mu.Lock()
	var queued uint64
	for i := 0; i < c.fab.NumLinks(); i++ {
		c.fab.ReadLinkCounters(i, &c.scratch)
		for d := 0; d < 2; d++ {
			lc := &c.scratch[d]
			c.series[2*i+d].Push(Sample{
				T:          now,
				FwdBytes:   lc.FwdBytes,
				FwdCells:   lc.FwdCells,
				Drops:      lc.Drops,
				QueueBytes: lc.QueueBytes,
				Up:         lc.Up,
			})
			queued += uint64(lc.QueueBytes)
		}
	}
	c.stats.Time = now
	c.stats.Scrapes++
	c.stats.Injected = c.fab.Injected()
	c.stats.Delivered = c.fab.Delivered()
	c.stats.Drops = c.fab.Drops()
	c.stats.QueueBytes = queued
	c.stats.Unreachable = c.fab.UnreachablePairs()
	c.mu.Unlock()
	c.detect(now)
}

// detect re-evaluates the anomaly set and publishes raise/clear events.
func (c *Controller) detect(now sim.Time) {
	found := make(map[string]Anomaly)

	// Reachability holes: the §5.9 self-healing invariant is violated —
	// some (spine, FA) pair has no live down path, or an FA lost every
	// uplink.
	c.mu.RLock()
	unreachable := c.stats.Unreachable
	c.mu.RUnlock()
	if unreachable > 0 {
		a := Anomaly{
			Kind:   AnomalyReachHole,
			Detail: fmt.Sprintf("%d unreachable %s", unreachable, c.pairKind),
			Since:  now,
		}
		found[a.Kind+"/"+a.Device] = a
	}

	// Spray imbalance: §5.3 promises near-perfect per-device balance;
	// a spread above the threshold on a loaded FA means the spreader or
	// the liveness masks are wrong.
	for fa, ups := range c.faUplinks {
		var minD, maxD, sum float64
		n := 0
		ok := true
		for _, li := range ups {
			s := c.series[li]
			last, haveLast := s.Last()
			prev, havePrev := s.Prev()
			if !haveLast || !havePrev || !last.Up {
				ok = false // a down or unsampled uplink: balance not judged
				break
			}
			d := float64(last.FwdBytes - prev.FwdBytes)
			if n == 0 || d < minD {
				minD = d
			}
			if d > maxD {
				maxD = d
			}
			sum += d
			n++
		}
		if !ok || n < 2 {
			continue
		}
		mean := sum / float64(n)
		if mean < c.cfg.MinSprayBytes {
			continue
		}
		if spread := (maxD - minD) / mean; spread > c.cfg.SprayThreshold {
			dev := c.faIDs[fa]
			a := Anomaly{
				Kind:   AnomalySprayImbalance,
				Device: dev,
				Detail: fmt.Sprintf("uplink spread %.1f%% over last interval (min=%.0fB max=%.0fB)", 100*spread, minD, maxD),
				Since:  now,
			}
			found[a.Kind+"/"+dev] = a
		}
	}

	c.mu.Lock()
	var raised, cleared []Anomaly
	for k, a := range found {
		if prev, ok := c.anomalies[k]; ok {
			a.Since = prev.Since // keep the original onset
			found[k] = a
		} else {
			raised = append(raised, a)
		}
	}
	for k, a := range c.anomalies {
		if _, ok := found[k]; !ok {
			cleared = append(cleared, a)
		}
	}
	c.anomalies = found
	c.mu.Unlock()

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
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Device < out[j].Device
	})
	return out
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

// Package mgmt is the chassis management plane of the Stardust fabric:
// the control layer that makes thousands of Fabric Elements behave like
// one managed device, the paper's headline operational claim (§1, §7).
//
// It attaches to a running fabric.Net and provides what a chassis
// supervisor provides for a monolithic switch: a device/link inventory
// derived from the wiring (any topo.Graph), periodic telemetry scraping of
// per-link counters into ring-buffered time series, an event bus carrying
// link failure/withdrawal/recovery notifications (hooked into the
// fabric's reachability-withdrawal path), and an anomaly detector that
// flags spray imbalance (§5.3 violated) and reachability holes (§5.9
// violated). Package mgmt also hosts the serving layer of cmd/stardustd:
// a bounded scenario-run queue over the engine worker pool with a
// content-addressed result cache, and the HTTP/JSON + Prometheus API.
//
// Concurrency model: the simulation (and therefore every fabric hook and
// scheduled scrape) runs in a single goroutine; HTTP handlers run in
// others. All state shared across that boundary lives behind the
// Controller's lock — handlers read consistent snapshots and never touch
// the fabric directly.
package mgmt

import (
	"fmt"

	"stardust/internal/topo"
)

// Device is one inventory entry: a Fabric Adapter or Fabric Element of
// the chassis.
type Device struct {
	ID    string `json:"id"`   // e.g. "FA3", "FE1-2", "FE2-0"
	Kind  string `json:"kind"` // "FA", "FE1", "FE2"
	Index int    `json:"index"`
	Ports int    `json:"ports"`
}

// Link is one full-duplex serial link of the inventory.
type Link struct {
	ID    int    `json:"id"` // topology link index
	A     string `json:"a"`
	APort int    `json:"a_port"`
	B     string `json:"b"`
	BPort int    `json:"b_port"`
}

// Inventory is the chassis view of one Clos instance: every device and
// every serial link, derived from the wiring.
type Inventory struct {
	Tiers   int      `json:"tiers"`
	Devices []Device `json:"devices"`
	Links   []Link   `json:"links"`
}

// deviceID renders the canonical inventory ID of a node. Fabric Elements
// get a dash between tier and index ("FE1-12") so the ID never collides
// across tiers the way the bare NodeID rendering can ("FE112").
func deviceID(n topo.NodeID) string {
	if n.Kind == topo.KindFA {
		return fmt.Sprintf("FA%d", n.Index)
	}
	return fmt.Sprintf("%s-%d", n.Kind, n.Index)
}

// NewInventory derives the chassis inventory from the wiring of any
// topology. A Clos keeps the legacy device IDs ("FA3", "FE1-2"); other
// graphs use their nodes' canonical names.
func NewInventory(g topo.Graph) *Inventory {
	if cl, ok := g.(*topo.Clos); ok {
		return newClosInventory(cl)
	}
	inv := &Inventory{Tiers: g.NumTiers()}
	for i := 0; i < g.NumNodes(); i++ {
		n := g.Node(i)
		inv.Devices = append(inv.Devices, Device{
			ID: n.Name, Kind: n.Role, Index: i, Ports: n.Ports,
		})
	}
	for i, lk := range g.GraphLinks() {
		inv.Links = append(inv.Links, Link{
			ID: i,
			A:  g.Node(lk.A).Name, APort: lk.APort,
			B: g.Node(lk.B).Name, BPort: lk.BPort,
		})
	}
	return inv
}

// newClosInventory is the legacy Clos derivation, kept so device IDs in
// the HTTP API do not change shape ("FE1-2", not "FE1_2").
func newClosInventory(c *topo.Clos) *Inventory {
	inv := &Inventory{Tiers: c.Tiers}
	for i := 0; i < c.NumFA; i++ {
		n := topo.NodeID{Kind: topo.KindFA, Index: i}
		inv.Devices = append(inv.Devices, Device{
			ID: deviceID(n), Kind: topo.KindFA.String(), Index: i, Ports: c.FAUplinks,
		})
	}
	for i := 0; i < c.NumFE1; i++ {
		n := topo.NodeID{Kind: topo.KindFE1, Index: i}
		inv.Devices = append(inv.Devices, Device{
			ID: deviceID(n), Kind: topo.KindFE1.String(), Index: i, Ports: c.FE1Down + c.FE1Up,
		})
	}
	for i := 0; i < c.NumFE2; i++ {
		n := topo.NodeID{Kind: topo.KindFE2, Index: i}
		inv.Devices = append(inv.Devices, Device{
			ID: deviceID(n), Kind: topo.KindFE2.String(), Index: i, Ports: c.FE2Down,
		})
	}
	for i, lk := range c.Links {
		inv.Links = append(inv.Links, Link{
			ID: i,
			A:  deviceID(lk.A), APort: lk.APort,
			B: deviceID(lk.B), BPort: lk.BPort,
		})
	}
	return inv
}

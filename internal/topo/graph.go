// The pluggable topology contract. A Graph is any device/link graph the
// cell fabric can run on: it names its devices (with stable labels, roles
// and tiers for the management inventory), enumerates its full-duplex
// links, and — the routing seam — computes loop-free multipath forwarding
// tables for any live-link mask. topo.Clos is one implementation (the
// paper's fabric); SpaceShuffle and StarReplaced are structurally
// different graphs the same scenarios run on unchanged.
//
// Every Graph also renders a canonical Spec string ("family:k=v,..."),
// parseable by ParseSpec. The spec is the single source of truth for
// sizing: content addressing, telemetry stream headers and distsim model
// hashes all embed it, so two processes given the same spec can never
// build different models.
package topo

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// NodeInfo describes one device of a Graph.
type NodeInfo struct {
	Name  string // stable device label, e.g. "FA3", "SS5", "SRV9"
	Role  string // device role, e.g. "FA", "FE1", "FE2", "SS", "SW", "SRV"
	Tier  int    // 0 = edge tier, increasing toward the core
	Ports int    // local port count; every link endpoint names one
}

// GraphLink is one full-duplex link between two flat node indices. The
// directed-link convention everywhere in the repo: for topology link i,
// directed link 2i is A->B and 2i+1 is B->A.
type GraphLink struct {
	A, B         int
	APort, BPort int
}

// Graph is the topology surface the fabric, management inventory,
// telemetry metadata and distsim specs operate over.
//
// Routes is the routing seam. For the live-link mask up (indexed like
// GraphLinks), it returns:
//
//   - descend[n][e]: the ports of node n that make guaranteed progress
//     toward edge device e's node over live links. Following any descend
//     candidate strictly decreases a potential (ring distance, BFS
//     distance, tier), so any spray over the set is loop-free.
//   - climb[n]: detour ports a cell may use only while it has never
//     descended (the Clos no-valley rule generalized). Climb hops must be
//     strictly tier-ascending so they cannot loop either; graphs without
//     a detour tier return nil entries.
//
// The result must be a pure function of (graph, up) with every port list
// sorted ascending — byte-determinism across shard counts and processes
// depends on it.
type Graph interface {
	Spec() string
	NumNodes() int
	Node(i int) NodeInfo
	NumTiers() int
	// NumEdge counts the edge devices — the traffic sources/sinks
	// ("Fabric Adapters" in Clos terms). EdgeNode maps edge index to
	// node index.
	NumEdge() int
	EdgeNode(e int) int
	GraphLinks() []GraphLink
	Routes(up []bool) (descend [][][]int, climb [][]int)
}

// EdgeOfNode returns a node-index -> edge-index lookup (-1 for interior
// nodes).
func EdgeOfNode(g Graph) []int {
	m := make([]int, g.NumNodes())
	for i := range m {
		m[i] = -1
	}
	for e := 0; e < g.NumEdge(); e++ {
		m[g.EdgeNode(e)] = e
	}
	return m
}

// EdgeUplinkDirs groups the directed links leaving each edge device:
// out[e] lists, ascending, every dir index whose sending endpoint is
// EdgeNode(e). This is the spray set whose per-link balance the linkload
// experiment and the telemetry imbalance analyzer measure, derived one
// way for every topology.
func EdgeUplinkDirs(g Graph) [][]int {
	edgeOf := EdgeOfNode(g)
	out := make([][]int, g.NumEdge())
	for i, lk := range g.GraphLinks() {
		if e := edgeOf[lk.A]; e >= 0 {
			out[e] = append(out[e], 2*i)
		}
		if e := edgeOf[lk.B]; e >= 0 {
			out[e] = append(out[e], 2*i+1)
		}
	}
	return out
}

// portPeers builds the port-indexed adjacency of g over live links:
// peer[n][p] is the far-end node of port p (-1 when unwired or the link
// is down). Shared by the BFS route builder and the graph validators.
func portPeers(g Graph, up []bool) [][]int {
	peer := make([][]int, g.NumNodes())
	for i := range peer {
		peer[i] = make([]int, g.Node(i).Ports)
		for p := range peer[i] {
			peer[i][p] = -1
		}
	}
	for i, lk := range g.GraphLinks() {
		if up != nil && !up[i] {
			continue
		}
		peer[lk.A][lk.APort] = lk.B
		peer[lk.B][lk.BPort] = lk.A
	}
	return peer
}

// bfsRoutes computes distance-decreasing multipath tables toward every
// edge device over the live subgraph: descend[n][e] lists node n's live
// ports whose far end is strictly closer (by live-graph BFS hop count) to
// EdgeNode(e). Any walk over the candidates strictly decreases the BFS
// distance, so the tables are loop-free for any live mask; nodes cut off
// from the destination get an empty list (the fabric counts the drop).
func bfsRoutes(g Graph, up []bool) [][][]int {
	nn := g.NumNodes()
	peer := portPeers(g, up)
	descend := make([][][]int, nn)
	for n := range descend {
		descend[n] = make([][]int, g.NumEdge())
	}
	const inf = int(^uint(0) >> 1)
	dist := make([]int, nn)
	queue := make([]int, 0, nn)
	for e := 0; e < g.NumEdge(); e++ {
		t := g.EdgeNode(e)
		for i := range dist {
			dist[i] = inf
		}
		dist[t] = 0
		queue = append(queue[:0], t)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range peer[u] {
				if v >= 0 && dist[v] == inf {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
			}
		}
		for n := 0; n < nn; n++ {
			if n == t || dist[n] == inf {
				continue
			}
			for p, v := range peer[n] {
				if v >= 0 && dist[v] < dist[n] {
					descend[n][e] = append(descend[n][e], p)
				}
			}
		}
	}
	return descend
}

// ByName sizes a named topology family comparably to the Clos fronting a
// k-ary fat-tree (fabric.ClosFor): every family gets k²/2 edge devices,
// so the same scenario parameters offer the same aggregate load on each.
//
//	clos      — the paper's two-tier Clos (ClosForK)
//	sshuffle  — Space Shuffle: k²/2 switches on 3 random ring spaces
//	star      — star-replaced circulant: k²/2 dual-port servers
//
// A name with a colon is a full Spec string (sshuffle:n=32,s=2,seed=1): it
// carries its own size, so k is not consulted and ParseSpec builds it.
func ByName(name string, k int) (Graph, error) {
	if strings.Contains(name, ":") {
		return ParseSpec(name)
	}
	if k < 4 || k%2 != 0 {
		return nil, fmt.Errorf("topo: k must be even and >= 4, got %d", k)
	}
	switch name {
	case "", "clos":
		return ClosForK(k)
	case "sshuffle":
		return NewSpaceShuffle(k*k/2, 3, 1)
	case "star":
		servers := k * k / 2
		d := 2 * (k / 4)
		if d < 2 || servers%d != 0 || servers/d <= d {
			d = 2
		}
		return NewStarReplaced(servers/d, d)
	default:
		return nil, fmt.Errorf("topo: unknown topology %q (want clos, sshuffle, star or a full spec such as sshuffle:n=32,s=2,seed=1)", name)
	}
}

// maxSpecSize bounds what ParseSpec will build: a spec string arrives in
// stream headers, handshakes and flags, and a constructor allocates
// whatever size it claims. Far above anything this repository builds.
const maxSpecSize = 1 << 20

// ParseSpec rebuilds a Graph from its canonical Spec string. Round-trip
// invariant: ParseSpec(g.Spec()).Spec() == g.Spec() for every Graph this
// package builds. Unknown families and malformed parameters are errors —
// a telemetry stream or distsim handshake carrying a spec this build
// cannot reproduce must fail loudly, not mislabel the data — and so is a
// non-positive dimension or a graph of more than maxSpecSize devices or
// links, checked before anything is allocated. The Graph is nil whenever
// the error is not.
func ParseSpec(spec string) (Graph, error) {
	family := spec
	rest := ""
	if i := strings.IndexByte(spec, ':'); i >= 0 {
		family, rest = spec[:i], spec[i+1:]
	}
	kv := map[string]int64{}
	if rest != "" {
		for _, f := range strings.Split(rest, ",") {
			eq := strings.IndexByte(f, '=')
			if eq <= 0 {
				return nil, fmt.Errorf("topo: malformed spec parameter %q in %q", f, spec)
			}
			v, err := strconv.ParseInt(f[eq+1:], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("topo: bad value in spec parameter %q: %v", f, err)
			}
			kv[f[:eq]] = v
		}
	}
	// need checks the parameter set and that every dimension (all but a
	// seed) lies in [1, maxSpecSize], which also keeps the size products
	// below inside int64.
	need := func(keys ...string) error {
		if len(kv) != len(keys) {
			return fmt.Errorf("topo: spec %q wants exactly parameters %v", spec, keys)
		}
		for _, k := range keys {
			v, ok := kv[k]
			if !ok {
				return fmt.Errorf("topo: spec %q missing parameter %q", spec, k)
			}
			if k != "seed" && (v < 1 || v > maxSpecSize) {
				return fmt.Errorf("topo: spec %q parameter %s=%d outside [1, %d]", spec, k, v, maxSpecSize)
			}
		}
		return nil
	}
	p := func(key string) int { return int(kv[key]) }
	var (
		err            error
		devices, links int64
		build          func() (Graph, error)
	)
	switch family {
	case "clos":
		err = need("k")
		k := kv["k"]
		devices, links = k*k/2+2*k, k*k*k/4+(k+3)/4*k*k
		build = func() (Graph, error) { return built(ClosForK(p("k"))) }
	case "clos1":
		err = need("fa", "up", "fe1")
		devices, links = kv["fa"]+kv["fe1"], kv["fa"]*kv["up"]
		build = func() (Graph, error) { return built(NewClos1(p("fa"), p("up"), p("fe1"))) }
	case "clos2":
		err = need("fa", "up", "fe1", "dn", "fe1up", "fe2")
		devices, links = kv["fa"]+kv["fe1"]+kv["fe2"], kv["fa"]*kv["up"]+kv["fe1"]*kv["fe1up"]
		build = func() (Graph, error) {
			return built(NewClos2(p("fa"), p("up"), p("fe1"), p("dn"), p("fe1up"), p("fe2")))
		}
	case "sshuffle":
		err = need("n", "s", "seed")
		devices, links = kv["n"], kv["n"]*kv["s"]
		build = func() (Graph, error) { return built(NewSpaceShuffle(p("n"), p("s"), kv["seed"])) }
	case "star":
		err = need("m", "d")
		devices, links = kv["m"]*(1+kv["d"]), kv["m"]*kv["d"]*3/2
		build = func() (Graph, error) { return built(NewStarReplaced(p("m"), p("d"))) }
	default:
		err = fmt.Errorf("topo: unknown topology family %q in spec %q", family, spec)
	}
	if err != nil {
		return nil, err
	}
	if devices > maxSpecSize || links > maxSpecSize {
		return nil, fmt.Errorf("topo: spec %q describes %d devices and %d links, above the limit of %d",
			spec, devices, links, maxSpecSize)
	}
	return build()
}

// built turns a constructor's (concrete graph, error) into (Graph, error)
// without wrapping a nil pointer in a non-nil interface.
func built[G Graph](g G, err error) (Graph, error) {
	if err != nil {
		return nil, err
	}
	return g, nil
}

// ValidateGraph checks the structural invariants every Graph must hold:
// ports in range and used at most once, edge indices well-formed, and —
// with all links up — a non-empty route (descend, or climb toward one)
// from every node to every edge device.
func ValidateGraph(g Graph) error {
	nn := g.NumNodes()
	links := g.GraphLinks()
	type portKey struct{ n, p int }
	seen := make(map[portKey]bool)
	check := func(n, p int) error {
		if n < 0 || n >= nn {
			return fmt.Errorf("topo: link endpoint node %d out of range [0,%d)", n, nn)
		}
		if ports := g.Node(n).Ports; p < 0 || p >= ports {
			return fmt.Errorf("topo: port %s:%d out of range [0,%d)", g.Node(n).Name, p, ports)
		}
		k := portKey{n, p}
		if seen[k] {
			return fmt.Errorf("topo: port %s:%d used twice", g.Node(n).Name, p)
		}
		seen[k] = true
		return nil
	}
	for _, lk := range links {
		if lk.A == lk.B {
			return fmt.Errorf("topo: self-link on node %d", lk.A)
		}
		if err := check(lk.A, lk.APort); err != nil {
			return err
		}
		if err := check(lk.B, lk.BPort); err != nil {
			return err
		}
	}
	edgeSeen := make(map[int]bool)
	for e := 0; e < g.NumEdge(); e++ {
		n := g.EdgeNode(e)
		if n < 0 || n >= nn {
			return fmt.Errorf("topo: edge %d maps to node %d out of range", e, n)
		}
		if edgeSeen[n] {
			return fmt.Errorf("topo: node %d is two edge devices", n)
		}
		edgeSeen[n] = true
	}
	up := make([]bool, len(links))
	for i := range up {
		up[i] = true
	}
	descend, climb := g.Routes(up)
	for n := 0; n < nn; n++ {
		for e := 0; e < g.NumEdge(); e++ {
			if n == g.EdgeNode(e) {
				continue
			}
			if len(descend[n][e]) == 0 && len(climb[n]) == 0 {
				return fmt.Errorf("topo: no route from %s to edge %d on the intact graph", g.Node(n).Name, e)
			}
			if !sort.IntsAreSorted(descend[n][e]) {
				return fmt.Errorf("topo: descend ports of %s toward edge %d not sorted", g.Node(n).Name, e)
			}
		}
	}
	return nil
}

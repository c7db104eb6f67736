package topo

import "fmt"

// NodeKind distinguishes the device classes in a Stardust fabric.
type NodeKind int

// Device classes.
const (
	KindFA  NodeKind = iota // Fabric Adapter (edge)
	KindFE1                 // Fabric Element, first (aggregation) tier
	KindFE2                 // Fabric Element, second (spine) tier
)

func (k NodeKind) String() string {
	switch k {
	case KindFA:
		return "FA"
	case KindFE1:
		return "FE1"
	case KindFE2:
		return "FE2"
	}
	return "?"
}

// NodeID identifies a device in a Clos instance.
type NodeID struct {
	Kind  NodeKind
	Index int
}

func (n NodeID) String() string { return fmt.Sprintf("%s%d", n.Kind, n.Index) }

// Link is one full-duplex serial link between two devices. Ports are local
// port numbers on each side.
type Link struct {
	A     NodeID
	APort int
	B     NodeID
	BPort int
}

// Clos describes a concrete 1- or 2-tier Stardust fabric instance: Fabric
// Adapters at the edge and Fabric Elements in the fabric, individually
// wired serial links (link bundle of one, per §3.1).
type Clos struct {
	Tiers     int
	NumFA     int
	FAUplinks int // links from each FA into tier 1
	NumFE1    int
	FE1Down   int // tier-1 links facing FAs
	FE1Up     int // tier-1 links facing tier 2 (0 in a 1-tier fabric)
	NumFE2    int
	FE2Down   int // tier-2 links facing tier 1
	Links     []Link

	// spec, when set by a sizing constructor (ClosForK), is the canonical
	// shorthand Spec(); otherwise Spec derives the full clos1/clos2 form.
	spec string
}

// NewClos1 builds a single-tier fabric: numFA Fabric Adapters, each with
// faUplinks links, spread round-robin over numFE1 Fabric Elements. Used for
// the §6.1.2 Arista-7500E-style system reproduction.
func NewClos1(numFA, faUplinks, numFE1 int) (*Clos, error) {
	if numFA <= 0 || faUplinks <= 0 || numFE1 <= 0 {
		return nil, fmt.Errorf("topo: all Clos1 parameters must be positive")
	}
	total := numFA * faUplinks
	if total%numFE1 != 0 {
		return nil, fmt.Errorf("topo: %d FA links do not divide evenly over %d FEs", total, numFE1)
	}
	c := &Clos{
		Tiers:     1,
		NumFA:     numFA,
		FAUplinks: faUplinks,
		NumFE1:    numFE1,
		FE1Down:   total / numFE1,
	}
	if faUplinks%numFE1 != 0 {
		return nil, fmt.Errorf("topo: FA uplinks (%d) must be a multiple of FE count (%d) so every FA reaches every FE", faUplinks, numFE1)
	}
	// FA i uplink j -> FE (j mod numFE1); every FA reaches every FE so any
	// FE can deliver to any destination FA.
	fePort := make([]int, numFE1)
	for i := 0; i < numFA; i++ {
		for j := 0; j < faUplinks; j++ {
			fe := j % numFE1
			c.Links = append(c.Links, Link{
				A: NodeID{KindFA, i}, APort: j,
				B: NodeID{KindFE1, fe}, BPort: fePort[fe],
			})
			fePort[fe]++
		}
	}
	return c, nil
}

// NewClos2 builds a two-tier fabric in the configuration style of §6.2:
// numFA adapters with faUplinks each, numFE1 first-tier elements with
// fe1Down links facing the adapters and fe1Up links facing numFE2 spine
// elements. Constraints:
//
//	numFA*faUplinks == numFE1*fe1Down   (tier-0/1 boundary)
//	numFE1*fe1Up    == numFE2*fe2Down   (tier-1/2 boundary)
//	faUplinks % numFE1-group == 0 so the wiring below is regular
//	fe1Up % numFE2 == 0 so every FE1 reaches every FE2
func NewClos2(numFA, faUplinks, numFE1, fe1Down, fe1Up, numFE2 int) (*Clos, error) {
	if numFA*faUplinks != numFE1*fe1Down {
		return nil, fmt.Errorf("topo: FA-FE1 boundary mismatch: %d != %d", numFA*faUplinks, numFE1*fe1Down)
	}
	if numFE2 <= 0 || fe1Up <= 0 {
		return nil, fmt.Errorf("topo: two-tier fabric needs spine elements")
	}
	fe2Down := numFE1 * fe1Up / numFE2
	if numFE1*fe1Up != numFE2*fe2Down {
		return nil, fmt.Errorf("topo: FE1-FE2 boundary mismatch")
	}
	if fe1Up%numFE2 != 0 {
		return nil, fmt.Errorf("topo: fe1Up (%d) must be a multiple of numFE2 (%d)", fe1Up, numFE2)
	}
	c := &Clos{
		Tiers:     2,
		NumFA:     numFA,
		FAUplinks: faUplinks,
		NumFE1:    numFE1,
		FE1Down:   fe1Down,
		FE1Up:     fe1Up,
		NumFE2:    numFE2,
		FE2Down:   fe2Down,
	}
	// Tier 0-1: global link g = i*faUplinks+j lands on FE1 (g mod numFE1).
	// Each FA connects to faUplinks distinct FE1s (requires faUplinks <=
	// numFE1 or wraparound onto extra ports, both handled).
	fe1Port := make([]int, numFE1)
	for i := 0; i < numFA; i++ {
		for j := 0; j < faUplinks; j++ {
			g := i*faUplinks + j
			fe := g % numFE1
			c.Links = append(c.Links, Link{
				A: NodeID{KindFA, i}, APort: j,
				B: NodeID{KindFE1, fe}, BPort: fe1Port[fe],
			})
			fe1Port[fe]++
		}
	}
	// Tier 1-2: FE1 f uplink u -> FE2 (u mod numFE2); each FE1 connects
	// fe1Up/numFE2 parallel links to every FE2.
	fe2Port := make([]int, numFE2)
	for f := 0; f < numFE1; f++ {
		for u := 0; u < fe1Up; u++ {
			s := u % numFE2
			c.Links = append(c.Links, Link{
				A: NodeID{KindFE1, f}, APort: fe1Down + u,
				B: NodeID{KindFE2, s}, BPort: fe2Port[s],
			})
			fe2Port[s]++
		}
	}
	return c, nil
}

// Fig9Clos returns the exact §6.2 simulation topology: 256 FAs with 32
// uplinks, 128 first-tier FEs (64 down + 64 up), 64 spine FEs with 128
// links.
func Fig9Clos() *Clos {
	c, err := NewClos2(256, 32, 128, 64, 64, 64)
	if err != nil {
		panic(err)
	}
	return c
}

// Validate checks structural invariants: port numbers in range and used at
// most once per device side.
func (c *Clos) Validate() error {
	type portKey struct {
		n NodeID
		p int
	}
	seen := make(map[portKey]bool)
	check := func(n NodeID, p int) error {
		k := portKey{n, p}
		if seen[k] {
			return fmt.Errorf("topo: port %v:%d used twice", n, p)
		}
		seen[k] = true
		var max int
		switch n.Kind {
		case KindFA:
			max = c.FAUplinks
		case KindFE1:
			max = c.FE1Down + c.FE1Up
		case KindFE2:
			max = c.FE2Down
		}
		if p < 0 || p >= max {
			return fmt.Errorf("topo: port %v:%d out of range [0,%d)", n, p, max)
		}
		return nil
	}
	for _, l := range c.Links {
		if err := check(l.A, l.APort); err != nil {
			return err
		}
		if err := check(l.B, l.BPort); err != nil {
			return err
		}
	}
	return nil
}

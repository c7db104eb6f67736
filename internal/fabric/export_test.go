package fabric

// The in-package switches, for the external tests that drive whole
// distsim models (arrivals_test.go cannot live in package fabric:
// distsim imports it).

// ForceArrivalEvents makes the fabrics built while it is on deliver every
// cell by an event (arrivalEvents), and returns the previous setting.
func ForceArrivalEvents(on bool) (was bool) {
	was, arrivalEvents = arrivalEvents, on
	return was
}

// HeldOn returns the counted cells directed link d keeps for settle.
func (n *Net) HeldOn(d int) int { return n.links[d].held.n }

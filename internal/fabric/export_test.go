package fabric

import "sync/atomic"

// The in-package switches, for the external tests that drive whole
// distsim models (arrivals_test.go cannot live in package fabric:
// distsim imports it).

// ForceArrivalEvents makes the fabrics built while it is on deliver every
// cell by an event (arrivalEvents), and returns the previous setting.
func ForceArrivalEvents(on bool) (was bool) {
	was, arrivalEvents = arrivalEvents, on
	return was
}

// TapInjectors counts every injector event of the fabrics run while it
// is on into events and, with oneCell, caps every train at one cell; the
// returned func turns it off.
func TapInjectors(oneCell bool, events *atomic.Uint64) (off func()) {
	injectorTap = func() bool {
		events.Add(1)
		return oneCell
	}
	return func() { injectorTap = nil }
}

// HeldOn returns the counted cells directed link d keeps for settle.
func (n *Net) HeldOn(d int) int { return n.links[d].held.n }

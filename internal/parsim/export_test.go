package parsim

// The in-package force field, for the external tests that drive whole
// fabric models (modes_test.go cannot live in package parsim: distsim
// imports it).
type ExecForce = execForce

const (
	ForceInline    = forceInline
	ForceFanOut    = forceFanOut
	ForceAlternate = forceAlternate
	EpochWindows   = epochWindows
)

func (e *Engine) Force(f ExecForce) { e.force = f }

//go:build race

package stardust_test

// raceEnabled reports that the race detector is instrumenting this build:
// its instrumentation allocates, so allocation counts of the packet paths
// mean nothing.
const raceEnabled = true

//go:build race

package stardust_test

// raceEnabled reports that the race detector is instrumenting this build:
// sync.Pool drops items at random under it, so allocation counts of the
// pooled packet paths mean nothing.
const raceEnabled = true
